"""Tests for catalog-aware shard placement: the consistent-hash routing
table, the ``MOVED`` redirect protocol, client-side direct routing, and the
sharded fleet's behaviour under reloads and worker restarts.

The socket-level tests reuse the deterministic idioms of the fleet suite:
worker deaths come from SIGKILL, reloads are driven directly through the
supervisor, and every distance answer is checked against the in-process
index so routing can never trade correctness for placement.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.api import DistanceIndex, IndexCatalog
from repro.generators.workloads import make_tree, random_pairs
from repro.serve import (
    FleetSupervisor,
    LabelClient,
    RestartPolicy,
    ServingCore,
    protocol,
)
from repro.serve.client import ServerMoved
from repro.obs.hist import Histogram
from repro.serve.metrics import merge_fleet_stats
from repro.serve.routing import (
    HashRing,
    build_routing_table,
    member_endpoint,
    table_endpoint,
    table_owners,
)

MEMBERS = ["acl", "backbone", "core", "dht"]


@pytest.fixture(scope="module")
def tree():
    return make_tree("random", 60, seed=5)


@pytest.fixture(scope="module")
def member_indexes(tree):
    return {name: DistanceIndex.build(tree, "freedman") for name in MEMBERS}


@pytest.fixture(scope="module")
def catalog_file(member_indexes, tmp_path_factory):
    catalog = IndexCatalog()
    for name, index in member_indexes.items():
        catalog.add(name, index)
    path = tmp_path_factory.mktemp("routing") / "forest.cat"
    catalog.save(path)
    return str(path)


# -- hash ring ----------------------------------------------------------------


def test_ring_assignment_is_stable_and_complete():
    members = [f"m{i:03d}" for i in range(40)]
    ring = HashRing([0, 1, 2])
    first = ring.assign(members)
    again = HashRing([0, 1, 2]).assign(members)
    assert first == again  # pure function of (members, slots, geometry)
    assert set(first) == set(members)
    assert all(len(owners) == 1 for owners in first.values())
    # assignment must not depend on the caller's member order
    shuffled = HashRing([0, 1, 2]).assign(list(reversed(members)))
    assert shuffled == first


def test_ring_bounded_load():
    members = [f"member-{i}" for i in range(200)]
    ring = HashRing([0, 1, 2, 3])
    assignment = ring.assign(members, load_factor=1.25)
    load = {slot: 0 for slot in ring.slots}
    for owners in assignment.values():
        load[owners[0]] += 1
    # capacity = ceil(200/4 * 1.25) = 63
    assert max(load.values()) <= 63
    assert min(load.values()) >= 1


def test_ring_churn_moves_a_minority_of_members():
    members = [f"m{i:03d}" for i in range(120)]
    before = HashRing([0, 1]).assign(members)
    after = HashRing([0, 1, 2]).assign(members)
    moved = sum(1 for name in members if before[name] != after[name])
    # consistent hashing: adding a slot relocates ~1/3; dict-ordering or
    # modulo placement would move ~1/2 to 2/3
    assert moved < len(members) // 2


def test_ring_replication_distinct_owners_and_cap():
    members = [f"m{i}" for i in range(30)]
    ring = HashRing([0, 1, 2])
    assignment = ring.assign(members, replication=2)
    for owners in assignment.values():
        assert len(owners) == 2
        assert len(set(owners)) == 2
    capped = ring.assign(members, replication=9)  # > slot count
    assert all(len(owners) == 3 for owners in capped.values())


def test_routing_table_shape_and_lookups():
    table = build_routing_table(
        ["a", "b", "c"],
        {0: ("127.0.0.1", 4100), 1: ("127.0.0.1", 4101)},
        version=7,
        replication=2,
        generation="freedman@deadbeef",
    )
    assert table["version"] == 7
    assert table["replication"] == 2
    assert table["generation"] == "freedman@deadbeef"
    assert set(table["members"]) == {"a", "b", "c"}
    assert set(table["slots"]) == {"0", "1"}  # string keys: JSON-stable
    for name in "abc":
        owners = table_owners(table, name)
        assert owners and all(slot in (0, 1) for slot in owners)
        assert member_endpoint(table, name) == table_endpoint(table, owners[0])
    assert table_owners(table, "missing") == []
    assert member_endpoint(table, "missing") is None
    assert table_endpoint(table, 9) is None


# -- protocol: MOVED frame and the tagged request suffix ----------------------


def test_moved_frame_round_trip():
    frame = protocol.encode_moved(42, 3, "backbone", "10.0.0.7", 4117)
    decoder = protocol.FrameDecoder()
    decoder.feed(frame)
    (body,) = decoder.frames()
    op, request_id, payload = protocol.decode_response(body)
    assert op == protocol.OP_MOVED
    assert request_id == 42
    assert payload == (3, "backbone", "10.0.0.7", 4117)


def test_unsuffixed_requests_stay_byte_identical():
    from repro.encoding.varint import encode_uvarint as uvarint

    name = "m".encode("utf-8")
    legacy_body = (
        bytes([protocol.OP_QUERY]) + uvarint(7) + uvarint(len(name)) + name
        + uvarint(3) + uvarint(42)
    )
    legacy = uvarint(len(legacy_body)) + legacy_body
    assert protocol.encode_query(7, 3, 42, "m") == legacy
    # suffix fields append in ascending tag order after the payload
    stamped = protocol.encode_query(7, 3, 42, "m", trace_id=5, route_version=2)
    decoder = protocol.FrameDecoder()
    decoder.feed(stamped)
    (body,) = decoder.frames()
    assert body == legacy_body + b"\x01" + uvarint(5) + b"\x02" + uvarint(2)
    assert protocol.decode_request(body) == (
        protocol.OP_QUERY, 7, "m", (3, 42), 5, 2,
    )


# -- in-process ownership / redirect ------------------------------------------


class _FakeConnection:
    """Collects the frames a :class:`ServingCore` sends."""

    closed = False

    def __init__(self) -> None:
        self._decoder = protocol.FrameDecoder()

    def send(self, data: bytes) -> None:
        self._decoder.feed(data)

    def responses(self) -> list[tuple]:
        return [protocol.decode_response(body) for body in self._decoder.frames()]


def _request_body(frame: bytes) -> bytes:
    decoder = protocol.FrameDecoder()
    decoder.feed(frame)
    return decoder.frames()[0]


def _sharded_core(catalog_file, slot, table, **kwargs):
    return ServingCore(
        IndexCatalog.load(catalog_file), slot=slot, routing_table=table, **kwargs
    )


def _two_slot_table(version=1):
    # deterministic placement for the in-process tests: slot 0 owns the
    # first two members, slot 1 the rest
    return {
        "version": version,
        "replication": 1,
        "generation": None,
        "members": {name: [0 if name in MEMBERS[:2] else 1] for name in MEMBERS},
        "slots": {"0": ["127.0.0.1", 4100], "1": ["127.0.0.1", 4101]},
    }


def test_core_derives_assignment_from_table(catalog_file):
    table = _two_slot_table()
    core = _sharded_core(catalog_file, 1, table)
    assert core.routing_version == 1
    assert not core.owns(MEMBERS[0])
    assert core.owns(MEMBERS[2]) and core.owns(MEMBERS[3])
    stats = core.stats()
    assert stats["members_assigned"] == sorted(MEMBERS[2:])
    assert stats["members_open"] == []  # nothing opened yet
    assert core.info()["routing"] == table


def test_routed_request_for_unowned_member_gets_moved(catalog_file, member_indexes):
    import asyncio

    async def main():
        table = _two_slot_table(version=3)
        core = _sharded_core(catalog_file, 1, table)
        connection = _FakeConnection()
        # routed (stamped) request for a member slot 1 does not own
        core.handle_request(
            connection,
            _request_body(protocol.encode_query(9, 1, 2, MEMBERS[0], route_version=1)),
        )
        ((op, request_id, payload),) = connection.responses()
        assert op == protocol.OP_MOVED
        assert request_id == 9
        assert payload == (3, MEMBERS[0], "127.0.0.1", 4100)
        assert core.moved_redirects == 1
        assert core.misroutes == 0
        # owned member: the stamped request is answered normally
        core.handle_request(
            connection,
            _request_body(protocol.encode_query(10, 1, 2, MEMBERS[2], route_version=3)),
        )
        await asyncio.sleep(0)  # coalescer flush
        (answer,) = connection.responses()
        assert answer[0] == protocol.OP_RESULT
        kind, _, values = answer[2]
        assert values[0] == member_indexes[MEMBERS[2]].query(1, 2, raw=True)
        assert core.stats()["members_open"] == [MEMBERS[2]]

    asyncio.run(main())


def test_legacy_request_for_unowned_member_served_in_place(
    catalog_file, member_indexes
):
    import asyncio

    async def main():
        core = _sharded_core(catalog_file, 1, _two_slot_table())
        connection = _FakeConnection()
        # no route suffix: an old client — must get the right answer here
        core.handle_request(
            connection, _request_body(protocol.encode_query(11, 3, 4, MEMBERS[0]))
        )
        await asyncio.sleep(0)
        (answer,) = connection.responses()
        assert answer[0] == protocol.OP_RESULT
        assert answer[2][2][0] == member_indexes[MEMBERS[0]].query(3, 4, raw=True)
        assert core.misroutes == 1
        assert core.moved_redirects == 0

    asyncio.run(main())


# -- satellite: lazily opened member that fails to open -----------------------


def test_truncated_member_is_request_scoped_error(tree, tmp_path):
    catalog = IndexCatalog()
    catalog.add("good", DistanceIndex.build(tree, "freedman"))
    catalog.add("bad", DistanceIndex.build(tree, "alstrup"))
    path = tmp_path / "torn.cat"
    catalog.save(path)
    # open while intact (TOC parses), then tear off the tail: the *last*
    # member's blob is now short and fails at first lazy access
    opened = IndexCatalog.load(path)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 64)

    import asyncio

    async def main():
        core = ServingCore(opened)
        connection = _FakeConnection()
        core.handle_request(
            connection, _request_body(protocol.encode_query(1, 0, 1, "bad"))
        )
        await asyncio.sleep(0)
        ((op, _, message),) = connection.responses()
        assert op == protocol.OP_ERROR
        assert "bad" in message and "failed to open" in message
        assert not connection.closed  # request-scoped, not connection-killing
        # the same connection keeps serving the intact member
        core.handle_request(
            connection, _request_body(protocol.encode_query(2, 0, 1, "good"))
        )
        await asyncio.sleep(0)
        (answer,) = connection.responses()
        assert answer[0] == protocol.OP_RESULT
        assert core.errors == 1

    asyncio.run(main())


# -- stale-table client: bounded redirects ------------------------------------


def test_stale_table_pipeline_converges_with_one_redirect(tree, catalog_file):
    """A client whose cached table predates a placement change completes a
    pipelined batch with exactly one MOVED redirect for the member (the
    whole window re-runs on the corrected endpoint)."""
    import asyncio

    from repro.serve.server import LabelServer

    index = DistanceIndex.build(tree, "freedman")
    pairs = random_pairs(tree, 64, seed=9)
    expected = index.batch(pairs, raw=True)
    target = MEMBERS[0]

    async def main():
        owner = LabelServer(IndexCatalog.load(catalog_file), slot=1)
        other = LabelServer(IndexCatalog.load(catalog_file), slot=0)
        host0, port0 = await other.start("127.0.0.1", 0)
        host1, port1 = await owner.start("127.0.0.1", 0)
        # authoritative table v2: every member owned by slot 1
        fresh = {
            "version": 2,
            "replication": 1,
            "generation": None,
            "members": {name: [1] for name in MEMBERS},
            "slots": {"0": [host0, port0], "1": [host1, port1]},
        }
        owner.set_routing(fresh)
        other.set_routing(fresh)
        # the client believes stale v1: target lives on slot 0
        stale = {
            "version": 1,
            "replication": 1,
            "generation": None,
            "members": {name: [0] for name in MEMBERS},
            "slots": {"0": [host0, port0], "1": [host1, port1]},
        }
        try:
            return await asyncio.to_thread(run_client, host0, port0, stale)
        finally:
            await owner.stop()
            await other.stop()

    def run_client(host, port, stale):
        with LabelClient(host, port, route=True) as client:
            core = client._core  # the blocking client's one AsyncLabelClient
            core._route_table = stale
            core._route_checked = True
            core._route_stamp = 1
            answers = client.pipeline(pairs, name=target, raw=True, window=16)
            assert answers == expected
            assert client.route_redirects == 1  # exactly one MOVED absorbed
            # the hint is remembered: a second batch goes direct
            assert client.batch(pairs[:8], name=target, raw=True) == expected[:8]
            assert client.route_redirects == 1
            assert core._route_stamp == 2  # advanced to the server's version

    asyncio.run(main())


def test_routed_query_retries_a_failed_leaf_connect(tree, catalog_file):
    """A connect to the owner's slot that is reset (as while a reload
    replaces the slot's worker) is retried under ``reconnect_retries``, and
    the routed query still answers, from the owner."""
    import asyncio

    from repro.serve.client import AsyncLabelClient
    from repro.serve.server import LabelServer

    index = DistanceIndex.build(tree, "freedman")
    target = MEMBERS[0]

    async def main():
        shared = LabelServer(IndexCatalog.load(catalog_file), slot=0)
        owner = LabelServer(IndexCatalog.load(catalog_file), slot=1)
        host0, port0 = await shared.start("127.0.0.1", 0)
        host1, port1 = await owner.start("127.0.0.1", 0)
        table = {
            "version": 1,
            "replication": 1,
            "generation": None,
            "members": {name: [1] for name in MEMBERS},
            "slots": {"0": [host0, port0], "1": [host1, port1]},
        }
        shared.set_routing(table)
        owner.set_routing(table)
        client = await AsyncLabelClient.connect(host0, port0, route=True)
        make_leaf = client._make_leaf
        attempts = []

        async def reset_once(host, port):
            attempts.append(port)
            if len(attempts) == 1:
                raise ConnectionResetError(104, f"Connect call failed ('{host}', {port})")
            return await make_leaf(host, port)

        client._make_leaf = reset_once
        try:
            answer = await client.query(3, 42, name=target, raw=True)
            served = owner.stats()["queries"]
        finally:
            await client.close()
            await owner.stop()
            await shared.stop()
        return answer, attempts, port1, served

    answer, attempts, owner_port, served = asyncio.run(main())
    assert answer == index.query(3, 42, raw=True)
    assert attempts == [owner_port, owner_port]  # one reset, one retry
    assert served == 1


def test_moved_exception_carries_the_hint():
    moved = ServerMoved(4, "acl", "10.1.2.3", 4117)
    assert (moved.version, moved.member, moved.host, moved.port) == (
        4, "acl", "10.1.2.3", 4117,
    )
    assert "acl" in str(moved)


# -- fleet end-to-end ---------------------------------------------------------


def _sharded_supervisor(catalog_file, workers=2, **kwargs):
    return FleetSupervisor(
        catalog_file,
        workers=workers,
        port=0,
        shard_members=True,
        restart_policy=RestartPolicy(base_delay=0.02, max_delay=0.1),
        **kwargs,
    )


def _slot_stats(host, port, probes=8):
    """One STATS payload per distinct slot, via held-open probe connections."""
    clients, rows = [], {}
    try:
        for _ in range(probes):
            client = LabelClient(host, port)
            clients.append(client)
            stats = client.stats(detail=True)
            rows[stats.get("slot", 0)] = stats
    finally:
        for client in clients:
            client.close()
    return rows


def test_sharded_fleet_routes_and_stays_correct(
    catalog_file, member_indexes, tree
):
    supervisor = _sharded_supervisor(catalog_file)
    host, port = supervisor.start()
    pairs = random_pairs(tree, 40, seed=13)
    expected = {
        name: index.batch(pairs, raw=True) for name, index in member_indexes.items()
    }
    try:
        table = supervisor.routing_table
        assert table is not None and table["version"] == 1
        assert set(table["members"]) == set(MEMBERS)
        assert all(owners for owners in table["members"].values())
        # the direct ports exist and differ from the shared address
        endpoints = {table_endpoint(table, slot) for slot in (0, 1)}
        assert len(endpoints) == 2
        assert all(endpoint[1] not in (0, port) for endpoint in endpoints)

        # routed client: every member answered correctly with zero redirects
        with LabelClient(host, port, route=True) as routed:
            assert routed.routing_table()["version"] == 1
            for name in MEMBERS:
                assert routed.batch(pairs, name=name, raw=True) == expected[name]
                assert routed.query(*pairs[0], name=name, raw=True) == (
                    expected[name][0]
                )
            assert routed.route_redirects == 0
            rows = routed.stats_all(detail=True)
        merged = merge_fleet_stats(rows)
        assert merged.get("moved_redirects", 0) == 0
        assert merged.get("misroutes", 0) == 0
        assert merged["routing_version"] == 1

        # each worker opened only members it was assigned
        for stats in _slot_stats(host, port).values():
            assigned = set(stats["members_assigned"])
            assert set(stats["members_open"]) <= assigned
            assert assigned == {
                name
                for name, owners in table["members"].items()
                if stats["slot"] in owners
            }

        # legacy (un-routed) client through the shared port: byte-identical
        # answers for every member regardless of placement
        with LabelClient(host, port) as legacy:
            for name in MEMBERS:
                assert legacy.batch(pairs, name=name, raw=True) == expected[name]

        status = supervisor.fleet_status()
        assert status["routing"]["version"] == 1
        placement = {
            int(slot): set(row["members"])
            for slot, row in status["routing"]["slots"].items()
        }
        assert set().union(*placement.values()) == set(MEMBERS)
    finally:
        supervisor.shutdown()


def test_reload_bumps_version_and_keeps_members_owned(catalog_file, tree):
    supervisor = _sharded_supervisor(catalog_file)
    host, port = supervisor.start()
    pairs = random_pairs(tree, 24, seed=17)
    try:
        versions = [supervisor.routing_version]
        failures: list[Exception] = []
        done = threading.Event()

        def hammer():
            # a stale routed client keeps querying every member while the
            # fleet rolls: every member must stay owned by a live slot
            try:
                with LabelClient(host, port, route=True) as client:
                    while not done.is_set():
                        for name in MEMBERS:
                            client.batch(pairs[:8], name=name, raw=True)
            except Exception as error:  # pragma: no cover - fails the test
                failures.append(error)

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        for _ in range(2):
            supervisor.reload()
            versions.append(supervisor.routing_version)
        done.set()
        thread.join(timeout=10)
        assert not failures
        assert versions == sorted(set(versions))  # strictly increasing
        assert versions[-1] == 3
        table = supervisor.routing_table
        assert table["version"] == 3
        assert set(table["members"]) == set(MEMBERS)
        # workers converged on the new table
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            rows = _slot_stats(host, port)
            if all(row.get("routing_version") == 3 for row in rows.values()):
                break
            time.sleep(0.05)
        assert all(row.get("routing_version") == 3 for row in rows.values())
    finally:
        supervisor.shutdown()


def test_placement_stable_across_worker_restart(catalog_file):
    supervisor = _sharded_supervisor(catalog_file)
    host, port = supervisor.start()
    stop = threading.Event()
    loop = threading.Thread(
        target=supervisor.supervise,
        kwargs={"stop_check": stop.is_set, "interval": 0.02},
        daemon=True,
    )
    loop.start()
    try:
        table_before = supervisor.routing_table
        victim_slot = 0
        victim = supervisor.pids[victim_slot]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if supervisor.total_restarts == 1 and supervisor.poll():
                break
            time.sleep(0.02)
        assert supervisor.total_restarts == 1 and supervisor.poll()
        # same table object, same version, same direct endpoints: placement
        # is a function of slots, not of worker incarnations
        assert supervisor.routing_table is table_before
        assert supervisor.routing_version == 1
        # the replacement re-binds the same direct port and owns the same
        # members; poll until its stats answer on the shared address
        expected_assigned = {
            name
            for name, owners in table_before["members"].items()
            if victim_slot in owners
        }
        deadline = time.monotonic() + 10
        fresh = None
        while time.monotonic() < deadline:
            rows = _slot_stats(host, port)
            fresh = rows.get(victim_slot)
            if fresh is not None and fresh.get("restarts") == 1:
                break
            time.sleep(0.05)
        assert fresh is not None and fresh["restarts"] == 1
        assert set(fresh["members_assigned"]) == expected_assigned
        with LabelClient(host, port, route=True) as client:
            assert client.routing_table()["version"] == 1
            for name in sorted(expected_assigned):
                client.query(0, 1, name=name)
            assert client.route_redirects == 0
    finally:
        stop.set()
        loop.join(timeout=10)
        supervisor.shutdown()


def test_shard_members_requires_reuse_port(catalog_file):
    supervisor = FleetSupervisor(
        catalog_file, workers=2, port=0, shard_members=True
    )
    supervisor.reuse_port = False  # simulate a platform without SO_REUSEPORT
    try:
        with pytest.raises(RuntimeError, match="SO_REUSEPORT"):
            supervisor.start()
    finally:
        supervisor.shutdown()


# -- satellite: (slot, pid) stats dedupe --------------------------------------


def _stats_row(slot, pid, queries=10):
    return {
        "slot": slot,
        "worker": pid,
        "queries": queries,
        "qps": 1.0,
        "uptime_seconds": 1.0,
        "latency_ms": {
            "p50": 0.0,
            "p99": 0.0,
            "samples": 0,
            "histogram": Histogram().to_dict(),
        },
    }


def test_merge_dedupes_by_slot_and_pid():
    rows = [
        _stats_row(0, 100, queries=5),
        _stats_row(0, 100, queries=7),  # same incarnation, later snapshot
        _stats_row(0, 200, queries=3),  # slot 0 was restarted mid-run
        _stats_row(1, 300, queries=2),
    ]
    merged = merge_fleet_stats(rows)
    assert merged["workers"] == 3  # distinct (slot, pid) incarnations
    assert merged["slots"] == 2
    assert merged["restarts_observed"] == 1
    assert merged["queries"] == 7 + 3 + 2  # dead incarnation still counted


def test_merge_same_pid_on_two_slots_is_not_conflated():
    # pid reuse across slots (possible after heavy restarting): the old
    # pid-keyed dedupe collapsed these into one row
    merged = merge_fleet_stats([_stats_row(0, 400), _stats_row(1, 400)])
    assert merged["workers"] == 2
    assert merged["slots"] == 2
    assert merged["restarts_observed"] == 0


def test_merge_routing_version_is_max():
    rows = [_stats_row(0, 1), _stats_row(1, 2)]
    rows[0]["routing_version"] = 2
    rows[1]["routing_version"] = 3  # mid-reload: one worker already ahead
    assert merge_fleet_stats(rows)["routing_version"] == 3


def test_member_pair_counts_split():
    from repro.serve.loadgen import member_pair_counts

    assert member_pair_counts(100, 4, 0.0) == [25, 25, 25, 25]
    skewed = member_pair_counts(100, 4, 1.0)
    assert sum(skewed) == 100
    assert skewed[0] > skewed[-1]  # rank-1 member gets the most traffic
    with pytest.raises(ValueError):
        member_pair_counts(10, 0, 1.0)
