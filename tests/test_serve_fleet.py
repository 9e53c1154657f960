"""Tests for the self-healing fleet: restart-on-crash supervision, rolling
drain-and-replace reloads, the fault-injection harness and the clients'
reconnect-on-EOF behaviour.

Everything here is deterministic: worker deaths come from SIGKILL or from
injected ``REPRO_FAULTS`` clauses (inherited by forked workers through the
environment), never from timing luck.  Crash faults are only ever enabled
for *forked* workers — an in-process ``os._exit`` would take pytest with
it — while the ``stall`` kind is exercised in-process.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.api import DistanceIndex
from repro.generators.workloads import make_tree, random_pairs
from repro.serve import (
    FleetCrashLoop,
    FleetSupervisor,
    LabelClient,
    RestartPolicy,
    ServingCore,
    protocol,
    store_generation,
)
from repro.serve.faults import (
    CRASH_EXIT_CODE,
    FaultSpecError,
    parse_faults,
    plan_for,
)
from repro.obs.hist import Histogram
from repro.serve.metrics import merge_fleet_stats
from repro.serve.retry import backoff_delay


@pytest.fixture(scope="module")
def tree():
    return make_tree("random", 120, seed=11)


@pytest.fixture(scope="module")
def index(tree):
    return DistanceIndex.build(tree, "freedman")


@pytest.fixture(scope="module")
def store_file(tree, tmp_path_factory):
    path = tmp_path_factory.mktemp("selfheal") / "store_a.bin"
    DistanceIndex.build(tree, "freedman").save(path)
    return str(path)


@pytest.fixture(scope="module")
def store_file_b(tree, tmp_path_factory):
    """The same tree under a different exact scheme: identical answers,
    different bytes — a rolling reload must flip the generation without
    changing a single response."""
    path = tmp_path_factory.mktemp("selfheal") / "store_b.bin"
    DistanceIndex.build(tree, "alstrup").save(path)
    return str(path)


# -- retry / restart policy ----------------------------------------------------


def test_backoff_delay_grows_and_caps():
    lows = [backoff_delay(attempt, 0, base_delay=0.01, max_delay=0.1) for attempt in range(1, 12)]
    assert all(delay > 0 for delay in lows)
    # cap: even with huge attempts the pre-jitter delay is max_delay
    assert max(lows) <= 0.1 * 1.5 + 1e-9


def test_restart_policy_crash_loop_threshold():
    policy = RestartPolicy(max_restarts=3, window_seconds=10.0)
    assert not policy.is_crash_loop(3)
    assert policy.is_crash_loop(4)
    assert policy.describe() == {"max_restarts": 3, "window_seconds": 10.0}
    with pytest.raises(ValueError):
        RestartPolicy(max_restarts=0)
    with pytest.raises(ValueError):
        RestartPolicy(window_seconds=0)


# -- fault spec parsing --------------------------------------------------------


def test_parse_faults_clauses():
    clauses = parse_faults("crash:p=0.25:at=accept:slot=2,stall:ms=50,exit:after=250:code=9")
    crash, stall, exit_clause = clauses
    assert (crash.kind, crash.p, crash.at, crash.slot) == ("crash", 0.25, "accept", 2)
    assert crash.code == CRASH_EXIT_CODE
    assert (stall.kind, stall.ms, stall.at, stall.slot) == ("stall", 50.0, "dispatch", None)
    assert (exit_clause.kind, exit_clause.after_ms, exit_clause.code) == ("exit", 250.0, 9)
    assert parse_faults("") == []


@pytest.mark.parametrize(
    "spec",
    [
        "explode",  # unknown kind
        "crash:p=2",  # probability out of range
        "crash:at=nowhere",  # unknown point
        "crash:frequency=2",  # unknown parameter
        "crash:p",  # not key=value
    ],
)
def test_parse_faults_rejects_bad_specs(spec):
    with pytest.raises(FaultSpecError):
        parse_faults(spec)


def test_plan_for_filters_slots(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "stall:ms=1:slot=3,exit:after=9:slot=1")
    assert plan_for(0) is None  # every clause scoped to another slot
    plan = plan_for(3)
    assert [clause.kind for clause in plan.clauses] == ["stall"]
    exit_plan = plan_for(1)
    assert exit_plan.exit_clause().after_ms == 9.0
    monkeypatch.delenv("REPRO_FAULTS")
    assert plan_for(0) is None


def test_stall_fault_delays_dispatch_in_process(monkeypatch, index):
    """The ``stall`` kind is safe in-process: dispatch blocks for ``ms``."""
    monkeypatch.setenv("REPRO_FAULTS", "stall:ms=40")
    core = ServingCore(index)
    frames: list[bytes] = []

    class Conn:
        def send(self, data):
            frames.append(data)

    decoder = protocol.FrameDecoder()
    decoder.feed(protocol.encode_info(1))
    (body,) = decoder.frames()
    started = time.perf_counter()
    core.handle_request(Conn(), body)
    assert time.perf_counter() - started >= 0.035
    assert frames  # the request was still answered after the stall


# -- store generation ----------------------------------------------------------


def test_store_generation_tracks_content(store_file, store_file_b, tmp_path):
    gen_a = store_generation(store_file)
    assert gen_a == store_generation(store_file)  # deterministic
    assert gen_a["bytes"] == os.path.getsize(store_file)
    gen_b = store_generation(store_file_b)
    assert gen_a["generation"] != gen_b["generation"]
    # a byte-identical copy under another path shares the generation hash
    copy = tmp_path / "copy.bin"
    copy.write_bytes(open(store_file, "rb").read())
    assert store_generation(str(copy))["generation"] == gen_a["generation"]


# -- stats merging with heterogeneous payloads ---------------------------------


def _stats_payload(worker, *, queries=0, latencies=(), slot=0, restarts=0, **extra):
    """A detailed-STATS-shaped payload; ``latencies`` holds ``(ms, count)``."""
    hist = Histogram()
    for ms, count in latencies:
        hist.observe_many(ms, count)
    payload = {
        "worker": worker,
        "slot": slot,
        "restarts": restarts,
        "queries": queries,
        "flushes": queries,
        "coalesced_queries": queries,
        "uptime_seconds": extra.pop("uptime_seconds", 5.0),
        "qps": extra.pop("qps", 0.0),
        "latency_ms": {
            "p50": hist.percentile(0.5),
            "p99": hist.percentile(0.99),
            "samples": hist.total,
            "histogram": hist.to_dict(),
        },
    }
    payload.update(extra)
    return payload


def test_merge_fleet_stats_heterogeneous_histograms():
    """A restarted worker (few samples) and a just-born worker (empty
    payload, no histogram at all) must merge without skewing percentiles."""
    veteran = _stats_payload(100, queries=900, latencies=[(1.0, 90)], slot=0)
    restarted = _stats_payload(
        200, queries=10, latencies=[(9.0, 3)], slot=1, restarts=2
    )
    newborn = {"worker": 300, "slot": 2, "restarts": 1}  # no latency block at all
    merged = merge_fleet_stats([veteran, restarted, newborn])
    assert merged["workers"] == 3
    assert merged["queries"] == 910
    assert merged["restarts"] == 3  # summed across one snapshot per slot
    assert merged["latency_ms"]["samples"] == 93
    # nearest rank over the merged buckets: the three 9ms samples live in
    # the tail, so p50 stays in the veteran's 1ms bucket — never an average
    # of p50s — and p99 lands in the restarted worker's 9ms bucket
    assert merged["latency_ms"]["p50"] == veteran["latency_ms"]["p50"]
    assert merged["latency_ms"]["p99"] == restarted["latency_ms"]["p99"]
    rows = {row["slot"]: row for row in merged["per_worker"]}
    assert rows[1]["restarts"] == 2
    assert rows[2]["restarts"] == 1
    assert rows[0]["uptime_seconds"] == 5.0


def test_merge_fleet_stats_folds_index_caches():
    """Cache counters and native arena sizes add across workers."""

    def index(hits, misses, arena):
        cache = {
            "hits": hits,
            "misses": misses,
            "hit_rate": 0.0,
            "size": misses,
            "max_size": 4096,
            "backend": "python" if arena is None else "native",
            "arena": arena,
        }
        return {"open": True, "spec": "freedman", "cache": cache}

    merged = merge_fleet_stats(
        [
            _stats_payload(1, index=index(3, 1, {"bytes": 100, "decodes": 1})),
            _stats_payload(2, index=index(5, 3, {"bytes": 300, "decodes": 4})),
        ]
    )
    cache = merged["index"]["cache"]
    assert (cache["hits"], cache["misses"], cache["size"]) == (8, 4, 4)
    assert cache["hit_rate"] == merged["index"]["cache_hit_rate"] == round(8 / 12, 4)
    assert cache["arena"] == {"bytes": 400, "decodes": 5}
    python_tier = merge_fleet_stats([_stats_payload(1, index=index(1, 1, None))])
    assert python_tier["index"]["cache"]["arena"] is None


def test_merge_fleet_stats_generation_visibility():
    same = [
        _stats_payload(1, store_generation="aaaa"),
        _stats_payload(2, store_generation="aaaa"),
    ]
    assert merge_fleet_stats(same)["store_generation"] == "aaaa"
    mixed = [
        _stats_payload(1, store_generation="aaaa"),
        _stats_payload(2, store_generation="bbbb"),
    ]
    assert merge_fleet_stats(mixed)["store_generation"] == "aaaa,bbbb"
    assert "store_generation" not in merge_fleet_stats([_stats_payload(1)])


def test_merge_dedupes_by_slot_and_pid():
    rows = [
        _stats_payload(100, slot=0, queries=5),
        _stats_payload(100, slot=0, queries=7),  # same incarnation, later snapshot
        _stats_payload(200, slot=0, queries=3),  # slot 0 was restarted mid-run
        _stats_payload(300, slot=1, queries=2),
    ]
    merged = merge_fleet_stats(rows)
    assert merged["workers"] == 3  # distinct (slot, pid) incarnations
    assert merged["slots"] == 2
    assert merged["restarts_observed"] == 1
    assert merged["queries"] == 7 + 3 + 2  # dead incarnation still counted


def test_merge_same_pid_on_two_slots_is_not_conflated():
    # pid reuse across slots (possible after heavy restarting): a pid-keyed
    # dedupe would collapse these into one row
    merged = merge_fleet_stats([_stats_payload(400, slot=0), _stats_payload(400, slot=1)])
    assert merged["workers"] == 2
    assert merged["slots"] == 2
    assert merged["restarts_observed"] == 0


def test_member_pair_counts_split():
    from repro.serve.loadgen import member_pair_counts

    assert member_pair_counts(100, 4, 0.0) == [25, 25, 25, 25]
    skewed = member_pair_counts(100, 4, 1.0)
    assert sum(skewed) == 100
    assert skewed[0] > skewed[-1]  # rank-1 member gets the most traffic
    with pytest.raises(ValueError):
        member_pair_counts(10, 0, 1.0)


# -- supervision: restart-on-crash ---------------------------------------------


def _probe_merged_stats(host, port, probes=8):
    payloads = []
    clients = [LabelClient(host, port) for _ in range(probes)]
    try:
        for client in clients:
            payloads.append(client.stats(detail=True))
    finally:
        for client in clients:
            client.close()
    return merge_fleet_stats(payloads)


def test_supervisor_restarts_sigkilled_worker(store_file, tree, index):
    """Scenario (a): SIGKILL the exact worker a client is attached to; the
    supervisor re-forks it, the client reconnects, and not one request
    fails.  The restart is visible in merged fleet STATS."""
    supervisor = FleetSupervisor(
        store_file,
        workers=2,
        port=0,
        restart_policy=RestartPolicy(base_delay=0.02, max_delay=0.1),
    )
    host, port = supervisor.start()
    stop = threading.Event()
    loop = threading.Thread(
        target=supervisor.supervise,
        kwargs={"stop_check": stop.is_set, "interval": 0.02},
        daemon=True,
    )
    loop.start()
    pairs = random_pairs(tree, 150, seed=31)
    expected = index.batch(pairs, raw=True)
    try:
        with LabelClient(host, port) as client:
            victim = client.stats()["worker"]
            assert victim in supervisor.pids
            os.kill(victim, signal.SIGKILL)
            # every request still converges: the client reconnects (to the
            # sibling or to the replacement) and retries
            assert client.pipeline(pairs, raw=True, window=32) == expected
            assert client.query(*pairs[0], raw=True) == expected[0]
            assert client.reconnects >= 1
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if supervisor.total_restarts == 1 and supervisor.poll():
                break
            time.sleep(0.02)
        assert supervisor.total_restarts == 1
        assert supervisor.poll()  # both slots alive again
        assert victim not in supervisor.pids
        # the restart shows up in worker-reported STATS once a probe lands
        # on the replacement; 8 probes across 2 workers make that certain
        # enough to poll for
        deadline = time.monotonic() + 10
        merged = None
        while time.monotonic() < deadline:
            merged = _probe_merged_stats(host, port)
            if merged.get("restarts") == 1:
                break
            time.sleep(0.05)
        assert merged["restarts"] == 1
        status = supervisor.fleet_status()
        assert status["restarts"] == 1
        (restarted,) = [row for row in status["slots"] if row["restarts"] == 1]
        assert restarted["alive"] and restarted["last_exit_code"] is not None
    finally:
        stop.set()
        loop.join(timeout=10)
        fleet = supervisor.shutdown()
    assert fleet["restarts"] == 1
    assert not supervisor.poll()


def test_supervisor_gives_up_on_crash_loop(store_file, monkeypatch):
    """Scenario (b): a worker that deterministically dies after becoming
    ready exhausts the restart budget; the supervisor tears the fleet down
    and raises instead of flapping forever."""
    monkeypatch.setenv("REPRO_FAULTS", "exit:after=40")
    supervisor = FleetSupervisor(
        store_file,
        workers=1,
        port=0,
        restart_policy=RestartPolicy(
            max_restarts=2, window_seconds=30.0, base_delay=0.01, max_delay=0.05
        ),
    )
    supervisor.start()
    started = time.monotonic()
    with pytest.raises(FleetCrashLoop) as caught:
        supervisor.supervise(interval=0.02)
    assert time.monotonic() - started < 20
    crash_loop = caught.value
    assert crash_loop.diagnostic["slot"] == 0
    assert crash_loop.diagnostic["deaths_in_window"] == 3  # budget of 2 + 1
    assert set(crash_loop.diagnostic["exit_codes"]) == {CRASH_EXIT_CODE}
    assert "crash-looped" in str(crash_loop)
    # controlled teardown already happened inside supervise()
    assert not supervisor.poll()
    assert supervisor.pids == []
    assert supervisor.total_restarts == 2


def test_start_failure_names_the_slot_that_died(store_file, monkeypatch):
    """Satellite regression: with three workers starting and only slot 1
    crashing before its handshake, the error must blame slot 1 — not
    whichever sibling a shared deadline happened to be polling — and the
    already-ready siblings must be torn down, not leaked."""
    monkeypatch.setenv("REPRO_FAULTS", "crash:at=start:slot=1")
    supervisor = FleetSupervisor(store_file, workers=3, port=0)
    with pytest.raises(RuntimeError, match=r"slot 1 .*died before becoming ready"):
        supervisor.start()
    assert supervisor.pids == []
    assert not supervisor.poll()


def test_injected_dispatch_crash_is_healed(store_file, tree, index, monkeypatch):
    """A fault-injected crash on the Nth dispatch (the REPRO_FAULTS harness
    end to end): the worker dies mid-conversation, the supervisor re-forks
    it, and the client's answers stay correct throughout."""
    monkeypatch.setenv("REPRO_FAULTS", "crash:p=1:at=accept:slot=0")
    # slot 0 dies whenever a connection reaches it; slot 1 is healthy.  The
    # client retries until the kernel lands it on slot 1, while the
    # supervisor keeps re-forking slot 0 — both sides of self-healing at
    # once.  A generous budget absorbs repeated unlucky balancing.
    supervisor = FleetSupervisor(
        store_file,
        workers=2,
        port=0,
        restart_policy=RestartPolicy(
            max_restarts=50, window_seconds=60.0, base_delay=0.01, max_delay=0.05
        ),
    )
    host, port = supervisor.start()
    stop = threading.Event()
    loop = threading.Thread(
        target=supervisor.supervise,
        kwargs={"stop_check": stop.is_set, "interval": 0.02},
        daemon=True,
    )
    loop.start()
    pairs = random_pairs(tree, 40, seed=5)
    try:
        with LabelClient(host, port, reconnect_retries=30) as client:
            assert client.batch(pairs, raw=True) == index.batch(pairs, raw=True)
    finally:
        stop.set()
        loop.join(timeout=10)
        supervisor.shutdown()


# -- rolling reload ------------------------------------------------------------


def test_rolling_reload_under_continuous_load(store_file, store_file_b, tree, index):
    """Scenario (c): reload() to a re-encoded store while a client keeps
    querying.  Zero dropped or wrong responses, and afterwards every worker
    reports the new generation in INFO."""
    supervisor = FleetSupervisor(store_file, workers=2, port=0)
    host, port = supervisor.start()
    old_generation = supervisor.generation["generation"]
    pairs = random_pairs(tree, 80, seed=17)
    expected = index.batch(pairs, raw=True)

    failures: list[BaseException] = []
    rounds = [0]
    stop = threading.Event()

    def hammer():
        try:
            with LabelClient(host, port) as client:
                while not stop.is_set():
                    if client.pipeline(pairs, raw=True, window=32) != expected:
                        raise AssertionError("wrong answers during reload")
                    rounds[0] += 1
        except BaseException as error:  # noqa: BLE001 - recorded for the assert
            failures.append(error)

    load = threading.Thread(target=hammer, daemon=True)
    load.start()
    try:
        while rounds[0] == 0 and load.is_alive():  # load is demonstrably flowing
            time.sleep(0.01)
        generation = supervisor.reload(store_file_b)
        assert generation["generation"] != old_generation
        assert generation["generation"] == store_generation(store_file_b)["generation"]
        rounds_after_reload = rounds[0]
        while rounds[0] <= rounds_after_reload and load.is_alive():
            time.sleep(0.01)  # at least one full pass against the new fleet
    finally:
        stop.set()
        load.join(timeout=30)
    assert not failures, f"load saw failures during rolling reload: {failures!r}"
    assert rounds[0] >= 2

    # every probe-visible worker now serves the new generation
    seen: dict[int, str] = {}
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and len(seen) < 2:
        with LabelClient(host, port) as probe:
            info = probe.info()
            seen[info["worker"]] = info["store"]["generation"]
    assert len(seen) == 2
    assert set(seen.values()) == {generation["generation"]}

    fleet = supervisor.shutdown()
    assert fleet["reloads"] == 1
    assert fleet["exit_codes"] == [0, 0]
    # retired workers' final stats were folded in: the fleet summary has
    # lifetime queries from before AND after the replacement
    assert fleet["queries"] >= len(pairs) * 2


def test_traced_queries_survive_rolling_reload(store_file, store_file_b, tree, index):
    """Trace propagation across reconnect-on-EOF and a rolling reload: a
    traced pipelined round issued *after* the fleet rolled must come back
    with complete per-stage spans stamped with the **new** store
    generation — the trace ring lives in the replacement worker, and the
    client reached it through at least one reconnect."""
    supervisor = FleetSupervisor(store_file, workers=2, port=0)
    host, port = supervisor.start()
    old_generation = supervisor.generation["generation"]
    pairs = random_pairs(tree, 60, seed=23)
    expected = index.batch(pairs, raw=True)
    try:
        with LabelClient(host, port) as client:
            # a traced warm-up round against the old fleet pins the old
            # generation into the pre-reload spans
            assert client.pipeline(pairs, raw=True, window=16, trace_every=10) == expected
            pre_ids = set(client.traced_ids)

            generation = supervisor.reload(store_file_b)["generation"]
            assert generation != old_generation

            # the old workers drained away: the next round hits EOF and
            # reconnects (its re-issued requests are deliberately
            # untraced — a retry must never double-record)
            assert client.pipeline(pairs, raw=True, window=16, trace_every=10) == expected
            assert client.reconnects >= 1

            # a traced round on the settled connection lands in the
            # replacement worker's ring
            assert client.pipeline(pairs, raw=True, window=16, trace_every=10) == expected
            post_ids = set(client.traced_ids) - pre_ids
            assert post_ids

            snapshot = client.trace(limit=0, slow=False)
            assert snapshot["store_generation"] == generation
            matched = [
                trace
                for trace in snapshot["traces"]
                if trace["trace_id"] in post_ids
            ]
            assert matched, "no post-reload traced request reached this worker's ring"
            for trace in matched:
                assert trace["store_generation"] == generation
                stages = [span["stage"] for span in trace["spans"]]
                assert stages == ["decode", "queue", "batch", "encode", "write"]
                assert all(span["ms"] >= 0.0 for span in trace["spans"])
                assert trace["total_ms"] > 0.0
            # nothing from the old generation leaks into the new ring
            assert not any(
                trace["store_generation"] == old_generation
                for trace in snapshot["traces"]
            )
    finally:
        supervisor.shutdown()


def test_reload_aborts_cleanly_when_replacement_cannot_start(store_file, tmp_path):
    supervisor = FleetSupervisor(store_file, workers=1, port=0)
    host, port = supervisor.start()
    pids_before = list(supervisor.pids)
    bad = tmp_path / "truncated.bin"
    bad.write_bytes(open(store_file, "rb").read()[:40])  # valid magic, bad body
    try:
        with pytest.raises(RuntimeError, match="reload aborted"):
            supervisor.reload(str(bad))
        # old fleet intact and still answering
        assert supervisor.poll()
        assert supervisor.pids == pids_before
        with LabelClient(host, port) as client:
            assert client.info()["worker"] in pids_before
    finally:
        supervisor.shutdown()
