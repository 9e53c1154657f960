"""Tests for the serving scale-out layer: backpressure (BUSY + client
retry), MATRIX executor offload, fleet stats merging and the shard-per-core
supervisor.

The deterministic overload tests drive a :class:`ServingCore` directly (it
is socket-free by design); the retry tests run real servers; the supervisor
tests fork real worker processes — in-process through
:class:`FleetSupervisor` and end-to-end through the CLI with SIGTERM.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import DistanceIndex
from repro.cli import _format_fleet_summary
from repro.generators.workloads import make_tree, random_pairs
from repro.serve import (
    AsyncLabelClient,
    FleetSupervisor,
    LabelClient,
    LabelServer,
    ServerBusy,
    ServingCore,
    protocol,
)
from repro.obs.hist import Histogram
from repro.serve.metrics import merge_fleet_stats


@pytest.fixture(scope="module")
def tree():
    return make_tree("random", 150, seed=7)


@pytest.fixture(scope="module")
def index(tree):
    return DistanceIndex.build(tree, "freedman")


def _run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(target, handler, **server_kwargs):
    server = LabelServer(target, **server_kwargs)
    host, port = await server.start()
    try:
        client = await AsyncLabelClient.connect(host, port)
        try:
            return await handler(server, client, host, port)
        finally:
            await client.close()
    finally:
        await server.stop()


# -- BUSY protocol ------------------------------------------------------------


def test_busy_frame_round_trip():
    frame = protocol.encode_busy(42, 7)
    decoder = protocol.FrameDecoder()
    decoder.feed(frame)
    (body,) = decoder.frames()
    assert protocol.decode_response(body) == (protocol.OP_BUSY, 42, 7)


def test_info_advertises_busy_feature(tree, index):
    async def handler(server, client, host, port):
        info = await client.info()
        assert "busy" in info["features"]
        assert info["protocol"] == protocol.PROTOCOL_VERSION
        assert info["worker"] == os.getpid()

    _run(_with_server(index, handler))


def test_stats_detail_flag_round_trips():
    plain = protocol.encode_stats(3, "m")
    flagged = protocol.encode_stats(4, "m", detail=True)
    decoder = protocol.FrameDecoder()
    decoder.feed(plain)
    decoder.feed(flagged)
    bodies = decoder.frames()
    assert protocol.decode_request(bodies[0]) == (protocol.OP_STATS, 3, "m", None, None)
    assert protocol.decode_request(bodies[1]) == (protocol.OP_STATS, 4, "m", True, None)


def test_stats_detail_is_opt_in(tree, index):
    """A plain STATS poll stays small; ``detail=True`` embeds the latency
    histogram the fleet-merging consumers need, and no raw samples."""
    pairs = random_pairs(tree, 50, seed=1)

    async def handler(server, client, host, port):
        await client.pipeline(pairs, raw=True, window=16)
        plain = await client.stats()
        assert "histogram" not in plain["latency_ms"]
        assert plain["latency_ms"]["samples"] == len(pairs)
        full = await client.stats(detail=True)
        hist = Histogram.from_dict(full["latency_ms"]["histogram"])
        assert hist.total == full["latency_ms"]["samples"] == len(pairs)
        assert "reservoir" not in full["latency_ms"]

    _run(_with_server(index, handler))


# -- bounded pending queue (deterministic, socket-free) -----------------------


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


def test_pending_queue_is_bounded_and_sheds_busy(index):
    """50 queries in one tick against max_pending=8: exactly 8 answered,
    42 shed with BUSY, and the pending gauge returns to zero."""

    async def main():
        core = ServingCore(index, max_pending=8, max_batch=10_000)
        connection = _FakeConnection()
        for request_id in range(1, 51):
            core.handle_request(
                connection, _request_body(protocol.encode_query(request_id, 0, 1))
            )
        assert core.pending_total == 8  # the queue never grew past the bound
        await asyncio.sleep(0)  # let the scheduled coalescer flush run
        responses = connection.responses()
        answered = [r for r in responses if r[0] == protocol.OP_RESULT]
        shed = [r for r in responses if r[0] == protocol.OP_BUSY]
        assert len(answered) == 8
        assert len(shed) == 42
        assert all(isinstance(r[2], int) and r[2] >= 1 for r in shed)  # retry hint
        assert core.pending_total == 0
        stats = core.stats()
        assert stats["busy_rejections"] == 42
        assert stats["queries"] == 8
        assert stats["pending"] == 0

    _run(main())


def test_async_client_retries_busy_until_answered(tree, index):
    """Overload a tiny queue through a real socket: the async pipeline must
    retry the shed subset with backoff and still return every answer in
    order."""
    pairs = random_pairs(tree, 300, seed=3)
    expected = index.batch(pairs, raw=True)

    async def handler(server, client, host, port):
        answers = await client.pipeline(pairs, name="", raw=True, window=256)
        assert answers == expected
        assert client.busy_retried > 0  # the shed path was really exercised
        stats = await client.stats()
        assert stats["busy_rejections"] > 0
        assert stats["pending"] == 0

    _run(_with_server(index, handler, max_pending=4, max_batch=10_000))


async def _always_busy_connection(reader, writer):
    """A server that sheds every request: the retry-budget worst case."""
    decoder = protocol.FrameDecoder()
    try:
        while True:
            data = await reader.read(65536)
            if not data:
                break
            decoder.feed(data)
            for body in decoder.frames():
                request_id = protocol.decode_request(body)[1]
                writer.write(protocol.encode_busy(request_id, 1))
    finally:
        writer.close()


def test_busy_retry_budget_exhausts_against_dead_overload():
    """Against a server that sheds everything, both query and pipeline give
    up after the configured number of fruitless retries."""

    async def main():
        busy_server = await asyncio.start_server(_always_busy_connection, "127.0.0.1", 0)
        host, port = busy_server.sockets[0].getsockname()[:2]
        try:
            client = await AsyncLabelClient.connect(
                host, port, busy_retries=2, busy_base_delay=0.001
            )
            try:
                with pytest.raises(ServerBusy):
                    await client.query(0, 1)
                assert client.busy_retried == 2  # both budgeted retries spent
                with pytest.raises(ServerBusy):
                    await client.pipeline([(0, 1), (2, 3)], raw=True)
            finally:
                await client.close()
        finally:
            busy_server.close()
            await busy_server.wait_closed()

    _run(main())


# -- sync client retry against a thread-hosted overloaded server --------------


@pytest.fixture()
def threaded_tiny_queue_server(index):
    """A live ``max_pending=4`` server on a daemon thread."""
    bound: list[tuple[str, int]] = []
    ready = threading.Event()
    holder: dict = {}

    def run() -> None:
        async def main() -> None:
            server = LabelServer(index, max_pending=4, max_batch=10_000)
            bound.append(await server.start())
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = asyncio.Event()
            holder["server"] = server
            ready.set()
            serving = asyncio.ensure_future(server.serve_forever())
            await holder["stop"].wait()
            serving.cancel()
            await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server thread failed to start"
    yield bound[0], holder
    holder["loop"].call_soon_threadsafe(holder["stop"].set)
    thread.join(10)


def test_sync_client_retries_busy_until_answered(threaded_tiny_queue_server, tree, index):
    (host, port), holder = threaded_tiny_queue_server
    pairs = random_pairs(tree, 300, seed=5)
    with LabelClient(host, port) as client:
        answers = client.pipeline(pairs, raw=True, window=256)
        assert answers == index.batch(pairs, raw=True)
        assert client.busy_retried > 0
        assert client.stats()["busy_rejections"] > 0


# -- MATRIX executor offload --------------------------------------------------


def test_matrix_offloaded_and_correct(tree, index):
    nodes = [0, 5, 9, 17, 31]
    expected = index.matrix(nodes, raw=True)

    async def handler(server, client, host, port):
        assert await client.matrix(nodes, name="", raw=True) == expected
        full = await client.matrix(name="", raw=True)
        assert full == index.matrix(raw=True)
        stats = await client.stats()
        assert stats["matrix_requests"] == 2
        assert stats["matrix_offloaded"] == 2
        assert stats["matrix_inflight"] == 0

    _run(_with_server(index, handler))


def test_concurrent_matrix_beyond_inflight_cap_gets_busy(tree, index):
    """With max_matrix_inflight=1, a second MATRIX arriving while the first
    runs on the executor is shed with BUSY (raw sends bypass client retry)."""

    async def handler(server, client, host, port):
        first = client._send(lambda rid: protocol.encode_matrix(rid, None, ""))
        second = client._send(lambda rid: protocol.encode_matrix(rid, [0, 1, 2], ""))
        op, payload = await first
        assert op == protocol.OP_RESULT
        with pytest.raises(ServerBusy):
            await second
        stats = await client.stats()
        assert stats["busy_rejections"] == 1
        # the retrying client path succeeds once the executor drains
        assert await client.matrix([0, 1, 2], name="", raw=True) == index.matrix(
            [0, 1, 2], raw=True
        )

    _run(_with_server(index, handler, max_matrix_inflight=1))


def test_matrix_into_matches_distance_matrix_and_leaves_caches_alone(tree):
    engine = DistanceIndex.build(tree, "freedman").engine
    nodes = [3, 1, 4, 1, 5, 9, 2, 6]
    expected = [value for row in engine.distance_matrix(nodes) for value in row]
    before = engine.cache_info()
    flat = engine.matrix_into(nodes)
    assert flat == expected
    assert engine.cache_info() == before  # read-only: no counters, no inserts
    # the full matrix and the asymmetric path agree too
    full = engine.matrix_into()
    assert full == [value for row in engine.distance_matrix() for value in row]
    assert engine.matrix_into(nodes, assume_symmetric=False) == expected
    # out= appends into the caller's buffer
    out: list = [None]
    assert engine.matrix_into(nodes, out=out) is out
    assert out[1:] == expected


# -- fleet stats merging ------------------------------------------------------


def _stats_payload(worker, qps, ms, count, **extra):
    """A detailed-STATS-shaped payload of ``count`` queries at ``ms`` each."""
    hist = Histogram()
    hist.observe_many(ms, count)
    payload = {
        "worker": worker,
        "uptime_seconds": 1.0,
        "queries": count,
        "flushes": max(1, count // 4),
        "coalesced_queries": count,
        "qps": qps,
        "latency_ms": {
            "p50": hist.percentile(0.5),
            "p99": hist.percentile(0.99),
            "samples": count,
            "histogram": hist.to_dict(),
        },
        "coalescing": True,
    }
    payload.update(extra)
    return payload


def test_merged_percentiles_are_not_averaged_percentiles():
    """1000 fast samples on one worker, 10 slow on another: the fleet p99
    must reflect the distribution (fast), not the average of p99s (50ms)."""
    fast = _stats_payload(1, 1000.0, 1.0, 1000, matrix_inflight=2)
    slow = _stats_payload(2, 10.0, 100.0, 10, matrix_inflight=1)
    merged = merge_fleet_stats([fast, slow])
    assert merged["workers"] == 2
    assert merged["qps"] == 1010.0
    assert merged["matrix_inflight"] == 3
    assert merged["latency_ms"]["samples"] == 1010
    # rank 1000 of 1010 merged samples sits in the fast worker's 1ms bucket
    fast_bucket = fast["latency_ms"]["p99"]
    assert fast_bucket < 2.0
    assert merged["latency_ms"]["p99"] == fast_bucket
    averaged = (fast["latency_ms"]["p99"] + slow["latency_ms"]["p99"]) / 2
    assert averaged > 50.0  # the broken estimate this replaces
    # p50 likewise comes from the merged buckets
    assert merged["latency_ms"]["p50"] == fast_bucket


def test_fleet_summary_reports_merged_histogram_samples():
    """The ``fleet:`` line prints the merged histogram's p50/p99 and its
    sample count (the summed per-worker totals)."""
    fast = _stats_payload(1, 100.0, 1.0, 100)
    slow = _stats_payload(2, 10.0, 100.0, 10)
    merged = merge_fleet_stats([fast, slow])
    (line,) = [
        line
        for line in _format_fleet_summary(merged).splitlines()
        if line.startswith("fleet:")
    ]
    # rank 55 of 110 is a fast sample, rank 109 a slow one
    p50 = round(fast["latency_ms"]["p50"], 4)
    p99 = round(slow["latency_ms"]["p99"], 4)
    assert (merged["latency_ms"]["p50"], merged["latency_ms"]["p99"]) == (p50, p99)
    assert f"p50 {p50:.3f}ms p99 {p99:.3f}ms (110 samples)," in line
    assert "reservoir" not in line


def test_merge_dedupes_snapshots_by_worker_id():
    first = _stats_payload(7, 5.0, 1.0, 2, busy_rejections=1, matrix_inflight=4)
    second = _stats_payload(7, 9.0, 2.0, 3, busy_rejections=2, matrix_inflight=1)
    merged = merge_fleet_stats([first, second])
    assert merged["workers"] == 1
    assert merged["qps"] == 9.0  # only the latest snapshot per worker counts
    assert merged["busy_rejections"] == 2
    assert merged["matrix_inflight"] == 1
    assert merged["latency_ms"]["samples"] == 3


def test_merge_keeps_every_worker_key_but_identity_and_per_worker_state(index):
    """The merged view carries every key of a worker's detailed STATS;
    only ``worker``/``slot``/``members_open`` (moved to ``per_worker``) and
    ``traces`` (dropped) are left out."""
    core = ServingCore(index, generation={"generation": "cafe1234"})
    worker = core.stats(detail=True)
    merged = merge_fleet_stats([worker])
    assert set(worker) - set(merged) == {"worker", "slot", "members_open", "traces"}
    (row,) = merged["per_worker"]
    assert (row["worker"], row["slot"]) == (worker["worker"], worker["slot"])
    assert row["members_open"] == worker["members_open"]


def test_merge_folds_member_index_cache_counters():
    a = _stats_payload(1, 1.0, 1.0, 1)
    a["index"] = {
        "name": "m",
        "open": True,
        "cache": {"hits": 8, "misses": 2, "hit_rate": 0.8, "size": 4, "max_size": 8},
    }
    b = _stats_payload(2, 1.0, 1.0, 1)
    b["index"] = {"name": "m", "open": False}
    merged = merge_fleet_stats([a, b])
    assert merged["index"]["cache"]["hits"] == 8
    assert merged["index"]["cache_hit_rate"] == 0.8


# -- the shard-per-core supervisor --------------------------------------------


@pytest.fixture(scope="module")
def store_file(tree, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet") / "fleet.bin"
    DistanceIndex.build(tree, "freedman").save(path)
    return str(path)


def test_fleet_supervisor_round_trip_and_aggregation(store_file, tree, index):
    supervisor = FleetSupervisor(store_file, workers=2, port=0, max_pending=10_000)
    host, port = supervisor.start()
    try:
        assert len(supervisor.pids) == 2
        assert supervisor.poll()
        pairs = random_pairs(tree, 200, seed=23)
        with LabelClient(host, port) as client:
            assert client.pipeline(pairs, raw=True, window=64) == index.batch(
                pairs, raw=True
            )
    finally:
        fleet = supervisor.shutdown()
    assert fleet["exit_codes"] == [0, 0]
    assert fleet["queries"] == len(pairs)
    assert fleet["workers"] >= 1  # stats only from workers that reported
    assert not supervisor.poll()


def test_supervisor_rejects_bad_worker_count(store_file):
    with pytest.raises(ValueError):
        FleetSupervisor(store_file, workers=0)


def _spawn_cli_serve(store_file: str, *extra: str):
    environment = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    environment["PYTHONPATH"] = src + (
        os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", store_file, "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=environment,
    )
    line = process.stdout.readline()
    match = re.search(r"serving .* on ([0-9.]+):(\d+) \[", line)
    if not match:
        process.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return process, match.group(1), int(match.group(2)), line


def test_cli_fleet_sigterm_tears_down_all_workers(store_file, tree, index):
    """The end-to-end satellite: ``serve --workers 2`` under SIGTERM exits 0,
    prints the fleet summary, and leaves no orphan worker processes."""
    process, host, port, ready = _spawn_cli_serve(store_file, "--workers", "2")
    try:
        pids = [
            int(p)
            for p in re.search(r"pids=([0-9]+(?:,[0-9]+)*)", ready).group(1).split(",")
        ]
        assert len(pids) == 2
        pairs = random_pairs(tree, 150, seed=29)
        with LabelClient(host, port) as client:
            assert client.pipeline(pairs, raw=True, window=32) == index.batch(
                pairs, raw=True
            )
    finally:
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30)
    assert process.returncode == 0, output
    assert "shutdown:" in output
    assert "fleet: 2 workers" in output
    deadline = time.monotonic() + 10
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break  # worker is gone
            time.sleep(0.05)
        else:
            pytest.fail(f"worker {pid} survived supervisor shutdown")
