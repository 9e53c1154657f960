"""Tests for the observability plane (:mod:`repro.obs`): log-spaced latency
histograms and their exact bucket-wise merge, request tracing end to end
over the wire, the Prometheus text exposition and the fleet's ``/metrics``
endpoint, the slow-query log and the SIGUSR2 profiling hook.

The acceptance-style tests pin the properties the plane exists for:

* fleet percentiles come from **merged histogram buckets**, so a
  restart-skewed fleet (a fresh worker with few samples vs. a veteran with
  many) merges without over-weighting the restarted worker;
* a traced query's spans cover the named request stages and sum to within
  20% of the client-observed latency (made deterministic with an injected
  ``stall`` fault that dominates the timings);
* the metrics endpoint of a live 2-worker fleet under load reports
  ``repro_queries_total`` equal to the pairs the load generator pushed,
  with monotone histogram buckets;
* a traceless request encodes byte-identically to the pre-tracing wire
  format — old clients and servers interoperate unchanged.
"""

from __future__ import annotations

import asyncio
import math
import os
import pstats
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.api import DistanceIndex
from repro.generators.workloads import make_tree, random_pairs
from repro.obs.hist import DEFAULT_BOUNDS_MS, Histogram, merge_histogram_dicts
from repro.obs.profile import install_profile_hook, parse_profile_spec, profile_path
from repro.obs.prom import MetricsServer, render
from repro.obs.trace import STAGES, Span, Trace, TraceRecorder
from repro.serve import AsyncLabelClient, FleetSupervisor, LabelServer, ServerError, protocol
from repro.serve.loadgen import run_load
from repro.serve.metrics import merge_fleet_stats


@pytest.fixture(scope="module")
def tree():
    return make_tree("random", 120, seed=3)


@pytest.fixture(scope="module")
def index(tree):
    return DistanceIndex.build(tree, "freedman")


@pytest.fixture(scope="module")
def store_file(tree, tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "store.bin"
    DistanceIndex.build(tree, "freedman").save(path)
    return str(path)


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


# -- histograms ---------------------------------------------------------------


def test_histogram_buckets_and_percentiles():
    hist = Histogram()
    assert hist.percentile(0.5) == 0.0  # empty
    for value in (0.005, 0.5, 0.5, 7.0, 1e9):  # 1e9 -> overflow bucket
        hist.observe(value)
    assert hist.total == 5
    assert hist.counts[0] == 1  # 0.005 <= first bound (0.01)
    assert hist.counts[-1] == 1  # overflow
    assert hist.sum == pytest.approx(1e9 + 8.005)
    # the p50 rank (3rd of 5) lands in the 0.5ms bucket: its upper bound
    p50 = hist.percentile(0.5)
    assert p50 >= 0.5 and p50 <= 0.5 * math.sqrt(2.0) + 1e-9
    # overflow samples report the largest finite bound, honestly saturated
    assert hist.percentile(1.0) == DEFAULT_BOUNDS_MS[-1]
    cumulative = hist.cumulative()
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == hist.total


def test_histogram_merge_is_exact_bucketwise_addition():
    left, right = Histogram(), Histogram()
    for value in (0.1, 1.0, 10.0):
        left.observe(value)
    for value in (1.0, 100.0):
        right.observe(value)
    left.merge(right)
    assert left.total == 5
    assert left.sum == pytest.approx(112.1)
    reference = Histogram()
    for value in (0.1, 1.0, 10.0, 1.0, 100.0):
        reference.observe(value)
    assert left.counts == reference.counts
    with pytest.raises(ValueError):
        left.merge(Histogram(bounds=(1.0, 2.0)))


def test_histogram_dict_round_trip_and_merge_helper():
    hist = Histogram()
    hist.observe_many(0.7, 41)
    rebuilt = Histogram.from_dict(hist.to_dict())
    assert rebuilt.counts == hist.counts
    assert rebuilt.total == hist.total
    assert rebuilt.sum == pytest.approx(hist.sum)
    merged = merge_histogram_dicts([hist.to_dict(), hist.to_dict()])
    assert merged.total == 82
    assert merge_histogram_dicts([]) is None
    with pytest.raises(ValueError):
        Histogram.from_dict({"bounds_ms": [1.0], "counts": [1, 2, 3]})


def test_histogram_bounds_validation():
    with pytest.raises(ValueError):
        Histogram(bounds=())
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))


# -- fleet percentile merge ---------------------------------------------------


def test_fleet_percentiles_from_merged_histograms_not_reservoirs():
    """Restart skew: a veteran worker with 100k samples and a freshly
    restarted worker with 64.  Merged buckets weight them 100_000:64, by
    their true sample counts."""
    veteran_hist = Histogram()
    veteran_hist.observe_many(1.0, 100_000)
    restarted_hist = Histogram()
    restarted_hist.observe_many(64.0, 64)

    def payload(worker, slot, hist):
        return {
            "worker": worker,
            "slot": slot,
            "queries": hist.total,
            "latency_ms": {
                "p50": hist.percentile(0.5),
                "p99": hist.percentile(0.99),
                "samples": hist.total,
                "histogram": hist.to_dict(),
            },
        }

    merged = merge_fleet_stats(
        [
            payload(100, 0, veteran_hist),
            payload(200, 1, restarted_hist),
        ]
    )
    latency = merged["latency_ms"]
    # every worker is weighted by its true sample count
    assert latency["samples"] == 100_064
    # p50 AND p99 both sit in the veteran's ~1ms bucket (the restarted
    # worker's 64 samples are ~0.06% of the fleet).  The histogram answers
    # with the bucket's upper bound — a <= sqrt(2) quantisation of 1.0ms.
    assert latency["p50"] <= 1.0 * math.sqrt(2.0) + 1e-9
    assert latency["p99"] <= 1.0 * math.sqrt(2.0) + 1e-9
    # and the merged histogram rides along for downstream consumers
    fleet = Histogram.from_dict(latency["histogram"])
    assert fleet.total == 100_064


# -- tracing primitives -------------------------------------------------------


def test_span_and_trace_shapes():
    with Span("decode") as span:
        pass
    assert span.ms >= 0.0
    canned = Span.completed("queue", 2.5)
    assert canned.to_dict() == {"stage": "queue", "ms": 2.5}
    trace = Trace(7, "query", "m", total_ms=10.0, attrs={"slot": 1})
    trace.add(canned)
    payload = trace.to_dict()
    assert payload["trace_id"] == 7
    assert payload["op"] == "query"
    assert payload["member"] == "m"
    assert payload["slot"] == 1
    assert payload["spans"] == [{"stage": "queue", "ms": 2.5}]


def test_trace_recorder_ring_and_slow_log():
    recorder = TraceRecorder(ring=4, slow_ms=5.0)
    for trace_id in range(10):
        recorder.record(Trace(trace_id, "query", "m", total_ms=float(trace_id)))
        logged = recorder.maybe_slow(float(trace_id), {"trace_id": trace_id})
        assert logged == (trace_id >= 5)
    snapshot = recorder.snapshot(limit=0, include_slow=True)
    assert snapshot["recorded"] == 10
    assert snapshot["ring"] == 4
    assert snapshot["slow_ms"] == 5.0
    # the ring holds only the newest 4, newest first
    assert [t["trace_id"] for t in snapshot["traces"]] == [9, 8, 7, 6]
    # the slow log kept every entry over the threshold, even ring-evicted ones
    assert snapshot["slow_recorded"] == 5
    assert {t["trace_id"] for t in snapshot["slow"]} == {5, 6, 7, 8, 9}
    assert snapshot["slow"][0] == {"trace_id": 9, "ms": 9.0}
    limited = recorder.snapshot(limit=2, include_slow=False)
    assert len(limited["traces"]) == 2
    assert "slow" not in limited
    # slow_ms=None disables the log entirely
    assert not TraceRecorder(ring=2).maybe_slow(1e9, {"trace_id": 0})
    with pytest.raises(ValueError):
        TraceRecorder(ring=0)


# -- wire format: additive tracing capability ---------------------------------


def test_traceless_requests_are_byte_identical():
    """A request without a trace id must encode exactly as it did before the
    tracing capability existed — old servers and clients interop unchanged."""
    plain = protocol.encode_query(7, 3, 42, "m")
    assert protocol.encode_query(7, 3, 42, "m", trace_id=None) == plain
    traced = protocol.encode_query(7, 3, 42, "m", trace_id=9)
    assert traced != plain
    assert traced[: len(traced) - 2].endswith(plain[1:])  # suffix is additive
    plain_batch = protocol.encode_batch(8, [(1, 2)], "")
    assert protocol.encode_batch(8, [(1, 2)], "", trace_id=None) == plain_batch


def test_tracing_feature_is_advertised(index):
    async def handler(server, client, host, port):
        info = await client.info()
        assert "tracing" in info["features"]

    _run(_with_server(index, handler))


# -- tracing end to end over the wire -----------------------------------------


def test_traced_query_spans_cover_stages_and_sum_to_latency(index, monkeypatch):
    """Acceptance: a traced query comes back with spans covering the named
    stages, summing to within 20% of the client-observed latency.  The
    injected 20ms dispatch stall dominates both sides of the comparison,
    making the bound robust to scheduler noise."""
    monkeypatch.setenv("REPRO_FAULTS", "stall:ms=20")

    async def handler(server, client, host, port):
        u, v = 0, 1
        trace_id = client.next_trace_id()
        started = time.perf_counter()
        await client.query(u, v, trace_id=trace_id)
        client_ms = (time.perf_counter() - started) * 1000.0
        snapshot = await client.trace(limit=0, slow=False)
        (trace,) = [t for t in snapshot["traces"] if t["trace_id"] == trace_id]
        stages = {span["stage"]: span["ms"] for span in trace["spans"]}
        assert set(stages) == set(STAGES)
        assert len(stages) >= 4
        assert stages["decode"] >= 20.0  # the stall fires inside decode
        span_sum = sum(stages.values())
        assert abs(span_sum - client_ms) <= 0.2 * client_ms
        assert trace["total_ms"] == pytest.approx(span_sum, rel=0.5)
        assert trace["u"] == u and trace["v"] == v
        assert trace["worker"] == os.getpid()

    _run(_with_server(index, handler))


def test_traced_batch_records_spans(index):
    async def handler(server, client, host, port):
        trace_id = client.next_trace_id()
        await client.batch([(0, 1), (2, 3)], trace_id=trace_id)
        snapshot = await client.trace(limit=0, slow=False)
        (trace,) = [t for t in snapshot["traces"] if t["trace_id"] == trace_id]
        assert trace["op"] == "batch"
        assert trace["pairs"] == 2
        stages = [span["stage"] for span in trace["spans"]]
        # BATCH runs synchronously: no coalescer queue stage
        assert stages == ["decode", "batch", "encode", "write"]

    _run(_with_server(index, handler))


def test_slow_query_log_over_the_wire(index, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "stall:ms=15")

    async def handler(server, client, host, port):
        trace_id = client.next_trace_id()
        await client.batch([(0, 1)], trace_id=trace_id)
        snapshot = await client.trace()
        assert snapshot["slow_ms"] == 1.0
        assert snapshot["slow_recorded"] >= 1
        entry = snapshot["slow"][0]
        assert entry["op"] == "batch"
        assert entry["trace_id"] == trace_id
        assert entry["ms"] >= 15.0

    _run(_with_server(index, handler, slow_ms=1.0))


def test_untraced_queries_record_nothing(index, tree):
    async def handler(server, client, host, port):
        pairs = random_pairs(tree, 20, seed=2)
        await client.pipeline(pairs, raw=True, window=8)
        snapshot = await client.trace()
        assert snapshot["recorded"] == 0
        assert snapshot["traces"] == []

    _run(_with_server(index, handler))


def test_detailed_stats_carry_stage_histograms(index, tree):
    """Histogram counts stay exact whichever path a request takes: plain
    runs, traced frames, BUSY-shed retries and a flush poisoned by an
    out-of-range pair."""

    async def handler(server, client, host, port):
        pairs = random_pairs(tree, 30, seed=4)
        await client.pipeline(pairs, raw=True, window=8, trace_every=3)
        # one tick: a bad pair poisons the flush its neighbours share
        poisoned = [(0, tree.n + 5), (1, 2), (3, 4)]
        outcomes = await asyncio.gather(
            *(client.query(u, v, raw=True) for u, v in poisoned),
            return_exceptions=True,
        )
        assert isinstance(outcomes[0], ServerError)
        assert outcomes[1:] == index.batch(poisoned[1:], raw=True)
        plain = await client.stats()
        assert "stages" not in plain
        assert "histogram" not in plain["latency_ms"]
        detail = await client.stats(detail=True)
        assert detail["busy_rejections"] >= 1 and client.busy_retried >= 1
        assert detail["errors"] == 1
        assert detail["traces"]["recorded"] >= 1
        answered = len(pairs) + len(poisoned) - 1
        assert detail["queries"] == answered
        latency = Histogram.from_dict(detail["latency_ms"]["histogram"])
        assert latency.total == detail["latency_ms"]["samples"] == answered
        for stage in ("decode", "queue", "batch", "encode", "write"):
            hist = Histogram.from_dict(detail["stages"][stage])
            assert hist.total >= 1
        # decode counts every request received (each BUSY retry is one
        # more, and so are both STATS); queue counts per answered query
        received = len(pairs) + len(poisoned) + client.busy_retried + 2
        assert Histogram.from_dict(detail["stages"]["decode"]).total == received
        assert Histogram.from_dict(detail["stages"]["queue"]).total == answered

    _run(_with_server(index, handler, max_pending=4))


# -- Prometheus exposition ----------------------------------------------------


def test_render_exposition_well_formed():
    hist = Histogram(bounds=(1.0, 2.0))
    hist.observe(0.5)
    hist.observe(1.5)
    hist.observe(99.0)
    text = render(
        {
            "queries": 42,
            "workers": 2,
            "store_generation": 'a"b\\c',
            "latency_ms": {"histogram": hist.to_dict()},
        }
    )
    lines = text.strip().split("\n")
    assert "# TYPE repro_queries_total counter" in lines
    assert "repro_queries_total 42" in lines
    assert "# TYPE repro_store_info gauge" in lines  # info renders as gauge 1
    assert 'repro_store_info{generation="a\\"b\\\\c"} 1' in lines
    assert "# TYPE repro_request_latency_ms histogram" in lines
    assert 'repro_request_latency_ms_bucket{le="1"} 1' in lines
    assert 'repro_request_latency_ms_bucket{le="2"} 2' in lines
    assert 'repro_request_latency_ms_bucket{le="+Inf"} 3' in lines
    assert "repro_request_latency_ms_count 3" in lines
    assert text.endswith("\n")


def test_fleet_registry_exports_expected_series(index, tree):
    async def handler(server, client, host, port):
        pairs = random_pairs(tree, 25, seed=5)
        await client.pipeline(pairs, raw=True, window=8)
        return await client.stats(detail=True)

    stats = _run(_with_server(index, handler))
    stats.setdefault("store_generation", "cafe1234")
    text = render(merge_fleet_stats([stats]))
    assert "repro_queries_total 25" in text
    assert 'repro_store_info{generation="cafe1234"} 1' in text
    assert "repro_kernel_info{tier=" in text
    assert 'repro_request_stage_ms_bucket{le="0.01",stage="decode"}' in text
    assert "repro_request_latency_ms_count 25" in text
    # every series carries the repro_ prefix
    for line in text.strip().split("\n"):
        if not line.startswith("#"):
            assert line.startswith("repro_"), line


def test_metrics_server_serves_and_reports_errors():
    payloads = iter(["repro_up 1\n", RuntimeError("scrape exploded")])

    def source():
        item = next(payloads)
        if isinstance(item, Exception):
            raise item
        return item

    server = MetricsServer(source)
    host, port = server.start()
    try:
        with urllib.request.urlopen(f"http://{host}:{port}/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert response.read() == b"repro_up 1\n"
        # an HTTPError holds the response and its socket: close each one
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"http://{host}:{port}/metrics")
        with caught.value:
            assert caught.value.code == 500
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"http://{host}:{port}/other")
        with caught.value:
            assert caught.value.code == 404
    finally:
        server.stop()


def _parse_samples(text: str) -> dict[str, float]:
    samples: dict[str, float] = {}
    for line in text.strip().split("\n"):
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


def test_fleet_metrics_endpoint_under_load(store_file, tree):
    """Acceptance: a 2-worker fleet with a metrics endpoint, loadgen pushing
    a known number of pairs, then one scrape — ``repro_queries_total`` must
    equal the pairs served and the latency buckets must be monotone."""
    pairs = 300
    supervisor = FleetSupervisor(store_file, workers=2, port=0)
    host, port = supervisor.start()
    try:
        metrics_host, metrics_port = supervisor.start_metrics(0)
        report = run_load(
            host, port, pairs=pairs, connections=4, window=32, trace_every=50
        )
        assert report["pairs"] == pairs
        # the loadgen sampled traces and folded a per-stage breakdown
        assert report["tracing"]["collected"] >= 1
        assert set(report["tracing"]["stages"]) <= set(STAGES)
        url = f"http://{metrics_host}:{metrics_port}/metrics"
        with urllib.request.urlopen(url) as response:
            assert response.status == 200
            text = response.read().decode("utf-8")
        samples = _parse_samples(text)
        assert samples["repro_queries_total"] == pairs
        assert samples["repro_workers"] == 2
        assert samples["repro_worker_up{slot=\"0\"}"] == 1
        assert samples["repro_worker_up{slot=\"1\"}"] == 1
        assert samples["repro_fleet_reloads_total"] == 0
        assert samples["repro_request_latency_ms_count"] == pairs
        assert "repro_store_info{" in text
        # cumulative buckets are monotone and end at the total count
        buckets = [
            value
            for name, value in samples.items()
            if name.startswith("repro_request_latency_ms_bucket")
        ]
        assert buckets == sorted(buckets)
        assert buckets[-1] == pairs
    finally:
        supervisor.shutdown()
    # the endpoint dies with the fleet
    with pytest.raises((ConnectionError, OSError)):
        urllib.request.urlopen(
            f"http://{metrics_host}:{metrics_port}/metrics", timeout=2
        )


def test_single_process_metrics_match_a_one_worker_fleet(store_file):
    """``serve --metrics-port`` without ``--workers`` exports the fleet's
    series for its one worker: ``repro_workers 1`` and the per-slot rows."""
    pairs = 120
    environment = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, environment.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", store_file,
         "--port", "0", "--metrics-port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=environment,
    )
    try:
        serving = re.search(r"serving .* on ([0-9.]+):(\d+) \[", process.stdout.readline())
        metrics = re.search(r"metrics on (http://\S+)", process.stdout.readline())
        assert serving and metrics, "server failed to start"
        report = run_load(serving.group(1), int(serving.group(2)), pairs=pairs, window=16)
        assert report["pairs"] == pairs
        with urllib.request.urlopen(metrics.group(1)) as response:
            samples = _parse_samples(response.read().decode("utf-8"))
    finally:
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30)
    assert process.returncode == 0, output
    assert samples["repro_workers"] == 1
    assert samples["repro_queries_total"] == pairs
    assert samples['repro_worker_queries{slot="0"}'] == pairs
    assert samples['repro_worker_restarts{slot="0"}'] == 0


# -- profiling hook -----------------------------------------------------------


def test_parse_profile_spec():
    assert parse_profile_spec("5") == (5.0, ".")
    assert parse_profile_spec("0.25:/tmp/profiles") == (0.25, "/tmp/profiles")
    with pytest.raises(ValueError):
        parse_profile_spec("0")
    with pytest.raises(ValueError):
        parse_profile_spec("nope")


@pytest.mark.skipif(not hasattr(signal, "SIGUSR2"), reason="needs SIGUSR2")
def test_profile_hook_dumps_pstats_on_sigusr2(index, tmp_path):
    dumps: list[str] = []

    async def scenario():
        loop = asyncio.get_running_loop()
        assert not install_profile_hook(loop, environ={})  # opt-in only
        armed = install_profile_hook(
            loop,
            slot=3,
            generation="feedbeef",
            environ={"REPRO_PROFILE": f"0.05:{tmp_path}"},
            on_dump=dumps.append,
        )
        assert armed
        os.kill(os.getpid(), signal.SIGUSR2)
        deadline = loop.time() + 5.0
        while not dumps and loop.time() < deadline:
            # some profiled work for the window to catch
            index.batch([(0, 1), (1, 2)], raw=True)
            await asyncio.sleep(0.01)
        loop.remove_signal_handler(signal.SIGUSR2)

    asyncio.run(scenario())
    assert dumps == [profile_path(str(tmp_path), 3, "feedbeef")]
    assert os.path.exists(dumps[0])
    stats = pstats.Stats(dumps[0])
    assert stats.total_calls >= 1
