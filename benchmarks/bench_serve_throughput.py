"""Experiment S-throughput: network serving — micro-batching and
shard-per-core fleets.

The server's coalescer turns every event-loop tick's worth of pipelined
QUERY requests — across all connections — into one ``QueryEngine.batch``
call and one response write per connection.  This runner measures what that
is worth end to end: a real ``repro-labels serve`` subprocess on loopback,
driven by the shared load generator (:mod:`repro.serve.loadgen`) under
uniform and Zipf-skewed workloads, against the same server started with
``--no-coalesce`` (the naive one-request-per-batch path).  Two further
sections cover the scale-out features: ``multi_worker`` runs the same
workload against ``--workers 1/2/4`` fleets (SO_REUSEPORT shard-per-core
supervisor), and ``observability`` records the throughput cost of
request tracing at a 1% sample rate (advisory <= 5% gate — recorded, never
raising).

``python benchmarks/bench_serve_throughput.py`` writes
``BENCH_serve_throughput.json`` at the repo root; the recorded gates are
coalesced >= 2x naive on the 10k-pair uniform workload, ``--workers 4``
>= 1.8x the single process (asserted on hosts with >= 4 CPUs — a fleet
cannot out-run its core count, and the CPU count is recorded next to the
measurement).  ``--quick`` runs everything at smoke sizes
tagged ``mode: "quick"``; the pytest entry points below only smoke the
plumbing (tiny sizes, no timing assertions) so CI machine noise cannot
flake them.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile

import perf_common  # the src/ path shim, REPO_ROOT and write_json

from repro.api import DistanceIndex
from repro.generators.workloads import make_tree
from repro.serve.loadgen import run_load

_READY = re.compile(r"serving .* on ([0-9.]+):(\d+) \[")


def spawn_server(
    store_path: str,
    *,
    coalesce: bool,
    port: int = 0,
    workers: int = 1,
):
    """Start ``repro-labels serve`` on loopback; returns ``(process, host, port)``.

    The server picks an ephemeral port (``--port 0``) and we parse the
    actual address from its ready line.  ``workers > 1`` starts the
    shard-per-core fleet supervisor.
    """
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        store_path,
        "--host",
        "127.0.0.1",
        "--port",
        str(port),
        "--workers",
        str(workers),
    ]
    if not coalesce:
        command.append("--no-coalesce")
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.join(perf_common.REPO_ROOT, "src") + (
        os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=environment,
    )
    line = process.stdout.readline()
    match = _READY.search(line)
    if not match:
        process.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return process, match.group(1), int(match.group(2))


def shutdown_server(process) -> str:
    """SIGTERM the server and return its shutdown summary line."""
    process.send_signal(signal.SIGTERM)
    output, _ = process.communicate(timeout=30)
    if process.returncode != 0:
        raise RuntimeError(f"server exited {process.returncode}: {output!r}")
    for line in output.splitlines():
        if line.startswith("shutdown:"):
            return line
    raise RuntimeError(f"server never printed its shutdown summary: {output!r}")


def _measure(store_path: str, *, coalesce: bool, workload: str, pairs: int,
             connections: int, window: int, skew: float = 1.1, seed: int = 0,
             warmup: int = 0, repeats: int = 1, workers: int = 1,
             trace_every: int = 0) -> dict:
    """Drive one server mode; optional warmup pass and best-of-``repeats``.

    The warmup pass parses every touched label into the engine's LRU before
    the timed runs, so both modes are measured at the steady state the
    server actually serves from (cold-start cost is the store's concern and
    is measured by perfbench's ``query-cold`` workload).
    """
    process, host, port = spawn_server(store_path, coalesce=coalesce, workers=workers)
    try:
        if warmup:
            run_load(
                host, port, pairs=warmup, workload=workload, skew=skew,
                connections=connections, window=window, seed=seed,
            )
        report = None
        for _ in range(max(1, repeats)):
            candidate = run_load(
                host,
                port,
                pairs=pairs,
                workload=workload,
                skew=skew,
                connections=connections,
                window=window,
                seed=seed,
                trace_every=trace_every,
            )
            if report is None or candidate["qps"] > report["qps"]:
                report = candidate
    finally:
        shutdown = shutdown_server(process)
    server = report["server"]
    index_stats = server.get("index", {})
    return {
        "qps": report["qps"],
        "seconds": report["seconds"],
        "checksum": report["checksum"],
        "workers": report["workers"],
        "busy_retried": report["busy_retried"],
        "busy_rejections": server.get("busy_rejections", 0),
        "p50_ms": server["latency_ms"]["p50"],
        "p99_ms": server["latency_ms"]["p99"],
        "mean_batch_size": server["mean_batch_size"],
        "flushes": server["flushes"],
        "cache_hit_rate": index_stats.get("cache_hit_rate"),
        "tracing": report.get("tracing"),
        "shutdown": shutdown,
    }


# -- pytest smoke entry points (no timing assertions) -------------------------


def test_subprocess_server_round_trip_and_clean_shutdown(tmp_path):
    """Both serving modes answer a small workload identically and shut down
    cleanly on SIGTERM (the CI smoke path)."""
    tree = make_tree("random", 200, seed=23)
    index = DistanceIndex.build(tree, "freedman")
    store_path = str(tmp_path / "bench_serve.bin")
    index.save(store_path)
    checksums = {}
    for coalesce in (True, False):
        row = _measure(
            store_path,
            coalesce=coalesce,
            workload="uniform",
            pairs=400,
            connections=2,
            window=32,
        )
        checksums[coalesce] = row["checksum"]
        assert row["shutdown"].startswith("shutdown:")
        assert "400 queries" in row["shutdown"]
    assert checksums[True] == checksums[False]


def test_zipf_workload_over_the_wire(tmp_path):
    tree = make_tree("random", 300, seed=29)
    DistanceIndex.build(tree, "freedman").save(str(tmp_path / "z.bin"))
    row = _measure(
        str(tmp_path / "z.bin"),
        coalesce=True,
        workload="zipf",
        pairs=500,
        connections=2,
        window=32,
        skew=1.2,
    )
    assert row["qps"] > 0
    assert row["cache_hit_rate"] > 0.5  # the hot set stays cached


def test_multi_worker_fleet_round_trip(tmp_path):
    """A ``--workers 2`` fleet answers the same workload with the same
    checksum as a single process and shuts down cleanly on SIGTERM."""
    tree = make_tree("random", 200, seed=23)
    index = DistanceIndex.build(tree, "freedman")
    store_path = str(tmp_path / "bench_fleet.bin")
    index.save(store_path)
    rows = {}
    for workers in (1, 2):
        rows[workers] = _measure(
            store_path,
            coalesce=True,
            workload="uniform",
            pairs=400,
            connections=4,
            window=32,
            workers=workers,
        )
        assert rows[workers]["shutdown"].startswith("shutdown:")
    assert rows[1]["checksum"] == rows[2]["checksum"]
    assert rows[2]["workers"] >= 1  # distinct workers reached by loadgen


def test_traced_loadgen_round_trip(tmp_path):
    """A 1-in-50 traced run answers identically and folds a per-stage
    breakdown of real sampled requests into the report."""
    tree = make_tree("random", 200, seed=23)
    DistanceIndex.build(tree, "freedman").save(str(tmp_path / "t.bin"))
    rows = {}
    for label, trace_every in (("off", 0), ("on", 50)):
        rows[label] = _measure(
            str(tmp_path / "t.bin"),
            coalesce=True,
            workload="uniform",
            pairs=400,
            connections=2,
            window=32,
            trace_every=trace_every,
        )
    assert rows["off"]["checksum"] == rows["on"]["checksum"]
    assert rows["off"]["tracing"] is None
    tracing = rows["on"]["tracing"]
    assert tracing["collected"] >= 1
    assert "batch" in tracing["stages"]


# -- machine-readable runner (BENCH_serve_throughput.json) --------------------


def run_perf_json(
    smoke: bool = False, out: str | None = None, quick: bool = False
) -> dict:
    """Measure coalesced-vs-naive serving, multi-worker scaling and
    tracing overhead; write the JSON trajectory.

    Two gates (recorded, and asserted when this file runs as a script):

    * micro-batched serving >= 2x the naive one-request-per-batch path on
      the 10k-pair uniform workload (as since PR 4);
    * ``--workers 4`` aggregate throughput >= 1.8x the single-process path
      on the same workload.  Shard-per-core scaling needs cores to shard
      over, so this gate is asserted only when the host has >= 4 CPUs; the
      measured ratio and the CPU count are recorded either way.

    ``quick=True`` runs every section at smoke sizes but tags the payload
    ``mode: "quick"`` — a fast local iteration lane whose rows are never
    confused with the recorded full-mode trajectory.
    """
    small = smoke or quick
    mode = "smoke" if smoke else ("quick" if quick else "full")
    n = 512 if small else 4096
    pairs = 2000 if small else 10000
    connections = 2 if small else 4
    window = 64 if small else 128
    warmup = 500 if small else 4000
    repeats = 2 if small else 3
    required_speedup = 2.0
    required_scaling = 1.8
    cpus = os.cpu_count() or 1
    worker_counts = (1, 2) if small else (1, 2, 4)
    scaling_pairs = pairs * 2  # longer steady state amortises fleet startup

    tree = make_tree("random", n, seed=23)
    index = DistanceIndex.build(tree, "freedman")
    workloads_json: dict[str, dict] = {}
    scaling_json: dict = {"cpus": cpus, "workers": {}}
    with tempfile.TemporaryDirectory() as scratch:
        store_path = os.path.join(scratch, "serve_bench.bin")
        index.save(store_path)
        for workload in ("uniform", "zipf"):
            rows = {}
            for label, coalesce in (("coalesced", True), ("naive", False)):
                rows[label] = _measure(
                    store_path,
                    coalesce=coalesce,
                    workload=workload,
                    pairs=pairs,
                    connections=connections,
                    window=window,
                    warmup=warmup,
                    repeats=repeats,
                )
            if rows["coalesced"]["checksum"] != rows["naive"]["checksum"]:
                raise AssertionError("serving modes disagree on query answers")
            rows["speedup"] = round(rows["coalesced"]["qps"] / rows["naive"]["qps"], 2)
            workloads_json[workload] = rows

        # -- multi-worker scaling: same workload, growing fleets ----------
        scaling_checksums = set()
        for workers in worker_counts:
            row = _measure(
                store_path,
                coalesce=True,
                workload="uniform",
                pairs=scaling_pairs,
                connections=max(connections, 2 * workers),
                window=window,
                warmup=warmup,
                repeats=repeats,
                workers=workers,
            )
            scaling_checksums.add(row["checksum"])
            scaling_json["workers"][str(workers)] = row
        if len(scaling_checksums) != 1:
            raise AssertionError("worker fleets disagree on query answers")
        base_qps = scaling_json["workers"]["1"]["qps"]
        for row in scaling_json["workers"].values():
            row["speedup_vs_1"] = round(row["qps"] / base_qps, 2)

        # -- observability: tracing overhead at a 1% sample rate ----------
        # Same server config, same workload, with and without every-100th
        # request stamped for server-side span recording.  Advisory gate
        # (recorded, never raising): machine noise on a saturated loopback
        # can exceed the few microseconds a sampled trace costs.
        obs_json = {"sample_every": 100}
        for label, trace_every in (("tracing_off", 0), ("tracing_on", 100)):
            obs_json[label] = _measure(
                store_path,
                coalesce=True,
                workload="uniform",
                pairs=pairs,
                connections=connections,
                window=window,
                warmup=warmup,
                repeats=repeats,
                trace_every=trace_every,
            )
        if obs_json["tracing_off"]["checksum"] != obs_json["tracing_on"]["checksum"]:
            raise AssertionError("tracing changed query answers")
        overhead_pct = round(
            max(
                0.0,
                1.0 - obs_json["tracing_on"]["qps"] / obs_json["tracing_off"]["qps"],
            )
            * 100.0,
            2,
        )
        obs_json["gate"] = {
            "description": (
                "pipelined loadgen with every 100th request traced "
                "(server-side span recording) vs the same run untraced; "
                "advisory only — recorded, never raising"
            ),
            "overhead_pct": overhead_pct,
            "required_max_pct": 5.0,
            "enforced": False,
            "pass": overhead_pct <= 5.0,
        }

    speedup = workloads_json["uniform"]["speedup"]
    top_workers = str(worker_counts[-1])
    scaling_speedup = scaling_json["workers"][top_workers]["speedup_vs_1"]
    scaling_gate = {
        "description": (
            f"repro-labels serve --workers {top_workers} (shard-per-core "
            "fleet, SO_REUSEPORT) vs --workers 1, same uniform workload, "
            "pipelined loadgen on loopback"
        ),
        "workload": "uniform",
        "cpus": cpus,
        "workers": int(top_workers),
        "fleet_qps": scaling_json["workers"][top_workers]["qps"],
        "single_qps": base_qps,
        "speedup": scaling_speedup,
        "required_speedup": required_scaling,
        "enforced": cpus >= 4 and not smoke,
        "pass": scaling_speedup >= required_scaling,
    }
    if not scaling_gate["enforced"]:
        scaling_gate["note"] = (
            f"host has {cpus} CPU(s); shard-per-core scaling cannot exceed "
            "1x without cores to shard over, so the 1.8x gate is recorded "
            "but only enforced on hosts with >= 4 CPUs"
        )
    payload = {
        "benchmark": "serve_throughput",
        "mode": mode,
        "scheme": "freedman",
        "n": n,
        "pairs": pairs,
        "connections": connections,
        "window": window,
        "workloads": workloads_json,
        "multi_worker": dict(scaling_json, gate=scaling_gate),
        "observability": obs_json,
        "gate": {
            "description": (
                "repro-labels serve (micro-batched coalescer) vs the same "
                "server with --no-coalesce (one-request-per-batch), pipelined "
                f"loadgen over {connections} connections on loopback"
            ),
            "workload": "uniform",
            "coalesced_qps": workloads_json["uniform"]["coalesced"]["qps"],
            "naive_qps": workloads_json["uniform"]["naive"]["qps"],
            "speedup": speedup,
            "required_speedup": required_speedup,
            "pass": speedup >= required_speedup,
        },
    }
    path = perf_common.write_json("BENCH_serve_throughput.json", payload, out=out)
    print(f"wrote {path}")
    print(
        f"gate: {speedup}x (required {required_speedup}x, "
        f"pass={payload['gate']['pass']})"
    )
    print(
        f"scaling: {scaling_speedup}x with {top_workers} workers on {cpus} "
        f"CPU(s) (required {required_scaling}x, "
        f"enforced={scaling_gate['enforced']}, pass={scaling_gate['pass']})"
    )
    print(
        f"tracing overhead at 1% sampling: {overhead_pct}% "
        f"(advisory <= 5%, pass={obs_json['gate']['pass']})"
    )
    if scaling_gate["enforced"] and not scaling_gate["pass"]:
        raise AssertionError(
            f"multi-worker scaling {scaling_speedup}x below the "
            f"{required_scaling}x gate"
        )
    return payload


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI sizes")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke-sized runs tagged mode=quick (fast local iteration lane)",
    )
    parser.add_argument("--out", default=None, help="output path override")
    arguments = parser.parse_args()
    run_perf_json(smoke=arguments.smoke, out=arguments.out, quick=arguments.quick)
