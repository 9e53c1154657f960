"""Benchmark of the distance-labeling library: build, query-cold, serve-warm.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload untraced and then traced, and reports the per-layer ledger.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance stamp and the raw (unnormalized) twins of every timing.  Every
timing is in reference-host units (see ``calib.py``).  The run exits 1 if
any answer differs from the oracle's and 3 if Freedman labels are not
answered by the native kernel tier.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(HERE, "_build")
OUT_DIR = os.path.join(HERE, "_out")

WORKLOADS = ("build", "query-cold", "serve-warm")

#: end-to-end metrics: name -> unit (every workload reports every one)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "label_bits_max": "bits",
    "label_bits_mean": "bits",
    "store_bytes_per_node": "B/node",
    "rss_mib": "MiB",
    "ok_frac": "frac",
}

#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "core.encode_us_per_node": "us/node",
    "store.pack_us_per_node": "us/node",
    "encoding.to_bits_us_per_node": "us/node",
    "core.parse_us_per_query": "us/query",
    "store.labels_parsed_per_query": "labels/query",
    "store.cache_hit_rate": "frac",
    "kernels.batch_us_per_query": "us/query",
    "kernels.declined": "count",
    "store.engine_self_us_per_query": "us/query",
    "serve.client_encode_us_per_query": "us/query",
    "serve.frame_split_us_per_query": "us/query",
    "serve.decode_request_us_per_query": "us/query",
    "serve.engine_us_per_query": "us/query",
    "serve.encode_result_us_per_query": "us/query",
    "serve.client_decode_us_per_query": "us/query",
    "serve.coalesced_batch_mean": "pairs",
    "serve.residual_us_per_query": "us/query",
    "trace.e2e_us_per_op": "us/op",
    "trace.residual_us_per_op": "us/op",
    "trace.overhead_frac": "frac",
    "host.cal_ms": "ms",
    "raw.setup_s": "s",
    "raw.ops_per_s": "1/s",
    "raw.p50_ms": "ms",
    "raw.tail_ms": "ms",
}

#: ledger rows of one workload: (metric, layer whose self time it is)
LEDGER_ROWS = {
    "build": [
        ("core.encode_us_per_node", "core.encode"),
        ("store.pack_us_per_node", "store.pack"),
        ("encoding.to_bits_us_per_node", "encoding.to_bits"),
    ],
    "query-cold": [
        ("core.parse_us_per_query", "core.parse"),
        ("kernels.batch_us_per_query", "kernels.batch"),
        ("store.engine_self_us_per_query", "store.engine"),
    ],
    "serve-warm": [
        ("serve.client_encode_us_per_query", "serve.client_encode"),
        ("serve.frame_split_us_per_query", "serve.frame_split"),
        ("serve.decode_request_us_per_query", "serve.decode_request"),
        ("core.parse_us_per_query", "core.parse"),
        ("kernels.batch_us_per_query", "kernels.batch"),
        ("store.engine_self_us_per_query", "store.engine"),
        ("serve.encode_result_us_per_query", "serve.encode_result"),
        ("serve.client_decode_us_per_query", "serve.client_decode"),
    ],
}


class TierError(RuntimeError):
    """Freedman labels are not answered by the native kernel tier."""


# -- preparation -------------------------------------------------------------------


def _pin_native_tier() -> dict:
    """Build and probe the native kernels before anything is timed.

    The shared library is named by the hash of ``_kernels.c``, so a fresh
    checkout or an edited kernel compiles here, never inside a timed set-up.
    """
    os.environ["REPRO_KERNELS"] = "native"
    os.environ.pop("REPRO_KERNELS_LIB", None)
    os.environ["REPRO_KERNELS_CACHE"] = os.path.join(BUILD_DIR, "kernels")
    from repro import kernels
    from repro.core.freedman import FreedmanScheme
    from repro.kernels import native

    native.ensure_built()
    kernels.reset()
    probe = kernels.probe()
    tier = kernels.backend().tier_for(FreedmanScheme())
    if probe["selected"] != "native" or tier != "native":
        raise TierError(
            f"Freedman is served by {tier!r} (selected tier {probe['selected']!r}: "
            f"{probe['note'] or probe['tiers']['native']['detail']})"
        )
    return {"selected": probe["selected"], "library": os.path.basename(kernels.backend().path)}


def _provenance(seed: int) -> dict:
    from calib import C_REF_MS

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, dirs, files in sorted(os.walk(package)):
        dirs[:] = sorted(d for d in dirs if not d.startswith(("_build", "__pycache__")))
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "c_ref_ms": C_REF_MS,
    }


def _rss_mib() -> float:
    """Resident set size of this process now, in MiB."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)
    except (OSError, ValueError, IndexError):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one workload ------------------------------------------------------------------


def _latency_ms(samples) -> tuple[float, float, dict]:
    """``(p50, tail, shape)`` of per-operation seconds, in milliseconds."""
    from calib import nearest_rank, tail_fraction

    ordered = sorted(samples)
    fraction = tail_fraction(len(ordered))
    tail = nearest_rank(ordered, fraction)
    shape = {
        "samples": len(ordered),
        "tail_pct": round(fraction * 100),
        "beyond_tail": sum(1 for value in ordered if value > tail),
    }
    return nearest_rank(ordered, 0.5) * 1000.0, tail * 1000.0, shape


def _phase_timings(workload: str, phase, setup) -> dict:
    """The timed end-to-end metrics of one phase, normalized and raw.

    On the query workloads the latencies are per ``batch`` call or per
    request, and the tail is the highest percentile (p99 once there are
    1000 samples) with at least ten samples beyond it.  A build run has
    only a few dozen trees, too few for such a tail: there ``p50_ms`` is
    the median over the tree set of each tree's median build time and
    ``tail_ms`` the costliest tree's median build time.
    """
    from calib import median

    if workload == "build":
        trees, trees_raw = phase.tree_medians
        p50, tail = median(trees) * 1000.0, max(trees) * 1000.0
        raw_p50, raw_tail = median(trees_raw) * 1000.0, max(trees_raw) * 1000.0
        shape = {"trees": len(trees), "chunks": len(phase.timer.chunks)}
        rate, raw_rate = phase.set_rate
    else:
        p50, tail, shape = _latency_ms(phase.latency)
        raw_p50, raw_tail, _ = _latency_ms(phase.latency_raw)
        rate, raw_rate = phase.rate(), phase.rate(raw=True)
    return {
        "setup_s": median(c.norm_s for c in setup.chunks),
        "ops_per_s": rate,
        "p50_ms": p50,
        "tail_ms": tail,
        "raw.setup_s": median(c.raw_s for c in setup.chunks),
        "raw.ops_per_s": raw_rate,
        "raw.p50_ms": raw_p50,
        "raw.tail_ms": raw_tail,
        "host.cal_ms": median(phase.timer.cal_samples),
        "latency": shape,
    }


def _patched(recorder):
    """The recorder's patches for a traced phase; nothing for an untraced one."""
    return recorder.installed() if recorder is not None else contextlib.nullcontext()


class Runner:
    """Prepares one workload's inputs and runs its set-up and phases."""

    def __init__(self, workload: str, seed: int, sizes, workdir: str) -> None:
        import inputs

        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        if workload == "build":
            self.inputs = inputs.BuildInputs(sizes, seed)
        elif workload == "query-cold":
            self.inputs = inputs.ColdInputs(sizes, seed, os.path.join(workdir, "cold.rls"))
        else:
            self.inputs = inputs.WarmInputs(sizes, seed, os.path.join(workdir, "warm.rls"))

    def setup(self, checks):
        """Time the fresh set-ups; their answers are checked into ``checks``."""
        import workloads

        if self.workload == "build":
            return workloads.setup_build(self.inputs, self.sizes.build_setup_reps, checks)
        if self.workload == "query-cold":
            return workloads.setup_cold(self.inputs, self.sizes.setup_reps, checks)
        return asyncio.run(workloads.setup_warm(self.inputs, self.sizes.setup_reps))

    def phases(self, plan) -> list:
        """Run measured phases back to back: ``plan`` is ``[(seconds, recorder)]``.

        Returns one :class:`workloads.Phase` per entry; a phase with a
        recorder runs with every layer's entry point wrapped.
        """
        import workloads
        from calib import ChunkTimer

        if self.workload == "serve-warm":

            async def serve():
                done = []
                async with workloads.WarmSession(self.inputs, self.sizes) as session:
                    for seconds, recorder in plan:
                        with _patched(recorder):
                            timer = ChunkTimer(recorder)
                            done.append(await session.measure(seconds, timer))
                return done

            return asyncio.run(serve())
        done = []
        for seconds, recorder in plan:
            with _patched(recorder):
                timer = ChunkTimer(recorder)
                if self.workload == "build":
                    done.append(workloads.measure_build(self.inputs, seconds, timer))
                else:
                    done.append(workloads.measure_cold(self.inputs, seconds, timer))
        return done

    def counts(self, phase) -> dict:
        """Exact parse-cache counts: a fixed pass on query-cold, the measured
        phase's deltas on serve-warm (nothing is parsed there once warm)."""
        import workloads

        if self.workload == "query-cold":
            return workloads.count_cold(self.inputs, self.sizes.count_batches)
        if self.workload == "serve-warm":
            return phase.counts
        return {"labels_parsed_per_query": 0.0, "cache_hit_rate": 0.0}


def run_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    from workloads import Phase

    checks = Phase(None)
    setup = runner.setup(checks)
    (phase,) = runner.phases([(seconds, None)])
    rss = _rss_mib()
    timings = _phase_timings(runner.workload, phase, setup)
    attempted = checks.attempted + phase.attempted
    failed = checks.failed + phase.failed
    metrics = {
        "setup_s": timings["setup_s"],
        "ops_per_s": timings["ops_per_s"],
        "p50_ms": timings["p50_ms"],
        "tail_ms": timings["tail_ms"],
        **phase.label_stats,
        "rss_mib": rss,
        "ok_frac": (attempted - failed) / attempted,
    }
    diagnostics = {
        "raw": {key: value for key, value in timings.items() if key.startswith("raw.")},
        "host.cal_ms": timings["host.cal_ms"],
        "latency": timings["latency"],
        "chunks": len(phase.timer.chunks),
        "ops": phase.ops,
        "tier": phase.tier,
    }
    return _result(metrics, END_TO_END, attempted, failed), diagnostics


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    from ledger import SpanRecorder
    from workloads import Phase

    checks = Phase(None)
    setup = runner.setup(checks)
    recorder = SpanRecorder()
    untraced, traced = runner.phases([(seconds / 2, None), (seconds / 2, recorder)])
    timings = _phase_timings(runner.workload, untraced, setup)
    counts = runner.counts(untraced)
    ops = traced.ops
    e2e = traced.timer.total_norm_s() * 1e6 / ops
    residual = e2e - recorder.covered_us_per(ops)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, layer in LEDGER_ROWS[runner.workload]:
        metrics[name] = recorder.self_us_per(layer, ops)
    if runner.workload == "serve-warm":
        metrics["serve.engine_us_per_query"] = recorder.incl_us_per("store.engine", ops)
        metrics["serve.residual_us_per_query"] = residual
        metrics["serve.coalesced_batch_mean"] = counts["coalesced_batch_mean"]
    metrics["store.labels_parsed_per_query"] = counts["labels_parsed_per_query"]
    metrics["store.cache_hit_rate"] = counts["cache_hit_rate"]
    metrics["kernels.declined"] = recorder.declined
    metrics["trace.e2e_us_per_op"] = e2e
    metrics["trace.residual_us_per_op"] = residual
    metrics["trace.overhead_frac"] = 1.0 - traced.rate() / untraced.rate()
    for key in ("host.cal_ms", "raw.setup_s", "raw.ops_per_s", "raw.p50_ms", "raw.tail_ms"):
        metrics[key] = timings[key]
    attempted = checks.attempted + untraced.attempted + traced.attempted
    failed = checks.failed + untraced.failed + traced.failed
    spans_path = os.path.join(OUT_DIR, f"{runner.workload}.spans")
    recorder.write(
        spans_path,
        {"workload": runner.workload, "seed": runner.seed, "ops": ops, "e2e_us_per_op": e2e},
    )
    diagnostics = {
        "ledger_rows": [name for name, _ in LEDGER_ROWS[runner.workload]],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans": len(recorder.ids),
        "calls": dict(zip(recorder.layers, recorder.calls)),
        "traced_ops": ops,
        "tier": traced.tier,
    }
    return _result(metrics, PER_LAYER, attempted, failed), diagnostics


def _result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, sizes) -> tuple[dict, dict]:
    """Prepare, measure and check one workload: ``(result, diagnostics)``."""
    tier = _pin_native_tier()
    workdir = os.path.join(BUILD_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workload, seed, sizes, workdir)
        # the inputs and expected answers are the benchmark's, not the
        # program's: keep the cyclic collector from walking them mid-chunk
        gc.collect()
        gc.freeze()
        if trace:
            result, diagnostics = run_traced(runner, seconds)
        else:
            result, diagnostics = run_end_to_end(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if diagnostics["tier"] != "native":
        raise TierError(f"{workload} answered Freedman queries on {diagnostics['tier']!r}")
    diagnostics["kernels"] = tier
    diagnostics["provenance"] = _provenance(seed)
    diagnostics["workload"] = workload
    diagnostics["mode"] = "trace" if trace else "end-to-end"
    return result, diagnostics


# -- smoke mode --------------------------------------------------------------------


def smoke() -> int:
    """All workloads, untraced and traced, at tiny sizes; asserts the output shape."""
    import inputs

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {
        "e2e": {row["name"]: row["unit"] for row in spec["end_to_end"]},
        "layer": {row["name"]: row["unit"] for row in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((False, "e2e"), (True, "layer")):
            result, diagnostics = run_one(workload, 1, 0.4, trace, inputs.SMOKE)
            problems += check_result(result, declared[kind], f"{workload}/{kind}")
            if trace:
                problems += check_ledger(workload, result, f"{workload}/ledger")
            print(json.dumps({"workload": workload, "trace": trace, **result}, sort_keys=True))
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def check_result(result: dict, declared: dict, where: str) -> list[str]:
    """Every declared metric exactly once, with its unit, and nothing else."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        problems.append(f"{where}: {result.get('failed')} wrong answers")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(declared):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(declared))} differ")
    for name, unit in declared.items():
        row = metrics.get(name)
        if row is not None and row.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {row.get('unit')!r}, not {unit!r}")
    return problems


def check_ledger(workload: str, result: dict, where: str) -> list[str]:
    """The ledger rows plus the residual add up to the traced end to end."""
    values = {name: row["value"] for name, row in result["metrics"].items()}
    e2e = values["trace.e2e_us_per_op"]
    rows = [values[name] for name, _ in LEDGER_ROWS[workload]]
    residual = values["trace.residual_us_per_op"]
    problems = []
    if e2e <= 0:
        problems.append(f"{where}: traced end to end is {e2e}")
    if abs(sum(rows) + residual - e2e) > 1e-6 * e2e:
        problems.append(f"{where}: rows {sum(rows)} + residual {residual} != {e2e}")
    if residual < 0 or min(rows) < 0:
        problems.append(f"{where}: a row or the residual is negative: {rows} {residual}")
    if workload == "serve-warm":
        inclusive = (
            sum(values[name] for name, _ in LEDGER_ROWS[workload])
            - values["core.parse_us_per_query"]
            - values["kernels.batch_us_per_query"]
            - values["store.engine_self_us_per_query"]
            + values["serve.engine_us_per_query"]
        )
        if abs(inclusive + values["serve.residual_us_per_query"] - e2e) > 1e-6 * e2e:
            problems.append(f"{where}: serve rows do not reconcile with {e2e}")
    return problems


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    import inputs

    try:
        result, diagnostics = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace), inputs.FULL
        )
    except TierError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
