"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests -q``.

They run every workload at smoke sizes, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import calib  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from ledger import SpanRecorder, read_spans  # noqa: E402

EXACT_E2E = ("label_bits_max", "label_bits_mean", "store_bytes_per_node")
EXACT_COUNTS = ("store.cache_hit_rate", "store.labels_parsed_per_query")


def _values(workload: str, seed: int, trace: bool) -> dict:
    result, _ = run.run_one(workload, seed, 0.2, trace, inputs.SMOKE)
    assert result["correct"] and result["failed"] == 0
    return {name: row["value"] for name, row in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_values_repeat_for_a_seed_and_follow_it(workload):
    first = _values(workload, 7, False)
    again = _values(workload, 7, False)
    other = _values(workload, 8, False)
    for name in EXACT_E2E:
        assert first[name] == again[name], name
    assert any(first[name] != other[name] for name in EXACT_E2E)


def test_exact_counts_repeat_for_a_seed_and_follow_it():
    first = _values("query-cold", 7, True)
    again = _values("query-cold", 7, True)
    other = _values("query-cold", 8, True)
    for name in EXACT_COUNTS:
        assert first[name] == again[name], name
        assert first[name] != other[name], name
    assert 0.0 < first["store.cache_hit_rate"] < 0.5  # the cold regime
    warm = _values("serve-warm", 7, True)
    assert warm["store.labels_parsed_per_query"] == 0.0
    assert warm["store.cache_hit_rate"] == 1.0


def test_smoke_mode_passes():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {"smoke": "ok", "problems": 0}


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {row["name"]: row["unit"] for row in spec["end_to_end"]} == run.END_TO_END
    assert {row["name"]: row["unit"] for row in spec["per_layer"]} == run.PER_LAYER
    assert [row["name"] for row in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(row for row in spec["end_to_end"] if row["name"] == "setup_s")
    assert setup["bound"] == max(row["bound"] for row in spec["end_to_end"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_calibration_routine_is_frozen():
    assert calib.calibrate() == calib.CAL_CHECKSUM
    assert calib.tail_fraction(5000) == 0.99
    assert calib.tail_fraction(100) == 0.9


def test_self_time_excludes_children_and_spans_are_written(tmp_path):
    recorder = SpanRecorder()

    def inner():
        time.sleep(0.01)

    wrapped_inner = recorder.wrap("core.parse", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_outer = recorder.wrap("store.engine", outer)
    wrapped_outer()  # outside any chunk: not recorded
    timer = calib.ChunkTimer(recorder)
    with timer.chunk() as chunk:
        wrapped_outer()
    parse = recorder.self_s[recorder.layers.index("core.parse")]
    engine_self = recorder.self_s[recorder.layers.index("store.engine")]
    engine_incl = recorder.incl_s[recorder.layers.index("store.engine")]
    assert recorder.calls[recorder.layers.index("store.engine")] == 1
    assert engine_incl == pytest.approx(engine_self + parse)
    assert 0.5 * engine_self < parse < 2.0 * engine_self
    assert sum(recorder.self_s) <= chunk.norm_s * 1.000001
    path = str(tmp_path / "spans.bin")
    recorder.write(path, {"workload": "unit"})
    meta, columns = read_spans(path)
    assert meta["spans"] == 2
    assert list(columns["parent"]) == [columns["id"][1], -1]
