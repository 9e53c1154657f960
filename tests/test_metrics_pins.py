"""Byte pins of the serving metrics surface.

Three things are pinned, each recorded from fixed synthetic worker rows
(no pids or clocks), so a change in how the fleet merge or the Prometheus
exposition is put together cannot silently change what a scraper or a STATS
consumer sees:

* the ``/metrics`` text of a fleet fixture — two slots with one restart,
  latency and stage histograms, a generation, a kernel tier and an index
  cache — alone and with the supervisor's slots and reloads, in
  ``tests/data/metrics_pin_restarted*.prom``;
* the fixture's merged STATS dict as sorted JSON in
  ``tests/data/metrics_pin_restarted.json``;
* the key set of a worker's detailed STATS payload.

All were recorded before the series table replaced the hand-kept copies
of the schema.  Since then the merged dicts differ in one key only: the
fleet merge now sums ``matrix_inflight``, which it used to drop.  The
withdrawn member routing later took its lines out of the pins, and nothing
else: the misroute and redirect counters and the routing-table version.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import DistanceIndex
from repro.generators.workloads import make_tree
from repro.obs.hist import Histogram
from repro.obs.prom import render
from repro.obs.trace import STAGES
from repro.serve import ServingCore
from repro.serve.metrics import merge_fleet_stats

DATA = Path(__file__).parent / "data"


def _hist(*observations: tuple[float, int]) -> dict:
    hist = Histogram()
    for value, count in observations:
        hist.observe_many(value, count)
    return hist.to_dict()


def _worker(slot, pid, restarts, queries, latency, **extra) -> dict:
    """A detailed-STATS-shaped worker row, every key a worker sends."""
    hist = Histogram.from_dict(_hist(*latency))
    row = {
        "worker": pid,
        "slot": slot,
        "restarts": restarts,
        "uptime_seconds": 10.0 + slot,
        "queries": queries,
        "batch_requests": 3 + slot,
        "batch_request_pairs": 40 + slot,
        "matrix_requests": 1,
        "matrix_offloaded": 1,
        "matrix_inflight": slot,
        "flushes": queries // 4,
        "coalesced_queries": queries,
        "mean_batch_size": 4.0,
        "errors": slot,
        "busy_rejections": 2 * slot,
        "pending": slot,
        "max_pending": 4096 * (slot + 1),
        "connections_open": 1,
        "connections_total": 2 + slot,
        "qps": 100.5 * (slot + 1),
        "rss_bytes": 1_000_000 * (slot + 1),
        "kernel": "native",
        "latency_ms": {
            "p50": round(hist.percentile(0.50), 4),
            "p99": round(hist.percentile(0.99), 4),
            "samples": hist.total,
            "histogram": hist.to_dict(),
        },
        "coalescing": True,
        "members_open": [""],
        "stages": {
            stage: _hist((0.01 * (rank + 1), queries)) for rank, stage in enumerate(STAGES)
        },
        "traces": {"recorded": slot, "slow_ms": None},
    }
    row.update(extra)
    return row


def restarted_fleet() -> list[dict]:
    """Two slots; slot 1 was restarted and both its incarnations reported."""
    cache = {"hits": 30, "misses": 10, "hit_rate": 0.75, "size": 12, "max_size": 64}
    index = {"name": "", "scheme": "freedman", "n": 200, "open": True}
    return [
        _worker(0, 101, 0, 80, [(0.2, 70), (1.5, 10)],
                store_generation="cafe1234", index=dict(index, cache=dict(cache))),
        _worker(1, 102, 0, 20, [(0.3, 20)],
                store_generation="cafe1234", index=dict(index, cache=dict(cache))),
        _worker(1, 103, 1, 12, [(0.4, 11), (9.0, 1)], store_generation="cafe1234",
                index=dict(index, cache=dict(cache, hits=5, misses=5, hit_rate=0.5))),
    ]


def restarted_supervisor() -> dict:
    return {
        "workers": 2,
        "path": "/srv/forest.cat",
        "generation": "cafe1234",
        "restarts": 1,
        "reloads": 0,
        "slots": [
            {"slot": 0, "pid": 101, "alive": True, "restarts": 0},
            {"slot": 1, "pid": 103, "alive": True, "restarts": 1},
        ],
    }


FIXTURES = {
    "restarted": (restarted_fleet, None),
    "restarted_supervised": (restarted_fleet, restarted_supervisor),
}


def exposition(name: str) -> str:
    rows, supervisor = FIXTURES[name]
    status = supervisor() if supervisor is not None else None
    return render(merge_fleet_stats(rows()), supervisor=status)


def merged_json(name: str) -> str:
    rows, _ = FIXTURES[name]
    return json.dumps(merge_fleet_stats(rows()), sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_exposition_text_is_pinned(name):
    expected = (DATA / f"metrics_pin_{name}.prom").read_text(encoding="utf-8")
    assert exposition(name) == expected


@pytest.mark.parametrize("name", ["restarted"])
def test_merged_stats_are_pinned(name):
    expected = (DATA / f"metrics_pin_{name}.json").read_text(encoding="utf-8")
    assert merged_json(name) == expected


WORKER_KEYS = {
    "worker", "slot", "restarts", "uptime_seconds", "queries",
    "batch_requests", "batch_request_pairs", "matrix_requests",
    "matrix_offloaded", "matrix_inflight", "flushes", "coalesced_queries",
    "mean_batch_size", "errors", "busy_rejections", "pending", "max_pending",
    "connections_open", "connections_total", "qps", "rss_bytes", "kernel",
    "latency_ms", "coalescing", "members_open", "stages", "traces", "index",
}


def test_worker_stats_keys_are_pinned():
    index = DistanceIndex.build(make_tree("random", 60, seed=3), "freedman")
    plain = ServingCore(index).stats(detail=True)
    assert set(plain) == WORKER_KEYS
    assert set(plain["latency_ms"]) == {"p50", "p99", "samples", "histogram"}
    generated = ServingCore(
        index, generation={"generation": "cafe1234", "path": "x.bin"}
    ).stats(detail=True)
    assert set(generated) == WORKER_KEYS | {"store_generation"}


def test_one_table_row_carries_a_new_counter_everywhere(monkeypatch):
    """A counter added to the table alone shows up in a worker's STATS, is
    summed by the fleet merge and is exported on ``/metrics``."""
    from repro.serve import metrics, server

    row = metrics.Series("declines", sum, "declines",
                         "repro_declines_total", "counter", "Kernel declines")
    monkeypatch.setattr(metrics, "SERIES", metrics.SERIES + (row,))
    monkeypatch.setattr(server, "SERIES", metrics.SERIES)
    index = DistanceIndex.build(make_tree("random", 30, seed=4), "freedman")
    cores = [ServingCore(index, slot=slot) for slot in (0, 1)]
    for core, declines in zip(cores, (2, 5)):
        core.declines = declines
    payloads = [core.stats(detail=True) for core in cores]
    assert [payload["declines"] for payload in payloads] == [2, 5]
    merged = merge_fleet_stats(payloads)
    assert merged["declines"] == 7
    text = render(merged)
    assert "# TYPE repro_declines_total counter\nrepro_declines_total 7\n" in text
