"""The serving metrics table and the fleet merge built on it.

:data:`SERIES` is the one place that names a serving series.  Each row
gives a STATS key, how the fleet merge folds it across workers (``sum`` or
``max``), the :class:`~repro.serve.server.ServingCore` attribute that holds
it (``None`` for a value computed when the payload is built) and, when it
is exported, its Prometheus name, type and help text.  The worker's STATS
payload, :func:`merge_fleet_stats` and :func:`repro.obs.prom.render` all
read it, so a new counter reaches STATS, the fleet view and ``/metrics``
through one row here plus its increment.

:func:`merge_fleet_stats` folds many per-worker STATS payloads into one
fleet-wide view.  Counters add, rates recompute from the summed counters,
and latency percentiles are recomputed from the **merged histogram
buckets** that detailed STATS carry — never by averaging per-worker
p50/p99, because an average of percentiles is not a percentile (a worker
answering 10 queries at 9 ms must not weigh as much as one answering
10 000 at 1 ms).  Bucket merges weight every worker by its true sample
count, so a freshly restarted worker contributes exactly its few samples.
A payload without a histogram contributes no latency samples.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.obs.hist import Histogram, merge_histogram_dicts


class Series(NamedTuple):
    """One serving series: STATS key, fleet merge, source and export."""

    key: str
    #: folds the per-worker values (``sum`` or ``max``); ``None`` when the
    #: merge derives the value itself
    merge: Callable | None
    #: the ServingCore attribute STATS reads; ``None`` when computed
    attr: str | None
    metric: str | None = None  #: Prometheus name; ``None`` = not exported
    kind: str | None = None  #: ``counter`` or ``gauge``
    help: str = ""


#: every plain serving series, in exposition order.  ``restarts`` is
#: per-slot (each incarnation reports how many times its slot was
#: restarted), so the sum over one snapshot per slot is the fleet's total.
SERIES: tuple[Series, ...] = (
    Series("queries", sum, "queries",
           "repro_queries_total", "counter", "Individual QUERY answers sent"),
    Series("batch_requests", sum, "batch_requests",
           "repro_batch_requests_total", "counter", "OP_BATCH requests served"),
    Series("batch_request_pairs", sum, "batch_request_pairs",
           "repro_batch_pairs_total", "counter", "Pairs answered inside OP_BATCH requests"),
    Series("matrix_requests", sum, "matrix_requests",
           "repro_matrix_requests_total", "counter", "OP_MATRIX requests served"),
    Series("flushes", sum, "flushes",
           "repro_coalescer_flushes_total", "counter", "Coalescer batch_query calls"),
    Series("coalesced_queries", sum, "coalesced",
           "repro_coalesced_queries_total", "counter",
           "QUERY answers produced by coalesced flushes"),
    Series("errors", sum, "errors",
           "repro_errors_total", "counter", "Request-scoped OP_ERROR responses"),
    Series("busy_rejections", sum, "busy_rejections",
           "repro_busy_rejections_total", "counter", "Requests shed with OP_BUSY backpressure"),
    Series("connections_total", sum, "connections_total",
           "repro_connections_total", "counter", "Client connections accepted"),
    Series("restarts", sum, "restarts",
           "repro_worker_restarts_total", "counter", "Worker processes restarted after a crash"),
    Series("connections_open", sum, "connections_open",
           "repro_connections_open", "gauge", "Client connections currently open"),
    Series("pending", sum, "pending_total",
           "repro_pending_queries", "gauge", "QUERYs queued in the coalescers right now"),
    Series("workers", None, None,
           "repro_workers", "gauge", "Distinct workers merged into this scrape"),
    Series("rss_bytes", sum, None,
           "repro_rss_bytes", "gauge",
           "Resident set size summed over workers (mmap-served payload pages are shared)"),
    Series("qps", sum, None,
           "repro_queries_per_second", "gauge",
           "Lifetime answered-query rate summed over workers"),
    Series("uptime_seconds", max, None,
           "repro_uptime_seconds", "gauge", "Oldest worker uptime"),
    Series("matrix_offloaded", sum, "matrix_offloaded"),
    Series("matrix_inflight", sum, "matrix_inflight"),
    Series("max_pending", max, "max_pending"),
)


def merge_fleet_stats(stats_list: list[dict]) -> dict:
    """One fleet-wide stats payload from many per-worker STATS payloads.

    ``stats_list`` may contain several snapshots of the same worker (e.g.
    one per loadgen connection); only the last snapshot per ``(slot, pid)``
    incarnation is kept.  De-duplicating by pid alone would conflate a
    restarted slot's old and new incarnations when both snapshots are in
    the list (a supervisor re-fork mid-run); keying by slot alone would
    drop the dead incarnation's counters.

    The result keeps every key of a worker's STATS payload but these:
    ``worker`` and ``slot`` identify a snapshot and ``members_open`` is
    per-worker state, so they go to ``per_worker`` (one compact row per
    snapshot); ``traces`` is the worker's own trace-ring state and is
    dropped.  ``kernel``, ``store_generation``, ``stages`` and ``index``
    appear only when some worker reports them.  Added on top: ``workers`` (distinct
    snapshot count), ``slots`` (distinct slot count) and
    ``restarts_observed`` (snapshots beyond one per slot — i.e. how many
    worker replacements the collection itself witnessed).
    """
    by_worker: dict[object, dict] = {}
    for stats in stats_list:
        by_worker[(stats.get("slot", 0), stats.get("worker"))] = stats
    workers = list(by_worker.values())
    if not workers:
        raise ValueError("merge_fleet_stats needs at least one stats payload")

    slots = {stats.get("slot", 0) for stats in workers}
    merged: dict = {
        "workers": len(workers),
        "slots": len(slots),
        "restarts_observed": len(workers) - len(slots),
    }
    for series in SERIES:
        if series.merge is not None:
            merged[series.key] = series.merge(stats.get(series.key, 0) for stats in workers)
    merged["qps"] = round(merged["qps"], 1)
    merged["coalescing"] = all(stats.get("coalescing", True) for stats in workers)
    merged["mean_batch_size"] = (
        round(merged["coalesced_queries"] / merged["flushes"], 2)
        if merged["flushes"]
        else 0.0
    )
    # kernel tier per worker; normally uniform across a fleet, but a mixed
    # deployment (one worker degraded to python) is worth surfacing as-is
    tiers = sorted({stats["kernel"] for stats in workers if stats.get("kernel")})
    if tiers:
        merged["kernel"] = tiers[0] if len(tiers) == 1 else ",".join(tiers)
    # store generation per worker; uniform once a rolling reload completes,
    # and a comma-joined set mid-roll — a probe can watch the flip happen
    generations = sorted(
        {
            stats["store_generation"]
            for stats in workers
            if stats.get("store_generation")
        }
    )
    if generations:
        merged["store_generation"] = (
            generations[0] if len(generations) == 1 else ",".join(generations)
        )
    # fleet latency: merge histogram buckets (exact — every worker weighted
    # by its true sample count); payloads without one add no samples
    histograms = [
        stats["latency_ms"]["histogram"]
        for stats in workers
        if isinstance(stats.get("latency_ms", {}).get("histogram"), dict)
    ]
    fleet_hist = merge_histogram_dicts(histograms) or Histogram()
    merged["latency_ms"] = {
        "p50": round(fleet_hist.percentile(0.50), 4),
        "p99": round(fleet_hist.percentile(0.99), 4),
        "samples": fleet_hist.total,
    }
    if histograms:
        merged["latency_ms"]["histogram"] = fleet_hist.to_dict()

    # per-stage histograms merge the same way (absent unless detailed STATS)
    stage_names = sorted(
        {stage for stats in workers for stage in stats.get("stages", {})}
    )
    if stage_names:
        merged["stages"] = {}
        for stage in stage_names:
            stage_hist = merge_histogram_dicts(
                [
                    stats["stages"][stage]
                    for stats in workers
                    if isinstance(stats.get("stages", {}).get(stage), dict)
                ]
            )
            if stage_hist is not None:
                merged["stages"][stage] = stage_hist.to_dict()

    merged["per_worker"] = [
        {
            "worker": stats.get("worker"),
            "slot": stats.get("slot", 0),
            "restarts": stats.get("restarts", 0),
            "uptime_seconds": stats.get("uptime_seconds", 0.0),
            "qps": stats.get("qps", 0.0),
            "queries": stats.get("queries", 0),
            "busy_rejections": stats.get("busy_rejections", 0),
            "p50_ms": stats.get("latency_ms", {}).get("p50", 0.0),
            "p99_ms": stats.get("latency_ms", {}).get("p99", 0.0),
            **(
                {"members_open": stats["members_open"]}
                if "members_open" in stats
                else {}
            ),
        }
        for stats in workers
    ]

    index = _merge_index_stats([s["index"] for s in workers if "index" in s])
    if index is not None:
        merged["index"] = index
    return merged


def _merge_index_stats(rows: list[dict]) -> dict | None:
    """Fold per-worker member-index stats (cache counters and arenas add)."""
    open_rows = [row for row in rows if row.get("open")]
    if not open_rows:
        return dict(rows[0]) if rows else None
    merged = dict(open_rows[0])
    partials = [row["cache"] for row in open_rows if "cache" in row]
    if partials:
        hits = sum(p.get("hits", 0) for p in partials)
        misses = sum(p.get("misses", 0) for p in partials)
        lookups = hits + misses
        folded = dict(partials[0])
        folded.update(
            hits=hits,
            misses=misses,
            hit_rate=round(hits / lookups, 4) if lookups else 0.0,
            size=sum(p.get("size", 0) for p in partials),
        )
        arenas = [p["arena"] for p in partials if p.get("arena")]
        if arenas:
            folded["arena"] = {
                key: sum(arena.get(key, 0) for arena in arenas)
                for key in ("bytes", "decodes")
            }
        merged["cache"] = folded
        merged["cache_hit_rate"] = folded["hit_rate"]
    return merged
