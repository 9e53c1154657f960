"""Load generator for a :mod:`repro.serve` endpoint.

One entry point, :func:`run_load`, shared by the ``repro-labels loadgen``
command and ``benchmarks/bench_serve_throughput.py``: generate a named pair
workload (:mod:`repro.generators.workloads` — uniform, Zipf-skewed, or the
structural ``sibling``/``khop`` shapes), drive the server from several
pipelined connections, and report client-side throughput next to the
server's own statistics (coalescer batch sizes, latency percentiles,
parsed-label cache hit rate).

The structural workloads need the tree itself, which the server never
ships over the wire; ``family``/``tree_seed`` rebuild it locally from the
generator registry using the node count the server reports in INFO — the
same ``(family, n, seed)`` triple the index was encoded from.

Against a multi-worker fleet (``repro-labels serve --workers N``) each
connection lands on some worker, so ``loadgen`` asks **every** connection
for STATS, de-duplicates the payloads by worker id and merges them with
:func:`repro.serve.metrics.merge_fleet_stats`: counters and qps add, and
the latency percentiles are recomputed from the bucket-wise merged
per-worker histograms — an average of per-worker p50/p99 values is *not* a
percentile of the fleet's latency distribution and is never reported.

``trace_every=N`` stamps every Nth pipelined request with a trace id; after
the run the traced spans are fetched back from each connection's worker
(``OP_TRACE``) and folded into ``report["tracing"]`` — a per-stage
decode/queue/batch/encode/write breakdown of real sampled requests under
this exact load.

``chaos="kill-worker:t=2"`` turns a load run into a self-healing check
against a *supervised* fleet on the same machine: every ``t`` seconds a
probe connection asks INFO for the pid of whichever worker it landed on
and SIGKILLs it mid-run.  The run must still answer every pair — the
clients reconnect, the supervisor re-forks — and the report counts the
kills next to the client ``reconnects`` that absorbed them.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

from repro.generators.workloads import pair_workload
from repro.serve.client import AsyncLabelClient
from repro.serve.metrics import merge_fleet_stats


def parse_chaos(spec: str) -> tuple[str, float]:
    """``(kind, interval_seconds)`` from a chaos spec like ``kill-worker:t=2``."""
    kind, _, rest = spec.partition(":")
    if kind != "kill-worker":
        raise ValueError(f"unknown chaos kind {kind!r} (expected 'kill-worker')")
    interval = 2.0
    if rest:
        key, _, value = rest.partition("=")
        if key != "t":
            raise ValueError(f"unknown chaos parameter {key!r} (expected 't')")
        interval = float(value)
    if interval <= 0:
        raise ValueError("chaos interval must be positive")
    return kind, interval


async def _chaos_kill_workers(
    host: str, port: int, interval: float, kills: list[int]
) -> None:
    """SIGKILL the worker behind a fresh probe connection every ``interval``."""
    while True:
        await asyncio.sleep(interval)
        try:
            async with await AsyncLabelClient.connect(host, port) as probe:
                pid = (await probe.info())["worker"]
            os.kill(pid, signal.SIGKILL)
        except (ConnectionError, OSError):
            continue  # mid-restart window; try again next tick
        kills.append(pid)


def member_pair_counts(count: int, members: int, member_skew: float) -> list[int]:
    """Split ``count`` pairs over ``members`` by Zipf rank weight.

    ``member_skew=0`` is a uniform split; larger skews concentrate traffic
    on the first-ranked members (hot catalog members).  Counts always sum
    to ``count``.
    """
    if members < 1:
        raise ValueError("need at least one member")
    weights = [1.0 / (rank + 1) ** member_skew for rank in range(members)]
    total = sum(weights)
    counts = [int(count * weight / total) for weight in weights]
    counts[0] += count - sum(counts)
    return counts


async def _run_load_async(
    host: str,
    port: int,
    *,
    name: str,
    pairs: int,
    workload: str,
    skew: float,
    connections: int,
    window: int,
    mode: str,
    seed: int,
    family: str,
    tree_seed: int,
    hops: int,
    chaos: str | None,
    trace_every: int,
    members: list[str] | None,
    member_skew: float,
) -> dict:
    if connections < 1:
        raise ValueError("connections must be at least 1")
    if mode not in ("pipeline", "batch"):
        raise ValueError(f"unknown loadgen mode {mode!r}")
    if trace_every < 0:
        raise ValueError("trace_every must be non-negative")
    if trace_every and mode != "pipeline":
        raise ValueError("tracing requires mode='pipeline'")
    chaos_plan = parse_chaos(chaos) if chaos else None
    clients = [await AsyncLabelClient.connect(host, port) for _ in range(connections)]
    try:
        info = await clients[0].info()
        served = info["members"]
        targets = list(members) if members else [name]
        for member in targets:
            if member not in served:
                raise ValueError(
                    f"no member named {member!r} on the server; "
                    f"members: {sorted(served)}"
                )
        counts = member_pair_counts(pairs, len(targets), member_skew)
        # one workload per member (each member may have its own node count),
        # seeded by member rank so shards differ but stay reproducible
        works: list[tuple[str, list]] = []
        for rank, (member, count) in enumerate(zip(targets, counts)):
            n = served[member]["n"]
            params = {}
            target: object = n
            if workload == "zipf":
                params = {"skew": skew}
            elif workload in ("sibling", "khop"):
                # the server only reports n; rebuild the tree the index came
                # from so the structural workload can read its shape
                from repro.generators.workloads import make_tree

                target = make_tree(family, n, tree_seed)
                if workload == "khop":
                    params = {"hops": hops}
            works.append(
                (member, pair_workload(workload, target, count, seed + rank, **params))
            )
        # per connection: its slice of every member's workload
        shards = [
            [(member, work[index::connections]) for member, work in works]
            for index in range(connections)
        ]

        kills: list[int] = []
        chaos_task = None
        if chaos_plan is not None:
            chaos_task = asyncio.get_running_loop().create_task(
                _chaos_kill_workers(host, port, chaos_plan[1], kills)
            )
        started = time.perf_counter()
        try:
            if mode == "pipeline":

                async def run_shard(client, jobs):
                    answered = await asyncio.gather(
                        *(
                            client.pipeline(
                                work,
                                name=member,
                                raw=True,
                                window=window,
                                trace_every=trace_every,
                            )
                            for member, work in jobs
                            if work
                        )
                    )
                    return [value for chunk in answered for value in chunk]

            else:
                # BATCH mode: window-sized OP_BATCH requests, all in flight at once
                async def run_shard(client, jobs):
                    chunks = [
                        (member, work[pos : pos + window])
                        for member, work in jobs
                        for pos in range(0, len(work), window)
                    ]
                    answered = await asyncio.gather(
                        *(
                            client.batch(chunk, name=member, raw=True)
                            for member, chunk in chunks
                        )
                    )
                    return [value for chunk in answered for value in chunk]

            shard_results = await asyncio.gather(
                *(run_shard(client, jobs) for client, jobs in zip(clients, shards))
            )
        finally:
            if chaos_task is not None:
                chaos_task.cancel()
                try:
                    await chaos_task
                except asyncio.CancelledError:
                    pass
        elapsed = max(time.perf_counter() - started, 1e-9)
        # every connection may face a different worker: collect all STATS
        # payloads and fold them into one fleet view (histograms merged)
        rows = await asyncio.gather(
            *(client.stats(name, detail=True) for client in clients)
        )
        stats = merge_fleet_stats(rows)
        busy_retried = sum(client.busy_retried for client in clients)
        reconnects = sum(client.reconnects for client in clients)
        tracing = None
        if trace_every:
            tracing = await _collect_traces(clients, trace_every)
    finally:
        for client in clients:
            await client.close()

    answered = sum(len(shard) for shard in shard_results)
    checksum = sum(value for shard in shard_results for value in shard if value is not None)
    report = {
        "host": host,
        "port": port,
        "member": name,
        "members": targets if members else None,
        "member_skew": member_skew if members else None,
        "workload": workload,
        "skew": skew if workload == "zipf" else None,
        "mode": mode,
        "connections": connections,
        "window": window,
        "pairs": answered,
        "seconds": round(elapsed, 4),
        "qps": round(answered / elapsed, 1),
        "checksum": round(checksum, 4),
        "busy_retried": busy_retried,
        "reconnects": reconnects,
        "workers": stats["workers"],
        "restarts_observed": stats.get("restarts_observed", 0),
        "server": stats,
    }
    if tracing is not None:
        report["tracing"] = tracing
    if chaos_plan is not None:
        report["chaos"] = {"spec": chaos, "kills": len(kills), "pids": kills}
    return report


async def _collect_traces(clients, trace_every: int) -> dict:
    """Fetch sampled traces back from the workers and fold a stage breakdown.

    Each connection asks its own worker's trace ring (``OP_TRACE``), so with
    one connection per worker the whole fleet is covered; traces are matched
    to the ids *this* run stamped (the ring may also hold other clients'
    traces) and de-duplicated.  Workers bound their rings, so under heavy
    sampling ``collected < requested`` — the counts make that visible.
    """
    requested = {
        trace_id for client in clients for trace_id in client.traced_ids
    }
    collected: dict[int, dict] = {}
    for client in clients:
        try:
            snapshot = await client.trace(limit=0, slow=False)
        except (ConnectionError, OSError):  # pragma: no cover - dying fleet
            continue
        for trace in snapshot.get("traces", ()):
            trace_id = trace.get("trace_id")
            if trace_id in requested and trace_id not in collected:
                collected[trace_id] = trace
    stages: dict[str, dict] = {}
    total_count = 0
    total_sum = 0.0
    for trace in collected.values():
        total_count += 1
        total_sum += trace.get("total_ms", 0.0)
        for span in trace.get("spans", ()):
            stage = span.get("stage")
            row = stages.setdefault(
                stage, {"count": 0, "sum_ms": 0.0, "max_ms": 0.0}
            )
            row["count"] += 1
            row["sum_ms"] += span.get("ms", 0.0)
            row["max_ms"] = max(row["max_ms"], span.get("ms", 0.0))
    breakdown = {
        stage: {
            "count": row["count"],
            "mean_ms": round(row["sum_ms"] / row["count"], 4),
            "max_ms": round(row["max_ms"], 4),
        }
        for stage, row in stages.items()
    }
    return {
        "sample_every": trace_every,
        "requested": len(requested),
        "collected": len(collected),
        "mean_total_ms": round(total_sum / total_count, 4) if total_count else 0.0,
        "stages": breakdown,
    }


def run_load(
    host: str,
    port: int,
    *,
    name: str = "",
    pairs: int = 10000,
    workload: str = "uniform",
    skew: float = 1.0,
    connections: int = 4,
    window: int = 128,
    mode: str = "pipeline",
    seed: int = 0,
    family: str = "random",
    tree_seed: int = 0,
    hops: int = 4,
    chaos: str | None = None,
    trace_every: int = 0,
    members: list[str] | None = None,
    member_skew: float = 0.0,
) -> dict:
    """Drive a serve endpoint and return a metrics dict.

    ``mode="pipeline"`` issues one QUERY per pair with up to ``window`` in
    flight per connection (the shape that exercises the server's
    micro-batching coalescer); ``mode="batch"`` groups pairs into
    window-sized BATCH requests instead.  The structural workloads
    (``sibling``, ``khop``) rebuild the served tree locally from
    ``family``/``tree_seed`` and the server-reported node count; ``hops``
    bounds the khop walk.  ``report["server"]`` is the fleet-merged STATS
    view; ``report["workers"]`` counts the distinct workers the
    connections reached.  ``chaos`` (e.g. ``"kill-worker:t=2"``) SIGKILLs
    a worker pid every ``t`` seconds mid-run — only meaningful against a
    supervised fleet on this machine.  ``trace_every=N`` samples every Nth
    pipelined request for server-side tracing and adds the per-stage
    breakdown as ``report["tracing"]``.

    ``members=[...]`` spreads the workload over several catalog members
    (pairs split by Zipf rank weight, ``member_skew=0`` uniform).  Fleet
    STATS are merged by ``(slot, pid)``, so ``report["restarts_observed"]``
    counts workers that were replaced mid-run.
    """
    return asyncio.run(
        _run_load_async(
            host,
            port,
            name=name,
            pairs=pairs,
            workload=workload,
            skew=skew,
            connections=connections,
            window=window,
            mode=mode,
            seed=seed,
            family=family,
            tree_seed=tree_seed,
            hops=hops,
            chaos=chaos,
            trace_every=trace_every,
            members=members,
            member_skew=member_skew,
        )
    )
