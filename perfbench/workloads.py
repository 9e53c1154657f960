"""The three workloads: ``build``, ``query-cold`` and ``serve-warm``.

Each workload has a *set-up* (a fresh start up to the first answerable
operation, repeated with fresh handles) and a *measured phase* that runs
chunks of work between calibration brackets until they add up to the
phase's length in reference-host seconds.  A phase returns a
:class:`Phase`: normalized and raw timings, the answers checked against the
oracle and the exact counts read from the program.
"""

from __future__ import annotations

import asyncio
from array import array
from time import perf_counter

from calib import ChunkTimer, median
from inputs import CHUNK_S, CONNECTIONS, SCHEME
from repro.api import DistanceIndex
from repro.core.registry import make_scheme_from_spec
from repro.serve.client import AsyncLabelClient
from repro.serve.server import LabelServer
from repro.store.label_store import LabelStore

#: chunk sizes grow at most this much from one chunk to the next
_MAX_GROWTH = 4


def _next_units(units: int, chunk) -> int:
    """Units of work for the next chunk so that it lasts about ``CHUNK_S``."""
    if chunk.norm_s <= 0:
        return units * _MAX_GROWTH
    wanted = round(units * CHUNK_S / chunk.norm_s)
    return max(1, min(units * _MAX_GROWTH, wanted))


def _mismatches(answers, expected) -> int:
    if isinstance(answers, BaseException) or len(answers) != len(expected):
        return len(expected)
    return sum(1 for got, want in zip(answers, expected) if got != want)


class Phase:
    """What one measured phase produced."""

    def __init__(self, timer: ChunkTimer) -> None:
        self.timer = timer
        self.ops = 0  #: nodes labelled (build) or queries answered correctly
        self.attempted = 0  #: answers checked against the oracle
        self.failed = 0
        self.latency = array("d")  #: per-operation seconds, normalized
        self.latency_raw = array("d")
        self.label_stats: dict = {}
        self.counts: dict = {}
        self.tier = None
        #: build only: (normalized, raw) nodes/s over the tree set and
        #: each tree's median build seconds (normalized, raw)
        self.set_rate: tuple[float, float] | None = None
        self.tree_medians: tuple[list[float], list[float]] | None = None

    def check(self, answers, expected) -> int:
        """Count ``answers`` against the oracle's; returns how many were right."""
        wrong = _mismatches(answers, expected)
        self.attempted += len(expected)
        self.failed += wrong
        return len(expected) - wrong

    def rate(self, raw: bool = False) -> float:
        """Operations per second over the whole phase.

        Every stall inside a chunk counts — the program's own garbage
        collections included — as it does for a user.
        """
        timer = self.timer
        return self.ops / (timer.total_raw_s() if raw else timer.total_norm_s())


def _label_stats(stores) -> dict:
    nodes = sum(store.n for store in stores)
    return {
        "label_bits_max": max(store.max_label_bits for store in stores),
        "label_bits_mean": sum(store.total_label_bits for store in stores) / nodes,
        "store_bytes_per_node": sum(store.file_bytes for store in stores) / nodes,
    }


# -- build ----------------------------------------------------------------------


def setup_build(inputs, reps: int, phase: Phase) -> ChunkTimer:
    """Scheme construction plus the first tree, ``reps`` times."""
    timer = ChunkTimer()
    for _ in range(reps):
        with timer.chunk():
            scheme = make_scheme_from_spec(SCHEME)
            store = LabelStore.from_labels(scheme, scheme.encode(inputs.trees[0]))
        phase.check(
            DistanceIndex.from_store(store).batch(inputs.samples[0], raw=True),
            inputs.expected[0],
        )
    return timer


def measure_build(inputs, seconds: float, timer: ChunkTimer) -> Phase:
    """Encode and pack the seeded trees, one chunk per tree, in whole cycles.

    Only ``scheme.encode`` and ``LabelStore.from_labels`` run inside a
    chunk; each freshly built store is re-queried on a seeded sample
    between chunks.  The phase ends with the first complete cycle over the
    tree set that finishes past ``seconds`` of reference-host time, so
    every tree contributes equally many samples.  Throughput is the set's
    nodes over the sum of each tree's median time, so one disturbed chunk
    cannot move it.
    """
    phase = Phase(timer)
    scheme = make_scheme_from_spec(SCHEME)
    count = len(inputs.trees)
    per_tree: list[list[float]] = [[] for _ in range(count)]
    per_tree_raw: list[list[float]] = [[] for _ in range(count)]
    first: list = [None] * count
    cycles = 0
    while cycles == 0 or timer.elapsed < seconds:
        cycles += 1
        for k, tree in enumerate(inputs.trees):
            try:
                with timer.chunk() as chunk:
                    store = LabelStore.from_labels(scheme, scheme.encode(tree))
            except Exception as error:  # counted against the attempted answers
                phase.check(error, inputs.expected[k])
                continue
            per_tree[k].append(chunk.norm_s)
            per_tree_raw[k].append(chunk.raw_s)
            phase.ops += tree.n
            if first[k] is None:
                first[k] = store
            index = DistanceIndex.from_store(store)
            try:
                answers = index.batch(inputs.samples[k], raw=True)
            except Exception as error:
                answers = error
            phase.check(answers, inputs.expected[k])
            phase.tier = index.engine.cache_info()["backend"]
    done = [k for k in range(count) if per_tree[k]]
    nodes = sum(inputs.trees[k].n for k in done)
    phase.tree_medians = (
        [median(per_tree[k]) for k in done],
        [median(per_tree_raw[k]) for k in done],
    )
    phase.set_rate = (nodes / sum(phase.tree_medians[0]), nodes / sum(phase.tree_medians[1]))
    phase.label_stats = _label_stats([store for store in first if store is not None])
    return phase


# -- query-cold -----------------------------------------------------------------


def setup_cold(inputs, reps: int, phase: Phase) -> ChunkTimer:
    """``DistanceIndex.open(mmap=True)`` plus the first batch, ``reps`` times."""
    timer = ChunkTimer()
    for _ in range(reps):
        with timer.chunk():
            index = DistanceIndex.open(inputs.path, mmap=True, cache_size=inputs.cache_size)
            answers = index.batch(inputs.batches[0], raw=True)
        phase.check(answers, inputs.expected[0])
    return timer


def measure_cold(inputs, seconds: float, timer: ChunkTimer) -> Phase:
    """64-pair ``batch(raw=True)`` calls on a fresh mmap'd index, in chunks.

    The phase runs for ``seconds`` of reference-host time, and on until
    it has ``inputs.min_calls`` latency samples, so its p99 always rests
    on ten samples or more.
    """
    phase = Phase(timer)
    index = DistanceIndex.open(inputs.path, mmap=True, cache_size=inputs.cache_size)
    batch = index.batch
    batches = inputs.batches
    total = len(batches)
    cursor = 0
    units = 1
    while timer.elapsed < seconds or len(phase.latency) < inputs.min_calls:
        got = []
        spans = []
        first = cursor
        with timer.chunk() as chunk:
            for position in range(first, first + units):
                pairs = batches[position % total]
                start = perf_counter()
                try:
                    answers = batch(pairs, raw=True)
                except Exception as error:
                    answers = error
                spans.append(perf_counter() - start)
                got.append(answers)
        cursor += units
        for offset, answers in enumerate(got):
            phase.ops += phase.check(answers, inputs.expected[(first + offset) % total])
        factor = chunk.factor
        phase.latency.extend(span * factor for span in spans)
        phase.latency_raw.extend(spans)
        units = _next_units(units, chunk)
    phase.tier = index.engine.cache_info()["backend"]
    phase.label_stats = _label_stats([index.store])
    return phase


def count_cold(inputs, batches: int) -> dict:
    """Exact parse-cache counts of a fixed pass from a fresh index.

    The measured phase runs for a time, so its counters depend on host
    speed; this pass runs the first ``batches`` batches of the seeded
    stream and nothing else, so its counts repeat exactly for a seed.
    """
    index = DistanceIndex.open(inputs.path, mmap=True, cache_size=inputs.cache_size)
    queries = 0
    for pairs in inputs.batches[:batches]:
        index.batch(pairs, raw=True)
        queries += len(pairs)
    info = index.engine.cache_info()
    lookups = info["hits"] + info["misses"]
    return {
        "labels_parsed_per_query": info["misses"] / queries,
        "cache_hit_rate": info["hits"] / lookups,
    }


# -- serve-warm ------------------------------------------------------------------


async def _start(inputs, connections: int):
    index = DistanceIndex.open(inputs.path, mmap=True)
    server = LabelServer(index)
    host, port = await server.start("127.0.0.1", 0)
    clients = [
        await AsyncLabelClient.connect(host, port, busy_retries=0, reconnect_retries=0)
        for _ in range(connections)
    ]
    return index, server, clients


async def _stop(server, clients) -> None:
    for client in clients:
        await client.close()
    await server.stop()
    server.close_connections()
    await asyncio.sleep(0)


async def setup_warm(inputs, reps: int) -> ChunkTimer:
    """Open the index, start the server, connect a client and ask INFO."""
    timer = ChunkTimer()
    for _ in range(reps):
        with timer.chunk():
            _, server, clients = await _start(inputs, 1)
            info = await clients[0].info()
        await _stop(server, clients)
        if info["members"][""]["n"] != inputs.n:
            raise RuntimeError(f"INFO reports the wrong node count: {info['members']}")
    return timer


class WarmSession:
    """One in-process server, two clients and a warm parse cache."""

    def __init__(self, inputs, sizes) -> None:
        self.inputs = inputs
        self.sizes = sizes
        self.cursor = 0

    async def __aenter__(self) -> "WarmSession":
        inputs = self.inputs
        self.index, self.server, self.clients = await _start(inputs, CONNECTIONS)
        # parse every label once: from here on the cache holds the tree
        answers = await self.clients[0].batch(
            [(node, node) for node in range(inputs.n)], raw=True
        )
        if answers != [0] * inputs.n:
            raise RuntimeError("warm-up self-distances are not all zero")
        return self

    async def __aexit__(self, *exc) -> None:
        await _stop(self.server, self.clients)

    async def _caller(self, client, first: int, count: int, results, spans) -> None:
        pairs = self.inputs.pairs
        total = len(pairs)
        query = client.query
        for position in range(first, first + count):
            u, v = pairs[position % total]
            start = perf_counter()
            try:
                answer = await query(u, v, raw=True)
            except Exception as error:  # BUSY, error frames, dropped connections
                answer = error
            spans.append(perf_counter() - start)
            results.append(answer)

    async def measure(self, seconds: float, timer: ChunkTimer) -> Phase:
        """Closed loop: ``callers`` tasks, each awaiting its own next query."""
        phase = Phase(timer)
        engine = self.index.engine
        server = self.server
        hits, misses = engine.cache_hits, engine.cache_misses
        flushes, coalesced = server.flushes, server.coalesced
        callers = self.sizes.callers
        clients = self.clients
        expected = self.inputs.expected
        total = len(expected)
        units = 2
        while timer.elapsed < seconds:
            first = self.cursor
            results = [[] for _ in range(callers)]
            spans = [array("d") for _ in range(callers)]
            with timer.chunk() as chunk:
                await asyncio.gather(
                    *(
                        self._caller(
                            clients[c % len(clients)],
                            first + c * units,
                            units,
                            results[c],
                            spans[c],
                        )
                        for c in range(callers)
                    )
                )
            self.cursor += callers * units
            for c in range(callers):
                base = first + c * units
                want = [expected[(base + k) % total] for k in range(units)]
                phase.ops += phase.check(results[c], want)
                phase.latency.extend(span * chunk.factor for span in spans[c])
                phase.latency_raw.extend(spans[c])
            units = _next_units(units, chunk)
        hits, misses = engine.cache_hits - hits, engine.cache_misses - misses
        flushes, coalesced = server.flushes - flushes, server.coalesced - coalesced
        phase.counts = {
            "labels_parsed_per_query": misses / phase.ops if phase.ops else 0.0,
            "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "coalesced_batch_mean": coalesced / flushes if flushes else 0.0,
        }
        phase.tier = engine.cache_info()["backend"]
        phase.label_stats = _label_stats([self.index.store])
        return phase
