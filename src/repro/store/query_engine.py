"""Query serving on top of a :class:`repro.store.LabelStore`.

The engine is decoder-only: it sees packed bits, never the tree.  Parsing a
label (packed word -> label object) dominates CPython query cost, so the
engine keeps a bounded LRU cache of parsed labels and offers batch entry
points that look each distinct endpoint up exactly once.

Batches route **kernel first** when the active kernel backend decodes the
labels straight from the store (the native tier, for hld-fixed and
Freedman; see :mod:`repro.kernels`): the C kernel answers without any
Python parse, and the batch's cold endpoints enter the LRU as an undecoded
placeholder.  A placeholder is parsed — and upgraded in place — on its
first Python-side use (:meth:`QueryEngine.parsed_label`, a batch below the
kernel's ``min_batch``, :meth:`QueryEngine.distance_matrix`); the
read-only :meth:`QueryEngine.matrix_into` parses it locally.  Only when the
kernel declines does the batch parse, which raises exactly the Python
path's errors.  Every other backend keeps the parse-then-query order.  The
hot-pair cache sits in front of all this: its missing pairs take the same
route.

The parse supply path is zero-string end to end: the store yields
``(node, packed_value, bit_length)`` words (:meth:`LabelStore.label_words`)
and the scheme's ``parse_many`` turns them into label objects — no
character-per-bit strings, and for schemes with a word-level parser no
intermediate :class:`~repro.encoding.bitio.Bits` either.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from repro import kernels
from repro.store.label_store import LabelStore

#: cache-miss sentinel: one ``dict.get`` resolves hit-or-miss without a
#: second ``in`` lookup (``None`` is not usable — it is a valid label value
#: only in theory, but the sentinel also guards against that)
_MISSING = object()
#: LRU value of a node the native kernel answered for but nothing has
#: parsed yet: resident (a lookup counts as a hit), decoded on first use
_UNPARSED = object()


def _trim(cache: OrderedDict, size: int) -> None:
    """Evict the oldest entries of ``cache`` until at most ``size`` remain."""
    pop = cache.popitem
    for _ in range(len(cache) - size):
        pop(last=False)


class QueryEngine:
    """Answers queries from a packed store through ``scheme.query``.

    ``scheme`` may be omitted, in which case it is rebuilt from the spec the
    store carries.  The semantics of one query result follow the scheme's
    family (``scheme.kind``): an exact distance, a distance-or-``None``
    bounded answer, or a (1+eps)-approximation.
    """

    def __init__(
        self,
        store: LabelStore,
        scheme=None,
        cache_size: int = 4096,
        pair_cache_size: int = 0,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        if pair_cache_size < 0:
            raise ValueError("pair_cache_size must be non-negative")
        self.store = store
        self.scheme = scheme if scheme is not None else store.make_scheme()
        self._cache: OrderedDict[int, object] = OrderedDict()
        self._cache_size = cache_size
        #: label cache statistics (resident hits, admitted misses), exposed
        #: for benchmarks and tuning
        self.cache_hits = 0
        self.cache_misses = 0
        # -- hot-pair response cache (opt-in) ----------------------------
        # Keyed by (min(u, v), max(u, v)): every scheme family here answers
        # symmetrically, so one entry serves both orientations.  Disabled by
        # default — in-process batch callers rarely repeat exact pairs — and
        # switched on by the network server, whose Zipf-shaped traffic
        # repeats a hot pair set heavily.
        self._pair_cache: OrderedDict[tuple[int, int], object] = OrderedDict()
        self._pair_cache_size = pair_cache_size
        self.pair_hits = 0
        self.pair_misses = 0

    @classmethod
    def from_labels(cls, scheme, labels: dict[int, object], **kwargs) -> "QueryEngine":
        """Pack ``labels`` into a fresh store and serve it."""
        return cls(LabelStore.from_labels(scheme, labels), scheme=scheme, **kwargs)

    @classmethod
    def encode_tree(cls, scheme, tree, **kwargs) -> "QueryEngine":
        """Encode ``tree``, pack the labels and serve them."""
        return cls(LabelStore.encode_tree(scheme, tree), scheme=scheme, **kwargs)

    @property
    def n(self) -> int:
        """Number of queryable nodes."""
        return self.store.n

    # -- label parsing -------------------------------------------------------

    def parsed_label(self, node: int):
        """The parsed label of ``node``, LRU-cached."""
        cache = self._cache
        label = cache.get(node, _MISSING)
        if label is not _MISSING:
            cache.move_to_end(node)
            self.cache_hits += 1
            if label is _UNPARSED:
                label = cache[node] = self.scheme.parse(self.store.label_bits(node))
            return label
        self.cache_misses += 1
        label = self.scheme.parse(self.store.label_bits(node))
        cache[node] = label
        if len(cache) > self._cache_size:
            cache.popitem(last=False)
        return label

    def _parse_batch(self, nodes: Iterable[int]) -> dict[int, object]:
        """Parse each distinct node once, reusing (and warming) the cache.

        Per-node LRU bookkeeping is skipped: every requested node is being
        collected into the returned local dict anyway, so cache hits are
        plain lookups (no recency promotion) and freshly parsed labels are
        inserted in bulk, with a single eviction sweep at the end.  Resident
        placeholders count as hits and are parsed in the same call, then
        upgraded where they sit.
        """
        parsed: dict[int, object] = {}
        cache_get = self._cache.get
        hits = 0
        missing: list[int] = []
        unparsed: list[int] = []
        for node in dict.fromkeys(nodes):  # C-speed, order-preserving dedup
            label = cache_get(node, _MISSING)
            if label is _MISSING:
                missing.append(node)
                continue
            hits += 1
            if label is _UNPARSED:
                unparsed.append(node)
            else:
                parsed[node] = label
        self.cache_hits += hits
        self.cache_misses += len(missing)
        if missing or unparsed:
            fresh = self.scheme.parse_many(self.store, unparsed + missing)
            parsed.update(fresh)
            # placeholders keep their LRU position; misses append in order
            self._cache.update(fresh)
            _trim(self._cache, self._cache_size)
        return parsed

    def _admit(self, nodes: Iterable[int]) -> None:
        """:meth:`_parse_batch`'s bookkeeping, minus the parse.

        One lookup per distinct node, counted exactly as a parse would
        count it; the misses enter the LRU as undecoded placeholders, with
        a single eviction sweep.
        """
        cache = self._cache
        distinct = dict.fromkeys(nodes)
        missing = [node for node in distinct if node not in cache]
        self.cache_hits += len(distinct) - len(missing)
        if missing:
            self.cache_misses += len(missing)
            cache.update(dict.fromkeys(missing, _UNPARSED))
            _trim(cache, self._cache_size)

    # -- queries -------------------------------------------------------------

    def query(self, u: int, v: int):
        """One query; result semantics follow ``scheme.kind``."""
        if self._pair_cache_size:
            pair_cache = self._pair_cache
            key = (u, v) if u <= v else (v, u)
            answer = pair_cache.get(key, _MISSING)
            if answer is not _MISSING:
                pair_cache.move_to_end(key)
                self.pair_hits += 1
                return answer
            self.pair_misses += 1
            answer = self.scheme.query(self.parsed_label(u), self.parsed_label(v))
            pair_cache[key] = answer
            if len(pair_cache) > self._pair_cache_size:
                pair_cache.popitem(last=False)
            return answer
        return self.scheme.query(self.parsed_label(u), self.parsed_label(v))

    def distance(self, u: int, v: int):
        """Alias of :meth:`query` for the common exact-scheme case."""
        return self.query(u, v)

    def batch_query(self, pairs: Sequence[tuple[int, int]]) -> list:
        """Answer many queries, looking each distinct endpoint up once.

        With the hot-pair cache enabled, cached pairs are answered without
        touching the label layer at all and only the remaining pairs go
        through :meth:`_answer`.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        if self._pair_cache_size:
            return self._batch_query_cached(pairs)
        return self._answer(pairs)

    def _answer(self, pairs: list[tuple[int, int]]) -> list:
        """Answers for a non-empty pair list through the kernel backend.

        A batch of at least the backend's ``min_batch`` pairs goes to the
        fused kernel.  When the backend decodes labels from the store
        itself (``decodes_store``), the kernel runs first and the endpoints
        are only admitted (:meth:`_admit`); a backend that consumes parsed
        labels gets them from :meth:`_parse_batch`.  The hit/miss counts,
        LRU order and eviction are the same either way.  A backend that
        declines (``None``) sends the batch down the Python loop, which
        answers or raises exactly as the packed-Python tier does.
        """
        us, vs = zip(*pairs)
        nodes = us + vs
        backend = kernels.backend()
        fused = len(pairs) >= backend.min_batch
        if fused and getattr(backend, "decodes_store", False):
            answers = backend.batch_query(self.store, self.scheme, pairs)
            if answers is not None:
                self._admit(nodes)
                return answers
            fused = False
        parsed = self._parse_batch(nodes)
        if fused:
            answers = backend.batch_query(self.store, self.scheme, pairs, parsed=parsed)
            if answers is not None:
                return answers
        query = self.scheme.query
        return [query(parsed[u], parsed[v]) for u, v in pairs]

    def _batch_query_cached(self, pairs: list[tuple[int, int]]) -> list:
        """The :meth:`batch_query` body when the hot-pair cache is on.

        A pair repeated inside one batch is computed once; hit/miss
        accounting matches the one-lookup-per-request semantics the server's
        STATS report (a within-batch repeat of a missing pair counts as a
        hit — it was served from the freshly cached answer).
        """
        pair_cache = self._pair_cache
        promote = pair_cache.move_to_end
        answered: dict[tuple[int, int], object] = {}
        keys: list[tuple[int, int]] = []
        missing: list[tuple[int, int]] = []
        hits = 0
        for u, v in pairs:
            key = (u, v) if u <= v else (v, u)
            keys.append(key)
            if key in answered:
                hits += 1
                continue
            cached = pair_cache.get(key, _MISSING)
            if cached is not _MISSING:
                # promote on hit: the server's coalescer only ever queries
                # through this path, so skipping promotion here would turn
                # the "LRU" into insertion-order FIFO and churn the hot set
                promote(key)
                hits += 1
                answered[key] = cached
            else:
                missing.append(key)
                answered[key] = _MISSING  # placeholder: computed below
        self.pair_hits += hits
        if missing:
            self.pair_misses += len(missing)
            fresh = dict(zip(missing, self._answer(missing)))
            answered.update(fresh)
            pair_cache.update(fresh)
            _trim(pair_cache, self._pair_cache_size)
        return [answered[key] for key in keys]

    def batch_distance(self, pairs: Sequence[tuple[int, int]]) -> list:
        """Alias of :meth:`batch_query` for the common exact-scheme case."""
        return self.batch_query(pairs)

    def distance_matrix(
        self,
        nodes: Sequence[int] | None = None,
        assume_symmetric: bool = True,
    ) -> list[list]:
        """All pairwise answers over ``nodes`` (default: every node).

        Every scheme in this library answers symmetrically, so by default
        only the upper triangle is computed and the lower triangle is
        mirrored — roughly halving matrix time.  Pass
        ``assume_symmetric=False`` to force the full entry-by-entry
        computation (e.g. for a custom scheme with asymmetric semantics).

        Each label is parsed once.  When the target set is larger than the
        cache, labels are parsed into a local list that bypasses the LRU
        entirely: inserting them would evict every warm entry without any of
        the parses ever being a cache hit, and later misses on the evicted
        nodes would be counted twice.  Cached labels are still reused
        (without promotion); resident placeholders count as hits and are
        parsed locally with the misses.
        """
        targets = list(range(self.store.n)) if nodes is None else list(nodes)
        if len(targets) <= self._cache_size:
            by_node = self._parse_batch(targets)
            parsed = [by_node[node] for node in targets]
        else:
            cache_get = self._cache.get
            # ordered sets of the distinct nodes parsed outside the LRU
            missing: dict[int, None] = {}
            unparsed: dict[int, None] = {}
            hits = 0
            for node in targets:
                label = cache_get(node, _MISSING)
                if label is _MISSING:
                    missing[node] = None
                else:
                    hits += 1
                    if label is _UNPARSED:
                        unparsed[node] = None
            self.cache_misses += len(missing)
            local: dict[int, object] = {}
            if missing or unparsed:
                local = self.scheme.parse_many(self.store, [*unparsed, *missing])
            self.cache_hits += hits
            parsed = [
                local[node] if node in local else cache_get(node) for node in targets
            ]
        query = self.scheme.query
        if not assume_symmetric:
            return [[query(a, b) for b in parsed] for a in parsed]
        size = len(parsed)
        if size >= 2:
            # fused O(n²) fill; the parse/cache bookkeeping above already
            # matched the Python path, so only the loop below is replaced
            flat = kernels.backend().matrix_flat(
                self.store, self.scheme, targets, labels=parsed
            )
            if flat is not None:
                return [flat[row * size : (row + 1) * size] for row in range(size)]
        matrix: list[list] = [[0] * size for _ in range(size)]
        for i in range(size):
            label_i = parsed[i]
            row = matrix[i]
            row[i] = query(label_i, label_i)
            for j in range(i + 1, size):
                answer = query(label_i, parsed[j])
                row[j] = answer
                matrix[j][i] = answer
        return matrix

    def matrix_into(
        self,
        nodes: Sequence[int] | None = None,
        out: list | None = None,
        assume_symmetric: bool = True,
    ) -> list:
        """All pairwise answers over ``nodes``, flat row-major, executor-safe.

        This is the entry point the network server offloads MATRIX requests
        to a worker thread through, so unlike :meth:`distance_matrix` it
        **never mutates the engine**: parsed labels come from read-only
        cache lookups (no LRU promotion, no insertion, no counter updates)
        with misses and undecoded placeholders parsed into a local dict,
        and the result is appended to
        ``out`` (or a fresh list) as one flat row-major sequence — exactly
        the shape the wire protocol carries, skipping the row-list build and
        re-flatten.  Safe to run concurrently with event-loop queries on
        another thread; the trade-off is that a matrix never warms any
        cache.
        """
        targets = list(range(self.store.n)) if nodes is None else list(nodes)
        if assume_symmetric and len(targets) >= 2:
            # fused kernel fill: reads only the immutable store (not even
            # the cache), so the never-mutates contract holds trivially; a
            # backend that declines falls through to the Python path (which
            # also raises the proper error for out-of-range targets)
            flat_fused = kernels.backend().matrix_flat(
                self.store, self.scheme, targets
            )
            if flat_fused is not None:
                if out is None:
                    return list(flat_fused)
                out.extend(flat_fused)
                return out
        cache_get = self._cache.get
        # one cache lookup per distinct node: the event loop may evict
        # entries concurrently, so a second lookup could miss where the
        # first hit — every label is captured at its first sighting
        by_node: dict[int, object] = {}
        missing: list[int] = []
        for node in dict.fromkeys(targets):
            label = cache_get(node, _MISSING)
            if label is _MISSING or label is _UNPARSED:
                missing.append(node)
            else:
                by_node[node] = label
        if missing:
            by_node.update(self.scheme.parse_many(self.store, missing))
        parsed = [by_node[node] for node in targets]
        flat = [] if out is None else out
        query = self.scheme.query
        size = len(parsed)
        if not assume_symmetric:
            for label_i in parsed:
                for label_j in parsed:
                    flat.append(query(label_i, label_j))
            return flat
        # upper triangle once, mirrored through a local row matrix
        rows: list[list] = [[0] * size for _ in range(size)]
        for i in range(size):
            label_i = parsed[i]
            row = rows[i]
            row[i] = query(label_i, label_i)
            for j in range(i + 1, size):
                answer = query(label_i, parsed[j])
                row[j] = answer
                rows[j][i] = answer
        for row in rows:
            flat.extend(row)
        return flat

    # -- cache management ----------------------------------------------------

    def enable_pair_cache(self, size: int) -> None:
        """Switch the hot-pair response cache on (or resize it).

        The network server calls this on lazily opened catalog members, so
        the cache can be a serving-layer decision without threading a
        constructor argument through every open path.  Shrinking evicts
        oldest entries; ``size=0`` disables and clears.
        """
        if size < 0:
            raise ValueError("pair cache size must be non-negative")
        self._pair_cache_size = size
        _trim(self._pair_cache, size)

    def pair_cache_info(self) -> dict:
        """Hit/miss counters and occupancy of the hot-pair response cache."""
        lookups = self.pair_hits + self.pair_misses
        return {
            "enabled": bool(self._pair_cache_size),
            "hits": self.pair_hits,
            "misses": self.pair_misses,
            "hit_rate": round(self.pair_hits / lookups, 4) if lookups else 0.0,
            "size": len(self._pair_cache),
            "max_size": self._pair_cache_size,
        }

    def cache_info(self) -> dict:
        """Hit/miss counters and current occupancy of the parsed-label cache.

        A hit is a lookup that found the node *resident* and a miss one that
        *admitted* it; ``size`` counts resident nodes.  A resident node is a
        parsed label or, after a kernel-first batch, an undecoded
        placeholder — the counters are the same on every tier, whichever
        of the two the cache holds.  ``hit_rate`` is the lifetime fraction
        of lookups served from the cache (0.0 before any lookup) — the
        steady-state serving signal the network server reports per member
        and the warm-cache benchmark records.  ``backend`` is the kernel
        tier answering this engine's
        batched queries (``native``/``numpy``/``python``; see
        :mod:`repro.kernels`) — per scheme, so an engine whose scheme has no
        native kernel honestly reports ``python`` even when the native tier
        is loaded.
        """
        lookups = self.cache_hits + self.cache_misses
        info = {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": round(self.cache_hits / lookups, 4) if lookups else 0.0,
            "size": len(self._cache),
            "max_size": self._cache_size,
            "backend": kernels.backend().tier_for(self.scheme),
        }
        if self._pair_cache_size:
            info["pair_cache"] = self.pair_cache_info()
        return info

    def clear_cache(self) -> None:
        """Drop all parsed labels and cached pair answers (counters included)."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self._pair_cache.clear()
        self.pair_hits = 0
        self.pair_misses = 0
