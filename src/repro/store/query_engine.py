"""Query serving on top of a :class:`repro.store.LabelStore`.

The engine is decoder-only: it sees packed bits, never the tree.  Parsing a
label (packed word -> label object) dominates CPython query cost, so the
engine keeps a bounded LRU cache of parsed labels and offers batch entry
points that look each distinct endpoint up exactly once.

Every batch goes **kernel first**: a batch of at least the backend's
``min_batch`` pairs is handed to the kernel backend, which decodes the
labels straight from the store (the native tier, for hld-fixed and
Freedman; see :mod:`repro.kernels`).  When it answers, the batch's cold
endpoints enter the LRU as an undecoded placeholder, parsed — and upgraded
in place — on their first Python-side use (:meth:`QueryEngine.parsed_label`
or a batch the kernel did not answer).  Only a declined batch is parsed,
which raises exactly the Python path's errors.

There is one matrix implementation, :meth:`QueryEngine.matrix_into`: kernel
first, then read-only cache lookups with misses parsed locally, so a matrix
never mutates the engine (nor warms its cache);
:meth:`QueryEngine.distance_matrix` only cuts its flat result into rows.

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
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        self.store = store
        self.scheme = scheme if scheme is not None else store.make_scheme()
        self._cache: OrderedDict[int, object] = OrderedDict()
        self._cache_size = cache_size
        #: label cache statistics (resident hits, admitted misses), exposed
        #: for benchmarks and tuning
        self.cache_hits = 0
        self.cache_misses = 0

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
        return self.scheme.query(self.parsed_label(u), self.parsed_label(v))

    def distance(self, u: int, v: int):
        """Alias of :meth:`query` for the common exact-scheme case."""
        return self.query(u, v)

    def batch_query(self, pairs: Sequence[tuple[int, int]]) -> list:
        """Answer many queries, looking each distinct endpoint up once.

        A batch of at least the backend's ``min_batch`` pairs goes to the
        kernel first; if it answers, the endpoints are only admitted
        (:meth:`_admit`).  Otherwise the batch is parsed
        (:meth:`_parse_batch`) and answered by the Python loop, which
        answers or raises exactly as the packed-Python tier does.  The
        hit/miss counts, LRU order and eviction are the same either way.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        us, vs = zip(*pairs)
        nodes = us + vs
        backend = kernels.backend()
        if len(pairs) >= backend.min_batch:
            answers = backend.batch_query(self.store, self.scheme, pairs)
            if answers is not None:
                self._admit(nodes)
                return answers
        parsed = self._parse_batch(nodes)
        query = self.scheme.query
        return [query(parsed[u], parsed[v]) for u, v in pairs]

    def batch_distance(self, pairs: Sequence[tuple[int, int]]) -> list:
        """Alias of :meth:`batch_query` for the common exact-scheme case."""
        return self.batch_query(pairs)

    def distance_matrix(
        self,
        nodes: Sequence[int] | None = None,
        assume_symmetric: bool = True,
    ) -> list[list]:
        """All pairwise answers over ``nodes`` (default: every node), as rows.

        The rows of :meth:`matrix_into`'s flat result, so this shares its
        contract: the engine's cache and counters are left untouched.
        """
        targets = list(range(self.store.n)) if nodes is None else list(nodes)
        flat = self.matrix_into(targets, assume_symmetric=assume_symmetric)
        size = len(targets)
        return [flat[row * size : (row + 1) * size] for row in range(size)]

    def matrix_into(
        self,
        nodes: Sequence[int] | None = None,
        out: list | None = None,
        assume_symmetric: bool = True,
    ) -> list:
        """All pairwise answers over ``nodes``, flat row-major, executor-safe.

        This is the engine's one matrix implementation, and the entry point
        the network server offloads MATRIX requests to a worker thread
        through, so it **never mutates the engine**: the kernel reads only
        the immutable store; failing that, parsed labels come from
        read-only cache lookups (no LRU promotion, no insertion, no counter
        updates) with misses and undecoded placeholders parsed into a local
        dict.  The result is appended to ``out`` (or a fresh list) as one
        flat row-major sequence — exactly the shape the wire protocol
        carries.  Safe to run concurrently with event-loop queries on
        another thread; the trade-off is that a matrix never warms the
        cache.

        Every scheme in this library answers symmetrically, so by default
        only the upper triangle is computed and mirrored.  Pass
        ``assume_symmetric=False`` to force the full entry-by-entry
        computation (e.g. for a custom scheme with asymmetric semantics).
        """
        targets = list(range(self.store.n)) if nodes is None else list(nodes)
        flat = [] if out is None else out
        if assume_symmetric and len(targets) >= 2:
            # a backend that declines falls through to the Python path
            # (which also raises the proper error for out-of-range targets)
            fused = kernels.backend().matrix_flat(self.store, self.scheme, targets)
            if fused is not None:
                flat.extend(fused)
                return flat
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
        query = self.scheme.query
        if not assume_symmetric:
            for label_i in parsed:
                for label_j in parsed:
                    flat.append(query(label_i, label_j))
            return flat
        # upper triangle once, mirrored through a local row matrix
        size = len(parsed)
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
        tier answering this engine's batched queries (``native``/``python``;
        see :mod:`repro.kernels`) — per scheme, so an engine whose scheme has
        no native kernel honestly reports ``python`` even when the native
        tier is loaded.
        """
        lookups = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": round(self.cache_hits / lookups, 4) if lookups else 0.0,
            "size": len(self._cache),
            "max_size": self._cache_size,
            "backend": kernels.backend().tier_for(self.scheme),
        }

    def clear_cache(self) -> None:
        """Drop all parsed labels (counters included)."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
