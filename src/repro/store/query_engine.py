"""Query serving on top of a :class:`repro.store.LabelStore`.

The engine is decoder-only: it sees packed bits, never the tree.  Decoding
a label dominates query cost, so decoded labels are kept in a cache of
``cache_size`` labels with one policy: a batch looks each distinct endpoint
up once, a resident label is a hit (never promoted), misses are admitted in
first-seen order, and the oldest entries are trimmed to budget after the
batch.  A single query is a batch of one pair, and a batch may arrive as
pairs or as one flat ``array('q')``, the network server's form.  The cache
is held by:

- a decoded-label arena in C, one per engine, on the native tier
  (hld-fixed and Freedman; see :mod:`repro.kernels`).  Every query
  crosses to C as one flat buffer of pairs; C counts, decodes, admits,
  answers and trims, and Python keeps no per-label state.  A batch the
  kernel declines (a corrupt or out-of-range label) is parsed locally, and
  the Python query answers or raises exactly as the python tier does;
- an ``OrderedDict`` of label objects from the scheme's ``parse_many``
  otherwise (``REPRO_KERNELS=python``, or a scheme with no C decoder).

Lookups count the same on both, so :meth:`QueryEngine.cache_info` reports
the same hits and misses on every tier.

There is one matrix implementation, :meth:`QueryEngine.matrix_into`: kernel
first, with a private decode that never touches the arena, then read-only
cache lookups with misses parsed locally, so a matrix never mutates the
engine (nor warms its cache); :meth:`QueryEngine.distance_matrix` only cuts
its flat result into rows.

The parse supply path is zero-string end to end: the store yields
``(node, packed_value, bit_length)`` words (:meth:`LabelStore.label_words`)
and the scheme's ``parse_many`` reads each through a
:class:`~repro.encoding.bitio.BitReader` with its label class's one
``read`` parser — no character-per-bit strings and no intermediate
:class:`~repro.encoding.bitio.Bits`.  ``scheme.parse`` ends in the same
``read``, so a malformed label raises the same error here as anywhere.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import Iterable, Sequence

from repro import kernels
from repro.store.label_store import LabelStore

#: cache-miss sentinel: one ``dict.get`` resolves hit-or-miss without a
#: second ``in`` lookup
_MISSING = object()


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
        #: parsed labels, when no native arena holds them (see :meth:`_bind`)
        self._cache: OrderedDict[int, object] = OrderedDict()
        self._cache_size = cache_size
        self._hits = 0
        self._misses = 0
        #: ``(kernel backend, native arena or None)``, bound at first use
        self._bound: tuple | None = None
        self._bind_lock = threading.Lock()

    @property
    def n(self) -> int:
        """Number of queryable nodes."""
        return self.store.n

    def _bind(self) -> tuple:
        """Bind the selected backend and its arena over the store, if any."""
        with self._bind_lock:
            if self._bound is None:
                backend = kernels.backend()
                arena = backend.arena(self.store, self.scheme, self._cache_size)
                self._bound = (backend, arena)
            return self._bound

    # -- label parsing -------------------------------------------------------

    def parsed_label(self, node: int):
        """The parsed label of ``node``, counted and admitted as a lookup."""
        backend, arena = self._bound or self._bind()
        if arena is None:
            return self._parse_batch((node,))[node]
        backend.pair_query(arena, node, node)
        return self.scheme.parse_many(self.store, (node,))[node]

    def _parse_batch(self, nodes: Iterable[int]) -> dict[int, object]:
        """Parse each distinct node once, reusing (and filling) the cache.

        Hits are plain lookups (no promotion); the misses are parsed in one
        ``parse_many`` call and appended in first-seen order, with a single
        eviction sweep at the end.  A parse that raises admits nothing.
        """
        parsed: dict[int, object] = {}
        cache = self._cache
        cache_get = cache.get
        missing: list[int] = []
        for node in dict.fromkeys(nodes):  # C-speed, order-preserving dedup
            label = cache_get(node, _MISSING)
            if label is _MISSING:
                missing.append(node)
            else:
                parsed[node] = label
        self._hits += len(parsed)
        self._misses += len(missing)
        if missing:
            fresh = self.scheme.parse_many(self.store, missing)
            parsed.update(fresh)
            cache.update(fresh)
            for _ in range(len(cache) - self._cache_size):
                cache.popitem(last=False)
        return parsed

    # -- queries -------------------------------------------------------------

    def query(self, u: int, v: int):
        """One query (a batch of one pair); semantics follow ``scheme.kind``."""
        backend, arena = self._bound or self._bind()
        if arena is not None:
            answer = backend.pair_query(arena, u, v)
            if answer is not None:
                return answer
        return self._answer_in_python(((u, v),), arena)[0]

    def distance(self, u: int, v: int):
        """Alias of :meth:`query` for the common exact-scheme case."""
        return self.query(u, v)

    def batch_query(self, pairs: Sequence[tuple[int, int]] | array) -> list | array:
        """Answer many queries, looking each distinct endpoint up once.

        ``pairs`` is a sequence of ``(u, v)`` pairs or one flat
        ``array('q')`` of ``u0, v0, u1, v1, ...`` (the network server's
        form).  With a native arena the kernel answers the whole batch, in
        a list for pairs and in an ``array('q')`` for a flat array; if it
        declines, the arena has already counted the batch, which
        :meth:`_answer_in_python` then answers (in a list) or raises on.
        """
        if type(pairs) is array:
            if pairs.typecode != "q" or len(pairs) % 2:
                raise ValueError("a flat batch is an array('q') of (u, v) pairs")
        else:
            pairs = list(pairs)
        if not pairs:
            return []
        backend, arena = self._bound or self._bind()
        if arena is not None:
            answers = backend.batch_query(arena, pairs)
            if answers is not None:
                return answers
        if type(pairs) is array:
            pairs = list(zip(pairs[0::2], pairs[1::2]))
        return self._answer_in_python(pairs, arena)

    def _answer_in_python(self, pairs, arena) -> list:
        """Answer (or raise) over parsed labels, as the python tier does; an
        arena has counted the batch already, so its labels parse locally."""
        us, vs = zip(*pairs)
        nodes = us + vs
        if arena is None:
            parsed = self._parse_batch(nodes)
        else:
            parsed = self.scheme.parse_many(self.store, list(dict.fromkeys(nodes)))
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
        through, so it **never mutates the engine**: the kernel decodes
        its targets privately from the immutable store, never through the
        arena; failing that, parsed labels come from read-only cache lookups
        (no insertion, no counter updates) with misses parsed into a local
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
            if label is _MISSING:
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
        """Hit/miss counters and current occupancy of the decoded-label cache.

        A hit is a lookup that found the node *resident* and a miss one that
        *admitted* it; ``size`` counts resident labels, whoever holds them.
        ``hit_rate`` is the lifetime fraction of lookups served from the
        cache (0.0 before any lookup) — the steady-state serving signal the
        network server reports per member.  ``backend`` is the kernel tier
        answering this engine's queries (``native``/``python``; see
        :mod:`repro.kernels`) — per scheme, so an engine whose scheme has no
        native kernel reports ``python`` even when the native tier is
        loaded.  ``arena`` is the native arena's resident ``bytes`` and
        lifetime ``decodes``, or ``None`` on the python tier.
        """
        backend, arena = self._bound or self._bind()
        if arena is None:
            hits, misses, size = self._hits, self._misses, len(self._cache)
            arena_info = None
        else:
            hits, misses, size, nbytes, decodes = backend.arena_stats(arena)
            arena_info = {"bytes": nbytes, "decodes": decodes}
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "size": size,
            "max_size": self._cache_size,
            "backend": "python" if arena is None else "native",
            "arena": arena_info,
        }

    #: lifetime lookups that found their label resident / admitted it
    cache_hits = property(lambda self: self.cache_info()["hits"])
    cache_misses = property(lambda self: self.cache_info()["misses"])

    def clear_cache(self) -> None:
        """Drop every decoded label (freeing a native arena) and the counters."""
        self._cache.clear()
        self._hits = self._misses = 0
        self._bound = None
