"""The :class:`DistanceIndex` façade: build/open/save/query one tree's labels.

This is the one handle the paper's serving story needs — encode a tree once,
ship the artefact, answer queries from it forever — without callers ever
touching labels, bit strings, scheme classes or the store/engine split:

    index = DistanceIndex.build(tree, "freedman")
    index.save("labels.bin")
    ...
    index = DistanceIndex.open("labels.bin")
    index.query(3, 42).value

Internally an index is a packed :class:`repro.store.LabelStore` plus a
:class:`repro.store.QueryEngine`; those stay public for measurement code but
are implementation details from the API's point of view.
"""

from __future__ import annotations

import os

from repro.api.result import result_wrapper
from repro.core.base import LabelingScheme
from repro.core.registry import make_scheme_from_spec, scheme_spec
from repro.store.label_store import LabelStore
from repro.store.query_engine import QueryEngine
from repro.trees.tree import RootedTree


class DistanceIndex:
    """Distance queries over one encoded tree, behind a single handle.

    Construct through :meth:`build` (from a tree), :meth:`open` /
    :meth:`from_bytes` (from a saved artefact) or :meth:`from_store` (from a
    live :class:`LabelStore`).  Queries return :class:`QueryResult` values;
    pass ``raw=True`` to get the scheme family's native answer
    (``int`` / ``int | None`` / ``float``) on hot paths.
    """

    def __init__(self, engine: QueryEngine) -> None:
        self._engine = engine
        self._wrap = result_wrapper(engine.scheme)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        tree: RootedTree,
        scheme: str | LabelingScheme = "freedman",
        *,
        cache_size: int = 4096,
    ) -> "DistanceIndex":
        """Encode ``tree`` and serve it.

        ``scheme`` is a spec string such as ``"freedman"``,
        ``"k-distance:k=4"`` or ``"approximate:epsilon=0.1"`` (see
        :func:`repro.core.registry.parse_spec`), or an already-constructed
        scheme instance.
        """
        if isinstance(scheme, str):
            scheme = make_scheme_from_spec(scheme)
        store = LabelStore.encode_tree(scheme, tree)
        return cls(QueryEngine(store, scheme=scheme, cache_size=cache_size))

    @classmethod
    def from_store(cls, store: LabelStore, *, cache_size: int = 4096) -> "DistanceIndex":
        """Serve an existing packed store (scheme rebuilt from its spec)."""
        return cls(QueryEngine(store, cache_size=cache_size))

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        *,
        cache_size: int = 4096,
        mmap: bool = False,
    ) -> "DistanceIndex":
        """Open an index saved by :meth:`save` (or any ``LabelStore`` file).

        ``mmap=True`` maps the file read-only instead of reading it into
        memory: the header/index are parsed once and the payload stays a
        page-cache-backed view (:meth:`LabelStore.open_mmap`), so N
        processes opening the same file share one physical copy.  Queries
        run unchanged — every kernel tier reads straight off the mapping.
        """
        store = LabelStore.open_mmap(path) if mmap else LabelStore.load(path)
        return cls.from_store(store, cache_size=cache_size)

    @classmethod
    def from_bytes(cls, data, *, cache_size: int = 4096) -> "DistanceIndex":
        """Deserialise an index from :meth:`to_bytes` output."""
        return cls.from_store(LabelStore.from_bytes(data), cache_size=cache_size)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | os.PathLike) -> int:
        """Write the index to ``path``; returns the number of bytes written."""
        return self._engine.store.save(path)

    def to_bytes(self) -> bytes:
        """Serialise the index (the ``LabelStore`` v1 format)."""
        return self._engine.store.to_bytes()

    # -- queries -------------------------------------------------------------

    def query(self, u: int, v: int, *, raw: bool = False):
        """The distance answer for one node pair as a :class:`QueryResult`."""
        answer = self._engine.query(u, v)
        return answer if raw else self._wrap(answer)

    def batch(self, pairs, *, raw: bool = False) -> list:
        """Answer many pairs at once (each distinct endpoint parsed once)."""
        answers = self._engine.batch_query(pairs)
        if raw:
            return answers
        wrap = self._wrap
        return [wrap(answer) for answer in answers]

    def matrix(
        self, nodes=None, *, raw: bool = False, assume_symmetric: bool = True
    ) -> list[list]:
        """All pairwise answers over ``nodes`` (default: every node).

        ``assume_symmetric`` (default on) computes only the upper triangle
        and mirrors it; every scheme in the library is symmetric.
        """
        rows = self._engine.distance_matrix(nodes, assume_symmetric=assume_symmetric)
        if raw:
            return rows
        wrap = self._wrap
        return [[wrap(answer) for answer in row] for row in rows]

    # -- introspection -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of indexed nodes (queries accept ``0 .. n-1``)."""
        return self._engine.n

    @property
    def spec(self) -> str:
        """Canonical spec string of the scheme behind this index."""
        return scheme_spec(self._engine.scheme)

    @property
    def kind(self) -> str:
        """Answer semantics: ``"exact"``, ``"bounded"`` or ``"approximate"``."""
        return self._engine.scheme.kind

    @property
    def scheme(self) -> LabelingScheme:
        """The live scheme (advanced users; most callers never need it)."""
        return self._engine.scheme

    @property
    def store(self) -> LabelStore:
        """The packed label store backing this index (internal layer)."""
        return self._engine.store

    @property
    def engine(self) -> QueryEngine:
        """The serving engine backing this index (internal layer)."""
        return self._engine

    def describe(self) -> dict:
        """Cheap summary (``spec``, ``kind``, ``n``) — no store scans.

        This is the single-index twin of :meth:`IndexCatalog.describe`; the
        network server's INFO message is built from it.  ``kernel`` names the
        :mod:`repro.kernels` tier answering this index's queries, as
        :meth:`QueryEngine.cache_info` reports it.
        """
        return {
            "spec": self.spec,
            "kind": self.kind,
            "n": self.n,
            "kernel": self._engine.cache_info()["backend"],
        }

    def stats(self) -> dict:
        """Size and serving statistics of this index."""
        store = self._engine.store
        return {
            "spec": self.spec,
            "kind": self.kind,
            "n": store.n,
            "total_label_bits": store.total_label_bits,
            "max_label_bits": store.max_label_bits,
            "payload_bytes": store.payload_bytes,
            "file_bytes": store.file_bytes,
            "mmap": store.mmap_backed,
            "cache": self._engine.cache_info(),
        }

    def __len__(self) -> int:
        return self._engine.n

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DistanceIndex(spec={self.spec!r}, n={self.n})"
