""":class:`IndexCatalog`: many named distance indexes in one file.

A forest, a sharded tree or a multi-tenant workload is many indexes that
ship and deploy together; the catalog packs them into a single artefact and
routes queries by name::

    catalog = IndexCatalog()
    catalog.add("backbone", DistanceIndex.build(tree, "freedman"))
    catalog.add("acl", DistanceIndex.build(tree, "k-distance:k=4"))
    catalog.save("forest.cat")
    ...
    catalog = IndexCatalog.load("forest.cat")
    catalog.query("backbone", 3, 42)

Binary format (version 1)
-------------------------

A varint table of contents followed by the member blobs, each a complete
:class:`repro.store.LabelStore` file image::

    magic     4 bytes   b"RLC1"
    count     uvarint   number of member indexes
    toc       count entries of
                  uvarint length + that many bytes of UTF-8 member name
                  uvarint length of the member's blob in bytes
    blobs     the members' ``LabelStore`` images, concatenated in TOC order

Because blob offsets follow from the TOC alone, :meth:`IndexCatalog.load`
reads only the TOC eagerly; each member's bytes are read and parsed the
first time that name is queried (lazy per-tree open).
"""

from __future__ import annotations

import os

from repro.api.index import DistanceIndex
from repro.encoding.varint import decode_uvarint, encode_uvarint
from repro.store.label_store import StoreError, read_header

#: magic prefix of a serialised catalog, "Repro Label Catalog v1"
CATALOG_MAGIC = b"RLC1"

#: prefix bytes read to describe a closed member; covers the LabelStore
#: header through the node count for any realistic scheme-params JSON
_HEADER_PEEK_BYTES = 4096


class CatalogError(ValueError):
    """Raised when a catalog file is malformed or a member name is bad."""


class _LazyMember:
    """One not-yet-opened member: where its bytes live and how to get them.

    ``read()`` returns the whole blob; ``read_prefix(limit)`` returns at most
    ``limit`` leading bytes (enough for header peeks without pulling a large
    member off disk).
    """

    __slots__ = ("read", "read_prefix", "nbytes")

    def __init__(self, read, read_prefix, nbytes: int) -> None:
        self.read = read
        self.read_prefix = read_prefix
        self.nbytes = nbytes

    @classmethod
    def from_blob(cls, blob) -> "_LazyMember":
        """A lazy member backed by in-memory bytes."""
        return cls(lambda: blob, lambda limit: blob[:limit], len(blob))


class IndexCatalog:
    """An ordered, named collection of :class:`DistanceIndex` members.

    Members added through :meth:`add` are live indexes; members of a loaded
    catalog stay as unread byte ranges until first use.  Iteration and
    ``names()`` follow insertion/TOC order.
    """

    def __init__(self) -> None:
        self._members: dict[str, DistanceIndex | _LazyMember] = {}

    # -- membership ----------------------------------------------------------

    def add(self, name: str, index: DistanceIndex) -> None:
        """Register ``index`` under ``name`` (unique, non-empty)."""
        if not isinstance(name, str) or not name:
            raise CatalogError(f"member name must be a non-empty string, got {name!r}")
        if name in self._members:
            raise CatalogError(f"catalog already has a member named {name!r}")
        if not isinstance(index, DistanceIndex):
            raise CatalogError(
                f"member {name!r} must be a DistanceIndex, got {type(index).__name__}"
            )
        self._members[name] = index

    def remove(self, name: str) -> None:
        """Drop one member."""
        if name not in self._members:
            raise CatalogError(self._missing(name))
        del self._members[name]

    def names(self) -> list[str]:
        """Member names in catalog order."""
        return list(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def _missing(self, name: str) -> str:
        return f"no index named {name!r} in catalog; members: {self.names()}"

    # -- member access -------------------------------------------------------

    def index(self, name: str) -> DistanceIndex:
        """The member index, opening it on first access."""
        member = self._members.get(name)
        if member is None:
            raise CatalogError(self._missing(name))
        if isinstance(member, _LazyMember):
            member = DistanceIndex.from_bytes(member.read())
            self._members[name] = member
        return member

    __getitem__ = index

    def is_open(self, name: str) -> bool:
        """Whether the member has been opened (parsed) yet."""
        member = self._members.get(name)
        if member is None:
            raise CatalogError(self._missing(name))
        return isinstance(member, DistanceIndex)

    # -- routed queries ------------------------------------------------------

    def query(self, name: str, u: int, v: int, *, raw: bool = False):
        """One query routed to the member named ``name``."""
        member = self._members.get(name)
        if type(member) is not DistanceIndex:  # closed or unknown: open or raise
            member = self.index(name)
        # DistanceIndex.query's body, one frame shorter: routing costs a
        # dict lookup on top of the engine's single query
        answer = member._engine.query(u, v)
        return answer if raw else member._wrap(answer)

    def batch(self, name: str, pairs, *, raw: bool = False) -> list:
        """A batch of queries routed to one member."""
        return self.index(name).batch(pairs, raw=raw)

    def stats(self) -> dict:
        """Full per-member statistics (opens every member).

        For a cheap listing that keeps members closed use :meth:`describe`.
        """
        return {name: self.index(name).stats() for name in self._members}

    def describe(self) -> list[dict]:
        """One summary row per member **without** opening closed members.

        Closed members are described from a small prefix of their bytes
        (the ``LabelStore`` header: scheme spec and node count), so listing
        a huge forest file stays TOC-cheap.  Rows carry ``name``, ``spec``,
        ``kind``, ``n``, ``file_bytes`` and ``open``.
        """
        from repro.core.registry import SCHEME_CLASSES, format_spec

        rows = []
        for name, member in self._members.items():
            if isinstance(member, DistanceIndex):
                stats = member.stats()
                rows.append(
                    {
                        "name": name,
                        "spec": stats["spec"],
                        "kind": stats["kind"],
                        "n": stats["n"],
                        "file_bytes": stats["file_bytes"],
                        "open": True,
                    }
                )
                continue
            try:
                scheme_name, params, n, _ = read_header(
                    member.read_prefix(_HEADER_PEEK_BYTES)
                )
            except StoreError:
                # header larger than the peek window (huge params JSON):
                # fall back to the full blob
                scheme_name, params, n, _ = read_header(member.read())
            cls = SCHEME_CLASSES.get(scheme_name)
            rows.append(
                {
                    "name": name,
                    "spec": format_spec(scheme_name, params),
                    "kind": cls.kind if cls is not None else "?",
                    "n": n,
                    "file_bytes": member.nbytes,
                    "open": False,
                }
            )
        return rows

    # -- persistence ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the catalog (format in the module docstring)."""
        blobs = []
        toc = [CATALOG_MAGIC, encode_uvarint(len(self._members))]
        for name, member in self._members.items():
            if isinstance(member, _LazyMember):
                blob = bytes(member.read())
                # re-anchor the member on the materialised bytes: its old
                # reader may point at file offsets that saving over the
                # source file is about to invalidate
                self._members[name] = _LazyMember.from_blob(blob)
            else:
                blob = member.to_bytes()
            encoded = name.encode("utf-8")
            toc.append(encode_uvarint(len(encoded)))
            toc.append(encoded)
            toc.append(encode_uvarint(len(blob)))
            blobs.append(blob)
        return b"".join(toc + blobs)

    def save(self, path: str | os.PathLike) -> int:
        """Write the catalog to ``path``; returns the bytes written."""
        blob = self.to_bytes()
        with open(path, "wb") as handle:
            handle.write(blob)
        return len(blob)

    @staticmethod
    def _parse_toc(header) -> tuple[list[tuple[str, int, int]], int]:
        """TOC entries as ``(name, offset, nbytes)`` plus the blob base offset."""
        if bytes(header[: len(CATALOG_MAGIC)]) != CATALOG_MAGIC:
            raise CatalogError(
                f"not an index catalog (expected magic {CATALOG_MAGIC!r})"
            )
        try:
            count, pos = decode_uvarint(header, len(CATALOG_MAGIC))
            entries: list[tuple[str, int, int]] = []
            offset = 0
            for _ in range(count):
                name_len, pos = decode_uvarint(header, pos)
                name = bytes(header[pos : pos + name_len]).decode("utf-8")
                if len(name.encode("utf-8")) != name_len:
                    raise ValueError("truncated member name")
                pos += name_len
                nbytes, pos = decode_uvarint(header, pos)
                entries.append((name, offset, nbytes))
                offset += nbytes
        except ValueError as error:
            raise CatalogError(f"corrupt catalog TOC: {error}") from error
        if len({name for name, _, _ in entries}) != len(entries):
            raise CatalogError("catalog TOC contains duplicate member names")
        return entries, pos

    @classmethod
    def from_bytes(cls, data) -> "IndexCatalog":
        """Parse a catalog image; members are opened lazily on first use.

        ``data`` may be any buffer-protocol object (``bytes``, a
        ``memoryview``, an ``mmap``); members stay zero-copy sub-views of
        it, and a member opened from a view is served without ever copying
        its payload (:meth:`LabelStore.from_bytes` wraps the slice as-is).
        """
        view = data if isinstance(data, memoryview) else memoryview(data)
        entries, base = cls._parse_toc(view)
        catalog = cls()
        for name, offset, nbytes in entries:
            start = base + offset
            if start + nbytes > len(view):
                raise CatalogError(f"member {name!r} extends past end of catalog")
            chunk = view[start : start + nbytes]
            catalog._members[name] = _LazyMember(
                lambda chunk=chunk: chunk,
                lambda limit, chunk=chunk: chunk[:limit],
                nbytes,
            )
        return catalog

    @classmethod
    def open_mmap(cls, path: str | os.PathLike) -> "IndexCatalog":
        """Open a catalog as one read-only mapping; members are sub-views.

        The container file is mapped once; every member's blob is a
        zero-copy slice of the mapping, so opening a member parses only its
        header/index while the payload stays page-cache-backed — N forked
        workers serving the same catalog share one physical copy of every
        member.
        """
        import mmap

        with open(path, "rb") as handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError) as error:
                raise CatalogError(
                    f"cannot mmap {os.fspath(path)!r}: {error}"
                ) from error
        return cls.from_bytes(memoryview(mapped))

    @classmethod
    def load(cls, path: str | os.PathLike, *, mmap: bool = False) -> "IndexCatalog":
        """Open a catalog file, reading only the TOC now.

        Each member's bytes are read from ``path`` (and parsed) the first
        time it is accessed, so opening a huge forest file is cheap.
        ``mmap=True`` maps the container once instead and serves every
        member as a zero-copy sub-view (:meth:`open_mmap`).
        """
        if mmap:
            return cls.open_mmap(path)
        with open(path, "rb") as handle:
            # the TOC is tiny (a few bytes per member); 64 KiB covers
            # thousands of members, and we retry with the full file if not
            header = handle.read(65536)
            try:
                entries, base = cls._parse_toc(header)
            except CatalogError:
                handle.seek(0)
                header = handle.read()
                entries, base = cls._parse_toc(header)
            size = os.fstat(handle.fileno()).st_size
        if entries and base + entries[-1][1] + entries[-1][2] > size:
            raise CatalogError(f"catalog file {path!r} is truncated")

        def reader(start: int, nbytes: int):
            def read_prefix(limit: int) -> bytes:
                wanted = min(limit, nbytes)
                with open(path, "rb") as handle:
                    handle.seek(start)
                    blob = handle.read(wanted)
                if len(blob) != wanted:
                    raise CatalogError(f"catalog file {path!r} is truncated")
                return blob

            return (lambda: read_prefix(nbytes)), read_prefix

        catalog = cls()
        for name, offset, nbytes in entries:
            read, read_prefix = reader(base + offset, nbytes)
            catalog._members[name] = _LazyMember(read, read_prefix, nbytes)
        return catalog

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"IndexCatalog(members={self.names()})"
