"""The native tier: ``_kernels.c`` compiled and loaded through cffi.

Loading follows the quisk pattern (SNIPPETS.md Snippet 1): the shared
library is a pure accelerator, never a dependency.  ``load()`` either
returns a working :class:`NativeBackend` or raises :class:`KernelError`
with the reason — missing cffi, no C compiler, a failed build, a corrupt
or ABI-incompatible library — and the dispatch layer degrades to the
packed-Python tier.

The library is compiled at first use (``cc -O3 -shared -fPIC``) into a
cache directory, named by a hash of the C source so stale builds are never
picked up after the source changes.  ``python setup.py build_py`` attempts
the same build at package-build time (see ``setup.py``), which simply
pre-populates the in-package cache.

Environment knobs:

- ``REPRO_KERNELS_LIB``: load exactly this shared library (testing hook —
  pointing it at a corrupt file exercises graceful degradation).
- ``REPRO_KERNELS_CACHE``: directory for compiled libraries (default: the
  package directory when writable, else a per-user temp directory).
- ``CC``: the compiler command, split shell-style so it may carry flags
  (``CC="cc -fsanitize=address,undefined"``); default ``cc``, then ``gcc``,
  ``clang``.  The library name depends only on the source, so give a build
  with different flags its own ``REPRO_KERNELS_CACHE``.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from array import array
from itertools import chain
from struct import error as StructError, pack

#: bumped in ``_kernels.c`` whenever a signature changes; a library that
#: reports anything else is stale or foreign and is rejected
ABI_VERSION = 8

_CDEF = """
int repro_kernels_abi(void);
int repro_decode_index(const uint8_t *buf, uint64_t buf_len, uint64_t start,
                       uint64_t count, uint64_t *lengths, uint64_t *offsets,
                       uint64_t *end_pos);
uint64_t repro_encode_index(const uint64_t *lengths, uint64_t count, uint8_t *out);
typedef struct repro_arena repro_arena;
repro_arena *repro_arena_new(int kind, const uint8_t *payload, uint64_t nbytes,
                             const uint64_t *offs, const uint64_t *lens,
                             int64_t n_total, int64_t budget);
void repro_arena_free(repro_arena *arena);
int repro_arena_batch(repro_arena *arena, const void *pairs, int64_t n_pairs,
                      void *out);
int64_t repro_arena_pair(repro_arena *arena, int64_t u, int64_t v);
void repro_arena_stats(repro_arena *arena, uint64_t *out);
typedef struct repro_fr_encoder repro_fr_encoder;
repro_fr_encoder *repro_fr_encoder_new(int64_t n, const int32_t *parents,
                                       const int64_t *weights,
                                       const int32_t *child_start,
                                       const int32_t *child_data, int flags,
                                       uint64_t *stats);
int64_t repro_fr_encoder_next(repro_fr_encoder *enc, uint8_t *buf, uint64_t cap,
                              uint64_t base, uint64_t *ends, uint64_t *bits,
                              int64_t max_labels);
void repro_fr_encoder_free(repro_fr_encoder *enc);
int repro_matrix(int kind, const uint8_t *payload, uint64_t nbytes,
                 const uint64_t *offs, const uint64_t *lens, int64_t n_total,
                 const int64_t *nodes, int64_t n_nodes, int64_t *out);
int repro_checksum(int kind, const uint8_t *payload, uint64_t nbytes,
                   const uint64_t *offs, const uint64_t *lens, int64_t n_total,
                   const int64_t *nodes, int64_t n_nodes, uint64_t *out);
int64_t repro_scan_queries(const void *buf, uint64_t len, uint64_t pos,
                           int64_t max_frames, int64_t *ids, int64_t *pairs,
                           uint64_t *info);
int64_t repro_scan_results(const void *buf, uint64_t len, uint64_t pos,
                           int64_t max_frames, int64_t *ids, int64_t *values,
                           uint64_t *info);
int64_t repro_encode_results(const void *ids, const void *values, int64_t count,
                             uint8_t *out);
"""

#: ``repro_arena_pair``'s answer when it declines: INT64_MIN, which no
#: answer reaches
_DECLINED = -(1 << 63)

#: the ``kind`` argument of the C entry points
_KIND_HLD = 0
_KIND_FREEDMAN = 1

#: the ``flags`` bits of ``repro_fr_encoder_new``
_FR_BINARIZE = 1
_FR_FRAGMENTS = 2
_FR_ACCUMULATORS = 4

#: the encoder's output buffer: a run is whole labels, at most this many
#: bytes (a label larger than that is a run alone, in a buffer of its size)
ENCODE_CHUNK_BYTES = 1 << 16

#: why ``repro_decode_index`` refused an index, by its return code
_INDEX_ERRORS = {
    1: "truncated uvarint in the index",
    2: "uvarint too long in the index (corrupt stream?)",
    3: "the index's label sizes overflow 64 bits",
    4: "the index does not describe the payload",
}

#: ``encoding_stats`` keys, in the order of the C encoder's counters
_ENCODING_STATS = ("pushed_bits", "fat_subtrees", "thin_subtrees", "skipped_entries")

#: frames one scanner call turns into columns (a longer run takes more calls)
SCAN_FRAMES = 1024

#: why ``repro_scan_queries``/``repro_scan_results`` stopped (``info[3]``)
_SCAN_MORE = 0
_SCAN_FRAME = 1
_SCAN_AGAIN = 2

#: output bytes ``repro_encode_results`` may write per frame
_RESULT_BYTES = 24

#: guard against absurd matrices: m*m int64 results; above this the Python
#: path is just as memory-bound and the fused fill buys nothing
_MAX_MATRIX_SIDE = 8192


class KernelError(RuntimeError):
    """The native tier could not be built or loaded."""


def source_path() -> str:
    """Path of the bundled C source."""
    return os.path.join(os.path.dirname(__file__), "_kernels.c")


def _source_digest() -> str:
    with open(source_path(), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def _compiler() -> list[str] | None:
    """The compiler command as argv words, or ``None`` when none is on PATH."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        words = shlex.split(candidate) if candidate else []
        if words and shutil.which(words[0]):
            return words
    return None


def _cache_dirs() -> list[str]:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return [override]
    return [
        os.path.join(os.path.dirname(__file__), "_build"),
        os.path.join(
            tempfile.gettempdir(), f"repro-kernels-{os.getuid() if hasattr(os, 'getuid') else 0}"
        ),
    ]


def _lib_suffix() -> str:
    return ".dll" if sys.platform.startswith("win") else ".so"


def ensure_built(verbose: bool = False) -> str:
    """Compile ``_kernels.c`` if needed; return the shared library path.

    Raises :class:`KernelError` when no compiler is available or the build
    fails.  Already-built libraries (matching the current source hash) are
    returned without invoking the compiler.
    """
    name = f"_repro_kernels_{_source_digest()}{_lib_suffix()}"
    candidates = _cache_dirs()
    for directory in candidates:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    compiler = _compiler()
    if compiler is None:
        raise KernelError("no C compiler found (tried $CC, cc, gcc, clang)")
    last_error: Exception | None = None
    for directory in candidates:
        path = os.path.join(directory, name)
        try:
            os.makedirs(directory, exist_ok=True)
            # compile to a temp name, then atomically rename: concurrent
            # builders race benignly
            scratch = path + f".tmp{os.getpid()}"
            command = [
                *compiler,
                "-O3",
                "-shared",
                "-fPIC",
                "-o",
                scratch,
                source_path(),
                "-lm",
            ]
            result = subprocess.run(
                command, capture_output=True, text=True, timeout=120
            )
            if result.returncode != 0:
                raise KernelError(
                    f"{shlex.join(compiler)} failed ({result.returncode}): "
                    f"{result.stderr.strip()[:500]}"
                )
            os.replace(scratch, path)
            if verbose:
                print(f"built {path}")
            return path
        except KernelError:
            raise
        except OSError as error:
            last_error = error
            continue
    raise KernelError(f"no writable cache directory for the kernel build: {last_error}")


def load():
    """Build (if needed), dlopen and sanity-check the native library.

    Returns a ready :class:`NativeBackend`; raises :class:`KernelError` on
    any failure, leaving the caller free to degrade.
    """
    try:
        from cffi import FFI
    except ImportError as error:  # pragma: no cover - cffi is baked in
        raise KernelError(f"cffi unavailable: {error}") from error
    override = os.environ.get("REPRO_KERNELS_LIB")
    path = override if override else ensure_built()
    ffi = FFI()
    ffi.cdef(_CDEF)
    try:
        lib = ffi.dlopen(path)
    except OSError as error:
        raise KernelError(f"cannot load {path}: {error}") from error
    try:
        abi = lib.repro_kernels_abi()
    except Exception as error:  # pragma: no cover - symbol lookup failure
        raise KernelError(f"{path} has no usable ABI entry point: {error}") from error
    if abi != ABI_VERSION:
        raise KernelError(
            f"{path} reports kernel ABI {abi}, this build needs {ABI_VERSION}"
        )
    return NativeBackend(ffi, lib, path)


class NativeBackend:
    """Fused C kernels over ``LabelStore.buffers()`` data.

    Queries run through a per-engine decoded-label arena (:meth:`arena`),
    matrices and checksums through a transient decode.  Every entry point
    returns ``None`` for anything the C side does not support (scheme
    family, value ranges, corrupt streams) — the caller falls back to the
    packed-Python path, which reproduces the reference behaviour exactly,
    exceptions included.
    """

    name = "native"

    def __init__(self, ffi, lib, path: str) -> None:
        self.ffi = ffi
        self.lib = lib
        self.path = path

    # -- scheme dispatch -----------------------------------------------------

    @staticmethod
    def _kind(scheme) -> int | None:
        # exact type checks: a subclass may override ``distance``/``query``
        # semantics, which the C side knows nothing about
        from repro.core.freedman import FreedmanScheme
        from repro.core.hld import HLDScheme

        if type(scheme) is HLDScheme:
            return _KIND_HLD
        if type(scheme) is FreedmanScheme:
            return _KIND_FREEDMAN
        return None

    def tier_for(self, scheme) -> str:
        return "python" if self._kind(scheme) is None else "native"

    # -- marshalling -----------------------------------------------------------

    def _c_view(self, ctype: str, sequence):
        """``sequence`` (a buffer) mapped in place as a C ``ctype`` array; a
        one-element dummy when it is empty."""
        if len(sequence):
            return self.ffi.from_buffer(ctype + "[]", sequence)
        return self.ffi.new(ctype + "[]", 1)


    def _store_args(self, store) -> tuple:
        """``(payload, payload bytes, offsets, lengths, n)`` C views, built once.

        :class:`LabelStore` hands out ``array('Q')`` index sequences and a
        (possibly ``mmap``-backed) payload view — all three are mapped in
        place with ``ffi.from_buffer``, so the native tier runs straight off
        the original storage.
        """
        cached = getattr(store, "_repro_kernel_arrays", None)
        if cached is not None:
            return cached
        view, offsets, lengths = store.buffers()
        c_view = self._c_view
        arrays = (
            c_view("uint8_t", view),
            len(view),
            c_view("uint64_t", offsets),
            c_view("uint64_t", lengths),
            len(lengths),
        )
        store._repro_kernel_arrays = arrays
        return arrays

    # -- queries through an arena ----------------------------------------------

    def arena(self, store, scheme, budget: int):
        """A decoded-label arena over ``store`` holding ``budget`` labels.

        ``None`` when the scheme has no C decoder or the arena cannot be
        allocated; the engine then parses in Python.  The arena is freed
        when the returned handle is collected.
        """
        kind = self._kind(scheme)
        if kind is None:
            return None
        arena = self.lib.repro_arena_new(kind, *self._store_args(store), budget)
        if arena == self.ffi.NULL:
            return None
        return self.ffi.gc(arena, self.lib.repro_arena_free)

    def batch_query(self, arena, pairs):
        """Distances for ``pairs`` through ``arena``, or ``None``.

        ``pairs`` is a sequence of ``(u, v)`` pairs, packed here into one
        flat native ``int64`` buffer, or already such a buffer: an
        ``array('q')`` of ``u0, v0, u1, v1, ...``.  C range-checks and
        dedups the endpoints, counts them against the arena and writes the
        answers into an output buffer, returned as a list for pairs and as
        an ``array('q')`` for a flat buffer.  ``None`` when the kernel
        declines, including for anything that is not a sequence of integer
        pairs.
        """
        ffi = self.ffi
        if type(pairs) is array:
            count = len(pairs) // 2
            flat = ffi.from_buffer(pairs)
        else:
            count = len(pairs)
            try:
                flat = pack(f"{2 * count}q", *chain.from_iterable(pairs))
            except (StructError, TypeError):
                return None
        out = array("q", bytes(8 * count))
        if self.lib.repro_arena_batch(arena, flat, count, ffi.from_buffer(out)):
            return None
        return out if type(pairs) is array else out.tolist()

    def pair_query(self, arena, u, v):
        """One pair's distance through ``arena`` (a batch of one), or ``None``."""
        try:
            answer = self.lib.repro_arena_pair(arena, u, v)
        except (TypeError, OverflowError):
            return None
        return None if answer == _DECLINED else answer

    def arena_stats(self, arena) -> tuple[int, int, int, int, int]:
        """``(hits, misses, resident labels, resident bytes, decodes)``."""
        out = self.ffi.new("uint64_t[5]")
        self.lib.repro_arena_stats(arena, out)
        return tuple(out)

    # -- the RSP/1 hot lane ------------------------------------------------------

    def wire_codec(self) -> "WireCodec":
        """A fresh :class:`WireCodec` (one per event loop: it owns scratch)."""
        return WireCodec(self.ffi, self.lib)

    # -- encoding --------------------------------------------------------------

    def encode_freedman(self, scheme, tree):
        """``(encoding_stats, lengths, offsets, drain)`` of ``scheme``'s labels.

        The C encoder computes Section 2/3's shared structure from the
        tree's rows at once.  ``drain(every)`` then writes the labels in
        runs, each yielded as ``(payload, done)``: the run's bytes in the
        store's payload layout (each label's bits MSB-first, zero-padded to
        a byte), a view valid until the next item, and the number of labels
        written so far, which stops at each multiple of ``every``.  As it
        goes, C writes label ``i``'s bit length to ``lengths[i]`` and the
        end of its bytes in the whole payload to ``offsets[i + 1]``: the
        two index arrays of a :class:`~repro.store.LabelStore`, both
        ``array('Q')``, with no Python step per label.  A run is at most
        :data:`ENCODE_CHUNK_BYTES` bytes unless one label alone is larger.
        ``None`` for a scheme the C side does not encode (a subclass); a
        failed allocation raises ``MemoryError``.
        """
        if self._kind(scheme) != _KIND_FREEDMAN:
            return None
        ffi, lib = self.ffi, self.lib
        params = scheme.params()
        flags = (
            (_FR_BINARIZE if params["binarize"] else 0)
            | (_FR_FRAGMENTS if params["use_fragments"] else 0)
            | (_FR_ACCUMULATORS if params["use_accumulators"] else 0)
        )
        c_view = self._c_view
        stats = ffi.new("uint64_t[4]")
        handle = lib.repro_fr_encoder_new(
            tree.n,
            c_view("int32_t", tree._parents),
            c_view("int64_t", tree._weights),
            c_view("int32_t", tree._child_start),
            c_view("int32_t", tree._child_data),
            flags,
            stats,
        )
        if handle == ffi.NULL:
            raise MemoryError(f"native Freedman encoder of a {tree.n}-node tree")
        handle = ffi.gc(handle, lib.repro_fr_encoder_free)
        lengths = array("Q", bytes(8 * tree.n))
        offsets = array("Q", bytes(8 * (tree.n + 1)))

        def drain(every: int):
            return self._runs(handle, lengths, offsets, every)

        return dict(zip(_ENCODING_STATS, stats)), lengths, offsets, drain

    def _runs(self, handle, lengths, offsets, every):
        """Drain an encoder handle in runs; free it once drained or closed."""
        ffi = self.ffi
        step = self.lib.repro_fr_encoder_next
        n = len(lengths)
        buffer = bytearray(ENCODE_CHUNK_BYTES)
        c_buffer = ffi.from_buffer("uint8_t[]", buffer)
        c_bits = self._c_view("uint64_t", lengths)
        c_ends = ffi.from_buffer("uint64_t[]", offsets) + 1
        view = memoryview(buffer)
        done = 0
        try:
            while done < n:
                base = offsets[done]
                room = every - done % every
                count = step(
                    handle, c_buffer, len(buffer), base, c_ends + done, c_bits + done, room
                )
                if count > 0:
                    run = view[: offsets[done + count] - base]
                elif count == -2:
                    # one label larger than the buffer: a run of its own
                    run = bytearray(offsets[done + 1])
                    c_run = ffi.from_buffer("uint8_t[]", run)
                    count = step(handle, c_run, len(run), base, c_ends + done, c_bits + done, 1)
                    if count != 1:
                        raise MemoryError("native Freedman encoder")
                else:
                    raise MemoryError("native Freedman encoder")
                done += count
                yield run, done
        finally:
            ffi.release(handle)

    # -- transient decodes ---------------------------------------------------

    def _nodes(self, nodes):
        """``nodes`` as a C ``int64`` view, or ``None`` for non-integers."""
        try:
            flat = array("q", nodes)
        except (TypeError, OverflowError):
            return None
        return self.ffi.from_buffer("int64_t[]", flat) if flat else None

    def matrix_flat(self, store, scheme, targets):
        """Flat row-major all-pairs matrix over ``targets``, or ``None``.

        Decodes the targets privately: the arena is never touched, so this
        is safe on a worker thread.
        """
        kind = self._kind(scheme)
        size = len(targets)
        if kind is None or size > _MAX_MATRIX_SIDE:
            return None
        nodes = self._nodes(targets)
        if nodes is None:
            return None
        out = array("q", bytes(8 * size * size))
        if self.lib.repro_matrix(
            kind, *self._store_args(store), nodes, size,
            self.ffi.from_buffer("int64_t[]", out),
        ):
            return None
        return out.tolist()

    def parse_checksum(self, store, scheme, nodes):
        """Field fold over the decoded labels of ``nodes``, or ``None``.

        ``tests/test_kernels.py`` folds the same fields over
        ``scheme.parse_many``; equal checksums certify that the C decoder
        read every field as the Python parser does.
        """
        kind = self._kind(scheme)
        c_nodes = None if kind is None else self._nodes(nodes)
        if c_nodes is None:
            return None
        out = self.ffi.new("uint64_t*")
        if self.lib.repro_checksum(
            kind, *self._store_args(store), c_nodes, len(nodes), out
        ):
            return None
        return int(out[0])

    # -- the store index ------------------------------------------------------

    def decode_index(self, data, start, count):
        """``(lengths, offsets, payload_start)`` of a store's index.

        C reads the ``count`` varint bit lengths at ``start`` of ``data``
        straight into the two ``array('Q')`` index arrays of a
        :class:`~repro.store.LabelStore` (``offsets`` holds ``count + 1``
        byte offsets, from 0), with no Python step per label.  A truncated
        or overlong varint, label sizes past 2^64, or offsets that do not
        end at the size of the payload (the rest of ``data``) raise
        ``ValueError``.
        """
        ffi = self.ffi
        lengths = array("Q", bytes(8 * count))
        offsets = array("Q", bytes(8 * (count + 1)))
        end = ffi.new("uint64_t*")
        with ffi.from_buffer("uint8_t[]", data) as buf:
            rc = self.lib.repro_decode_index(
                buf, len(data), start, count, self._c_view("uint64_t", lengths),
                ffi.from_buffer("uint64_t[]", offsets), end,
            )
        if rc:
            raise ValueError(_INDEX_ERRORS[rc])
        return lengths, offsets, int(end[0])

    def encode_index(self, lengths):
        """``lengths``, an ``array('Q')``, as the store's varint index bytes;
        ``None`` for any other sequence."""
        if type(lengths) is not array or lengths.typecode != "Q":
            return None
        if not lengths:
            return b""
        out = bytearray(10 * len(lengths))
        with self.ffi.from_buffer("uint8_t[]", out) as c_out:
            written = self.lib.repro_encode_index(
                self.ffi.from_buffer("uint64_t[]", lengths), len(lengths), c_out
            )
        del out[written:]
        return out


class WireCodec:
    """The C side of RSP/1's hot lane, with its own scratch columns.

    ``scan_queries`` and ``scan_results`` split a receive buffer into
    frames the way ``FrameDecoder.frames`` does.  A run of plain QUERY
    (plain exact RESULT) frames comes back as one ``(name, ids, values)``
    item — the run's member name field as bytes (empty for results), its
    request ids, and its flat ``(u, v)`` pairs (result values) as
    ``array('q')`` columns.  Every other complete frame comes back as its
    body ``bytes`` for the Python decoder.  :mod:`repro.serve.protocol`
    defines plain frames and holds the reference codec these must match.

    One instance per event loop: calls share the scratch buffers, and cffi
    releases the GIL around them.
    """

    __slots__ = ("_ffi", "_lib", "_ids", "_values", "_info", "_out", "_out_frames")

    def __init__(self, ffi, lib) -> None:
        self._ffi = ffi
        self._lib = lib
        self._ids = ffi.new("int64_t[]", SCAN_FRAMES)
        self._values = ffi.new("int64_t[]", 2 * SCAN_FRAMES)
        self._info = ffi.new("uint64_t[6]")
        self._out = ffi.new("uint8_t[]", _RESULT_BYTES * SCAN_FRAMES)
        self._out_frames = SCAN_FRAMES

    def scan_queries(self, data):
        """``(items, consumed, corrupt)`` of the QUERY-side scan of ``data``."""
        return self._scan(self._lib.repro_scan_queries, 2, data)

    def scan_results(self, data):
        """``(items, consumed, corrupt)`` of the RESULT-side scan of ``data``."""
        return self._scan(self._lib.repro_scan_results, 1, data)

    def _scan(self, step, width, data):
        """Items from the start of ``data`` up to the first incomplete frame.

        ``consumed`` is where that frame starts; ``corrupt`` is true when
        the scan stopped at a frame whose length prefix ``FrameDecoder``
        rejects, and the items before it are then not to be acted on.
        ``data`` is ``bytes`` or a ``bytearray``; a bytearray's buffer is
        released before returning, so the caller may resize it.
        """
        ffi = self._ffi
        ids, values, info = self._ids, self._values, self._info
        view = data if type(data) is bytes else ffi.from_buffer("uint8_t[]", data)
        total = len(data)
        items = []
        pos = 0
        try:
            while True:
                count = step(view, total, pos, SCAN_FRAMES, ids, values, info)
                if count:
                    id_column = array("q")
                    id_column.frombytes(ffi.buffer(ids, 8 * count))
                    value_column = array("q")
                    value_column.frombytes(ffi.buffer(values, 8 * width * count))
                    name = bytes(data[info[1] : info[1] + info[2]]) if info[2] else b""
                    items.append((name, id_column, value_column))
                pos = info[0]
                status = info[3]
                if status == _SCAN_FRAME:
                    items.append(bytes(data[info[4] : info[5]]))
                    pos = info[5]
                elif status != _SCAN_AGAIN:
                    return items, pos, status != _SCAN_MORE
        finally:
            if view is not data:
                ffi.release(view)

    def encode_results(self, ids, values):
        """The exact single-value RESULT frames of ``zip(ids, values)``.

        Both are ``array('q')`` columns of one length.  Byte for byte what
        ``protocol.encode_result_block`` writes for an exact kind, or
        ``None`` when an id or a value is negative.
        """
        count = len(ids)
        if ids.typecode != "q" or values.typecode != "q" or len(values) != count:
            raise ValueError("encode_results takes two array('q') columns of one length")
        if count > self._out_frames:
            self._out = self._ffi.new("uint8_t[]", _RESULT_BYTES * count)
            self._out_frames = count
        ffi = self._ffi
        written = self._lib.repro_encode_results(
            ffi.from_buffer(ids), ffi.from_buffer(values), count, self._out
        )
        if written < 0:
            return None
        return ffi.buffer(self._out, written)[:]
