"""The native tier: ``_kernels.c`` compiled and loaded through cffi.

Loading follows the quisk pattern (SNIPPETS.md Snippet 1): the shared
library is a pure accelerator, never a dependency.  ``load()`` either
returns a working :class:`NativeBackend` or raises :class:`KernelError`
with the reason — missing cffi, no C compiler, a failed build, a corrupt
or ABI-incompatible library — and the dispatch layer degrades to the numpy
or packed-Python tier.

The library is compiled at first use (``cc -O2 -shared -fPIC``) into a
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

#: bumped in ``_kernels.c`` whenever a signature changes; a library that
#: reports anything else is stale or foreign and is rejected
ABI_VERSION = 3

_CDEF = """
int repro_kernels_abi(void);
int repro_varint_many(const uint8_t *buf, uint64_t buf_len, uint64_t start,
                      uint64_t count, uint64_t *out, uint64_t *end_pos);
int repro_gamma_many(const uint8_t *buf, uint64_t bit_start, uint64_t bit_end,
                     uint64_t count, uint64_t *out, uint64_t *end_bit);
int repro_unary_many(const uint8_t *buf, uint64_t bit_start, uint64_t bit_end,
                     uint64_t count, uint64_t *out, uint64_t *end_bit);
int repro_hld_batch(const uint8_t *payload, const uint64_t *offs,
                    const uint64_t *lens, int64_t n_total, const int32_t *nodes,
                    int64_t n_nodes, const int32_t *ui, const int32_t *vi,
                    int64_t n_pairs, int64_t *out);
int repro_hld_matrix(const uint8_t *payload, const uint64_t *offs,
                     const uint64_t *lens, int64_t n_total,
                     const int32_t *nodes, int64_t n_nodes, int64_t *out);
int repro_hld_checksum(const uint8_t *payload, const uint64_t *offs,
                       const uint64_t *lens, int64_t n_total,
                       const int32_t *nodes, int64_t n_nodes, uint64_t *out);
int repro_freedman_batch(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total,
                         const int32_t *nodes, int64_t n_nodes,
                         const int32_t *ui, const int32_t *vi, int64_t n_pairs,
                         int64_t *out);
int repro_freedman_matrix(const uint8_t *payload, const uint64_t *offs,
                          const uint64_t *lens, int64_t n_total,
                          const int32_t *nodes, int64_t n_nodes, int64_t *out);
int repro_freedman_checksum(const uint8_t *payload, const uint64_t *offs,
                            const uint64_t *lens, int64_t n_total,
                            const int32_t *nodes, int64_t n_nodes,
                            uint64_t *out);
"""

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
                "-O2",
                "-shared",
                "-fPIC",
                "-o",
                scratch,
                source_path(),
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

    Every public method returns ``None`` for anything the C side does not
    support (scheme family, value ranges, corrupt streams) — the caller
    falls back to the packed-Python path, which reproduces the reference
    behaviour exactly, exceptions included.
    """

    name = "native"
    #: below this many pairs the per-call marshalling overhead beats the win
    min_batch = 16
    #: ``batch_query`` decodes labels from the store and ignores ``parsed=``
    decodes_store = True

    def __init__(self, ffi, lib, path: str) -> None:
        self.ffi = ffi
        self.lib = lib
        self.path = path

    # -- scheme dispatch -----------------------------------------------------

    @staticmethod
    def _kind(scheme) -> str | None:
        # exact type checks: a subclass may override ``distance``/``query``
        # semantics, which the C side knows nothing about
        from repro.core.freedman import FreedmanScheme
        from repro.core.hld import HLDScheme

        if type(scheme) is HLDScheme:
            return "hld"
        if type(scheme) is FreedmanScheme:
            return "freedman"
        return None

    def tier_for(self, scheme, op: str = "batch_query") -> str:
        return "native" if self._kind(scheme) else "python"

    # -- store marshalling ---------------------------------------------------

    def _store_arrays(self, store):
        """Per-store C views of payload/offsets/lengths, built once.

        A real :class:`LabelStore` hands out ``array('Q')`` index sequences
        and a (possibly ``mmap``-backed) payload view — all three are mapped
        in place with ``ffi.from_buffer``, so the native tier runs straight
        off the original storage.  Duck-typed stores returning plain lists
        fall back to a one-time ``ffi.new`` copy.
        """
        cached = getattr(store, "_repro_kernel_arrays", None)
        if cached is not None:
            return cached
        view, offsets, lengths = store.buffers()
        ffi = self.ffi
        payload = (
            ffi.from_buffer("uint8_t[]", view)
            if len(view)
            else ffi.new("uint8_t[]", 1)
        )

        def index_array(sequence):
            if len(sequence):
                try:
                    return ffi.from_buffer("uint64_t[]", sequence)
                except TypeError:
                    return ffi.new("uint64_t[]", list(sequence))
            return ffi.new("uint64_t[]", 1)

        offs = index_array(offsets)
        lens = index_array(lengths)
        arrays = (payload, offs, lens, len(lengths))
        try:
            store._repro_kernel_arrays = arrays
        except AttributeError:  # a store type with __slots__: rebuild per call
            pass
        return arrays

    # -- fused entry points --------------------------------------------------

    def batch_query(self, store, scheme, pairs, parsed=None):
        """Distances for ``pairs`` straight from the packed store, or ``None``.

        ``parsed`` is accepted for interface parity and ignored: the kernel
        decodes every label itself (see ``decodes_store``).
        """
        kind = self._kind(scheme)
        if kind is None or not pairs:
            return None
        n_total = store.n
        if n_total >= 1 << 31:
            return None
        slots: dict[int, int] = {}
        nodes: list[int] = []
        for pair in pairs:
            for node in pair:
                if node not in slots:
                    if not isinstance(node, int) or not 0 <= node < n_total:
                        return None
                    slots[node] = len(nodes)
                    nodes.append(node)
        payload, offs, lens, _ = self._store_arrays(store)
        ffi = self.ffi
        node_arr = ffi.new("int32_t[]", nodes)
        ui = ffi.new("int32_t[]", [slots[u] for u, _ in pairs])
        vi = ffi.new("int32_t[]", [slots[v] for _, v in pairs])
        out = ffi.new("int64_t[]", len(pairs))
        fn = (
            self.lib.repro_hld_batch if kind == "hld" else self.lib.repro_freedman_batch
        )
        rc = fn(
            payload, offs, lens, n_total, node_arr, len(nodes), ui, vi, len(pairs), out
        )
        if rc:
            return None
        return ffi.unpack(out, len(pairs))

    def matrix_flat(self, store, scheme, targets, labels=None):
        """Flat row-major all-pairs matrix over ``targets``, or ``None``."""
        kind = self._kind(scheme)
        size = len(targets)
        if kind is None or size == 0 or size > _MAX_MATRIX_SIDE:
            return None
        n_total = store.n
        if n_total >= 1 << 31:
            return None
        for node in targets:
            if not isinstance(node, int) or not 0 <= node < n_total:
                return None
        payload, offs, lens, _ = self._store_arrays(store)
        ffi = self.ffi
        node_arr = ffi.new("int32_t[]", list(targets))
        out = ffi.new("int64_t[]", size * size)
        fn = (
            self.lib.repro_hld_matrix
            if kind == "hld"
            else self.lib.repro_freedman_matrix
        )
        rc = fn(payload, offs, lens, n_total, node_arr, size, out)
        if rc:
            return None
        return ffi.unpack(out, size * size)

    def parse_checksum(self, store, scheme, nodes):
        """Field fold over the decoded labels of ``nodes``, or ``None``.

        Matches :func:`repro.kernels.python_tier.fold_checksum` bit for bit;
        equal checksums certify the C decoder read every field identically.
        """
        kind = self._kind(scheme)
        if kind is None or not nodes:
            return None
        n_total = store.n
        if n_total >= 1 << 31:
            return None
        for node in nodes:
            if not isinstance(node, int) or not 0 <= node < n_total:
                return None
        payload, offs, lens, _ = self._store_arrays(store)
        ffi = self.ffi
        node_arr = ffi.new("int32_t[]", list(nodes))
        out = ffi.new("uint64_t*")
        fn = (
            self.lib.repro_hld_checksum
            if kind == "hld"
            else self.lib.repro_freedman_checksum
        )
        rc = fn(payload, offs, lens, n_total, node_arr, len(nodes), out)
        if rc:
            return None
        return int(out[0])

    # -- bulk codec primitives ----------------------------------------------

    def varint_many(self, data, start, count):
        """Decode ``count`` LEB128 varints; ``(values, end_offset)`` or ``None``."""
        if count >= 1 << 31:
            return None
        ffi = self.ffi
        buf = ffi.from_buffer("uint8_t[]", data) if len(data) else ffi.new("uint8_t[]", 1)
        out = ffi.new("uint64_t[]", max(count, 1))
        end = ffi.new("uint64_t*")
        rc = self.lib.repro_varint_many(buf, len(data), start, count, out, end)
        if rc:
            return None
        return ffi.unpack(out, count), int(end[0])

    def gamma_many(self, data, bit_start, bit_end, count):
        """Decode ``count`` Elias gamma codes; ``(values, end_bit)`` or ``None``."""
        ffi = self.ffi
        buf = ffi.from_buffer("uint8_t[]", data) if len(data) else ffi.new("uint8_t[]", 1)
        out = ffi.new("uint64_t[]", max(count, 1))
        end = ffi.new("uint64_t*")
        rc = self.lib.repro_gamma_many(buf, bit_start, bit_end, count, out, end)
        if rc:
            return None
        return ffi.unpack(out, count), int(end[0])

    def unary_many(self, data, bit_start, bit_end, count):
        """Decode ``count`` unary codes; ``(values, end_bit)`` or ``None``."""
        ffi = self.ffi
        buf = ffi.from_buffer("uint8_t[]", data) if len(data) else ffi.new("uint8_t[]", 1)
        out = ffi.new("uint64_t[]", max(count, 1))
        end = ffi.new("uint64_t*")
        rc = self.lib.repro_unary_many(buf, bit_start, bit_end, count, out, end)
        if rc:
            return None
        return ffi.unpack(out, count), int(end[0])
