"""Tiered kernels: native C → packed Python.

The query path's hot loops (batched distance, matrix fill) and the
Freedman encoder have two interchangeable implementations:

- **native** — ``_kernels.c`` compiled at build/first-use and loaded via
  cffi (:mod:`repro.kernels.native`): fused decode+distance for hld-fixed
  and Freedman labels straight from ``LabelStore.buffers()``, and the
  Freedman encoder, which computes Section 2/3's shared structure from
  the tree's rows and writes every label in the store's payload layout, in
  runs of whole labels whose bit lengths and byte ends land in the store's
  index arrays (``NativeBackend.encode_freedman``), the store's index
  decoder (``NativeBackend.decode_index``), and the serving stack's RSP/1
  codec for plain QUERY/RESULT frames (``NativeBackend.wire_codec``):
  scanners that turn runs of them into ``int64`` columns and stop at any
  other frame, and an encoder of exact RESULT frames.
- **python** — the packed-Python paths, always available
  (:mod:`repro.kernels.python_tier`): ``scheme.parse_many``, which reads
  every label through its class's one ``read`` on a
  :class:`~repro.encoding.bitio.BitReader`, then ``scheme.query``; and
  the scheme's own Python encoder, the reference the C encoder's bytes
  are held to (``tests/test_freedman_native_encoder.py``); and
  :mod:`repro.serve.protocol`'s codec, the reference for the C one
  (``tests/test_serve_fuzz.py``).

Availability is probed once per process (quisk-style graceful degradation:
a tier that fails to build/import is recorded and skipped, never fatal) and
the best available tier is selected.  ``REPRO_KERNELS=native|python``
forces a tier; if the forced tier is unavailable the next one down is used
and the probe records why.  Every backend accelerates only what it
supports — a fused call returning ``None`` sends the caller down the
packed-Python path, so results (and error behaviour) are identical across
tiers by construction, which the differential suites assert.  The encoder
never declines a tree: it accepts every tree ``RootedTree`` accepts, and
only a failed allocation (``MemoryError``) stops it.

The native backend owns the decoded labels of the schemes it supports:
each :class:`~repro.store.QueryEngine` binds one decoded-label arena in C
(``NativeBackend.arena``), every query crosses to it as one flat buffer
of pairs (the network server hands the engine that buffer already flat,
as an ``array('q')``), and the engine parses in Python only when the
kernel declines.
That makes the C decoder the first reader of label bits, so it must
decline on anything the Python parser or query would reject; a declined
label then meets the same Python ``read`` on every tier
(``tests/test_malformed_labels.py``).
"""

from __future__ import annotations

import os

ENV_VAR = "REPRO_KERNELS"
TIER_ORDER = ("native", "python")

_state: dict = {"probe": None, "backends": {}}


def reset() -> None:
    """Forget the cached probe/backend (tests re-probe after env changes)."""
    _state["probe"] = None
    _state["backends"] = {}


def _probe_tier(tier: str):
    """Try to construct one tier's backend: ``(info_dict, backend_or_None)``."""
    if tier == "python":
        from repro.kernels.python_tier import PythonBackend

        return {"available": True, "detail": "packed word-level paths"}, PythonBackend()
    try:
        from repro.kernels.native import load

        backend = load()
        return {"available": True, "detail": backend.path}, backend
    except Exception as error:
        return {"available": False, "detail": str(error)}, None


def probe(full: bool = False) -> dict:
    """Availability of every tier plus the selected backend name.

    With ``full=False`` (the serving default) tiers below a forced
    ``REPRO_KERNELS`` choice are skipped — forcing ``python`` must not pay
    a compile attempt.  ``full=True`` (the CLI diagnostic) probes all
    tiers regardless.
    """
    cached = _state["probe"]
    if cached is not None and (not full or cached["full"]):
        return cached
    requested = (os.environ.get(ENV_VAR) or "").strip().lower() or None
    note = None
    if requested == "auto":
        requested = None
    elif requested is not None and requested not in TIER_ORDER:
        note = f"unknown {ENV_VAR}={requested!r}, using automatic selection"
        requested = None
    floor = TIER_ORDER.index(requested) if requested else 0
    tiers: dict[str, dict] = {}
    backends: dict[str, object] = {}
    for index, tier in enumerate(TIER_ORDER):
        if not full and index < floor:
            tiers[tier] = {
                "available": None,
                "detail": f"not probed ({ENV_VAR}={requested})",
            }
            continue
        info, backend = _probe_tier(tier)
        tiers[tier] = info
        if backend is not None:
            backends[tier] = backend
    selected = None
    for index, tier in enumerate(TIER_ORDER):
        if index >= floor and tiers[tier].get("available"):
            selected = tier
            break
    if requested is not None and selected != requested:
        note = (
            f"{ENV_VAR}={requested} unavailable "
            f"({tiers[requested]['detail']}), degraded to {selected}"
        )
    result = {
        "selected": selected,
        "requested": requested,
        "env_var": ENV_VAR,
        "tiers": tiers,
        "note": note,
        "full": full or floor == 0,
    }
    _state["probe"] = result
    _state["backends"] = backends
    return result


def backend():
    """The selected backend object (probing on first use)."""
    probed = _state["probe"]
    if probed is None:
        probed = probe()
    return _state["backends"][probed["selected"]]


def backend_name() -> str:
    """Name of the selected tier: ``native`` or ``python``."""
    return backend().name


def get_backend(tier: str):
    """A specific tier's backend, or ``None`` when unavailable (diagnostics)."""
    probe(full=True)
    return _state["backends"].get(tier)
