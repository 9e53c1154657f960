"""Tiered decode/distance kernels: native C → numpy → packed Python.

The query path's hot loops (``parse_many`` word scans, batched distance,
matrix fill) have three interchangeable implementations:

- **native** — ``_kernels.c`` compiled at build/first-use and loaded via
  cffi (:mod:`repro.kernels.native`); fused decode+distance for hld-fixed
  and Freedman labels straight from ``LabelStore.buffers()``.
- **numpy** — vectorised hld-fixed queries over Python-parsed labels
  (:mod:`repro.kernels.numpy_tier`).
- **python** — the existing packed word-level paths, always available
  (:mod:`repro.kernels.python_tier`).

Availability is probed once per process (quisk-style graceful degradation:
a tier that fails to build/import is recorded and skipped, never fatal) and
the best available tier is selected.  ``REPRO_KERNELS=native|numpy|python``
forces a tier; if the forced tier is unavailable the next one down is used
and the probe records why.  Every backend accelerates only what it
supports — a fused call returning ``None`` sends the caller down the
packed-Python path, so results (and error behaviour) are identical across
tiers by construction, which the differential suites assert.

A backend whose ``decodes_store`` attribute is true (native) ignores
``parsed=``: :class:`~repro.store.QueryEngine` calls it before parsing
anything and parses only if it declines.  That makes the
C decoder the first reader of label bits, so it must decline on anything
the Python parser or query would reject.
"""

from __future__ import annotations

import os

ENV_VAR = "REPRO_KERNELS"
TIER_ORDER = ("native", "numpy", "python")

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
    if tier == "numpy":
        try:
            from repro.kernels.numpy_tier import NumpyBackend
            import numpy

            return (
                {"available": True, "detail": f"numpy {numpy.__version__}"},
                NumpyBackend(),
            )
        except Exception as error:
            return {"available": False, "detail": str(error)}, None
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
    """Name of the selected tier: ``native``, ``numpy`` or ``python``."""
    return backend().name


def get_backend(tier: str):
    """A specific tier's backend, or ``None`` when unavailable (diagnostics)."""
    probe(full=True)
    return _state["backends"].get(tier)
