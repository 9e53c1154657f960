"""Process-memory accounting for the beyond-RAM serving and build paths.

Three small primitives, shared by the ``build`` command's peak-RSS
report, the serve layer's STATS payload (resident bytes next to the
payload size shows whether an mmap-backed worker is actually serving from
page cache) and the CI scale gate (a fixed address-space cap the file
writer must build under):

* :func:`current_rss_bytes` — the process's resident set right now;
* :func:`peak_rss_bytes` — the high-water mark since process start;
* :func:`cap_address_space` — ``resource.setrlimit(RLIMIT_AS, ...)``,
  the knob the scale gate uses to *prove* the file writer's footprint
  instead of merely measuring it.

Everything degrades to ``0`` / no-op on platforms without ``/proc`` or
``resource`` rather than failing — memory numbers are diagnostics, never
correctness.
"""

from __future__ import annotations

import os

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_bytes() -> int:
    """Resident-set size of this process in bytes (0 when unknowable).

    Reads ``/proc/self/statm`` (Linux); the second field is resident pages.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


def peak_rss_bytes() -> int:
    """Peak resident-set size since process start, in bytes (0 unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalised to bytes.
    """
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024
    except (ImportError, OSError, ValueError):
        return 0


def cap_address_space(limit_bytes: int) -> bool:
    """Hard-cap this process's virtual address space; ``True`` on success.

    Allocations beyond the cap raise ``MemoryError`` (or ``mmap`` failures),
    which is exactly the behaviour the scale gate relies on: under a fixed
    cap the file writer (:func:`repro.store.write_store`), whose working
    set is the scheme's precompute, one label and the bit-length index,
    must still complete.  Read-only ``mmap`` of a large store file
    still counts against ``RLIMIT_AS``, so the cap must leave room for the
    mapping itself (page-cache residency is not the same as address space).
    """
    try:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
        return True
    except (ImportError, OSError, ValueError):
        return False
