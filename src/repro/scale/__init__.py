"""Beyond-RAM scale: memory accounting for the build and serve paths.

The store layer does the work at scale: :func:`repro.store.write_store`
encodes a tree straight to the on-disk :class:`~repro.store.LabelStore`
format with the payload streamed through a temp file (``repro-labels
build``), and :meth:`repro.store.LabelStore.open_mmap` /
``DistanceIndex.open(path, mmap=True)`` / ``repro-labels serve --mmap``
query the file through a read-only mapping, so the resident cost is
page-cache occupancy shared across every worker of a pre-forked fleet.

This package keeps the measuring side (:mod:`repro.scale.memory`): the RSS
probes behind the build report and the serve layer's STATS, plus the
address-space cap under which ``benchmarks/bench_scale.py --gate`` proves
the file writer's footprint.  That benchmark records build time, peak RSS,
bytes per node, and cold-vs-warm mmap query throughput into
``BENCH_scale.json``.
"""

from repro.scale.memory import cap_address_space, current_rss_bytes, peak_rss_bytes

__all__ = ["cap_address_space", "current_rss_bytes", "peak_rss_bytes"]
