"""``repro.obs`` — the observability plane for the serving stack.

Four small, dependency-free modules that make a running fleet inspectable:

* :mod:`repro.obs.trace` — request tracing: :class:`Span` monotonic
  timings over the request path (frame decode → coalescer queue wait →
  kernel batch → result encode → transport write), a bounded ring of
  recent traces and a slow-query log per worker (served over
  ``OP_TRACE`` / ``repro-labels trace``);
* :mod:`repro.obs.hist` — fixed-boundary log-spaced latency
  :class:`Histogram` s whose merge is exact bucket-wise addition — the
  only latency record, so fleet-wide percentiles come from merged counts;
* :mod:`repro.obs.prom` — the fleet's ``repro_``-prefixed Prometheus text
  exposition (:func:`~repro.obs.prom.render`, written from a fleet-merged
  STATS payload and the one series table
  :data:`repro.serve.metrics.SERIES`) and the stdlib ``/metrics`` HTTP
  endpoint (:class:`~repro.obs.prom.MetricsServer`,
  ``serve --metrics-port``);
* :mod:`repro.obs.profile` — the opt-in ``REPRO_PROFILE`` / SIGUSR2
  cProfile window for a live worker.

Everything here is stdlib-only and cheap enough to leave on in production:
histogram observation is one bisect into ~40 boundaries, and tracing
allocates only for requests that carry a trace id.
"""

from __future__ import annotations

from repro.obs.hist import DEFAULT_BOUNDS_MS, Histogram, merge_histogram_dicts
from repro.obs.prom import MetricsServer, render
from repro.obs.profile import install_profile_hook
from repro.obs.trace import STAGES, Span, Trace, TraceRecorder

__all__ = [
    "DEFAULT_BOUNDS_MS",
    "Histogram",
    "merge_histogram_dicts",
    "MetricsServer",
    "render",
    "install_profile_hook",
    "STAGES",
    "Span",
    "Trace",
    "TraceRecorder",
]
