"""Prometheus text-format exposition and the stdlib metrics endpoint.

Two halves:

:func:`render`
    serialise a :class:`repro.obs.registry.Registry` into the Prometheus
    text exposition format (version 0.0.4): ``# HELP`` / ``# TYPE`` lines,
    escaped labels, histograms expanded into cumulative (hence monotone)
    ``_bucket{le="..."}`` series plus ``_sum`` / ``_count``.

:func:`fleet_registry`
    the serving fleet's metric surface: build a registry snapshot from a
    fleet-merged STATS payload (:func:`repro.serve.metrics.merge_fleet_stats`)
    plus optional supervisor control-plane state.  Every series is prefixed
    ``repro_``; the store generation and kernel tier travel as info labels,
    latency as fleet-merged histograms, and per-slot liveness/restarts as
    labelled gauges.

:class:`MetricsServer`
    a tiny ``http.server`` endpoint (``serve --metrics-port``) that calls a
    render callable per GET — no third-party dependency, runs as a daemon
    thread next to the supervisor (which scrapes its workers per request,
    so the endpoint always reflects live fleet state).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.hist import Histogram, merge_histogram_dicts
from repro.obs.registry import MetricFamily, Registry

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value) -> str:
    """A Prometheus-safe number literal (no exponent surprises for ints)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _render_family(family: MetricFamily, out: list[str]) -> None:
    if family.help:
        out.append(f"# HELP {family.name} {_escape(family.help)}")
    # info metrics are the conventional constant-1 gauge
    kind = "gauge" if family.kind == "info" else family.kind
    out.append(f"# TYPE {family.name} {kind}")
    if family.kind != "histogram":
        for labels, value in family.samples:
            out.append(f"{family.name}{_labels(labels)} {_fmt(value)}")
        return
    for labels, hist in family.samples:
        assert isinstance(hist, Histogram)
        cumulative = hist.cumulative()
        for bound, count in zip(hist.bounds, cumulative):
            bucket = dict(labels, le=_fmt(bound))
            out.append(f"{family.name}_bucket{_labels(bucket)} {count}")
        inf = dict(labels, le="+Inf")
        out.append(f"{family.name}_bucket{_labels(inf)} {cumulative[-1]}")
        out.append(f"{family.name}_sum{_labels(labels)} {_fmt(hist.sum)}")
        out.append(f"{family.name}_count{_labels(labels)} {hist.total}")


def render(registry: Registry) -> str:
    """The full text exposition for ``registry`` (trailing newline included)."""
    out: list[str] = []
    for family in registry.collect():
        _render_family(family, out)
    return "\n".join(out) + "\n"


#: fleet counters exported 1:1 from the merged STATS payload
_COUNTERS = (
    ("queries", "repro_queries_total", "Individual QUERY answers sent"),
    ("batch_requests", "repro_batch_requests_total", "OP_BATCH requests served"),
    ("batch_request_pairs", "repro_batch_pairs_total", "Pairs answered inside OP_BATCH requests"),
    ("matrix_requests", "repro_matrix_requests_total", "OP_MATRIX requests served"),
    ("flushes", "repro_coalescer_flushes_total", "Coalescer batch_query calls"),
    ("coalesced_queries", "repro_coalesced_queries_total", "QUERY answers produced by coalesced flushes"),
    ("errors", "repro_errors_total", "Request-scoped OP_ERROR responses"),
    ("busy_rejections", "repro_busy_rejections_total", "Requests shed with OP_BUSY backpressure"),
    ("connections_total", "repro_connections_total", "Client connections accepted"),
    ("restarts", "repro_worker_restarts_total", "Worker processes restarted after a crash"),
    ("misroutes", "repro_misroutes_total", "Member requests served by a non-owning shard (legacy clients)"),
    ("moved_redirects", "repro_moved_redirects_total", "OP_MOVED redirects sent to routed clients"),
)

_GAUGES = (
    ("connections_open", "repro_connections_open", "Client connections currently open"),
    ("pending", "repro_pending_queries", "QUERYs queued in the coalescers right now"),
    ("workers", "repro_workers", "Distinct workers merged into this scrape"),
    ("rss_bytes", "repro_rss_bytes", "Resident set size summed over workers (mmap-served payload pages are shared)"),
    ("qps", "repro_queries_per_second", "Lifetime answered-query rate summed over workers"),
    ("uptime_seconds", "repro_uptime_seconds", "Oldest worker uptime"),
)


def fleet_registry(merged: dict, *, supervisor: dict | None = None) -> Registry:
    """The ``repro_``-prefixed metric snapshot for one fleet-merged STATS view.

    ``merged`` is a :func:`repro.serve.metrics.merge_fleet_stats` payload
    (a single worker's STATS dict also works — it merges with itself);
    ``supervisor`` optionally adds control-plane series (reloads, per-slot
    liveness) from :meth:`FleetSupervisor.fleet_status`.
    """
    registry = Registry()
    for key, name, help_text in _COUNTERS:
        registry.counter(name, help_text, merged.get(key, 0))
    for key, name, help_text in _GAUGES:
        registry.gauge(name, help_text, merged.get(key, 0))

    generation = merged.get("store_generation")
    if supervisor is not None and supervisor.get("generation"):
        generation = supervisor["generation"]
    if generation:
        labels = {"generation": generation}
        if supervisor is not None and supervisor.get("path"):
            labels["path"] = supervisor["path"]
        registry.info(
            "repro_store_info", "Served store generation (content hash)", **labels
        )
    if merged.get("kernel"):
        registry.info(
            "repro_kernel_info", "Active decode/distance kernel tier",
            tier=merged["kernel"],
        )

    latency = merged.get("latency_ms", {})
    if isinstance(latency.get("histogram"), dict):
        registry.histogram(
            "repro_request_latency_ms",
            "QUERY latency (coalescer enqueue to response write), milliseconds",
            Histogram.from_dict(latency["histogram"]),
        )
    for stage, payload in sorted(merged.get("stages", {}).items()):
        try:
            hist = merge_histogram_dicts([payload])
        except (KeyError, ValueError, TypeError):  # pragma: no cover - defensive
            continue
        if hist is not None:
            registry.histogram(
                "repro_request_stage_ms",
                "Per-stage request-path durations, milliseconds",
                hist,
                stage=stage,
            )

    index = merged.get("index")
    if isinstance(index, dict) and index.get("open", True):
        cache = index.get("cache")
        if isinstance(cache, dict):
            registry.gauge(
                "repro_label_cache_hit_rate",
                "Decoded-label cache hit rate", cache.get("hit_rate", 0.0),
            )

    if merged.get("routing_version"):
        registry.gauge(
            "repro_routing_table_version",
            "Newest routing-table version any worker reports",
            merged["routing_version"],
        )

    for row in merged.get("per_worker", ()):
        slot = str(row.get("slot", 0))
        registry.gauge(
            "repro_worker_queries", "QUERY answers per worker slot",
            row.get("queries", 0), slot=slot,
        )
        registry.gauge(
            "repro_worker_restarts", "Restart count per worker slot",
            row.get("restarts", 0), slot=slot,
        )
        if "members_assigned" in row:
            registry.gauge(
                "repro_worker_members",
                "Catalog members assigned to the worker slot",
                len(row["members_assigned"]), slot=slot,
            )

    if supervisor is not None:
        registry.counter(
            "repro_fleet_reloads_total", "Completed rolling reloads",
            supervisor.get("reloads", 0),
        )
        routing = supervisor.get("routing")
        if routing and not merged.get("routing_version"):
            registry.gauge(
                "repro_routing_table_version",
                "Newest routing-table version any worker reports",
                routing.get("version", 0),
            )
        for slot_row in supervisor.get("slots", ()):
            registry.gauge(
                "repro_worker_up", "1 while the slot's worker process is alive",
                1 if slot_row.get("alive") else 0, slot=str(slot_row.get("slot", 0)),
            )
    return registry


class MetricsServer:
    """A daemon-threaded ``/metrics`` HTTP endpoint over a render callable.

    ``source`` is called once per GET and must return the exposition text —
    for a fleet that means "scrape the workers now", so the endpoint is
    always live data, never a stale cache.  Exceptions render as a 500 with
    the error text; the serving fleet is never taken down by its metrics.
    """

    def __init__(self, source, host: str = "127.0.0.1", port: int = 0) -> None:
        self._source = source

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] not in ("/", "/metrics"):
                    self.send_error(404, "try /metrics")
                    return
                try:
                    body = outer._source().encode("utf-8")
                except Exception as error:  # noqa: BLE001 - reported, not raised
                    self.send_response(500)
                    self.send_header("Content-Type", "text/plain; charset=utf-8")
                    self.end_headers()
                    self.wfile.write(f"scrape failed: {error}\n".encode())
                    return
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # noqa: A003 - silence stderr
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        """Serve in a daemon thread; returns the bound ``(host, port)``."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
