"""Prometheus text-format exposition and the stdlib metrics endpoint.

Two halves:

:func:`render`
    the serving fleet's metric surface as Prometheus text (version 0.0.4):
    written straight from a fleet-merged STATS payload
    (:func:`repro.serve.metrics.merge_fleet_stats`) plus optional
    supervisor control-plane state.  The plain series come from the one
    table :data:`repro.serve.metrics.SERIES`; the store generation and
    kernel tier travel as info labels (a constant-1 gauge), latency as
    fleet-merged histograms expanded into cumulative (hence monotone)
    ``_bucket{le="..."}`` series plus ``_sum`` / ``_count``, and per-slot
    liveness/restarts as labelled gauges.  Every series is prefixed
    ``repro_``.

:class:`MetricsServer`
    a tiny ``http.server`` endpoint (``serve --metrics-port``) that calls a
    render callable per GET — no third-party dependency, runs as a daemon
    thread next to the supervisor (which scrapes its workers per request,
    so the endpoint always reflects live fleet state).
"""

from __future__ import annotations

import threading

from repro.obs.hist import Histogram, merge_histogram_dicts

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


def _family(out: list[str], name: str, kind: str, help_text: str, samples) -> None:
    """One metric family; ``samples`` are ``(labels, value)`` pairs, where a
    histogram family's value is a :class:`Histogram`.  No samples, no family."""
    if not samples:
        return
    out.append(f"# HELP {name} {_escape(help_text)}")
    out.append(f"# TYPE {name} {kind}")
    for labels, value in samples:
        if kind != "histogram":
            out.append(f"{name}{_labels(labels)} {_fmt(value)}")
            continue
        cumulative = value.cumulative()
        for bound, count in zip(value.bounds, cumulative):
            out.append(f"{name}_bucket{_labels(dict(labels, le=_fmt(bound)))} {count}")
        out.append(f"{name}_bucket{_labels(dict(labels, le='+Inf'))} {cumulative[-1]}")
        out.append(f"{name}_sum{_labels(labels)} {_fmt(value.sum)}")
        out.append(f"{name}_count{_labels(labels)} {value.total}")


def render(merged: dict, *, supervisor: dict | None = None) -> str:
    """The ``repro_``-prefixed text exposition of one fleet-merged STATS view.

    ``merged`` is a :func:`repro.serve.metrics.merge_fleet_stats` payload
    (a single-process server merges its own one payload); ``supervisor``
    optionally adds control-plane series (reloads, per-slot liveness) from
    :meth:`FleetSupervisor.fleet_status`.  The text ends in a newline.
    """
    # imported per call so that loading repro.obs never loads the serve package
    from repro.serve.metrics import SERIES

    out: list[str] = []
    for series in SERIES:
        if series.metric is not None:
            _family(out, series.metric, series.kind, series.help,
                    [({}, merged.get(series.key, 0))])

    generation = merged.get("store_generation")
    if supervisor is not None and supervisor.get("generation"):
        generation = supervisor["generation"]
    if generation:
        labels = {"generation": generation}
        if supervisor is not None and supervisor.get("path"):
            labels["path"] = supervisor["path"]
        _family(out, "repro_store_info", "gauge",
                "Served store generation (content hash)", [(labels, 1)])
    if merged.get("kernel"):
        _family(out, "repro_kernel_info", "gauge",
                "Active decode/distance kernel tier", [({"tier": merged["kernel"]}, 1)])

    latency = merged.get("latency_ms", {})
    if isinstance(latency.get("histogram"), dict):
        _family(out, "repro_request_latency_ms", "histogram",
                "QUERY latency (coalescer enqueue to response write), milliseconds",
                [({}, Histogram.from_dict(latency["histogram"]))])
    stages = []
    for stage, payload in sorted(merged.get("stages", {}).items()):
        try:
            hist = merge_histogram_dicts([payload])
        except (KeyError, ValueError, TypeError):  # pragma: no cover - defensive
            continue
        if hist is not None:
            stages.append(({"stage": stage}, hist))
    _family(out, "repro_request_stage_ms", "histogram",
            "Per-stage request-path durations, milliseconds", stages)

    index = merged.get("index")
    if isinstance(index, dict) and index.get("open", True):
        cache = index.get("cache")
        if isinstance(cache, dict):
            _family(out, "repro_label_cache_hit_rate", "gauge",
                    "Decoded-label cache hit rate", [({}, cache.get("hit_rate", 0.0))])

    rows = [(str(row.get("slot", 0)), row) for row in merged.get("per_worker", ())]
    _family(out, "repro_worker_queries", "gauge", "QUERY answers per worker slot",
            [({"slot": slot}, row.get("queries", 0)) for slot, row in rows])
    _family(out, "repro_worker_restarts", "gauge", "Restart count per worker slot",
            [({"slot": slot}, row.get("restarts", 0)) for slot, row in rows])

    if supervisor is not None:
        _family(out, "repro_fleet_reloads_total", "counter", "Completed rolling reloads",
                [({}, supervisor.get("reloads", 0))])
        _family(out, "repro_worker_up", "gauge",
                "1 while the slot's worker process is alive",
                [({"slot": str(row.get("slot", 0))}, 1 if row.get("alive") else 0)
                 for row in supervisor.get("slots", ())])
    return "\n".join(out) + "\n"


class MetricsServer:
    """A daemon-threaded ``/metrics`` HTTP endpoint over a render callable.

    ``source`` is called once per GET and must return the exposition text —
    for a fleet that means "scrape the workers now", so the endpoint is
    always live data, never a stale cache.  Exceptions render as a 500 with
    the error text; the serving fleet is never taken down by its metrics.
    """

    def __init__(self, source, host: str = "127.0.0.1", port: int = 0) -> None:
        # imported here: only a process that exports metrics pays for http
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

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
