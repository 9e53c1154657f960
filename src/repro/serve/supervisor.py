"""Shard-per-core serving: a supervising control plane over worker fleets.

One Python process tops out at one core's worth of label decoding, so the
production shape is N worker processes — one per core — all accepting on
the **same** address:

* where the platform has ``SO_REUSEPORT`` (Linux, modern BSDs) every worker
  binds its own socket to the shared ``(host, port)`` and the kernel
  load-balances incoming connections across them — no accept lock, no
  thundering herd;
* elsewhere the supervisor binds one listening socket before forking and
  every worker serves the inherited socket (the classic pre-fork fallback).

Each worker is a full :class:`~repro.serve.server.LabelServer` (its own
event loop, engine caches and coalescer) re-opening the served file in its
own address space — nothing is shared but the listening address, so there
is no cross-process locking anywhere on the query path.

The supervisor is a control plane, not a launcher:

**Restart-on-crash.**  :meth:`FleetSupervisor.supervise` watches every
worker slot; a worker dying unexpectedly is re-forked after an exponential
backoff with full jitter (the same retry shape the clients use, via
:class:`repro.serve.retry.RestartPolicy`) while its siblings keep serving
on the shared address.  More than ``max_restarts`` deaths of the same slot
inside a sliding window is a **crash loop** — the slot's problem is not
transient — and the supervisor tears the fleet down with a diagnostic
summary and raises :class:`FleetCrashLoop` instead of flapping forever.
Restart counts, last exit codes and per-slot uptimes are carried in every
worker's STATS (``slot`` / ``restarts``) and in :meth:`fleet_status`.

**Rolling reloads.**  :meth:`FleetSupervisor.reload` drains and replaces
workers one at a time: the replacement forks against the (possibly
re-encoded) store file and completes its ready handshake *before* the old
worker gets SIGTERM, finishes its in-flight coalescer tick, and closes its
connections — so a new store generation rolls out with zero dropped
requests (clients treat the EOF as a retryable event and reconnect).  The
store generation (content hash + path, :func:`store_generation`) is
reported in INFO/STATS so clients and tests can observe the flip.

**Fault injection.**  Workers honor :mod:`repro.serve.faults`
(``REPRO_FAULTS=crash:p=0.01,stall:ms=200``) at their accept/dispatch
points, which is how the self-healing paths above are tested
deterministically.

Lifecycle: SIGTERM (or :meth:`FleetSupervisor.shutdown`) is propagated to
every worker, each worker drains its queue, reports its final STATS over a
pipe and exits 0; the supervisor folds those per-worker payloads — plus the
final STATS of workers retired by rolling reloads — into one fleet-wide
summary (:func:`repro.serve.metrics.merge_fleet_stats`: summed counters,
latency percentiles recomputed from bucket-wise merged histograms).

**Observability.**  The worker pipes double as a live control channel: the
supervisor's ``/metrics`` endpoint (:meth:`FleetSupervisor.start_metrics`,
``serve --metrics-port``) scrapes every worker's detailed STATS per GET and
renders the fleet-merged Prometheus exposition; workers also honor the
``REPRO_PROFILE`` / SIGUSR2 cProfile hook (:mod:`repro.obs.profile`).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection

from repro.serve import faults
from repro.serve.metrics import merge_fleet_stats
from repro.serve.retry import RestartPolicy

#: seconds to wait for worker ready handshakes / final stats / joins
_START_TIMEOUT = 60.0
_STOP_TIMEOUT = 15.0


class FleetCrashLoop(RuntimeError):
    """A worker slot died too often inside the restart window.

    Carries the fleet's shutdown ``summary`` (merged final stats plus exit
    codes) and the ``diagnostic`` dict describing the flapping slot.
    """

    def __init__(self, message: str, diagnostic: dict, summary: dict) -> None:
        super().__init__(message)
        self.diagnostic = diagnostic
        self.summary = summary


def store_generation(path: str) -> dict:
    """The content identity of a served store file.

    ``generation`` is a sha256 prefix of the file bytes — two byte-identical
    re-encodes share it, any real re-encode flips it — and rides through
    worker INFO/STATS so a rolling reload is observable end to end.
    """
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return {
        "path": os.path.abspath(path),
        "bytes": size,
        "generation": digest.hexdigest()[:16],
    }


def open_serve_target(path: str, cache_size: int = 4096, use_mmap: bool = False):
    """``(target, description)`` from a store or catalog file, by magic.

    Shared by the CLI ``serve`` command and every supervisor worker (each
    worker re-opens the file in its own process).  Hot-pair cache enabling
    is the server's job, so lazily opened catalog members get it too.

    With ``use_mmap`` the file is opened as a read-only memory mapping
    instead of being read into the heap — for a pre-forked fleet, N workers
    mapping the same file share **one** physical copy through the page
    cache (the per-worker ``rss_bytes`` in STATS makes the sharing
    visible).
    """
    from repro.api import CATALOG_MAGIC, DistanceIndex, IndexCatalog

    with open(path, "rb") as handle:
        magic = handle.read(4)
    via = "mmap" if use_mmap else "heap"
    if magic == CATALOG_MAGIC:
        catalog = IndexCatalog.load(path, mmap=use_mmap)
        return catalog, f"catalog {path} ({len(catalog)} member(s), {via})"
    index = DistanceIndex.open(path, cache_size=cache_size, mmap=use_mmap)
    return index, f"index {path} (scheme={index.spec}, n={index.n}, {via})"


def _worker_main(path: str, config: dict, listen, conn) -> None:
    """One worker process: open the target, serve until SIGTERM, report stats.

    ``listen`` is either an ``(host, port)`` address to bind with
    ``SO_REUSEPORT`` or an inherited listening ``socket.socket``.  The final
    STATS payload travels back through ``conn`` after the event loop exits.

    On SIGTERM the worker *drains* instead of dropping: stop accepting,
    answer everything already queued in the coalescer, flush and close the
    client connections (a clean EOF the clients retry against), then exit 0.

    While serving, ``conn`` doubles as a control channel: the supervisor's
    metrics endpoint sends ``("stats_request", detail)`` and the worker
    answers ``("stats_snapshot", pid, stats)`` from the event loop — live
    per-worker observability without consuming a client connection or
    polluting the query counters.
    """
    import asyncio

    from repro.obs.profile import install_profile_hook
    from repro.serve.server import LabelServer

    # the supervisor owns interactive interrupts; workers stop on SIGTERM
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    cache_size = config.pop("cache_size", 4096)
    use_mmap = config.pop("use_mmap", False)
    drain_seconds = config.pop("drain_seconds", 5.0)
    plan = faults.plan_for(config.get("slot", 0))
    if plan is not None:
        # the pre-handshake crash point: the supervisor must attribute the
        # death to this slot without leaking its already-ready siblings
        plan.fire("start")
    target, _ = open_serve_target(path, cache_size, use_mmap)
    server = LabelServer(target, **config)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        install_profile_hook(
            loop,
            slot=config.get("slot", 0),
            generation=(config.get("generation") or {}).get("generation"),
        )
        if isinstance(listen, socket.socket):
            address = await server.start(sock=listen)
        else:
            host, port = listen
            address = await server.start(host, port, reuse_port=True)
        conn.send(("ready", os.getpid(), address))

        def on_control() -> None:
            """Answer a supervisor control message from the event loop."""
            try:
                message = conn.recv()
            except (EOFError, OSError):
                loop.remove_reader(conn.fileno())
                return
            if not (isinstance(message, tuple) and message):
                return  # pragma: no cover - defensive
            if message[0] == "stats_request":
                detail = bool(message[1]) if len(message) > 1 else True
                try:
                    conn.send(
                        ("stats_snapshot", os.getpid(), server.stats(detail=detail))
                    )
                except (BrokenPipeError, OSError):  # pragma: no cover - race
                    pass

        loop.add_reader(conn.fileno(), on_control)
        if plan is not None:
            exit_clause = plan.exit_clause()
            if exit_clause is not None:
                loop.call_later(
                    exit_clause.after_ms / 1000.0, os._exit, exit_clause.code
                )
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        # drain-and-exit: close the listener first (nothing new arrives),
        # finish the queued coalescer work, then hand every client a clean
        # EOF so its retry logic moves it to a sibling or replacement
        await server.stop()
        await server.drain(drain_seconds)
        server.close_connections()
        loop.remove_reader(conn.fileno())
        serving.cancel()

    asyncio.run(main())
    conn.send(("stats", os.getpid(), server.stats(detail=True)))
    conn.close()


class _WorkerSlot:
    """One fleet slot: the current worker process plus its restart history."""

    __slots__ = (
        "slot",
        "process",
        "conn",
        "restarts",
        "deaths",
        "exit_history",
        "last_exit_code",
        "started_at",
    )

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process = None
        self.conn = None
        self.restarts = 0
        #: monotonic timestamps of recent deaths (pruned to the policy window)
        self.deaths: deque[float] = deque()
        #: last few exit codes, for crash-loop diagnostics
        self.exit_history: deque[int | None] = deque(maxlen=8)
        self.last_exit_code: int | None = None
        self.started_at = 0.0

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class FleetSupervisor:
    """Pre-fork N :class:`LabelServer` workers sharing one listening address.

    ``path`` is a store (RLS1) or catalog (RLC1) file — workers re-open it
    independently, so the target must be a file, not a live object.  The
    remaining keyword arguments are per-worker :class:`ServingCore`
    configuration plus ``cache_size`` for the decoded-label cache,
    ``drain_seconds`` for the worker shutdown drain, and
    ``restart_policy`` — the :class:`~repro.serve.retry.RestartPolicy`
    governing restart-on-crash (``None`` uses the defaults).
    """

    def __init__(
        self,
        path: str,
        *,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 4096,
        use_mmap: bool = False,
        restart_policy: RestartPolicy | None = None,
        drain_seconds: float = 5.0,
        **server_kwargs,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.path = str(path)
        self.workers = workers
        self.host = host
        self.port = port
        self.restart_policy = restart_policy or RestartPolicy()
        self._config = dict(
            server_kwargs,
            cache_size=cache_size,
            use_mmap=use_mmap,
            drain_seconds=drain_seconds,
        )
        self._slots: list[_WorkerSlot] = []
        self._context = None
        self._listen = None
        self._anchor: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._retired_stats: list[dict] = []
        self.generation: dict | None = None
        self.total_restarts = 0
        self.reloads = 0
        self.reuse_port = hasattr(socket, "SO_REUSEPORT")
        #: serialises worker-pipe reads between the supervision thread and
        #: the metrics endpoint's scrape thread — a scrape must never steal
        #: a retiring worker's final stats message
        self._pipe_lock = threading.Lock()
        self._metrics_server = None
        self.metrics_address: tuple[str, int] | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def pids(self) -> list[int]:
        """PIDs of the current worker processes (after :meth:`start`)."""
        return [slot.pid for slot in self._slots if slot.pid]

    def start(self) -> tuple[str, int]:
        """Fork the fleet and wait for every worker; returns ``(host, port)``."""
        if self._slots:
            raise RuntimeError("fleet already started")
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platform
            if not self.reuse_port:
                raise RuntimeError(
                    "multi-worker serving needs fork or SO_REUSEPORT"
                ) from None
            self._context = multiprocessing.get_context("spawn")

        if self.reuse_port:
            # reserve the (possibly ephemeral) port without listening: a
            # bound non-listening socket takes no connections, but pins the
            # address so every worker can bind it with SO_REUSEPORT
            anchor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            anchor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            anchor.bind((self.host, self.port))
            self._anchor = anchor
            self._address = anchor.getsockname()[:2]
            self._listen = self._address
        else:  # pragma: no cover - exercised only on platforms w/o REUSEPORT
            anchor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            anchor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            anchor.bind((self.host, self.port))
            anchor.listen(1024)
            self._anchor = anchor
            self._address = anchor.getsockname()[:2]
            self._listen = anchor

        self.generation = store_generation(self.path)
        for slot_index in range(self.workers):
            slot = _WorkerSlot(slot_index)
            self._fork_into(slot)
            self._slots.append(slot)

        failures = self._await_ready(self._slots, _START_TIMEOUT)
        if failures:
            slot, reason = failures[0]
            pid = slot.pid
            self.shutdown()
            raise RuntimeError(f"worker slot {slot.slot} (pid {pid}) {reason}")
        return self._address

    def _fork_into(self, slot: _WorkerSlot) -> None:
        """Fork a fresh worker process for ``slot`` (handshake awaited later)."""
        parent_conn, child_conn = self._context.Pipe()
        config = dict(
            self._config,
            slot=slot.slot,
            restarts=slot.restarts,
            generation=dict(self.generation),
        )
        process = self._context.Process(
            target=_worker_main,
            args=(self.path, config, self._listen, child_conn),
            daemon=False,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.started_at = time.monotonic()

    def _await_ready(self, slots: list[_WorkerSlot], timeout: float) -> list[tuple]:
        """Wait for every slot's ready handshake; returns ``(slot, reason)``
        failures.

        Event-driven over all the handshake pipes and process sentinels at
        once, so a worker dying while a *sibling* is still starting is
        attributed to the worker that actually died — never to whichever
        slot happened to be polled when a shared deadline ran out.
        """
        pending = {slot.conn: slot for slot in slots}
        deadline = time.monotonic() + timeout
        failures: list[tuple] = []
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                failures.extend(
                    (slot, "never became ready") for slot in pending.values()
                )
                break
            sentinels = {
                slot.process.sentinel: slot for slot in pending.values()
            }
            ready = mp_connection.wait(
                list(pending) + list(sentinels), timeout=remaining
            )
            for waitable in ready:
                slot = pending.get(waitable)
                if slot is not None:
                    try:
                        kind, _pid, _payload = waitable.recv()
                    except (EOFError, OSError):
                        # the worker died before its handshake (unreadable
                        # store, injected start fault, OOM kill, ...)
                        del pending[waitable]
                        failures.append((slot, "died before becoming ready"))
                        continue
                    del pending[waitable]
                    if kind != "ready":  # pragma: no cover - defensive
                        failures.append((slot, f"sent unexpected handshake {kind!r}"))
                    continue
                dead = sentinels.get(waitable)
                if dead is not None and dead.conn in pending:
                    # process exited; its pipe may still buffer a handshake —
                    # give the conn branch one more round to drain it
                    if dead.conn.poll(0):
                        continue
                    del pending[dead.conn]
                    failures.append((dead, "died before becoming ready"))
        return failures

    def poll(self) -> bool:
        """``True`` while every slot has a live worker."""
        return bool(self._slots) and all(
            slot.process is not None and slot.process.is_alive()
            for slot in self._slots
        )

    # -- supervision ---------------------------------------------------------

    def supervise(self, stop_check=None, reload_check=None, interval: float = 0.1) -> None:
        """The supervision loop: restart dead workers until ``stop_check``.

        ``stop_check`` is typically "has a SIGTERM/SIGINT arrived";
        ``reload_check`` (e.g. "has a SIGHUP arrived") triggers a rolling
        :meth:`reload` of the current path.  A crash-looping slot raises
        :class:`FleetCrashLoop` after a controlled fleet teardown.
        """
        while self._slots:
            if stop_check is not None and stop_check():
                return
            if reload_check is not None and reload_check():
                self.reload()
            for slot in list(self._slots):
                if slot.process is not None and not slot.process.is_alive():
                    self._revive(slot, stop_check)
                    if not self._slots:  # pragma: no cover - defensive
                        return
            time.sleep(interval)

    def wait(self, stop_check=None, interval: float = 0.2) -> None:
        """Backwards-compatible alias for :meth:`supervise` (no reloads)."""
        self.supervise(stop_check=stop_check, interval=interval)

    def _revive(self, slot: _WorkerSlot, stop_check=None) -> None:
        """Re-fork a dead slot (with backoff); raise on a crash loop."""
        policy = self.restart_policy
        while True:
            process = slot.process
            process.join()
            slot.last_exit_code = process.exitcode
            slot.exit_history.append(process.exitcode)
            now = time.monotonic()
            slot.deaths.append(now)
            while slot.deaths and slot.deaths[0] < now - policy.window_seconds:
                slot.deaths.popleft()
            if slot.conn is not None:
                try:
                    slot.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            if policy.is_crash_loop(len(slot.deaths)):
                diagnostic = {
                    "slot": slot.slot,
                    "deaths_in_window": len(slot.deaths),
                    "window_seconds": policy.window_seconds,
                    "max_restarts": policy.max_restarts,
                    "exit_codes": list(slot.exit_history),
                }
                summary = self.shutdown()
                raise FleetCrashLoop(
                    f"worker slot {slot.slot} crash-looped: "
                    f"{diagnostic['deaths_in_window']} deaths inside "
                    f"{policy.window_seconds:g}s (exit codes "
                    f"{diagnostic['exit_codes']}); fleet torn down",
                    diagnostic,
                    summary,
                )
            deadline = time.monotonic() + policy.backoff(len(slot.deaths))
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if stop_check is not None and stop_check():
                    return
                time.sleep(min(0.05, remaining))
            slot.restarts += 1
            self.total_restarts += 1
            self._fork_into(slot)
            if not self._await_ready([slot], _START_TIMEOUT):
                return
            # died again before becoming ready: another death, loop

    # -- rolling reload ------------------------------------------------------

    def reload(self, path: str | None = None) -> dict:
        """Drain-and-replace every worker, one at a time, on the new store.

        For each slot the replacement forks against ``path`` (default: the
        current path, re-hashed — the file may have been re-encoded in
        place), completes its ready handshake, and only then does the old
        worker get SIGTERM: it finishes its in-flight tick, closes its
        connections and reports final stats, which are folded into the
        eventual fleet summary.  At no point is the listening address
        unserved, so a pipelined client under continuous load sees at most
        a reconnect, never a dropped request.

        Returns the new generation dict.  If a replacement fails to become
        ready the reload aborts with the *old* fleet fully intact.
        """
        if not self._slots:
            raise RuntimeError("fleet not running")
        previous = (self.path, self.generation)
        if path is not None:
            self.path = str(path)
        self.generation = store_generation(self.path)
        swapped = 0
        for slot in self._slots:
            replacement = _WorkerSlot(slot.slot)
            replacement.restarts = slot.restarts
            self._fork_into(replacement)
            failures = self._await_ready([replacement], _START_TIMEOUT)
            if failures:
                _, reason = failures[0]
                if replacement.process.is_alive():  # pragma: no cover - defensive
                    replacement.process.kill()
                replacement.process.join(5)
                if not swapped:
                    # nothing replaced yet (typically an unloadable file):
                    # future restarts must fork against the store the fleet
                    # is actually serving, not the one that failed to load
                    self.path, self.generation = previous
                raise RuntimeError(
                    f"rolling reload aborted: replacement for slot {slot.slot} "
                    f"{reason}; "
                    + ("old fleet left intact" if not swapped else
                       f"{swapped} slot(s) already on the new store")
                )
            self._retire(slot)
            slot.process = replacement.process
            slot.conn = replacement.conn
            slot.started_at = replacement.started_at
            swapped += 1
        self.reloads += 1
        return dict(self.generation)

    def _retire(self, slot: _WorkerSlot) -> None:
        """SIGTERM a slot's current worker, collect its final stats, join."""
        process, conn = slot.process, slot.conn
        if process.is_alive() and process.pid:
            try:
                os.kill(process.pid, signal.SIGTERM)
            except ProcessLookupError:  # pragma: no cover - exit race
                pass
        deadline = time.monotonic() + _STOP_TIMEOUT
        try:
            with self._pipe_lock:
                # skip stats_snapshot replies a metrics scrape left behind;
                # only the worker's final "stats" message retires the slot
                while conn.poll(max(0.0, deadline - time.monotonic())):
                    kind, _pid, payload = conn.recv()
                    if kind == "stats":
                        self._retired_stats.append(payload)
                        break
        except (EOFError, OSError):
            pass
        process.join(max(0.1, deadline - time.monotonic()))
        if process.is_alive():  # pragma: no cover - stuck worker
            process.kill()
            process.join(5)
        slot.last_exit_code = process.exitcode
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # -- observability -------------------------------------------------------

    def scrape_stats(self, timeout: float = 2.0) -> list[dict]:
        """One detailed STATS snapshot per live worker, over the control pipes.

        Pipe-based (not probe connections), so a scrape is exact per worker —
        it never depends on ``SO_REUSEPORT`` balancing landing one probe on
        each worker — and never inflates the fleet's connection counters.
        Dead or unresponsive workers are simply absent from the result.
        """
        with self._pipe_lock:
            requested: list[_WorkerSlot] = []
            for slot in self._slots:
                if (
                    slot.process is None
                    or not slot.process.is_alive()
                    or slot.conn is None
                ):
                    continue
                try:
                    slot.conn.send(("stats_request", True))
                except (BrokenPipeError, OSError):  # pragma: no cover - race
                    continue
                requested.append(slot)
            stats: list[dict] = []
            deadline = time.monotonic() + timeout
            for slot in requested:
                try:
                    while slot.conn.poll(max(0.0, deadline - time.monotonic())):
                        kind, _pid, payload = slot.conn.recv()
                        # a draining worker may answer with its final "stats"
                        # instead of a snapshot; both are usable here
                        if kind in ("stats_snapshot", "stats"):
                            stats.append(payload)
                            break
                except (EOFError, OSError):
                    continue
            return stats

    def render_metrics(self) -> str:
        """The Prometheus text exposition for one live fleet scrape."""
        from repro.obs.prom import render

        stats = self.scrape_stats()
        merged = merge_fleet_stats(stats) if stats else {"workers": 0}
        # the supervisor's restart counter is authoritative: a scrape can
        # miss a worker mid-replacement, per-slot sums cannot exceed it
        merged["restarts"] = self.total_restarts
        return render(merged, supervisor=self.fleet_status())

    def start_metrics(self, port: int, host: str = "127.0.0.1") -> tuple[str, int]:
        """Expose :meth:`render_metrics` on an HTTP endpoint (daemon thread)."""
        from repro.obs.prom import MetricsServer

        if self._metrics_server is not None:
            raise RuntimeError("metrics endpoint already started")
        self._metrics_server = MetricsServer(self.render_metrics, host, port)
        self.metrics_address = self._metrics_server.start()
        return self.metrics_address

    # -- status & teardown ---------------------------------------------------

    def fleet_status(self) -> dict:
        """The supervisor-side control-plane view (no worker round-trips)."""
        now = time.monotonic()
        return {
            "workers": len(self._slots),
            "address": list(self._address) if self._address else None,
            "path": self.path,
            "generation": (self.generation or {}).get("generation"),
            "restarts": self.total_restarts,
            "reloads": self.reloads,
            "restart_policy": self.restart_policy.describe(),
            "slots": [
                {
                    "slot": slot.slot,
                    "pid": slot.pid,
                    "alive": slot.process.is_alive() if slot.process else False,
                    "restarts": slot.restarts,
                    "last_exit_code": slot.last_exit_code,
                    "uptime_seconds": round(now - slot.started_at, 3)
                    if slot.started_at
                    else 0.0,
                }
                for slot in self._slots
            ],
        }

    def shutdown(self) -> dict:
        """SIGTERM every worker, collect final stats, return the fleet summary.

        The summary is :func:`merge_fleet_stats` over the workers' final
        STATS payloads — including workers retired by rolling reloads, so
        lifetime counters survive replacement — with ``exit_codes``,
        ``restarts`` (supervisor-counted) and ``reloads`` added.
        """
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None
            self.metrics_address = None
        slots, self._slots = self._slots, []
        for slot in slots:
            process = slot.process
            if process is not None and process.is_alive() and process.pid:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except ProcessLookupError:  # pragma: no cover - exit race
                    pass
        deadline = time.monotonic() + _STOP_TIMEOUT
        stats: list[dict] = list(self._retired_stats)
        with self._pipe_lock:
            for slot in slots:
                if slot.conn is None:
                    continue
                try:
                    while slot.conn.poll(max(0.0, deadline - time.monotonic())):
                        kind, _pid, payload = slot.conn.recv()
                        if kind == "stats":
                            stats.append(payload)
                            break
                except (EOFError, OSError):
                    continue
        exit_codes: list[int | None] = []
        for slot in slots:
            process = slot.process
            if process is None:
                exit_codes.append(slot.last_exit_code)
                continue
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(5)
            slot.last_exit_code = process.exitcode
            exit_codes.append(process.exitcode)
        for slot in slots:
            if slot.conn is not None:
                try:
                    slot.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        if self._anchor is not None:
            self._anchor.close()
            self._anchor = None
        self._retired_stats = []
        summary = merge_fleet_stats(stats) if stats else {}
        summary["exit_codes"] = exit_codes
        summary["restarts"] = self.total_restarts
        summary["reloads"] = self.reloads
        summary["per_slot"] = [
            {
                "slot": slot.slot,
                "restarts": slot.restarts,
                "last_exit_code": slot.last_exit_code,
            }
            for slot in slots
        ]
        return summary
