"""Opt-in worker profiling: ``REPRO_PROFILE`` + SIGUSR2 -> pstats dump.

Per-stage histograms say *where* time goes; a profile says *why*.  This
module arms a signal-triggered ``cProfile`` window in a serving worker:

    REPRO_PROFILE=5 repro-labels serve labels.bin --workers 2 &
    kill -USR2 <worker pid>        # profile the next 5 seconds
    # -> ./repro-profile-slot0-gen1a2b3c4d-pid12345.pstats

The env value is ``seconds`` or ``seconds:directory``.  Nothing is
installed without the env var (the hot path must not pay for an idle
profiler), repeated signals during a window are ignored, and the dump is
named by slot + store generation + pid so a fleet-wide profiling session
yields distinguishable files across workers and rolling reloads.  Load the
result with ``python -m pstats <file>`` or ``snakeviz``.

The stop is scheduled on the worker's event loop (``loop.call_later``), so
``Profile.disable()`` runs on the profiled thread — cProfile profiles the
enabling thread only.
"""

from __future__ import annotations

import os
import signal

ENV_VAR = "REPRO_PROFILE"


def parse_profile_spec(spec: str) -> tuple[float, str]:
    """``(seconds, directory)`` from ``"5"`` or ``"5:/tmp/profiles"``."""
    seconds_part, _, directory = spec.partition(":")
    seconds = float(seconds_part) if seconds_part else 5.0
    if seconds <= 0:
        raise ValueError("REPRO_PROFILE seconds must be positive")
    return seconds, directory or "."


def profile_path(directory: str, slot: int, generation: str | None) -> str:
    gen = generation or "none"
    return os.path.join(
        directory, f"repro-profile-slot{slot}-gen{gen}-pid{os.getpid()}.pstats"
    )


def install_profile_hook(
    loop,
    *,
    slot: int = 0,
    generation: str | None = None,
    environ=None,
    on_dump=None,
) -> bool:
    """Arm the SIGUSR2 -> cProfile hook on ``loop``'s thread.

    Returns ``True`` when armed (``REPRO_PROFILE`` set and SIGUSR2 exists).
    ``on_dump`` (tests, logging) is called with the pstats path after each
    window.  The handler is re-armed after every window, so a long-running
    worker can be profiled repeatedly.
    """
    environ = os.environ if environ is None else environ
    spec = environ.get(ENV_VAR)
    if not spec or not hasattr(signal, "SIGUSR2"):
        return False
    import cProfile  # only an armed process loads the profiler

    seconds, directory = parse_profile_spec(spec)
    state = {"profiler": None}

    def stop_window() -> None:
        profiler = state["profiler"]
        if profiler is None:  # pragma: no cover - defensive
            return
        profiler.disable()
        state["profiler"] = None
        path = profile_path(directory, slot, generation)
        profiler.dump_stats(path)
        if on_dump is not None:
            on_dump(path)

    def start_window() -> None:
        if state["profiler"] is not None:
            return  # a window is already running; ignore the extra signal
        profiler = cProfile.Profile()
        state["profiler"] = profiler
        loop.call_later(seconds, stop_window)
        profiler.enable()

    loop.add_signal_handler(signal.SIGUSR2, start_window)
    return True
