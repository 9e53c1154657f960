"""Shared machinery for the script-style benchmark runners.

``bench_scale.py`` and ``bench_serve_throughput.py`` double as scripts that
emit ``BENCH_*.json`` at the repo root.  This module holds what they share:
the ``src/`` path shim, :data:`REPO_ROOT` and the JSON writer.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def write_json(filename: str, payload: dict, out: str | None = None) -> str:
    """Write a benchmark JSON at the repo root (or ``out``), return the path."""
    path = out if out else os.path.join(REPO_ROOT, filename)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
