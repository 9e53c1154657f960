"""Beyond-RAM scale benchmark: the store file writer at 10⁷ nodes, mmap vs heap.

``python benchmarks/bench_scale.py`` emits ``BENCH_scale.json`` at the repo
root with the measured claims behind :func:`repro.store.write_store`:

* the file writer labels 10⁷-node trees with the payload streamed through a
  temp file (build time, peak RSS and bytes per node are recorded),
* an mmap-opened store answers warm queries within 1.25x of the heap-loaded
  store at n = 10⁶ (plus the cold-cache number for the page-in story),
* ``--gate``: at n = 10⁵ the writer finishes under a fixed address-space
  cap (``GATE_CAP_BYTES``) and its file is byte-identical to the uncapped
  build and answers like the exact oracle — the CI assertion that the
  writer's footprint stays below a set budget.

Every build runs in a fresh child process (``--child``) so ``ru_maxrss`` is
a clean per-build high-water mark: a forked child *inherits* the parent's
resident pages in its accounting, so the parent keeps its own footprint to a
few MiB and never touches a tree.  Trees are generated once per size by a
``gen-tree`` child and cached as packed int64 parent arrays.

``--smoke`` runs the same shape at CI-friendly sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

from perf_common import REPO_ROOT, write_json

TREE_SEED = 7
PAIR_SEED = 17

#: full-run sizes (the recorded BENCH_scale.json)
FULL_BUILD_N = 10_000_000
FULL_QUERY_N = 1_000_000

#: smoke / gate sizes (CI)
SMOKE_BUILD_N = 100_000
SMOKE_QUERY_N = 50_000
GATE_N = 100_000

BUILD_SCHEMES = ("hld-fixed", "freedman")
QUERY_SCHEME = "freedman"
QUERY_PAIRS = 20_000

#: acceptance threshold recorded next to the measurements
REQUIRED_QUERY_SLOWDOWN = 1.25

#: the gate's fixed address-space cap; the n = 10⁵ Freedman build peaks at
#: 68.3 MiB of VM (2-CPU x86-64 Linux, CPython 3.11), so growth of more
#: than 16.7 MiB in the writer's footprint fails the gate
GATE_CAP_BYTES = 85 << 20


# -- child processes ---------------------------------------------------------


def _vm_peak_bytes() -> int:
    """VmPeak (peak address space) of this process, from /proc."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _load_tree(tree_file: str):
    from array import array

    from repro.trees.tree import RootedTree

    parents = array("q")
    with open(tree_file, "rb") as handle:
        parents.frombytes(handle.read())
    return RootedTree(parents)


def _child_gen_tree(args) -> dict:
    from array import array

    from repro.generators.workloads import make_tree

    started = time.perf_counter()
    tree = make_tree("random", args.n, seed=TREE_SEED)
    parents = array(
        "q",
        (-1 if tree.parent(v) is None else tree.parent(v) for v in tree.nodes()),
    )
    with open(args.out, "wb") as handle:
        handle.write(parents.tobytes())
    return {"ok": True, "n": tree.n, "seconds": round(time.perf_counter() - started, 3)}


def _child_build(args) -> dict:
    from repro.core.registry import make_any_scheme
    from repro.scale.memory import cap_address_space, peak_rss_bytes
    from repro.store import write_store

    if args.cap_bytes:
        cap_address_space(args.cap_bytes)
    try:
        tree = _load_tree(args.tree_file)
        scheme = make_any_scheme(args.scheme)
        started = time.perf_counter()
        written = write_store(scheme, tree, args.out)
    except MemoryError:
        return {"ok": False, "error": "MemoryError"}
    return {
        "ok": True,
        "n": tree.n,
        "file_bytes": written,
        "seconds": round(time.perf_counter() - started, 3),
        "peak_rss_bytes": peak_rss_bytes(),
        "vm_peak_bytes": _vm_peak_bytes(),
    }


def _child_query(args) -> dict:
    from repro.api.index import DistanceIndex
    from repro.generators.workloads import uniform_pairs

    with open(args.store, "rb") as handle:
        try:
            os.posix_fadvise(handle.fileno(), 0, 0, os.POSIX_FADV_DONTNEED)
        except (AttributeError, OSError):
            pass

    index = DistanceIndex.open(args.store, mmap=args.mmap)
    pairs = uniform_pairs(index.n, args.pairs, seed=PAIR_SEED)

    def timed_pass():
        started = time.perf_counter()
        answers = index.batch(pairs, raw=True)
        return time.perf_counter() - started, answers

    cold_seconds, answers = timed_pass()
    warm_seconds, again = timed_pass()
    if answers != again:
        return {"ok": False, "error": "cold and warm passes disagree"}
    checksum = sum(answers) % (1 << 32)
    return {
        "ok": True,
        "mmap": args.mmap,
        "pairs": len(pairs),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "cold_ops": round(len(pairs) / cold_seconds, 1),
        "warm_ops": round(len(pairs) / warm_seconds, 1),
        "checksum": checksum,
    }


def _child_query_check(args) -> dict:
    import random

    from repro.api.index import DistanceIndex
    from repro.oracles.exact_oracle import TreeDistanceOracle

    tree = _load_tree(args.tree_file)
    oracle = TreeDistanceOracle(tree)
    index = DistanceIndex.open(args.store, mmap=True)
    if index.n != tree.n:
        return {"ok": False, "error": f"store n {index.n} != tree n {tree.n}"}
    rng = random.Random(PAIR_SEED)
    for _ in range(args.pairs):
        u, v = rng.randrange(tree.n), rng.randrange(tree.n)
        got = index.query(u, v, raw=True)
        want = oracle.distance(u, v)
        if got != want:
            return {"ok": False, "error": f"d({u},{v}) = {got}, oracle {want}"}
    return {"ok": True, "pairs_checked": args.pairs}


# -- parent orchestration ----------------------------------------------------


def _run_child(child_args: list[str]) -> dict:
    """Run one ``--child`` subcommand, return its JSON protocol line."""
    command = [sys.executable, os.path.abspath(__file__), "--child"] + child_args
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {child_args[:4]} failed:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _ensure_tree(work_dir: str, n: int) -> str:
    tree_file = os.path.join(work_dir, f"tree_{n}_{TREE_SEED}.bin")
    if not (os.path.exists(tree_file) and os.path.getsize(tree_file) == 8 * n):
        print(f"  generating tree n={n:,} ...", flush=True)
        stats = _run_child(["gen-tree", "--n", str(n), "--out", tree_file])
        print(f"  tree ready in {stats['seconds']}s", flush=True)
    return tree_file


def _build(tree_file: str, scheme: str, out: str, cap_bytes: int = 0) -> dict:
    """One ``write_store`` build in a fresh child; its stats dict."""
    child = ["build", "--scheme", scheme, "--tree-file", tree_file, "--out", out]
    if cap_bytes:
        child += ["--cap-bytes", str(cap_bytes)]
    return _run_child(child)


def _build_section(work_dir: str, tree_file: str, scheme: str, n: int) -> dict:
    """Time, peak RSS and size of one scheme's file build."""
    out = os.path.join(work_dir, f"{scheme}_{n}.rls")
    print(f"  {scheme} build at n={n:,} ...", flush=True)
    stats = _build(tree_file, scheme, out)
    if not stats.get("ok"):
        raise RuntimeError(f"{scheme} build failed: {stats}")
    print(
        f"    peak rss {stats['peak_rss_bytes'] / (1 << 20):,.1f} MiB  "
        f"{stats['seconds']}s  {stats['file_bytes']:,} bytes",
        flush=True,
    )
    return {
        "n": n,
        "seconds": stats["seconds"],
        "peak_rss_bytes": stats["peak_rss_bytes"],
        "file_bytes": stats["file_bytes"],
        "bytes_per_node": round(stats["file_bytes"] / n, 2),
        "store_path": out,
    }


def _query_section(work_dir: str, n: int, store_path: str | None) -> dict:
    """Cold/warm mmap throughput against the heap-loaded warm path."""
    tree_file = _ensure_tree(work_dir, n)
    if store_path is None:
        out = os.path.join(work_dir, f"{QUERY_SCHEME}_query_{n}.rls")
        print(f"  building query store ({QUERY_SCHEME}, n={n:,}) ...", flush=True)
        stats = _build(tree_file, QUERY_SCHEME, out)
        if not stats.get("ok"):
            raise RuntimeError(f"query store build failed: {stats}")
        store_path = out

    runs = {}
    for label, mmap_flag in (("mmap", True), ("heap", False)):
        child = ["query", "--store", store_path, "--pairs", str(QUERY_PAIRS)]
        if mmap_flag:
            child.append("--mmap")
        runs[label] = _run_child(child)
        if not runs[label].get("ok"):
            raise RuntimeError(f"{label} query run failed: {runs[label]}")
        print(
            f"  {label:4s}: cold {runs[label]['cold_ops']:>10,.0f} ops/s  "
            f"warm {runs[label]['warm_ops']:>10,.0f} ops/s",
            flush=True,
        )
    if runs["mmap"]["checksum"] != runs["heap"]["checksum"]:
        raise RuntimeError("mmap and heap answered differently")
    slowdown = runs["heap"]["warm_ops"] / runs["mmap"]["warm_ops"]
    return {
        "n": n,
        "scheme": QUERY_SCHEME,
        "pairs": QUERY_PAIRS,
        "mmap_cold_ops": runs["mmap"]["cold_ops"],
        "mmap_warm_ops": runs["mmap"]["warm_ops"],
        "heap_warm_ops": runs["heap"]["warm_ops"],
        "mmap_warm_slowdown": round(slowdown, 4),
        "required_max_slowdown": REQUIRED_QUERY_SLOWDOWN,
        "slowdown_ok": slowdown <= REQUIRED_QUERY_SLOWDOWN,
        "checksum": runs["mmap"]["checksum"],
    }


def _gate_section(work_dir: str) -> dict:
    """The CI assertion: the writer builds n = 10⁵ under a fixed cap.

    The cap is a constant, so the gate fails only when the writer's own
    address space grows past it, never because another pipeline shrank.
    """
    n = GATE_N
    tree_file = _ensure_tree(work_dir, n)
    out = os.path.join(work_dir, f"gate_{n}.rls")
    uncapped = _build(tree_file, QUERY_SCHEME, out)
    if not uncapped.get("ok"):
        raise RuntimeError(f"gate uncapped build failed: {uncapped}")
    sha = _sha256(out)
    vm_peak = uncapped["vm_peak_bytes"]
    print(
        f"  uncapped: vm peak {vm_peak / (1 << 20):,.1f} MiB; "
        f"address-space cap: {GATE_CAP_BYTES / (1 << 20):,.1f} MiB",
        flush=True,
    )

    capped_out = os.path.join(work_dir, f"gate_capped_{n}.rls")
    capped = _build(tree_file, QUERY_SCHEME, capped_out, GATE_CAP_BYTES)
    completed = bool(capped.get("ok"))
    identical = completed and _sha256(capped_out) == sha
    print(f"  capped: ok={completed} byte_identical={identical}", flush=True)

    check = {"ok": False, "error": "not run"}
    if completed:
        check = _run_child(
            [
                "query-check",
                "--store", capped_out,
                "--tree-file", tree_file,
                "--pairs", "200",
            ]
        )
        print(f"  mmap query smoke vs oracle: {check}", flush=True)

    passed = completed and identical and check.get("ok", False)
    return {
        "n": n,
        "scheme": QUERY_SCHEME,
        "cap_bytes": GATE_CAP_BYTES,
        "vm_peak_bytes": vm_peak,
        "capped_vm_peak_bytes": capped.get("vm_peak_bytes"),
        "capped_completed": completed,
        "capped_byte_identical": identical,
        "mmap_query_smoke_ok": bool(check.get("ok", False)),
        "passed": passed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--gate", action="store_true",
        help="run only the capped-build assertion (exit 1 on failure)",
    )
    parser.add_argument("--out", help="JSON output path (default: repo root)")
    parser.add_argument(
        "--work-dir", default=os.path.join(REPO_ROOT, ".bench_scale"),
        help="scratch directory for trees and stores",
    )
    parser.add_argument("--keep", action="store_true", help="keep scratch files")

    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--scheme", help=argparse.SUPPRESS)
    parser.add_argument("--tree-file", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--pairs", type=int, default=QUERY_PAIRS, help=argparse.SUPPRESS)
    parser.add_argument("--mmap", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cap-bytes", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        handler = {
            "gen-tree": _child_gen_tree,
            "build": _child_build,
            "query": _child_query,
            "query-check": _child_query_check,
        }[args.child]
        print(json.dumps(handler(args)))
        return 0

    os.makedirs(args.work_dir, exist_ok=True)
    started = time.perf_counter()

    # Scratch cleanup must run on EVERY exit path -- the gate's early
    # return and crashed runs used to leave hundreds of MB in .bench_scale.
    try:
        if args.gate:
            print("scale gate (capped build, n=100,000):", flush=True)
            gate = _gate_section(args.work_dir)
            payload = {"benchmark": "scale", "mode": "gate", "gate": gate}
            path = write_json("BENCH_scale.json", payload, out=args.out)
            print(f"wrote {path}")
            if not gate["passed"]:
                print("GATE FAILED", file=sys.stderr)
                return 1
            print(f"gate passed in {time.perf_counter() - started:.1f}s")
            return 0

        build_n = SMOKE_BUILD_N if args.smoke else FULL_BUILD_N
        query_n = SMOKE_QUERY_N if args.smoke else FULL_QUERY_N

        builds = {}
        tree_file = _ensure_tree(args.work_dir, build_n)
        for scheme in BUILD_SCHEMES:
            print(f"build section: {scheme}", flush=True)
            builds[scheme] = _build_section(args.work_dir, tree_file, scheme, build_n)

        print("query section:", flush=True)
        query_store = None
        if query_n == build_n and QUERY_SCHEME in builds:
            query_store = builds[QUERY_SCHEME].pop("store_path", None)
        else:
            for scheme in builds:
                builds[scheme].pop("store_path", None)
        query = _query_section(args.work_dir, query_n, query_store)

        payload = {
            "benchmark": "scale",
            "mode": "smoke" if args.smoke else "full",
            "tree_family": "random",
            "tree_seed": TREE_SEED,
            "builds": builds,
            "query": query,
        }
        path = write_json("BENCH_scale.json", payload, out=args.out)
        print(f"wrote {path} in {time.perf_counter() - started:.1f}s")
        return 0
    finally:
        if not args.keep:
            import shutil

            shutil.rmtree(args.work_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
