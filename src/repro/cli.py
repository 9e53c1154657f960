"""Command-line interface: ``repro-labels <command>``.

The store workflow is built on the :mod:`repro.api` façade: ``build``
encodes a tree straight to a distance-index file, ``query`` opens one and
answers from labels alone, and ``catalog`` packs many named indexes into
one :class:`~repro.api.IndexCatalog` file and routes queries by name::

    repro-labels build --scheme freedman --family random --n 1000 --out labels.bin
    repro-labels build --scheme k-distance:k=6 --out kd.bin
    repro-labels query labels.bin --pairs 1000          # random batched queries
    repro-labels query labels.bin --u 17 --v 1234       # one pair
    repro-labels catalog add forest.cat --name core --scheme freedman --n 500
    repro-labels catalog add forest.cat --name acl --scheme k-distance:k=4 --n 500
    repro-labels catalog list forest.cat
    repro-labels catalog query forest.cat --name core --u 3 --v 42

``--scheme`` takes a spec string (``repro-labels build --list`` prints the
registered names); parameters ride in the spec (``approximate:epsilon=0.1``)
or through the legacy ``--k`` / ``--epsilon`` flags.

``build`` never holds the payload in memory
(:func:`repro.store.write_store`), so beyond-RAM trees take the same
command, and are served straight off a read-only memory mapping::

    repro-labels build --scheme freedman --n 10000000 --progress --out big.bin
    repro-labels serve big.bin --mmap --workers 4

The serving workflow puts an index (or a whole catalog) behind a TCP
endpoint and drives it with synthetic traffic::

    repro-labels serve labels.bin --port 7117
    repro-labels serve forest.cat --port 7117 --workers 4
    repro-labels loadgen --port 7117 --pairs 20000 --workload zipf --skew 1.1
    repro-labels loadgen --port 7117 --workload sibling --family random

``serve`` answers the :mod:`repro.serve` wire protocol with micro-batched
query coalescing (``--no-coalesce`` for the naive baseline); ``--workers N``
pre-forks a shard-per-core fleet sharing the port, and ``--max-pending``
bounds the per-worker queue (overload is shed with BUSY and clients retry).
``loadgen`` reports client-side throughput and the fleet-merged server
statistics (latency percentiles from bucket-wise merged histograms).

The observability plane rides on the same endpoint::

    repro-labels serve labels.bin --workers 4 --metrics-port 9117 --slow-ms 5
    curl http://127.0.0.1:9117/metrics          # Prometheus text exposition
    repro-labels loadgen --port 7117 --trace-every 100   # per-stage breakdown
    repro-labels trace --port 7117              # recent traces + slow log

The experiment commands regenerate every table and figure of the paper
from the shell::

    repro-labels table1-exact --sizes 256 1024 4096
    repro-labels table1-kdistance | table1-approx
    repro-labels fig1 | fig2 | fig4 | fig5
    repro-labels demo --family random --n 1000
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.experiments import (
    run_fig1_heavy_paths,
    run_fig2_hm_trees,
    run_fig4_universal_tree,
    run_fig5_regular_trees,
    run_table1_approx,
    run_table1_exact,
    run_table1_kdistance,
)
from repro.analysis.reporting import format_table


def _add_size_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sizes", type=int, nargs="+", default=None)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)


def _add_tree_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="random")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)


def _add_scheme_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheme",
        default="freedman",
        help="scheme spec, e.g. freedman, k-distance:k=4, approximate:epsilon=0.1",
    )
    parser.add_argument("--k", type=int, default=None, help="k for k-distance schemes")
    parser.add_argument(
        "--epsilon", type=float, default=None, help="epsilon for approximate schemes"
    )


def _add_query_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pairs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--u", type=int, default=None)
    parser.add_argument("--v", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-labels",
        description="Reproduction of 'Optimal Distance Labeling Schemes for Trees'",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    exact = commands.add_parser("table1-exact", help="exact label sizes (Table 1)")
    _add_size_options(exact)
    exact.add_argument("--families", nargs="+", default=None)

    kdist = commands.add_parser("table1-kdistance", help="k-distance label sizes")
    _add_size_options(kdist)
    kdist.add_argument("--ks", type=int, nargs="+", default=None)

    approx = commands.add_parser("table1-approx", help="approximate label sizes")
    _add_size_options(approx)
    approx.add_argument("--epsilons", type=float, nargs="+", default=None)

    commands.add_parser("fig1", help="heavy path / collapsed tree structure")
    commands.add_parser("fig2", help="(h, M)-tree lower-bound instances")
    fig4 = commands.add_parser("fig4", help="universal tree from parent labels")
    fig4.add_argument("--max-n", type=int, default=5)
    commands.add_parser("fig5", help="regular-tree lower-bound instances")

    demo = commands.add_parser("demo", help="encode one tree and answer queries")
    _add_tree_options(demo)

    query = commands.add_parser(
        "query", help="answer distance queries from an index file"
    )
    query.add_argument("store", help="file written by the build command")
    _add_query_options(query)

    catalog = commands.add_parser(
        "catalog", help="build and query multi-index catalog files"
    )
    actions = catalog.add_subparsers(dest="action", required=True)

    cat_add = actions.add_parser(
        "add", help="encode a tree and add it to a catalog (created if missing)"
    )
    cat_add.add_argument("catalog", help="catalog file to create or extend")
    cat_add.add_argument("--name", required=True, help="member name of the new index")
    _add_scheme_options(cat_add)
    _add_tree_options(cat_add)

    cat_list = actions.add_parser("list", help="show the members of a catalog")
    cat_list.add_argument("catalog")

    cat_query = actions.add_parser("query", help="route queries to one member")
    cat_query.add_argument("catalog")
    cat_query.add_argument("--name", required=True, help="member index to query")
    _add_query_options(cat_query)

    kernels = commands.add_parser(
        "kernels", help="probe the native/python kernel tiers"
    )
    kernels.add_argument(
        "--build", action="store_true",
        help="compile the native extension before probing (errors are shown "
        "instead of silently degrading to the next tier)",
    )

    build = commands.add_parser(
        "build", help="encode a tree into a distance-index file"
    )
    _add_scheme_options(build)
    _add_tree_options(build)
    build.add_argument("--out", default="labels.bin")
    build.add_argument(
        "--list", action="store_true", help="list registered schemes and exit"
    )
    build.add_argument(
        "--progress", action="store_true",
        help="print a progress line every ~5%% of nodes",
    )

    serve = commands.add_parser(
        "serve", help="serve an index or catalog file over TCP"
    )
    serve.add_argument("target", help="store (RLS1) or catalog (RLC1) file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7117)
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; >1 pre-forks a shard-per-core fleet sharing "
        "the port (SO_REUSEPORT where available)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096,
        help="decoded-label cache size (store targets; catalogs use the default)",
    )
    serve.add_argument(
        "--mmap", action="store_true",
        help="serve the file through a read-only memory mapping instead of "
        "reading it into the heap; a pre-forked fleet then shares one "
        "physical copy of the payload via the page cache",
    )
    serve.add_argument(
        "--no-coalesce", action="store_true",
        help="answer each query alone (the naive one-request-per-batch path)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8192,
        help="flush the coalescer early beyond this many pending queries",
    )
    serve.add_argument(
        "--max-pending", type=int, default=65536,
        help="bound on queued queries per worker; beyond it requests are "
        "shed with BUSY and clients retry with jittered backoff",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="expose a Prometheus text /metrics endpoint on this port "
        "(fleet mode scrapes every worker live per GET)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=None,
        help="log queries slower than this many milliseconds to the "
        "per-worker slow-query log (see the trace command)",
    )
    serve.add_argument(
        "--trace-ring", type=int, default=256,
        help="recent traced requests kept per worker for the trace command",
    )
    serve.add_argument(
        "--max-restarts", type=int, default=5,
        help="fleet mode: restarts allowed per worker slot inside the "
        "restart window before the supervisor declares a crash loop and "
        "tears the fleet down",
    )
    serve.add_argument(
        "--restart-window", type=float, default=30.0,
        help="fleet mode: sliding window (seconds) for the crash-loop "
        "restart budget; deaths older than this are forgotten",
    )

    status = commands.add_parser(
        "fleet-status",
        help="probe a serving fleet: workers, restarts, store generation",
    )
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=7117)
    status.add_argument(
        "--probes", type=int, default=8,
        help="probe connections to open; with SO_REUSEPORT each may land "
        "on a different worker, so more probes see more of the fleet",
    )

    loadgen = commands.add_parser(
        "loadgen", help="drive a serve endpoint with a synthetic workload"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7117)
    loadgen.add_argument("--name", default="", help="catalog member to query")
    loadgen.add_argument("--pairs", type=int, default=10000)
    loadgen.add_argument(
        "--workload", default="uniform",
        help="pair workload: uniform, zipf, sibling or khop",
    )
    loadgen.add_argument(
        "--skew", type=float, default=1.0, help="Zipf exponent (zipf workload)"
    )
    loadgen.add_argument(
        "--family", default="random",
        help="tree family to rebuild locally for the structural workloads "
        "(sibling/khop) — must match the family the index was encoded from",
    )
    loadgen.add_argument(
        "--tree-seed", type=int, default=0,
        help="seed the served tree was generated with (structural workloads)",
    )
    loadgen.add_argument(
        "--hops", type=int, default=4, help="walk radius of the khop workload"
    )
    loadgen.add_argument("--connections", type=int, default=4)
    loadgen.add_argument(
        "--window", type=int, default=128,
        help="in-flight queries per connection (or BATCH size in batch mode)",
    )
    loadgen.add_argument(
        "--mode", choices=["pipeline", "batch"], default="pipeline",
        help="pipeline: one QUERY per pair; batch: window-sized BATCH requests",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="chaos mode, e.g. 'kill-worker:t=2': SIGKILL the worker behind "
        "a fresh probe connection every t seconds mid-run (supervised "
        "fleets on this machine only); the run must still answer every pair",
    )
    loadgen.add_argument(
        "--trace-every", type=int, default=0,
        help="stamp every Nth pipelined request with a trace id and print "
        "the per-stage server latency breakdown after the run (0 disables)",
    )
    loadgen.add_argument(
        "--members", nargs="+", default=None, metavar="NAME",
        help="spread the workload over these catalog members (pairs split "
        "by Zipf rank weight; see --member-skew) instead of a single --name",
    )
    loadgen.add_argument(
        "--member-skew", type=float, default=0.0,
        help="Zipf exponent for the per-member traffic split (0 = uniform)",
    )

    trace = commands.add_parser(
        "trace",
        help="fetch recent request traces and the slow-query log from a "
        "serving fleet",
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, default=7117)
    trace.add_argument(
        "--probes", type=int, default=4,
        help="probe connections to open; with SO_REUSEPORT each may land "
        "on a different worker, so more probes see more of the fleet",
    )
    trace.add_argument(
        "--limit", type=int, default=8,
        help="recent traces to show per worker (0 = the whole ring)",
    )
    trace.add_argument(
        "--no-slow", action="store_true", help="skip the slow-query log"
    )

    return parser


def _resolve_scheme(args) -> str:
    """Merge the legacy ``--k``/``--epsilon`` flags into the spec string."""
    from repro.core.registry import format_spec, parse_spec

    name, params = parse_spec(args.scheme)
    if args.k is not None:
        params["k"] = args.k
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon
    return format_spec(name, params)


def _demo(family: str, n: int, seed: int) -> str:
    from repro.api import DistanceIndex
    from repro.generators.workloads import make_tree, random_pairs
    from repro.oracles.exact_oracle import TreeDistanceOracle

    tree = make_tree(family, n, seed)
    oracle = TreeDistanceOracle(tree)
    lines = [f"tree family={family} n={n}"]
    for spec in ("freedman", "alstrup"):
        index = DistanceIndex.build(tree, spec)
        stats = index.stats()
        pairs = random_pairs(tree, 100, seed)
        checked = sum(
            1
            for (u, v), result in zip(pairs, index.batch(pairs))
            if result.value == oracle.distance(u, v)
        )
        lines.append(
            f"  {spec:10s} max={stats['max_label_bits']:4d} bits  "
            f"avg={stats['total_label_bits'] / stats['n']:7.1f} bits  "
            f"verified {checked}/100 queries"
        )
    return "\n".join(lines)


def _kernels(args) -> str:
    """Probe diagnostics for the tiered decode/distance kernels."""
    from repro import kernels

    lines = []
    if args.build:
        from repro.kernels.native import ensure_built

        lines.append(f"built {ensure_built(verbose=True)}")
        kernels.reset()
    probed = kernels.probe(full=True)
    lines.append(f"selected: {probed['selected']}")
    if probed["requested"]:
        lines.append(f"requested: {probed['requested']} (via {probed['env_var']})")
    if probed["note"]:
        lines.append(f"note: {probed['note']}")
    for tier in kernels.TIER_ORDER:
        info = probed["tiers"][tier]
        status = {True: "available", False: "unavailable", None: "not probed"}[
            info["available"]
        ]
        lines.append(f"  {tier:<7} {status:<12} {info['detail']}")
    return "\n".join(lines)


def _build(args) -> str:
    """The ``build`` command: encode a tree straight to a store file."""
    import time

    from repro.core.registry import ALL_SCHEME_NAMES, make_scheme_from_spec
    from repro.generators.workloads import make_tree
    from repro.scale.memory import peak_rss_bytes
    from repro.store import write_store

    if args.list:
        return "registered schemes: " + " ".join(ALL_SCHEME_NAMES)

    spec = _resolve_scheme(args)
    scheme = make_scheme_from_spec(spec)
    tree = make_tree(args.family, args.n, args.seed)
    progress = None
    if args.progress:
        step = max(1, tree.n // 20)

        def progress(done: int, total: int) -> None:
            if done % step < 65536 or done == total:
                print(f"  encoded {done}/{total} labels", flush=True)

    started = time.perf_counter()
    written = write_store(scheme, tree, args.out, progress=progress)
    seconds = time.perf_counter() - started
    return (
        f"built family={args.family} n={tree.n} scheme={spec}\n"
        f"wrote {args.out}: {written} bytes ({written / tree.n:.1f} bytes/node) "
        f"in {seconds:.2f}s, peak rss {peak_rss_bytes() / (1 << 20):.1f} MiB"
    )


def _describe_result(result) -> str:
    if not result.within_bound:
        return "beyond bound"
    tag = "exact" if result.is_exact else f"<= {result.ratio_bound:g}x"
    return f"{result.value} ({tag})"


def _run_queries(index, header: str, args) -> str:
    """Shared ``query`` body for plain index files and catalog members."""
    import random
    import time

    if args.u is not None or args.v is not None:
        if args.u is None or args.v is None:
            raise SystemExit("--u and --v must be given together")
        result = index.query(args.u, args.v)
        return f"{header}\nquery({args.u}, {args.v}) = {_describe_result(result)}"

    if args.pairs < 1:
        raise ValueError("--pairs must be at least 1")
    rng = random.Random(args.seed)
    pairs = [(rng.randrange(index.n), rng.randrange(index.n)) for _ in range(args.pairs)]

    start = time.perf_counter()
    answers = index.batch(pairs, raw=True)
    batch_seconds = time.perf_counter() - start

    scheme, store = index.scheme, index.store
    start = time.perf_counter()
    single = [
        scheme.query_from_bits(store.label_bits(u), store.label_bits(v))
        for u, v in pairs[: min(len(pairs), 200)]
    ]
    single_seconds = time.perf_counter() - start
    if single != answers[: len(single)]:
        raise AssertionError("batched answers disagree with per-pair answers")

    single_qps = len(single) / single_seconds if single_seconds else float("inf")
    batch_qps = len(pairs) / batch_seconds if batch_seconds else float("inf")
    preview = ", ".join(
        f"d({u},{v})={a}" for (u, v), a in list(zip(pairs, answers))[:5]
    )
    return (
        f"{header}\n"
        f"answered {len(pairs)} queries from labels alone\n"
        f"batched: {batch_qps:,.0f} queries/s   "
        f"per-pair bit parsing: {single_qps:,.0f} queries/s   "
        f"speedup {batch_qps / single_qps:.1f}x\n"
        f"first answers: {preview}"
    )


def _query(args) -> str:
    from repro.api import DistanceIndex

    index = DistanceIndex.open(args.store)
    header = f"store={args.store} scheme={index.spec} n={index.n}"
    return _run_queries(index, header, args)


def _catalog(args) -> str:
    import os

    from repro.api import DistanceIndex, IndexCatalog
    from repro.generators.workloads import make_tree

    if args.action == "add":
        catalog = (
            IndexCatalog.load(args.catalog)
            if os.path.exists(args.catalog)
            else IndexCatalog()
        )
        tree = make_tree(args.family, args.n, args.seed)
        index = DistanceIndex.build(tree, _resolve_scheme(args))
        catalog.add(args.name, index)
        written = catalog.save(args.catalog)
        return (
            f"added {args.name!r} (scheme={index.spec}, family={args.family}, "
            f"n={tree.n}) to {args.catalog}\n"
            f"catalog now holds {len(catalog)} index(es), {written} bytes"
        )

    catalog = IndexCatalog.load(args.catalog)
    if args.action == "list":
        # describe() reads only each member's header prefix, so listing a
        # huge forest file never parses the member stores
        rows = [
            {key: row[key] for key in ("name", "spec", "kind", "n", "file_bytes")}
            for row in catalog.describe()
        ]
        return f"catalog {args.catalog}: {len(catalog)} member(s)\n" + format_table(rows)

    assert args.action == "query"
    index = catalog.index(args.name)
    header = (
        f"catalog={args.catalog} name={args.name} scheme={index.spec} n={index.n}"
    )
    return _run_queries(index, header, args)


def _shutdown_summary(stats: dict) -> str:
    """The ``shutdown:`` line shared by single-process and fleet serving."""
    busy = stats.get("busy_rejections", 0)
    return (
        f"shutdown: {stats.get('queries', 0)} queries + "
        f"{stats.get('batch_request_pairs', 0)} batched pairs answered over "
        f"{stats.get('connections_total', 0)} connection(s); "
        f"{stats.get('flushes', 0)} coalescer flushes "
        f"(mean batch {stats.get('mean_batch_size', 0.0)}), "
        f"{stats.get('errors', 0)} errors, {busy} busy-shed"
    )


def _serve_single(args, server_config: dict) -> str:
    import asyncio
    import signal

    from repro.obs.profile import install_profile_hook
    from repro.serve import LabelServer
    from repro.serve.supervisor import open_serve_target, store_generation

    target, description = open_serve_target(args.target, args.cache_size, args.mmap)
    server = LabelServer(
        target, generation=store_generation(args.target), **server_config
    )

    def render_metrics() -> str:
        from repro.obs.prom import render
        from repro.serve.metrics import merge_fleet_stats

        # merged like a fleet of one, so both serve modes export the same series
        return render(merge_fleet_stats([server.stats(detail=True)]))

    async def run() -> None:
        host, port = await server.start(args.host, args.port)
        mode = "micro-batched" if server.coalesce else "naive (no coalescing)"
        print(f"serving {description} on {host}:{port} [{mode}]", flush=True)
        loop = asyncio.get_running_loop()
        install_profile_hook(
            loop,
            generation=(server.generation or {}).get("generation"),
        )
        metrics = None
        if args.metrics_port is not None:
            from repro.obs.prom import MetricsServer

            metrics = MetricsServer(render_metrics, args.host, args.metrics_port)
            metrics_host, metrics_bound = metrics.start()
            print(
                f"metrics on http://{metrics_host}:{metrics_bound}/metrics",
                flush=True,
            )
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        serving = asyncio.ensure_future(server.serve_forever())
        stopping = asyncio.ensure_future(stop.wait())
        await asyncio.wait({serving, stopping}, return_when=asyncio.FIRST_COMPLETED)
        serving.cancel()
        stopping.cancel()
        await server.stop()
        if metrics is not None:
            metrics.stop()
        if serving.done() and not serving.cancelled() and serving.exception():
            # a crashed server must not masquerade as a clean shutdown
            raise serving.exception()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # platforms without add_signal_handler
        pass
    return _shutdown_summary(server.stats())


def _serve_fleet(args, server_config: dict) -> str:
    import signal
    import threading

    from repro.api import CATALOG_MAGIC
    from repro.serve.retry import RestartPolicy
    from repro.serve.supervisor import FleetCrashLoop, FleetSupervisor

    # description only: sniff the file magic — each worker opens the file
    # itself, so the supervisor never loads the labels into its own memory
    with open(args.target, "rb") as handle:
        magic = handle.read(4)
    kind = "catalog" if magic == CATALOG_MAGIC else "index"
    description = f"{kind} {args.target}"
    supervisor = FleetSupervisor(
        args.target,
        workers=args.workers,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        use_mmap=args.mmap,
        restart_policy=RestartPolicy(
            max_restarts=args.max_restarts, window_seconds=args.restart_window
        ),
        **server_config,
    )
    host, port = supervisor.start()
    mode = "micro-batched" if server_config["coalesce"] else "naive (no coalescing)"
    binding = "SO_REUSEPORT" if supervisor.reuse_port else "inherited socket"
    print(
        f"serving {description} on {host}:{port} "
        f"[{mode}, {args.workers} workers via {binding}, "
        f"pids={','.join(str(pid) for pid in supervisor.pids)}, "
        f"generation={supervisor.generation['generation']}]",
        flush=True,
    )
    if args.metrics_port is not None:
        metrics_host, metrics_bound = supervisor.start_metrics(
            args.metrics_port, args.host
        )
        print(
            f"metrics on http://{metrics_host}:{metrics_bound}/metrics", flush=True
        )

    stop = threading.Event()
    reload_requested = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except (ValueError, OSError):  # pragma: no cover - exotic platform
            pass
    if hasattr(signal, "SIGHUP"):
        try:
            signal.signal(signal.SIGHUP, lambda *_: reload_requested.set())
        except (ValueError, OSError):  # pragma: no cover - exotic platform
            pass

    def reload_check() -> bool:
        if not reload_requested.is_set():
            return False
        reload_requested.clear()
        return True

    def rolling_reload() -> bool:
        # the rolling reload re-hashes the same path: SIGHUP means "the
        # store file was re-encoded in place, pick it up"
        if not reload_check():
            return False
        generation = supervisor.reload()["generation"]
        print(f"reloaded fleet to generation={generation}", flush=True)
        return False  # already handled; supervise must not reload again

    try:
        supervisor.supervise(stop_check=stop.is_set, reload_check=rolling_reload)
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    except FleetCrashLoop as crash_loop:
        _print_fleet_summary(crash_loop.summary, file=sys.stderr)
        print(f"error: {crash_loop}", file=sys.stderr)
        raise SystemExit(3) from None
    fleet = supervisor.shutdown()
    return _format_fleet_summary(fleet)


def _format_fleet_summary(fleet: dict) -> str:
    latency = fleet.get("latency_ms", {})
    lines = [_shutdown_summary(fleet)]
    lines.append(
        f"fleet: {fleet.get('workers', 0)} workers, "
        f"{fleet.get('qps', 0.0):,.0f} q/s lifetime, "
        f"p50 {latency.get('p50', 0.0):.3f}ms p99 {latency.get('p99', 0.0):.3f}ms "
        f"({latency.get('samples', 0)} samples), "
        f"{fleet.get('restarts', 0)} restart(s), {fleet.get('reloads', 0)} "
        f"reload(s), exit codes {fleet.get('exit_codes')}"
    )
    for row in fleet.get("per_worker", ()):
        lines.append(
            f"  worker {row['worker']} (slot {row.get('slot', 0)}): "
            f"{row['queries']} queries, "
            f"{row['qps']:,.0f} q/s, p99 {row['p99_ms']:.3f}ms, "
            f"{row['busy_rejections']} busy-shed, "
            f"{row.get('restarts', 0)} restart(s)"
        )
    return "\n".join(lines)


def _print_fleet_summary(fleet: dict, file=None) -> None:
    if fleet:
        print(_format_fleet_summary(fleet), file=file, flush=True)


def _serve(args) -> str:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    server_config = {
        "coalesce": not args.no_coalesce,
        "max_batch": args.max_batch,
        "max_pending": args.max_pending,
        "slow_ms": args.slow_ms,
        "trace_ring": args.trace_ring,
    }
    if args.workers == 1:
        return _serve_single(args, server_config)
    return _serve_fleet(args, server_config)


def _fleet_status(args) -> str:
    """Probe a live fleet: who is serving, how often restarted, which store."""
    from repro.serve.client import LabelClient
    from repro.serve.metrics import merge_fleet_stats

    if args.probes < 1:
        raise ValueError("--probes must be at least 1")
    clients = []
    infos: dict[int, dict] = {}
    stats_payloads: list[dict] = []
    try:
        # keep every probe connection open while opening the next ones, so
        # the kernel keeps spreading them across workers
        for _ in range(args.probes):
            client = LabelClient(args.host, args.port)
            clients.append(client)
            info = client.info()
            infos[info["worker"]] = info
            stats_payloads.append(client.stats(detail=True))
    finally:
        for client in clients:
            client.close()
    merged = merge_fleet_stats(stats_payloads)
    generations = sorted(
        {
            info["store"]["generation"]
            for info in infos.values()
            if info.get("store")
        }
    )
    lines = [
        f"fleet at {args.host}:{args.port} — {merged['workers']} worker(s) seen "
        f"via {args.probes} probe(s), protocol {infos[next(iter(infos))]['protocol']}",
        f"restarts: {merged.get('restarts', 0)} (fleet total), store generation: "
        + (",".join(generations) if generations else "(not reported)"),
    ]
    for row in sorted(merged.get("per_worker", ()), key=lambda r: r.get("slot", 0)):
        lines.append(
            f"  slot {row.get('slot', 0)} pid {row['worker']}: "
            f"{row.get('restarts', 0)} restart(s), "
            f"up {row.get('uptime_seconds', 0.0):.1f}s, "
            f"{row['queries']} queries, p99 {row['p99_ms']:.3f}ms"
        )
    return "\n".join(lines)


def _trace(args) -> str:
    """Fetch recent traces and the slow-query log from a live server/fleet."""
    from repro.serve.client import LabelClient

    if args.probes < 1:
        raise ValueError("--probes must be at least 1")
    clients = []
    snapshots: dict[int, dict] = {}
    try:
        # like fleet-status: hold every probe open so connections spread
        # across workers, then dedupe the rings by worker pid
        for _ in range(args.probes):
            client = LabelClient(args.host, args.port)
            clients.append(client)
            snapshot = client.trace(limit=args.limit, slow=not args.no_slow)
            snapshots[snapshot.get("worker", len(snapshots))] = snapshot
    finally:
        for client in clients:
            client.close()

    def span_line(trace: dict) -> str:
        spans = " ".join(
            f"{span['stage']}={span['ms']:.3f}ms" for span in trace.get("spans", ())
        )
        return (
            f"    #{trace.get('trace_id')} {trace.get('op')} "
            f"{trace.get('member') or '(default)'} "
            f"total {trace.get('total_ms', 0.0):.3f}ms: {spans}"
        )

    lines = []
    for worker, snapshot in sorted(snapshots.items()):
        slow_ms = snapshot.get("slow_ms")
        lines.append(
            f"worker {worker} slot {snapshot.get('slot', 0)} "
            f"gen {snapshot.get('store_generation') or '(none)'}: "
            f"{snapshot.get('recorded', 0)} trace(s) recorded, "
            f"ring {snapshot.get('ring', 0)}, slow threshold "
            + (f"{slow_ms:g}ms" if slow_ms is not None else "off")
        )
        for trace in snapshot.get("traces", ()):
            lines.append(span_line(trace))
        slow = snapshot.get("slow", ())
        if slow:
            lines.append(
                f"  slow log ({snapshot.get('slow_recorded', 0)} total):"
            )
            for trace in slow:
                lines.append("  " + span_line(trace))
    if not lines:
        lines.append("no workers answered the trace probes")
    return "\n".join(lines)


def _loadgen(args) -> str:
    from repro.serve.loadgen import run_load

    report = run_load(
        args.host,
        args.port,
        name=args.name,
        pairs=args.pairs,
        workload=args.workload,
        skew=args.skew,
        connections=args.connections,
        window=args.window,
        mode=args.mode,
        seed=args.seed,
        family=args.family,
        tree_seed=args.tree_seed,
        hops=args.hops,
        chaos=args.chaos,
        trace_every=args.trace_every,
        members=args.members,
        member_skew=args.member_skew,
    )
    server = report["server"]
    latency = server["latency_ms"]
    busy = (
        f", {report['busy_retried']} busy-retried" if report["busy_retried"] else ""
    )
    if report.get("reconnects"):
        busy += f", {report['reconnects']} reconnect(s)"
    lines = [
        f"loadgen {report['workload']}"
        + (f"(skew={report['skew']:g})" if report["skew"] is not None else "")
        + f" x{report['pairs']} pairs, mode={report['mode']}, "
        f"{report['connections']} connection(s), window {report['window']}",
        f"client: {report['qps']:,.0f} queries/s over {report['seconds']:.2f}s "
        f"(checksum {report['checksum']:g}{busy})",
        f"server fleet ({report['workers']} worker(s)): "
        f"{server['qps']:,.0f} q/s lifetime, "
        f"merged p50 {latency['p50']:.3f}ms p99 {latency['p99']:.3f}ms, "
        f"mean coalesced batch {server['mean_batch_size']}, "
        f"{server['busy_rejections']} busy-shed",
    ]
    if report.get("members"):
        lines.insert(
            1,
            f"members: {len(report['members'])} (skew {report['member_skew']:g})",
        )
    if report.get("restarts_observed"):
        lines.append(
            f"restarts observed mid-run: {report['restarts_observed']} "
            f"(stats rows beyond one per slot)"
        )
    if report.get("chaos"):
        chaos = report["chaos"]
        lines.append(
            f"chaos {chaos['spec']}: killed {chaos['kills']} worker(s) "
            f"(pids {','.join(str(pid) for pid in chaos['pids'])}); "
            f"fleet answered every pair regardless"
        )
    if report.get("tracing"):
        from repro.obs.trace import STAGES

        tracing = report["tracing"]
        lines.append(
            f"tracing 1/{tracing['sample_every']}: "
            f"{tracing['collected']}/{tracing['requested']} sampled traces "
            f"collected, mean total {tracing['mean_total_ms']:.3f}ms"
        )
        lines.append(f"  {'stage':<8} {'count':>7} {'mean_ms':>9} {'max_ms':>9}")
        stage_rows = tracing.get("stages", {})
        ordered = [s for s in STAGES if s in stage_rows]
        ordered += [s for s in sorted(stage_rows) if s not in STAGES]
        for stage in ordered:
            row = stage_rows[stage]
            lines.append(
                f"  {stage:<8} {row['count']:>7} "
                f"{row['mean_ms']:>9.3f} {row['max_ms']:>9.3f}"
            )
    if report["workers"] > 1:
        for row in server.get("per_worker", ()):
            lines.append(
                f"  worker {row['worker']}: {row['queries']} queries, "
                f"{row['qps']:,.0f} q/s, p99 {row['p99_ms']:.3f}ms"
            )
    index_stats = server.get("index")
    if index_stats and index_stats.get("open", True):
        lines.append(
            f"member {index_stats['name']!r}: spec={index_stats['spec']} "
            f"n={index_stats['n']} cache hit rate {index_stats['cache_hit_rate']:.2%}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)

    if args.command == "table1-exact":
        rows = run_table1_exact(args.sizes, args.families, args.queries, args.seed)
    elif args.command == "table1-kdistance":
        rows = run_table1_kdistance(args.sizes, args.ks, queries=args.queries, seed=args.seed)
    elif args.command == "table1-approx":
        rows = run_table1_approx(args.sizes, args.epsilons, queries=args.queries, seed=args.seed)
    elif args.command == "fig1":
        rows = run_fig1_heavy_paths()
    elif args.command == "fig2":
        rows = run_fig2_hm_trees()
    elif args.command == "fig4":
        rows = run_fig4_universal_tree(args.max_n)
    elif args.command == "fig5":
        rows = run_fig5_regular_trees()
    elif args.command == "demo":
        print(_demo(args.family, args.n, args.seed))
        return 0
    elif args.command in (
        "build", "query", "catalog", "serve", "loadgen",
        "fleet-status", "trace", "kernels",
    ):
        from repro.api import CatalogError, SpecError
        from repro.store import StoreError

        handlers = {
            "build": _build,
            "query": _query,
            "catalog": _catalog,
            "serve": _serve,
            "loadgen": _loadgen,
            "fleet-status": _fleet_status,
            "trace": _trace,
            "kernels": _kernels,
        }
        try:
            print(handlers[args.command](args))
            return 0
        except FileNotFoundError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except OSError as error:
            # bind/connect failures (address in use, connection refused, ...)
            print(f"error: {error}", file=sys.stderr)
            return 2
        except (StoreError, CatalogError, SpecError, KeyError, ValueError) as error:
            message = error.args[0] if error.args else error
            print(f"error: {message}", file=sys.stderr)
            return 2
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {args.command!r}")

    print(format_table(rows))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
