"""Command-line interface.

``repro-treemem`` exposes the library's main entry points:

* ``repro-treemem solve TREE.json --algorithm minmem [--json]`` -- run any
  registered solver (``repro-treemem solve --list`` enumerates them) on one
  or more stored trees, optionally emitting the full
  :class:`~repro.solvers.SolveReport` as JSON;
* ``repro-treemem minmem TREE.json`` -- MinMemory values of a stored tree
  with all three algorithms;
* ``repro-treemem minio TREE.json --memory M`` -- out-of-core I/O volumes of
  the six eviction heuristics;
* ``repro-treemem dataset --scale small --output DIR`` -- materialise the
  assembly-tree and random-tree data sets as JSON files;
* ``repro-treemem experiment fig5|fig6|fig7|fig8|fig9|table1|table2|harpoon``
  -- regenerate one of the paper's tables or figures and print it;
* ``repro-treemem bench [--filter PAT] [--json] [--repeat N]`` -- run the
  scenario-sweep benchmark campaign (``--list`` enumerates the scenarios),
  replay-validate every schedule and optionally persist a schema-versioned
  ``BENCH_<timestamp>.json`` artifact;
* ``repro-treemem bench --compare OLD.json NEW.json`` -- diff two benchmark
  artifacts and exit non-zero on a regression;
* ``repro-treemem bench --traffic [--transport stdio]`` -- open-loop traffic
  benchmarks (Poisson / bursty arrivals) over the service daemon, with
  latency percentiles, throughput and rejection counts per load cell;
* ``repro-treemem serve --stdio | --port N`` -- run the solver service
  daemon (see :mod:`repro.service`): NDJSON on stdin/stdout or HTTP/JSON on
  a socket, backed by the persistent engine with admission control and
  per-request deadlines; ``--log-level``/``--log-json`` configure the
  structured log stream, and a live daemon serves Prometheus metrics on
  ``GET /metrics`` (HTTP) or ``{"op": "metrics"}`` (stdio);
* ``repro-treemem report [ARTIFACTS...] --output report.html`` -- render
  committed ``BENCH_*.json`` artifacts into the static HTML trajectory
  dashboard (see :mod:`repro.obs.report`).

Every subcommand dispatches through the :mod:`repro.solvers` registry, so
solvers registered by third-party code (imported before :func:`main` runs)
are available to ``solve`` as well.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis import (
    assembly_tree_dataset,
    ascii_profile,
    format_profile_table,
    format_ratio_table,
    random_tree_dataset,
    run_harpoon_ablation,
    run_minio_heuristics,
    run_minmemory_comparison,
    run_runtime_comparison,
    run_traversal_io,
)
from .core.minio import HEURISTICS
from .core.serialize import load_tree, save_tree, solve_report_to_dict
from .core.tree import TreeValidationError
from .solvers import (
    UnknownSolverError,
    backend_names,
    backend_table,
    compare,
    solve,
    solve_many,
    solver_table,
)

__all__ = ["main", "build_parser"]


def _pool_help() -> str:
    """``--pool`` help text straight from the backend registry."""
    entries = "; ".join(
        f"'{spec.name}' = {spec.summary}" for spec in backend_table()
    )
    return f"executor backend: {entries}"


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser (exposed for testing and documentation)."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro-treemem",
        description="Memory-optimal tree traversals for sparse matrix factorization",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one registered solver on stored trees")
    p_solve.add_argument("trees", nargs="*", type=Path,
                         help="tree JSON files (see repro.core.serialize)")
    p_solve.add_argument("--algorithm", "-a", default="minmem",
                         help="registered solver name or alias (default: minmem)")
    p_solve.add_argument("--memory", type=float, default=None,
                         help="memory budget forwarded to budgeted solvers (explore, minio)")
    p_solve.add_argument("--heuristic", choices=tuple(HEURISTICS), default=None,
                         help="eviction heuristic for the minio solver")
    p_solve.add_argument("--workers", type=int, default=None,
                         help="worker processes for multi-tree batches (default: serial)")
    p_solve.add_argument("--pool", choices=backend_names(), default=None,
                         help=_pool_help() + " (default: persistent)")
    p_solve.add_argument("--json", action="store_true",
                         help="emit the full SolveReport(s) as JSON")
    p_solve.add_argument("--list", action="store_true", dest="list_algorithms",
                         help="list the registered solvers and exit")

    p_minmem = sub.add_parser("minmem", help="MinMemory values of a stored tree")
    p_minmem.add_argument("tree", type=Path, help="tree JSON file (see repro.core.serialize)")

    p_minio = sub.add_parser("minio", help="out-of-core I/O volume of a stored tree")
    p_minio.add_argument("tree", type=Path)
    p_minio.add_argument("--memory", type=float, default=None,
                         help="main memory size (default: halfway between max MemReq and optimal)")
    p_minio.add_argument("--algorithm", choices=("PostOrder", "Liu", "MinMem"), default="MinMem")

    p_dataset = sub.add_parser("dataset", help="materialise the experiment data sets")
    p_dataset.add_argument("--scale", choices=("tiny", "small", "full"), default="small")
    p_dataset.add_argument("--output", type=Path, default=Path("dataset"))
    p_dataset.add_argument("--kind", choices=("assembly", "random", "both"), default="both")

    p_exp = sub.add_parser("experiment", help="regenerate a table or figure of the paper")
    p_exp.add_argument(
        "which",
        choices=("fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2", "harpoon"),
    )
    p_exp.add_argument("--scale", choices=("tiny", "small", "full"), default="small")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--workers", type=int, default=None,
                       help="worker processes for the experiment batch (default: serial)")

    p_pipe = sub.add_parser(
        "pipeline",
        help="run the sparse symbolic pipeline (ordering -> etree -> counts "
             "-> amalgamation -> solvers) on one matrix",
    )
    src = p_pipe.add_mutually_exclusive_group(required=True)
    src.add_argument("--grid2d", type=int, metavar="N",
                     help="N x N 2-D grid Laplacian (5-point stencil)")
    src.add_argument("--grid3d", type=int, metavar="N",
                     help="N x N x N 3-D grid Laplacian (7-point stencil)")
    src.add_argument("--mtx", type=Path, metavar="FILE",
                     help="MatrixMarket coordinate file to load")
    p_pipe.add_argument("--ordering", default="rcm",
                        help="fill-reducing ordering (natural, rcm, "
                             "minimum_degree, nested_dissection; default: rcm)")
    p_pipe.add_argument("--relaxed", type=int, default=1,
                        help="relaxed-amalgamation budget per supernode (default: 1)")
    p_pipe.add_argument("--algorithm", "-a", action="append", default=None,
                        metavar="NAME",
                        help="solver to run on the assembly tree (repeatable; "
                             "default: postorder, liu, minmem)")
    p_pipe.add_argument("--json", action="store_true",
                        help="emit the stage timings, symbolic statistics and "
                             "solver reports as JSON")

    p_bench = sub.add_parser(
        "bench", help="run the scenario-sweep benchmarks (see repro.bench)"
    )
    p_bench.add_argument("--list", action="store_true", dest="list_scenarios",
                         help="list the registered scenarios and exit")
    p_bench.add_argument("--filter", default=None, metavar="PATTERN",
                         help="substring matched against scenario names, families, "
                              "tags and algorithms")
    p_bench.add_argument("--smoke", action="store_true",
                         help="restrict to the tiny smoke scenarios (CI gate)")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="seed threaded into the scenario builders (default: 0)")
    p_bench.add_argument("--repeat", type=int, default=1,
                         help="timed rounds per batch (default: 1)")
    p_bench.add_argument("--warmup", type=int, default=0,
                         help="untimed warmup rounds before timing (default: 0)")
    p_bench.add_argument("--workers", type=int, default=None,
                         help="worker processes for the solver batches (default: serial)")
    p_bench.add_argument("--pool", choices=backend_names(), default=None,
                         help=_pool_help() + " (default: persistent; "
                              "future-capable backends run the campaign with "
                              "work-splitting and straggler re-splitting)")
    p_bench.add_argument("--json", action="store_true",
                         help="persist a schema-versioned BENCH_<timestamp>.json artifact")
    p_bench.add_argument("--output", type=Path, default=None, metavar="PATH",
                         help="artifact path (implies --json; default: "
                              "BENCH_<timestamp>.json in the current directory)")
    p_bench.add_argument("--no-validate", action="store_true",
                         help="skip schedule-replay validation (faster, unchecked)")
    p_bench.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
                         help="diff two BENCH artifacts instead of running; "
                              "exits 1 on peak, I/O or replay regressions")
    p_bench.add_argument("--traffic", action="store_true",
                         help="run the open-loop traffic scenarios over the "
                              "service daemon instead of the campaign grid "
                              "(--filter/--smoke select traffic scenarios)")
    p_bench.add_argument("--transport", choices=("inproc", "stdio"),
                         default="inproc",
                         help="traffic transport: 'inproc' = direct service "
                              "calls, 'stdio' = full NDJSON round trips "
                              "through the stdio front end (default: inproc)")
    p_bench.add_argument("--faults", default=None, metavar="SPEC",
                         help="inject a deterministic fault plan into the "
                              "campaign: comma-separated kind@position[:delay] "
                              "entries, e.g. 'kill@3,straggler@5:0.2' "
                              "(see repro.faults)")
    p_bench.add_argument("--checkpoint", type=Path, default=None, metavar="PATH",
                         help="journal completed cells to this sidecar file "
                              "so an interrupted campaign can be resumed")
    p_bench.add_argument("--resume", type=Path, default=None, metavar="PATH",
                         help="resume from a checkpoint journal: cells already "
                              "recorded there are skipped and their reports "
                              "replayed from the journal")

    p_serve = sub.add_parser(
        "serve", help="run the solver service daemon (see repro.service)"
    )
    mode = p_serve.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stdio", action="store_true",
                      help="newline-delimited JSON on stdin/stdout")
    mode.add_argument("--port", type=int, default=None, metavar="PORT",
                      help="HTTP/JSON on this port (0 = ephemeral)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address for --port (default: 127.0.0.1)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="worker processes of the persistent engine "
                              "(default: in-process execution)")
    p_serve.add_argument("--pool", choices=backend_names(), default=None,
                         help=_pool_help()
                              + " (default: persistent when --workers > 1, "
                                "else serial)")
    p_serve.add_argument("--max-pending", type=int, default=128, metavar="N",
                         help="admission bound on queued+executing requests; "
                              "beyond it requests are rejected (default: 128)")
    p_serve.add_argument("--max-inflight", type=int, default=None, metavar="N",
                         help="solves running concurrently (default: sized "
                              "from the executor)")
    p_serve.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                         help="default deadline applied to requests that do "
                              "not carry one (default: none)")
    p_serve.add_argument("--breaker-threshold", type=int, default=5, metavar="N",
                         help="consecutive engine infrastructure failures that "
                              "open the circuit breaker (default: 5)")
    p_serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                         metavar="SECONDS",
                         help="seconds the breaker stays open before letting a "
                              "half-open probe through (default: 30)")
    p_serve.add_argument("--faults", default=None, metavar="SPEC",
                         help="inject a deterministic fault plan into the "
                              "service engine (same grammar as bench --faults; "
                              "smoke tests drive the breaker with it)")
    from .obs import LOG_LEVELS

    p_serve.add_argument("--log-level", choices=LOG_LEVELS, default="info",
                         help="structured log threshold on stderr "
                              "(default: info)")
    p_serve.add_argument("--log-json", action="store_true",
                         help="emit log lines as JSON objects instead of "
                              "key=value text")

    p_report = sub.add_parser(
        "report",
        help="render BENCH_*.json artifacts into a static HTML dashboard",
    )
    p_report.add_argument("artifacts", nargs="*", type=Path,
                          help="artifact files (default: BENCH_*.json in "
                               "the current directory)")
    p_report.add_argument("--output", type=Path, default=Path("report.html"),
                          metavar="PATH",
                          help="dashboard output path (default: report.html)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-treemem`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "minmem":
            return _cmd_minmem(args)
        if args.command == "minio":
            return _cmd_minio(args)
        if args.command == "dataset":
            return _cmd_dataset(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "report":
            return _cmd_report(args)
    except UnknownSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, TreeValidationError, json.JSONDecodeError) as exc:
        # unreadable path or malformed tree document: report, don't traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


# ----------------------------------------------------------------------
def _cmd_solve(args: argparse.Namespace) -> int:
    if args.list_algorithms:
        print(f"{'name':<26} {'family':<10} summary")
        for spec in solver_table():
            print(f"{spec.name:<26} {spec.family:<10} {spec.summary}")
        return 0
    if not args.trees:
        print("error: no tree files given (or use --list)", file=sys.stderr)
        return 2

    options = {}
    if args.heuristic is not None:
        options["heuristic"] = args.heuristic

    trees = [load_tree(path) for path in args.trees]
    if len(trees) == 1:
        reports = [solve(trees[0], args.algorithm, memory=args.memory, **options)]
    else:
        if args.pool is not None:
            options["pool"] = args.pool
        batch = solve_many(
            trees, args.algorithm, memory=args.memory, workers=args.workers, **options
        )
        reports = [next(iter(per_tree.values())) for per_tree in batch]

    if args.json:
        documents = [
            {"tree": str(path), "report": solve_report_to_dict(report)}
            for path, report in zip(args.trees, reports)
        ]
        payload = documents[0] if len(documents) == 1 else documents
        print(json.dumps(payload, indent=2))
        return 0

    for path, tree, report in zip(args.trees, trees, reports):
        print(f"{path}: {tree.size} nodes")
        print(f"  {report.summary()}")
        for key, value in report.extras.items():
            print(f"    {key:<20}: {value}")
    return 0


def _cmd_minmem(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    comparison = compare(tree, ("postorder", "liu", "minmem"))
    postorder = comparison["postorder"]
    liu = comparison["liu"]
    minmem = comparison["minmem"]
    print(f"nodes                 : {tree.size}")
    print(f"max MemReq            : {tree.max_mem_req():.6g}")
    print(f"PostOrder memory      : {postorder.peak_memory:.6g}")
    print(f"Liu (optimal) memory  : {liu.peak_memory:.6g}")
    print(f"MinMem (optimal)      : {minmem.peak_memory:.6g}")
    print(f"PostOrder / optimal   : {postorder.peak_memory / minmem.peak_memory:.4f}")
    return 0


def _cmd_minio(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    base = solve(tree, args.algorithm)
    peak, traversal = base.peak_memory, base.traversal
    memory = args.memory
    if memory is None:
        memory = (tree.max_mem_req() + peak) / 2.0
    if memory < tree.max_mem_req():
        print(
            f"error: memory {memory:.6g} is below max MemReq {tree.max_mem_req():.6g}",
            file=sys.stderr,
        )
        return 1
    print(f"traversal algorithm   : {args.algorithm} (in-core peak {peak:.6g})")
    print(f"main memory           : {memory:.6g}")
    for name in HEURISTICS:
        result = solve(tree, "minio", memory=memory, heuristic=name, traversal=traversal)
        print(f"{name:<20}: IO volume {result.io_volume:.6g} "
              f"({result.extras['io_operations']} files written)")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    args.output.mkdir(parents=True, exist_ok=True)
    count = 0
    if args.kind in ("assembly", "both"):
        for instance in assembly_tree_dataset(args.scale):
            path = args.output / (instance.name.replace("/", "_") + ".json")
            save_tree(instance.tree, path)
            count += 1
    if args.kind in ("random", "both"):
        for instance in random_tree_dataset(args.scale):
            path = args.output / (instance.name.replace("/", "_") + ".json")
            save_tree(instance.tree, path)
            count += 1
    print(f"wrote {count} trees to {args.output}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    # imported lazily: only this subcommand needs the sparse substrate
    from .sparse.assembly import build_assembly_tree
    from .sparse.matrices import grid_laplacian_2d, grid_laplacian_3d
    from .sparse.mmio import read_matrix_market
    from .sparse.ordering import ORDERINGS

    if args.ordering not in ORDERINGS:
        print(f"error: unknown ordering {args.ordering!r}; expected one of "
              f"{sorted(ORDERINGS)}", file=sys.stderr)
        return 2
    if args.grid2d is not None:
        source, matrix = f"grid2d-{args.grid2d}", grid_laplacian_2d(args.grid2d)
    elif args.grid3d is not None:
        source, matrix = f"grid3d-{args.grid3d}", grid_laplacian_3d(args.grid3d)
    else:
        try:
            source, matrix = str(args.mtx), read_matrix_market(args.mtx)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    stages: dict = {}
    try:
        result = build_assembly_tree(
            matrix,
            ordering=args.ordering,
            relaxed=args.relaxed,
            stage_seconds=stages,
        )
    except ValueError as exc:  # e.g. a rectangular MatrixMarket file
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 1
    tree, stats = result.tree, result.symbolic

    algorithms = args.algorithm or ["postorder", "liu", "minmem"]
    reports = [solve(tree, name) for name in algorithms]

    if args.json:
        print(json.dumps({
            "source": source,
            "ordering": args.ordering,
            "relaxed": args.relaxed,
            "n": stats.n,
            "nnz_a": stats.nnz_a,
            "nnz_l": stats.nnz_l,
            "flops": stats.flops,
            "fill_ratio": stats.fill_ratio,
            "supernodes": tree.size,
            "stage_seconds": stages,
            "reports": [solve_report_to_dict(r) for r in reports],
        }, indent=2))
        return 0

    print(f"matrix                : {source} "
          f"(n={stats.n}, nnz(tril A)={stats.nnz_a})")
    print(f"ordering / relaxed    : {args.ordering} / {args.relaxed}")
    print(f"nnz(L) / fill ratio   : {stats.nnz_l} / {stats.fill_ratio:.2f}")
    print(f"assembly tree         : {tree.size} supernodes")
    for name, seconds in stages.items():
        print(f"  {name:<20}: {seconds * 1e3:8.2f} ms")
    for report in reports:
        print(f"  {report.summary()}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # imported lazily: the bench package pulls in the dataset builders,
    # which the other subcommands do not need
    from . import bench

    if args.compare is not None:
        old_path, new_path = args.compare
        try:
            comparison = bench.compare_artifacts(
                bench.load_artifact(old_path),
                bench.load_artifact(new_path),
            )
        except (bench.ArtifactError, OSError) as exc:
            # exit 2 for unusable inputs, so callers can tell "could not
            # compare" apart from "compared and found regressions" (exit 1)
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(comparison.format_report())
        return 0 if comparison.ok else 1

    if args.list_scenarios:
        if args.traffic:
            print(f"{'name':<20} {'cells':<6} {'smoke':<6} summary")
            for name in bench.list_traffic_scenarios():
                scenario = bench.get_traffic_scenario(name)
                smoke = "yes" if scenario.smoke else "no"
                print(f"{scenario.name:<20} {len(scenario.cells):<6} "
                      f"{smoke:<6} {scenario.summary}")
            return 0
        print(f"{'name':<14} {'family':<10} {'smoke':<6} summary")
        for scenario in bench.scenario_table():
            smoke = "yes" if scenario.smoke else "no"
            print(f"{scenario.name:<14} {scenario.family:<10} {smoke:<6} "
                  f"{scenario.summary}")
        return 0

    if args.traffic:
        return _cmd_bench_traffic(args, bench)

    if args.repeat < 1 or args.warmup < 0:
        print("error: --repeat must be >= 1 and --warmup >= 0", file=sys.stderr)
        return 2
    scenarios = bench.select_scenarios(args.filter, smoke=args.smoke)
    if not scenarios:
        print(f"error: no scenario matches filter {args.filter!r}", file=sys.stderr)
        return 2
    fault_plan = None
    if args.faults is not None:
        from .faults import parse_faults

        try:
            fault_plan = parse_faults(args.faults)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        run = bench.run_scenarios(
            scenarios,
            seed=args.seed,
            repeat=args.repeat,
            warmup=args.warmup,
            workers=args.workers,
            validate=not args.no_validate,
            pool=args.pool,
            fault_plan=fault_plan,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    except (ValueError, bench.JournalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(run.format_table())
    print(f"\ncampaign wall time: {run.campaign_seconds:.3f}s"
          + (f" (workers={run.workers}, pool={run.pool or 'persistent'})"
             if run.workers else ""))
    if args.json or args.output is not None:
        path = bench.write_artifact(run, args.output)
        print(f"\nwrote {len(run.records)} records to {path}")
    failures = run.replay_failures
    if failures:
        for record in failures:
            print(f"replay FAILED  {record.key}: {record.replay_error}",
                  file=sys.stderr)
        return 1
    return 0


def _format_traffic_table(run) -> str:
    """One line per traffic cell: volumes, latency percentiles, throughput."""
    header = (
        f"{'scenario/cell':<46} {'reqs':>6} {'done':>6} {'rej':>5} "
        f"{'miss':>5} {'p50':>9} {'p99':>9} {'req/s':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in run.records:
        e = r.extras
        lines.append(
            f"{r.scenario + '/' + r.instance:<46} {e['requests']:>6} "
            f"{e['completed']:>6} {e['rejected']:>5} {e['deadline_missed']:>5} "
            f"{e['latency_p50'] * 1e3:>7.2f}ms {e['latency_p99'] * 1e3:>7.2f}ms "
            f"{e['throughput_rps']:>8.1f}"
        )
    return "\n".join(lines)


def _cmd_bench_traffic(args: argparse.Namespace, bench) -> int:
    """The ``bench --traffic`` branch: open-loop load over the service."""
    scenarios = bench.select_traffic_scenarios(args.filter, smoke=args.smoke)
    if not scenarios:
        print(f"error: no traffic scenario matches filter {args.filter!r}",
              file=sys.stderr)
        return 2
    run = bench.run_traffic_scenarios(
        scenarios,
        seed=args.seed,
        workers=args.workers,
        pool=args.pool,
        transport=args.transport,
    )
    print(_format_traffic_table(run))
    print(f"\ntraffic wall time: {run.campaign_seconds:.3f}s "
          f"(transport={args.transport}, workers={run.workers or 0})")
    if args.json or args.output is not None:
        path = bench.write_artifact(run, args.output)
        print(f"\nwrote {len(run.records)} records to {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """The ``report`` subcommand: artifacts -> static HTML dashboard."""
    from .obs.report import write_dashboard

    paths = list(args.artifacts)
    if not paths:
        paths = sorted(Path.cwd().glob("BENCH_*.json"))
    if not paths:
        print("error: no BENCH_*.json artifacts found (pass paths or run "
              "from a directory containing them)", file=sys.stderr)
        return 2
    missing = [p for p in paths if not Path(p).is_file()]
    if missing:
        print(f"error: artifact not found: {missing[0]}", file=sys.stderr)
        return 2
    try:
        output = write_dashboard(paths, args.output)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote dashboard over {len(paths)} artifact(s) to {output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the daemon until EOF or interrupt."""
    import asyncio

    from .obs import configure_logging
    from .service import SolverService, run_stdio_server, start_http_server

    configure_logging(args.log_level, json_lines=args.log_json)
    if args.max_pending < 1:
        print("error: --max-pending must be >= 1", file=sys.stderr)
        return 2

    fault_plan = None
    if args.faults is not None:
        from .faults import parse_faults

        try:
            fault_plan = parse_faults(args.faults)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    async def _run() -> None:
        service = SolverService(
            workers=args.workers,
            pool=args.pool,
            max_pending=args.max_pending,
            max_inflight=args.max_inflight,
            default_deadline=args.deadline,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            fault_plan=fault_plan,
        )
        async with service:
            if args.stdio:
                snapshot = await run_stdio_server(service)
                print(
                    f"served {snapshot['completed']} requests "
                    f"({snapshot['rejected']} rejected, "
                    f"{snapshot['deadline_misses']} deadline misses)",
                    file=sys.stderr,
                )
                return
            server = await start_http_server(service, args.host, args.port)
            host, port = server.sockets[0].getsockname()[:2]
            print(f"serving on http://{host}:{port} "
                  f"(pool={service.pool_mode}, workers={service.workers}, "
                  f"max-pending={service.max_pending}) -- Ctrl-C to stop",
                  file=sys.stderr)
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                server.close()
                await server.wait_closed()

    try:
        asyncio.run(_run())
    except (KeyboardInterrupt, ValueError) as exc:
        if isinstance(exc, ValueError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    which = args.which
    workers = args.workers
    if which == "harpoon":
        ablation = run_harpoon_ablation(workers=workers)
        print("levels   postorder   optimal   ratio   predicted_ratio")
        for i, level in enumerate(ablation.levels):
            ratio = ablation.postorder[i] / ablation.optimal[i]
            predicted = ablation.predicted_postorder[i] / ablation.predicted_optimal[i]
            print(f"{level:>6}   {ablation.postorder[i]:>9.4f}   {ablation.optimal[i]:>7.4f}"
                  f"   {ratio:>5.2f}   {predicted:>15.2f}")
        return 0

    if which in ("fig9", "table2"):
        instances = random_tree_dataset(args.scale, seed=args.seed)
    else:
        instances = assembly_tree_dataset(args.scale)

    if which in ("fig5", "table1", "fig9", "table2"):
        comparison = run_minmemory_comparison(instances, workers=workers)
        print(format_ratio_table(comparison.statistics()))
        print()
        profile = comparison.profile(non_optimal_only=which in ("fig5", "fig9"))
        print(format_profile_table(profile))
        print()
        print(ascii_profile(profile))
        return 0
    if which == "fig6":
        runtime = run_runtime_comparison(instances, workers=workers)
        profile = runtime.profile()
        print(format_profile_table(profile, taus=(1.0, 1.5, 2.0, 3.0, 5.0)))
        for alg in runtime.times:
            print(f"total {alg:<10}: {runtime.total_time(alg):.3f} s")
        return 0
    if which == "fig7":
        comparison = run_minio_heuristics(instances, workers=workers)
        print(format_profile_table(comparison.profile(), taus=(1.0, 1.5, 2.0, 3.0, 5.0)))
        return 0
    if which == "fig8":
        comparison = run_traversal_io(instances, workers=workers)
        print(format_profile_table(comparison.profile(), taus=(1.0, 1.5, 2.0, 3.0, 5.0)))
        return 0
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
