"""The four workloads of the repository benchmark (see README.md).

Each workload is a function ``name(seed, seconds, trace, *, work, ...)``
returning a JSON-ready result document.  ``run.py`` runs each one in a fresh
interpreter through this file's command line; the self-test calls the
functions directly with tiny inputs passed as keyword arguments.

A workload builds its inputs from ``seed``, sets up, runs one warm-up
operation, then alternates its two pass types until ``seconds`` have been
spent, at least ``MIN_ITERATIONS`` times.  Only the calls into the program
are timed; output checks run between them.  With ``trace`` every call runs
twice back to back, once plain and once with the wrappers of
``perf_trace.py`` installed: the traced calls give the per-layer metrics,
and each pair gives one sample of the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import perf_trace as tracing

#: end-to-end metrics: every workload reports each (see README.md)
E2E_UNITS = {
    "setup_s": "s",
    "primary_probes": "probe",
    "secondary_probes": "probe",
    "peak_rss_mib": "MiB",
}

#: the two pass types; each reports ``<type>_probes`` and, for reading
#: only, ``<type>_s``
PASS_TYPES = ("primary", "secondary")

_STAGES = ("parse", "intern", "queued", "dispatch", "solve", "report")

#: per-layer metrics of the traced run; a layer a workload never reaches reads 0
LAYER_UNITS = {
    "sparse.mmio.busy_s": "s",
    "sparse.ordering.busy_s": "s",
    "sparse.etree.busy_s": "s",
    "sparse.symbolic.busy_s": "s",
    "sparse.amalgamation.busy_s": "s",
    "sparse.assembly.self_s": "s",
    "core.postorder.busy_s": "s",
    "core.liu.busy_s": "s",
    "core.minmem.busy_s": "s",
    "core.minmem.explore_calls": "count",
    "core.minmem.iterations": "count",
    "solvers.portfolio.self_s": "s",
    "solvers.portfolio.race_frac": "ratio",
    "solvers.portfolio.useful_ratio": "ratio",
    "solvers.engine.busy_s": "s",
    "core.minio.busy_s": "s",
    "core.minio.base_s": "s",
    "core.minio.io_operations": "count",
    "core.minio.io_volume": "weight",
    "core.explore.busy_s": "s",
    "solvers.peak_ratio": "ratio",
    "bench.scenarios.build_s": "s",
    "core.kernel.busy_s": "s",
    "bench.replay.busy_s": "s",
    "bench.runner.self_s": "s",
    "solvers.engine.roundtrip_s": "s",
    "solvers.engine.worker_solve_s": "s",
    "solvers.engine.transport_s": "s",
    "bench.runner.work_units": "count",
    "bench.runner.straggler_resplits": "count",
    "bench.runner.unit_retries": "count",
    "bench.runner.useful_unit_ratio": "ratio",
    **{f"service.{stage}.{q}_ms": "ms" for stage in _STAGES for q in ("p50", "p99")},
    "service.stdio.p50_ms": "ms",
    "service.stdio.p99_ms": "ms",
    "service.solve.busy_frac": "ratio",
    "service.interner.hit_ratio": "ratio",
    "service.queue_depth_max": "count",
    "loadgen.lag_p50_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.latency_p99_ms": "ms",
    "py.gc_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

#: span name of a ``solve(tree, algorithm)`` call, by algorithm
_SOLVE_SPAN = {
    "postorder": "core.postorder",
    "liu": "core.liu",
    "minmem": "core.minmem",
    "auto": "solvers.portfolio",
    "explore": "core.explore",
}

#: per-layer metrics that are not a span's plain busy or self time
_SPAN_METRICS = {
    "core.minio.base_s": ("self", "core.minio.solve"),
    "bench.scenarios.build_s": ("busy", "bench.scenarios.build"),
}

#: auto's acceptance bound against MinMem (repro.solvers.portfolio.TOLERANCE)
AUTO_TOLERANCE = 1.05

#: iterations a run makes even when ``seconds`` is spent sooner
MIN_ITERATIONS = 3

#: the same for a traced run, whose iterations make every call twice
MIN_TRACED_ITERATIONS = 2

#: iterations of the speed probe's loop, about 4 ms of pure Python
PROBE_LOOPS = 60_000

_NULL = nullcontext()


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now.

    On a shared virtual machine a vCPU can switch, for stretches of seconds
    to minutes, between speeds some 40% apart (likely a neighbour's load on
    the sibling hardware thread), and every operation, this loop included,
    slows by about as much.  An operation's time over the probes around it
    then reads the same at either speed, which its time alone does not.
    """
    start = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return perf_counter() - start


def _solve_span(algorithm: str) -> str:
    if algorithm.startswith("minio"):
        return "core.minio.solve"
    return _SOLVE_SPAN[algorithm]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of ``values``."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def trees_digest(instances: Sequence[Tuple[str, Any]]) -> int:
    """crc32 of ``(name, tree)`` pairs, serialised as ``scenario_digest`` does."""
    digest = 0
    for name, tree in instances:
        kern = tree.kernel()
        blob = json.dumps([name, kern.parent, kern.f, kern.n], separators=(",", ":"))
        digest = zlib.crc32(blob.encode("utf-8"), digest)
    return digest


def peaks_close(a: float, b: float) -> bool:
    """Equal peaks up to float summation order (Liu vs MinMem)."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# ----------------------------------------------------------------------
# what one workload run collects
# ----------------------------------------------------------------------
class Measurement:
    """Timed operations, checks, counters and trace of one workload run.

    A pass's time is the sum of its operations' times.  The reported pass
    time sums, over the operations of a pass, each operation's median
    across the untraced passes: a burst of host noise or a collector pause
    that lands on one operation of one pass then moves nothing.  Every pass
    starts after a full collection, outside the timed region, so the
    collector's own schedule is the same in every pass.  Each untraced
    operation is timed in seconds and in probes: its seconds over the mean
    of the :func:`probe` times just before and just after it.
    """

    def __init__(self, name: str, seed: int, t0: Optional[float], trace: bool, work: str) -> None:
        self.name = name
        self.seed = seed
        self.work = Path(work)
        self.t0 = time.monotonic() if t0 is None else t0
        self.prep_s = 0.0
        self.setup_s: Optional[float] = None
        #: untraced passes: per unit ("probes", "s"), per pass type, per
        #: operation key, the operation's time in every call
        self.op_times: Dict[str, Dict[str, Dict[Any, List[float]]]] = {
            unit: {kind: {} for kind in PASS_TYPES} for unit in ("probes", "s")
        }
        self.passes: Dict[str, int] = {kind: 0 for kind in PASS_TYPES}
        #: traced over plain time, minus 1, of each back-to-back call pair
        self.overheads: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self._failed_ops: set = set()
        self.digests: Dict[str, int] = {}
        self.notes: List[str] = []
        self.quality: Dict[str, float] = {}
        #: the first report seen for each key, which later passes must equal
        self.expected: Dict[Any, Any] = {}
        self.layer_rows: List[Dict[str, float]] = []
        self.counters: Dict[str, float] = {}
        self.engine_units: List[Tuple[float, float, Any]] = []
        self.peak_rss_mib = 0.0
        self.tracer = tracing.Tracer() if trace else None
        self._install: Callable[[tracing.Tracer], None] = lambda t: None
        #: ``(key, seconds, probes)`` of each operation of the current pass
        self._pass_ops: List[Tuple[Any, float, float]] = []
        self._iteration_ops = 0.0

    # -- set-up -------------------------------------------------------
    def prep(self, fn: Callable[[], Any]) -> Any:
        """Run input or answer-key preparation, excluded from ``setup_s``."""
        start = perf_counter()
        try:
            return fn()
        finally:
            self.prep_s += perf_counter() - start

    def ready(self) -> None:
        """Mark the start of the first timed operation."""
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.t0 - self.prep_s

    # -- timed operations and checks ---------------------------------
    def span(self, name: str):
        return _NULL if self.tracer is None else self.tracer.span(name)

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.active

    def op(self, key: Any, fn: Callable[[], Any]) -> Any:
        """Time one call into the program; an exception counts as a failure.

        In a traced run the call is made twice back to back, plain and
        traced.  The order alternates from one operation to the next and,
        so that every operation runs in both orders, from one iteration to
        the next.  The traced call's result and time are kept; the pair,
        milliseconds apart and so at nearly the same host speed, gives one
        sample of the tracing overhead.
        """
        self.ready()
        self.attempted += 1
        if self.tracer is None:
            before = probe()
            result, seconds = self._call(key, fn)
            self._pass_ops.append((key, seconds, 2.0 * seconds / (before + probe())))
            return result
        self.tracer.op = self.attempted
        seconds = {}
        plain_first = (self.attempted + len(self.layer_rows)) % 2
        for traced in (False, True) if plain_first else (True, False):
            if traced:
                self.tracer.start(self._install)
                try:
                    result, seconds[True] = self._call(key, fn)
                finally:
                    self.tracer.stop()
            else:
                seconds[False] = self._call(key, fn)[1]
        self._pass_ops.append((key, seconds[True], 0.0))
        self.overheads.append(seconds[True] / seconds[False] - 1.0)
        return result

    def _call(self, key: Any, fn: Callable[[], Any]) -> Tuple[Any, float]:
        start = perf_counter()
        try:
            return fn(), perf_counter() - start
        except Exception as exc:  # the run reports every failure and goes on
            seconds = perf_counter() - start
            self.fail(f"{key}: {type(exc).__name__}: {exc}")
            return None, seconds

    def fail(self, message: str, op: Optional[int] = None) -> None:
        """Record a failed check of operation ``op`` (default: the latest)."""
        self._failed_ops.add(self.attempted if op is None else op)
        if len(self.failures) < 20:
            self.failures.append(message)

    def verify(self, key: Any, tree, report) -> bool:
        """Replay ``report`` the first time ``key`` is seen; later it must be equal.

        Returns True the first time, when the caller runs its own checks.
        """
        from repro.bench.replay import ReplayError, replay_report

        known = self.expected.get(key)
        if known is not None:
            if report != known:
                self.fail(f"{key}: report differs from the first pass")
            return False
        self.expected[key] = report
        try:
            replay_report(tree, report)
        except ReplayError as exc:
            self.fail(f"{key}: {exc}")
        return True

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def timed_pass(self, kind: str, body: Callable[[], None]) -> None:
        """Run one pass of type ``kind`` and keep its operation times."""
        gc.collect()
        self._pass_ops = []
        body()
        self._iteration_ops += math.fsum(seconds for _, seconds, _ in self._pass_ops)
        if self.tracer is None:
            self.passes[kind] += 1
            for key, seconds, probes in self._pass_ops:
                self.op_times["s"][kind].setdefault(key, []).append(seconds)
                self.op_times["probes"][kind].setdefault(key, []).append(probes)

    # -- the iteration loop ------------------------------------------
    def iterate(
        self,
        seconds: float,
        body: Callable[[int], None],
        install: Callable[[tracing.Tracer], None],
        layers: Optional[Callable[[Dict[str, float]], Dict[str, float]]] = None,
    ) -> None:
        """Run ``body(i)`` until ``seconds`` are spent.

        The loop stops before an iteration that would overrun ``seconds``
        at the mean iteration time so far.  In a traced run ``install``
        adds the wrappers for each traced call, and every iteration gives
        one row of per-layer metrics.
        """
        self._install = install
        min_iterations = MIN_ITERATIONS if self.tracer is None else MIN_TRACED_ITERATIONS
        start = perf_counter()
        i = 0
        while i < min_iterations or (perf_counter() - start) * (i + 1) / i <= seconds:
            self.counters = {}
            self.engine_units = []
            self._iteration_ops = 0.0
            first = len(self.tracer.spans) if self.tracer is not None else 0
            began = perf_counter()
            body(i)
            ended = perf_counter()
            if self.tracer is not None:
                times = tracing.layer_times(self.tracer.spans, first)
                row = _span_metrics(times)
                row["py.gc_s"] = self.tracer.gc_seconds(began, ended)
                row["trace.coverage"] = times["top"] / self._iteration_ops
                row.update((k, v) for k, v in self.counters.items() if k in LAYER_UNITS)
                if layers is not None:
                    row.update(layers(self.counters))
                self.layer_rows.append(row)
            i += 1
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- results -----------------------------------------------------
    def setup_result(self) -> Dict[str, Any]:
        self.ready()
        return {"workload": self.name, "seed": self.seed, "setup_s": self.setup_s}

    def result(self) -> Dict[str, Any]:
        """The run's result document (end-to-end or per-layer metrics)."""
        spans = None
        if self.tracer is not None and self.tracer.spans:
            spans = str(self.work / f"spans-{self.name}.json")
            self.tracer.dump(spans)
        return {
            "workload": self.name,
            "seed": self.seed,
            "trace": self.tracer is not None,
            "setup_s": self.setup_s,
            "metrics": self.e2e_metrics() if self.tracer is None else self.layer_metrics(),
            "seconds": self.pass_metrics("s") if self.tracer is None else {},
            "attempted": self.attempted,
            "failed": len(self._failed_ops),
            "failures": self.failures,
            "digests": self.digests,
            "quality": self.quality,
            "notes": self.notes,
            "spans": spans,
        }

    def pass_metrics(self, unit: str) -> Dict[str, Dict[str, float]]:
        """``<type>_<unit>`` of both pass types, from the per-operation medians."""
        out = {}
        for kind, ops in self.op_times[unit].items():
            parts = [summary(times) for times in ops.values()]
            out[f"{kind}_{unit}"] = {
                "value": math.fsum(p["value"] for p in parts),
                "n": self.passes[kind],
                "q1": math.fsum(p["q1"] for p in parts),
                "q3": math.fsum(p["q3"] for p in parts),
                "unit": "probe" if unit == "probes" else unit,
            }
        return out

    def e2e_metrics(self) -> Dict[str, Dict[str, float]]:
        out = {
            "setup_s": summary([self.setup_s]),
            **self.pass_metrics("probes"),
            "peak_rss_mib": summary([self.peak_rss_mib]),
        }
        for name, doc in out.items():
            doc["unit"] = E2E_UNITS[name]
        return out

    def layer_metrics(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for name, unit in LAYER_UNITS.items():
            values = [row.get(name, 0.0) for row in self.layer_rows] or [0.0]
            out[name] = {**summary(values), "unit": unit}
        if self.overheads:
            out["trace.overhead_frac"] = {**summary(self.overheads), "unit": "ratio"}
        for name, value in self.quality.items():
            out[name] = {**summary([value]), "unit": LAYER_UNITS[name]}
        return out


def _span_metrics(times: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer span metrics of one traced iteration."""
    row = {}
    for name in LAYER_UNITS:
        if name in _SPAN_METRICS:
            kind, span = _SPAN_METRICS[name]
        elif name.endswith(".busy_s"):
            kind, span = "busy", name[: -len(".busy_s")]
        elif name.endswith(".self_s"):
            kind, span = "self", name[: -len(".self_s")]
        else:
            continue
        value = times[kind].get(span)
        if value is not None:
            row[name] = value
    return row


def _minmem_counts(m: Measurement, report) -> None:
    m.count("core.minmem.explore_calls", report.extras["explore_calls"])
    m.count("core.minmem.iterations", report.extras["iterations"])


# ----------------------------------------------------------------------
# sparse_plan: matrix file -> assembly tree -> traversal
# ----------------------------------------------------------------------
#: the in-core algorithms a sparse plan runs (the paper's three)
PLAN_ALGORITHMS = ("postorder", "liu", "minmem")

#: re-plans of every tree per secondary pass: each is one sample of that
#: tree's re-plan time, and the secondary pass is much shorter than the primary
REPLANS = 3


def sparse_suite(seed: int) -> List[Tuple[str, Callable[[], Any], str]]:
    """``(name, matrix builder, ordering)`` of the default .mtx suite."""
    from repro.sparse import grid_laplacian_2d, grid_laplacian_3d, random_spd

    return [
        ("grid2d-320-rcm", functools.partial(grid_laplacian_2d, 320), "rcm"),
        ("grid3d-22-rcm", functools.partial(grid_laplacian_3d, 22), "rcm"),
        ("grid2d-120-nd", functools.partial(grid_laplacian_2d, 120), "nested_dissection"),
        ("grid2d-80-md", functools.partial(grid_laplacian_2d, 80), "minimum_degree"),
        ("random-20000-rcm", functools.partial(random_spd, 20000, 3e-4, seed), "rcm"),
    ]


def _install_sparse(t: tracing.Tracer) -> None:
    import repro.sparse.assembly as assembly

    for key in list(assembly.ORDERINGS):
        t.wrap(assembly.ORDERINGS, key, "sparse.ordering")
    t.wrap(assembly, "elimination_tree", "sparse.etree")
    t.wrap(assembly, "column_counts", "sparse.symbolic")
    t.wrap(assembly, "symbolic_stats", "sparse.symbolic")
    t.wrap(assembly, "amalgamate", "sparse.amalgamation")


def sparse_plan(
    seed: int = 0,
    seconds: float = 20.0,
    trace: bool = False,
    *,
    work: str,
    t0: Optional[float] = None,
    setup_only: bool = False,
    suite: Optional[Sequence[Tuple[str, Callable[[], Any], str]]] = None,
) -> Dict[str, Any]:
    """Plan a factorization's memory from Matrix Market files.

    Primary pass: ``read_matrix_market -> build_assembly_tree -> solve`` with
    postorder, liu and minmem for every file of the suite.  Secondary pass:
    the same three solvers on the trees the primary pass built, which
    bypasses the sparse layer; ``secondary_probes`` is the time of one
    re-plan of the suite.
    """
    m = Measurement("sparse_plan", seed, t0, trace, work)
    from repro.solvers import solve
    from repro.sparse import build_assembly_tree, read_matrix_market, write_matrix_market

    specs = sparse_suite(seed) if suite is None else suite

    def write_suite() -> List[Tuple[str, Path, str]]:
        files = []
        for name, make, ordering in specs:
            path = m.work / f"{name}.mtx"
            if not path.exists():
                write_matrix_market(make(), path, symmetric=True)
            files.append((name, path, ordering))
        return files

    files = m.prep(write_suite)
    m.digests["mtx_crc32"] = m.prep(
        lambda: functools.reduce(lambda crc, f: zlib.crc32(f[1].read_bytes(), crc), files, 0)
    )

    def solve_all(tree) -> Dict[str, Any]:
        reports = {}
        for algorithm in PLAN_ALGORITHMS:
            with m.span(_SOLVE_SPAN[algorithm]):
                reports[algorithm] = solve(tree, algorithm)
        return reports

    def plan(path: Path, ordering: str):
        with m.span("sparse.mmio"):
            matrix = read_matrix_market(path)
        with m.span("sparse.assembly"):
            tree = build_assembly_tree(matrix, ordering=ordering, relaxed=4).tree
        return tree, solve_all(tree)

    smallest = min(files, key=lambda f: f[1].stat().st_size)
    plan(smallest[1], smallest[2])  # warm-up
    if setup_only:
        return m.setup_result()

    trees: Dict[str, Any] = {}

    def check(name: str, tree, reports: Dict[str, Any]) -> None:
        _minmem_counts(m, reports["minmem"])
        first = [m.verify((name, a), tree, report) for a, report in reports.items()]
        optimal = reports["minmem"].peak_memory
        if all(first) and not peaks_close(reports["liu"].peak_memory, optimal):
            m.fail(f"{name}: liu peak {reports['liu'].peak_memory} != minmem {optimal}")

    def primary() -> None:
        for name, path, ordering in files:
            out = m.op(name, lambda: plan(path, ordering))
            if out is not None:
                trees[name] = out[0]
                check(name, *out)

    def secondary() -> None:
        for _ in range(REPLANS):
            for name, _, _ in files:
                if name in trees:
                    reports = m.op(name, lambda: solve_all(trees[name]))
                    if reports is not None:
                        check(name, trees[name], reports)

    def iteration(i: int) -> None:
        m.timed_pass("primary", primary)
        m.timed_pass("secondary", secondary)

    m.iterate(seconds, iteration, _install_sparse)
    m.quality["solvers.peak_ratio"] = geomean([
        m.expected[(name, a)].peak_memory / m.expected[(name, "minmem")].peak_memory
        for name, _, _ in files
        for a in ("postorder", "liu")
    ])
    return m.result()


# ----------------------------------------------------------------------
# large_trees: the core kernels in-core and out-of-core
# ----------------------------------------------------------------------
IN_CORE_TREES = ("chain-100k", "harpoon-b3-l9", "deep-50k")
IN_CORE_ALGORITHMS = ("postorder", "liu", "minmem", "auto")
OUT_OF_CORE_ALGORITHMS = (
    "minio_first_fit",
    "minio_lsnf",
    "minio_best_fit",
    "minio_best_k_combination",
    "explore",
)
BUDGET_FRACTIONS = (0.25, 0.5, 0.75)


def large_tree_sets(seed: int):
    """``(in-core, out-of-core)`` lists of ``(name, tree)`` for ``seed``."""
    from repro.bench import get_scenario
    from repro.generators.harpoon import iterated_harpoon_tree
    from repro.generators.random_trees import random_binary_tree, reweight_random

    built = dict(get_scenario("large").build(seed))
    in_core = [(name, built[name]) for name in IN_CORE_TREES]
    out_of_core = [
        ("binary-10k", reweight_random(random_binary_tree(10_000, seed=seed), seed=seed + 1)),
        ("harpoon-b3-l7", iterated_harpoon_tree(3, levels=7, memory=1.0, epsilon=0.01)),
    ]
    return in_core, out_of_core


def _install_large(t: tracing.Tracer) -> None:
    import repro.solvers.adapters as adapters
    import repro.solvers.facade as facade

    t.wrap(adapters, "run_out_of_core", "core.minio")
    t.wrap(facade, "solve_many", "solvers.engine")


def _portfolio_layers(counters: Dict[str, float]) -> Dict[str, float]:
    calls = counters.get("auto.calls")
    if not calls:
        return {}
    return {
        "solvers.portfolio.race_frac": counters["auto.races"] / calls,
        "solvers.portfolio.useful_ratio": calls / counters["auto.computed"],
    }


def large_trees(
    seed: int = 0,
    seconds: float = 20.0,
    trace: bool = False,
    *,
    work: str,
    t0: Optional[float] = None,
    setup_only: bool = False,
    tree_sets: Optional[Callable[[int], Tuple[list, list]]] = None,
) -> Dict[str, Any]:
    """Solve large trees in-core (primary) and under memory bounds (secondary)."""
    m = Measurement("large_trees", seed, t0, trace, work)
    from repro.solvers import solve
    from repro.solvers.engine import shutdown_engine

    in_core, out_of_core = (tree_sets or large_tree_sets)(seed)
    for _, tree in in_core + out_of_core:
        tree.kernel()

    def budgets(tree) -> List[Tuple[float, float]]:
        floor, peak = tree.max_mem_req(), solve(tree, "minmem").peak_memory
        return [(f, floor + f * (peak - floor)) for f in BUDGET_FRACTIONS]

    budget_of = m.prep(lambda: {name: budgets(tree) for name, tree in out_of_core})
    m.digests["in_core_crc32"] = m.prep(lambda: trees_digest(in_core))
    m.digests["out_of_core_crc32"] = m.prep(lambda: trees_digest(out_of_core))

    def traced_solve(tree, algorithm: str, memory: Optional[float] = None):
        with m.span(_solve_span(algorithm)):
            return solve(tree, algorithm, memory=memory)

    try:
        smallest = min(in_core, key=lambda item: item[1].size)[1]
        solve(smallest, "auto")  # warm-up: starts the race's engine pool
        if setup_only:
            return m.setup_result()

        def check(key: Tuple, tree, report) -> bool:
            if report.algorithm == "minmem":
                _minmem_counts(m, report)
            elif report.algorithm == "auto":
                portfolio = report.extras["portfolio"]
                race = portfolio["mode"] == "race"
                m.count("auto.calls", 1)
                m.count("auto.races", race)
                m.count("auto.computed", len(portfolio["candidates"]) if race else 1)
            elif "io_operations" in report.extras:
                m.count("core.minio.io_operations", report.extras["io_operations"])
            return m.verify(key, tree, report)

        def primary() -> None:
            for name, tree in in_core:
                peaks = {}
                for algorithm in IN_CORE_ALGORITHMS:
                    key = (name, algorithm)
                    report = m.op(key, lambda: traced_solve(tree, algorithm))
                    if report is not None and check(key, tree, report):
                        peaks[algorithm] = report.peak_memory
                if len(peaks) == len(IN_CORE_ALGORITHMS):
                    optimal = peaks["minmem"]
                    if not peaks_close(peaks["liu"], optimal):
                        m.fail(f"{name}: liu peak {peaks['liu']} != minmem {optimal}")
                    if peaks["auto"] > AUTO_TOLERANCE * optimal:
                        m.fail(f"{name}: auto peak {peaks['auto']} > {AUTO_TOLERANCE} x {optimal}")

        def secondary() -> None:
            for name, tree in out_of_core:
                for fraction, memory in budget_of[name]:
                    for algorithm in OUT_OF_CORE_ALGORITHMS:
                        key = (name, fraction, algorithm)
                        report = m.op(key, lambda: traced_solve(tree, algorithm, memory))
                        if report is not None:
                            check(key, tree, report)

        def iteration(i: int) -> None:
            order = [("primary", primary), ("secondary", secondary)]
            for kind, body in (order[::-1] if i % 2 else order):
                m.timed_pass(kind, body)

        m.iterate(seconds, iteration, _install_large, _portfolio_layers)
    finally:
        shutdown_engine()

    optimal = {name: m.expected[(name, "minmem")].peak_memory for name, _ in in_core}
    m.quality["solvers.peak_ratio"] = geomean([
        m.expected[(name, a)].peak_memory / optimal[name]
        for name, _ in in_core
        for a in ("postorder", "liu", "auto")
    ])
    m.quality["core.minio.io_volume"] = math.fsum(
        report.io_volume for key, report in m.expected.items() if len(key) == 3
    )
    return m.result()


# ----------------------------------------------------------------------
# campaign: many small trees through the planner, engine and replay
# ----------------------------------------------------------------------
def _install_campaign(m: Measurement) -> Callable[[tracing.Tracer], None]:
    def install(t: tracing.Tracer) -> None:
        import repro.bench.runner as runner
        from repro.core.tree import Tree
        from repro.solvers.engine import SolveEngine

        t.wrap(runner, "replay_report", "bench.replay")
        t.wrap(Tree, "kernel", "core.kernel")
        submit_chunk = SolveEngine.submit_chunk

        def timed_submit_chunk(engine, cells, workers):
            sent = perf_counter()
            future = submit_chunk(engine, cells, workers)
            if future is not None:
                future.add_done_callback(
                    lambda f: m.engine_units.append((sent, perf_counter(), f))
                )
            return future

        t.patch(SolveEngine, "submit_chunk", timed_submit_chunk)

    return install


def _campaign_layers(m: Measurement) -> Callable[[Dict[str, float]], Dict[str, float]]:
    def layers(counters: Dict[str, float]) -> Dict[str, float]:
        roundtrip = worker = 0.0
        for sent, done, future in m.engine_units:
            roundtrip += done - sent
            if not future.cancelled() and future.exception() is None:
                worker += math.fsum(report.wall_time for report in future.result())
        row = {
            "solvers.engine.roundtrip_s": roundtrip,
            "solvers.engine.worker_solve_s": worker,
            "solvers.engine.transport_s": roundtrip - worker,
        }
        units = counters.get("bench.runner.work_units", 0.0)
        if units:
            resplits = counters.get("bench.runner.straggler_resplits", 0.0)
            row["bench.runner.useful_unit_ratio"] = (units - resplits) / units
        return row

    return layers


#: one timed round, no warm-up round: a campaign short enough for several
#: pairs per run
CAMPAIGN_REPEAT, CAMPAIGN_WARMUP = 1, 0
CAMPAIGN_WORKERS = 2


def campaign(
    seed: int = 0,
    seconds: float = 20.0,
    trace: bool = False,
    *,
    work: str,
    t0: Optional[float] = None,
    setup_only: bool = False,
    scenarios: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """``run_scenarios`` over the smoke scenarios, with 2 workers and serially."""
    m = Measurement("campaign", seed, t0, trace, work)
    from repro.bench import get_scenario, run_scenarios, select_scenarios
    from repro.bench.scenario import scenario_digest
    from repro.solvers.engine import shutdown_engine

    if scenarios is None:
        chosen = select_scenarios(smoke=True)
    else:
        chosen = [get_scenario(name) for name in scenarios]
    for scenario in chosen:
        m.digests[scenario.name] = m.prep(lambda: scenario_digest(scenario.name, seed))

    def traced_builder(builder):
        def build(build_seed: int):
            with m.span("bench.scenarios.build"):
                return builder(build_seed)
        return build

    traced = [replace(s, builder=traced_builder(s.builder)) for s in chosen]

    def campaign_run(pool_workers: Optional[int]):
        with m.span("bench.runner"):
            return run_scenarios(
                traced if m.tracing else chosen,
                seed=seed,
                repeat=CAMPAIGN_REPEAT,
                warmup=CAMPAIGN_WARMUP,
                workers=pool_workers,
            )

    reference: Dict[str, Tuple[float, float]] = {}

    def check(run) -> None:
        for record in run.replay_failures:
            m.fail(f"{record.key}: replay failed: {record.replay_error}")
        observed = {r.key: (r.peak_memory, r.io_volume) for r in run.records}
        if run.workers:
            for name in ("work_units", "straggler_resplits", "unit_retries"):
                m.count(f"bench.runner.{name}", run.extras.get(name, 0))
        if reference:
            if observed != reference:
                m.fail("campaign records differ between runs")
            return
        reference.update(observed)
        for record in run.records:
            ratio = record.optimality_ratio
            if ratio is None:
                continue
            if record.algorithm == "liu" and not peaks_close(ratio, 1.0):
                m.fail(f"{record.key}: liu / minmem = {ratio}")
            if record.algorithm == "auto" and ratio > AUTO_TOLERANCE:
                m.fail(f"{record.key}: auto / minmem = {ratio}")
        m.quality["solvers.peak_ratio"] = geomean([
            r.optimality_ratio for r in run.records
            if r.algorithm in ("postorder", "liu", "auto") and r.optimality_ratio
        ])
        m.quality["core.minio.io_volume"] = math.fsum(
            r.io_volume for r in run.records if r.algorithm.startswith("minio")
        )

    def one(pool_workers: Optional[int]) -> Callable[[], None]:
        def body() -> None:
            run = m.op("run", lambda: campaign_run(pool_workers))
            if run is not None:
                check(run)
        return body

    try:
        # warm-up: starts the persistent engine pool
        run_scenarios(chosen[:1], seed=seed, workers=CAMPAIGN_WORKERS)
        if setup_only:
            return m.setup_result()

        def iteration(i: int) -> None:
            order = [("primary", CAMPAIGN_WORKERS), ("secondary", None)]
            for kind, pool_workers in (order[::-1] if i % 2 else order):
                m.timed_pass(kind, one(pool_workers))

        m.iterate(seconds, iteration, _install_campaign(m), _campaign_layers(m))
    finally:
        shutdown_engine()
    return m.result()


# ----------------------------------------------------------------------
# serve: the stdio daemon under open-loop and closed-loop traffic
# ----------------------------------------------------------------------
class StdioClient:
    """One ``repro serve --stdio`` daemon behind a pair of pipes.

    Single-threaded: responses are read with a selector between sends, so
    the load generator needs no thread of its own.
    """

    def __init__(self, log_path: Path) -> None:
        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--stdio", "--log-level", "warning"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
            )
        self._fd = self.proc.stdout.fileno()
        os.set_blocking(self._fd, False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._fd, selectors.EVENT_READ)
        self._buffer = b""
        self.rusage = None

    def send(self, doc: Dict[str, Any]) -> float:
        """Write one request line; returns the send time."""
        self.proc.stdin.write(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
        self.proc.stdin.flush()
        return perf_counter()

    def poll(self, timeout: float) -> List[Tuple[Dict[str, Any], float]]:
        """Response documents that arrived within ``timeout``, with arrival times."""
        if not self._selector.select(timeout):
            return []
        try:
            chunk = os.read(self._fd, 1 << 20)
        except BlockingIOError:
            return []
        arrived = perf_counter()
        if not chunk:
            raise RuntimeError("the daemon closed its stdout")
        *lines, self._buffer = (self._buffer + chunk).split(b"\n")
        return [(json.loads(line), arrived) for line in lines if line.strip()]

    def request(self, doc: Dict[str, Any], timeout: float = 30.0) -> Dict[str, Any]:
        """Send one document and wait for the first response line."""
        self.send(doc)
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            got = self.poll(deadline - perf_counter())
            if got:
                return got[0][0]
        raise TimeoutError(f"no response to {doc} within {timeout} s")

    def close(self, timeout: float = 30.0) -> None:
        """Close stdin (EOF stops the daemon) and reap it with its rusage."""
        self._selector.close()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        deadline = perf_counter() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
                break
            if perf_counter() > deadline:
                self.proc.kill()
                deadline = perf_counter() + 5.0
            time.sleep(0.01)
        self.proc.stdout.close()


#: the warm-up request: a three-node tree, answered before timing starts
_WARMUP_DOC = {
    "id": "warm-up",
    "tree": {"parents": [-1, 0, 0], "f": [0, 16, 9], "n": [10, 20, 12]},
    "algorithm": "minmem",
}

#: requests the closed-loop client keeps in flight
OUTSTANDING = 8

#: share of the run spent in the open-loop cell
OPEN_SHARE = 0.7

#: completions per closed-loop block; one block is one capacity sample
_BLOCK = 250

#: seconds of one open-loop plus closed-loop segment; segments alternate
#: through the run so both cells sample the whole run, not one window each
_SEGMENT_SECONDS = 4.0

#: seconds without any response after which the daemon counts as stalled
_STALL_SECONDS = 30.0

#: open-loop send lag above which the latency figures are not valid
LAG_LIMIT_MS = 5.0


@dataclass
class _Traffic:
    """What the load generator saw, accumulated over the segments."""

    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    responses: List[Dict[str, Any]] = field(default_factory=list)
    blocks: List[float] = field(default_factory=list)
    closed_completed: int = 0
    closed_seconds: float = 0.0
    closed_solve_seconds: float = 0.0
    next_closed: int = 0


def serve(
    seed: int = 0,
    seconds: float = 20.0,
    trace: bool = False,
    *,
    work: str,
    t0: Optional[float] = None,
    setup_only: bool = False,
    tree_count: int = 320,
    rate: float = 300.0,
) -> Dict[str, Any]:
    """Drive a ``serve --stdio`` daemon over one pipe.

    Open-loop cell (primary): Poisson arrivals at ``rate``, each request
    timed from its scheduled send.  Closed-loop cell (secondary): a client
    keeping ``OUTSTANDING`` requests in flight; the metric is seconds per
    request over blocks of completions.  The run alternates a segment of
    each cell every ``_SEGMENT_SECONDS``.
    """
    m = Measurement("serve", seed, t0, trace, work)
    from repro.bench.traffic import TrafficCell, TrafficScenario, arrival_schedule, build_request_docs

    segments = max(1, round(seconds / _SEGMENT_SECONDS))
    open_seconds = OPEN_SHARE * seconds
    closed_seconds = seconds - open_seconds
    mix = TrafficScenario(name="perf_serve", summary="", tree_count=tree_count, cells=())
    open_cell = TrafficCell(
        name="open-poisson", arrival="poisson",
        requests=max(segments, int(rate * open_seconds)), rate=rate,
    )
    closed_cell = TrafficCell(
        name="closed-loop", arrival="closed",
        requests=max(_BLOCK, int(1500 * closed_seconds)), concurrency=OUTSTANDING,
    )
    if not setup_only:
        open_docs, schedule = m.prep(
            lambda: (build_request_docs(mix, open_cell, seed), arrival_schedule(open_cell, seed))
        )
        closed_docs = m.prep(lambda: build_request_docs(mix, closed_cell, seed))
        m.digests["open_cell_crc32"] = m.prep(lambda: _stream_digest(open_docs, schedule))
        m.digests["closed_cell_crc32"] = m.prep(lambda: _stream_digest(closed_docs, []))

    client = StdioClient(m.work / "serve-daemon.log")
    traffic = _Traffic()
    stats: List[Dict[str, Any]] = []
    try:
        warm = client.request(_WARMUP_DOC)
        if warm.get("status") != "ok":
            raise RuntimeError(f"warm-up request failed: {warm}")
        if setup_only:
            return m.setup_result()
        m.ready()
        n = len(open_docs)
        # latencies and blocks in probes: over the probes around their cell
        relative: Dict[str, List[float]] = {kind: [] for kind in PASS_TYPES}
        for s in range(segments):
            lo, hi = s * n // segments, (s + 1) * n // segments
            offset = schedule[lo - 1] if lo else 0.0
            done_open, done_closed, before = len(traffic.latencies), len(traffic.blocks), probe()
            _drive_open(m, client, open_docs[lo:hi], [t - offset for t in schedule[lo:hi]], traffic)
            middle = probe()
            _drive_closed(m, client, closed_docs, closed_seconds / segments, traffic)
            after = probe()
            relative["primary"] += [2.0 * x / (before + middle) for x in traffic.latencies[done_open:]]
            relative["secondary"] += [2.0 * x / (middle + after) for x in traffic.blocks[done_closed:]]
            stats.append(client.request({"op": "stats"})["stats"])
    finally:
        client.close()
    if client.proc.returncode != 0:
        m.fail(f"daemon exited with status {client.proc.returncode}", op=0)

    m.op_times = {
        "s": {"primary": {"": traffic.latencies}, "secondary": {"": traffic.blocks}},
        "probes": {kind: {"": values} for kind, values in relative.items()},
    }
    m.passes = {"primary": len(traffic.latencies), "secondary": len(traffic.blocks)}
    m.peak_rss_mib = client.rusage.ru_maxrss / 1024.0
    lag_p99 = percentile(traffic.lags, 99) * 1e3
    if lag_p99 > LAG_LIMIT_MS:
        m.notes.append(f"INVALID: open-loop send lag p99 {lag_p99:.2f} ms > {LAG_LIMIT_MS} ms")
    rps = traffic.closed_completed / traffic.closed_seconds if traffic.closed_seconds else 0.0
    m.notes.append(
        f"open loop: {len(traffic.latencies)} requests at {rate:g}/s, latency p50 "
        f"{percentile(traffic.latencies, 50) * 1e3:.3f} ms, "
        f"p99 {percentile(traffic.latencies, 99) * 1e3:.3f} ms; closed loop: "
        f"{traffic.closed_completed} requests, {rps:.1f} req/s"
    )
    _check_peaks(m, traffic.responses, open_docs + closed_docs)
    if m.tracer is not None:
        m.layer_rows = [_service_layers(traffic, stats, lag_p99)]
    return m.result()


def _check_peaks(m: Measurement, responses, docs) -> None:
    """Every daemon peak must equal an in-process solve of the same request."""
    from repro.core.tree import Tree
    from repro.service import tree_payload_token
    from repro.solvers import solve

    payloads = {}
    for doc in docs:
        if "parents" in doc["tree"]:
            payloads.setdefault(tree_payload_token(doc["tree"]), doc["tree"])
    expected: Dict[Tuple[str, str], float] = {}
    for response in responses:
        if response.get("status") != "ok":
            continue
        key = (response["tree_token"], response["algorithm"])
        if key not in expected:
            payload = payloads[key[0]]
            tree = Tree.from_parents(payload["parents"], payload["f"], payload["n"])
            expected[key] = solve(tree, key[1]).peak_memory
        if response["report"]["peak_memory"] != expected[key]:
            m.fail(
                f"{response['id']}: daemon peak {response['report']['peak_memory']} "
                f"!= in-process {expected[key]}",
                op=response["_op"],
            )


def _service_layers(traffic: _Traffic, stats: List[Dict[str, Any]], lag_p99: float) -> Dict[str, float]:
    stage: Dict[str, List[float]] = {name: [] for name in _STAGES}
    stdio: List[float] = []
    accounted = total = 0.0
    for response in traffic.responses:
        if response.get("status") != "ok":
            continue
        timing = response["timing"]
        stages = timing.get("stages", {})
        for name, seconds in stages.items():
            if name in stage:
                stage[name].append(seconds)
        # parse and intern run before admission, outside total_seconds; the
        # rest of the client's wait is the stdio front end and the pipe
        before = stages.get("parse", 0.0) + stages.get("intern", 0.0)
        accounted += math.fsum(stages.values()) - before
        total += timing["total_seconds"]
        stdio.append(response["_client_s"] - before - timing["total_seconds"])
    hits = stats[-1]["interner_hits"]
    lookups = hits + stats[-1]["interner_misses"]
    return {
        **{
            f"service.{name}.{q}_ms": percentile(values, float(q[1:])) * 1e3
            for name, values in stage.items()
            for q in ("p50", "p99")
        },
        "service.stdio.p50_ms": percentile(stdio, 50) * 1e3,
        "service.stdio.p99_ms": percentile(stdio, 99) * 1e3,
        "service.solve.busy_frac": traffic.closed_solve_seconds / traffic.closed_seconds,
        "service.interner.hit_ratio": hits / lookups if lookups else 0.0,
        "service.queue_depth_max": max(s["max_queue_depth"] for s in stats),
        "loadgen.lag_p50_ms": percentile(traffic.lags, 50) * 1e3,
        "loadgen.lag_p99_ms": lag_p99,
        "loadgen.latency_p99_ms": percentile(traffic.latencies, 99) * 1e3,
        # the daemon runs in its own process: nothing is wrapped, so the
        # trace costs nothing, and coverage is the share of the daemon's
        # total_seconds that its queued..report stages account for
        "trace.overhead_frac": 0.0,
        "trace.coverage": accounted / total if total else 0.0,
    }


def _stream_digest(docs: List[Dict[str, Any]], schedule: List[float]) -> int:
    """crc32 of a request stream, serialised as ``request_stream_digest`` does."""
    blob = json.dumps({"docs": docs, "schedule": schedule}, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("utf-8"))


def _record(m: Measurement, traffic: _Traffic, response: Dict[str, Any], op: int,
            sent: float, arrived: float) -> None:
    response["_op"] = op
    response["_client_s"] = arrived - sent
    traffic.responses.append(response)
    if response.get("status") != "ok":
        m.fail(f"{response.get('id')}: status {response.get('status')}", op=op)


def _drive_open(m: Measurement, client: StdioClient, docs, schedule, traffic: _Traffic) -> None:
    """Send each request at its scheduled time; latency runs from that time."""
    pending: Dict[str, Tuple[float, float, int]] = {}
    base = perf_counter() + 0.01
    i = 0
    last = perf_counter()
    while i < len(docs) or pending:
        now = perf_counter()
        while i < len(docs) and base + schedule[i] <= now:
            m.attempted += 1
            sent = client.send(docs[i])
            pending[docs[i]["id"]] = (base + schedule[i], sent, m.attempted)
            i += 1
            now = perf_counter()
        wait = base + schedule[i] - now if i < len(docs) else 0.5
        for response, arrived in client.poll(max(0.0, wait)):
            if response.get("id") not in pending:
                m.fail(f"open loop: unexpected response {response}")
                continue
            scheduled, sent, op = pending.pop(response["id"])
            traffic.latencies.append(arrived - scheduled)
            traffic.lags.append(sent - scheduled)
            _record(m, traffic, response, op, sent, arrived)
            last = arrived
        if pending and perf_counter() - last > _STALL_SECONDS:
            for _, _, op in pending.values():
                m.fail("open loop: no response", op=op)
            break


def _drive_closed(m: Measurement, client: StdioClient, docs, seconds: float,
                  traffic: _Traffic) -> None:
    """Keep ``OUTSTANDING`` requests in flight for ``seconds``."""
    pending: Dict[str, Tuple[float, int]] = {}
    completions: List[float] = []
    start = last = perf_counter()
    while True:
        while len(pending) < OUTSTANDING and perf_counter() - start < seconds:
            k = traffic.next_closed
            doc = docs[k % len(docs)]
            if k >= len(docs):
                doc = dict(doc, id=f"{doc['id']}.{k // len(docs)}")
            traffic.next_closed += 1
            m.attempted += 1
            pending[doc["id"]] = (client.send(doc), m.attempted)
        if not pending:
            break
        for response, arrived in client.poll(1.0):
            if response.get("id") not in pending:
                m.fail(f"closed loop: unexpected response {response}")
                continue
            sent, op = pending.pop(response["id"])
            _record(m, traffic, response, op, sent, arrived)
            completions.append(arrived)
            traffic.closed_solve_seconds += response["timing"].get("stages", {}).get("solve", 0.0)
            last = arrived
        if pending and perf_counter() - last > _STALL_SECONDS:
            for _, op in pending.values():
                m.fail("closed loop: no response", op=op)
            break
    if completions:
        traffic.closed_completed += len(completions)
        traffic.closed_seconds += completions[-1] - start
    block = max(1, min(_BLOCK, len(completions) // 4))
    marks = [start] + completions
    traffic.blocks.extend(
        (marks[j + block] - marks[j]) / block
        for j in range(0, len(completions) - block + 1, block)
    )


WORKLOADS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "sparse_plan": sparse_plan,
    "large_trees": large_trees,
    "campaign": campaign,
    "serve": serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload (child of run.py).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() at which the parent started this process")
    parser.add_argument("--work", required=True, help="directory for inputs and logs")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    args = parser.parse_args(argv)
    result = WORKLOADS[args.workload](
        args.seed,
        args.seconds,
        bool(args.trace),
        work=args.work,
        t0=args.t0,
        setup_only=args.setup_only,
    )
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
