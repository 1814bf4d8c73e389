"""Scenario runner: plan the campaign, execute it, collect per-run metrics.

:func:`run_scenarios` materialises every selected scenario's trees (seeded,
so repeated runs use identical instances) and collects one
:class:`BenchRecord` per (scenario, instance, algorithm, budget) cell:

* wall time: best and mean over the repeats, measured inside the solver via
  ``perf_counter`` (the facade stamps ``SolveReport.wall_time``);
* peak memory and I/O volume straight from the report;
* the optimality ratio against the exact MinMemory reference (``minmem``,
  itself part of the run or computed on demand);
* replay validation: every report's schedule is re-executed by
  :mod:`repro.bench.replay` and the recomputed metrics must match.

Budgeted solvers (``explore``, the ``minio`` family) are additionally swept
over the scenario's ``budget_fractions``, interpolating between the trivial
lower bound ``max MemReq`` and the in-core optimal peak.

Execution is a *campaign plan*: each scenario's full cell grid is expanded
into fan-outs over an executor backend (:mod:`repro.solvers.engine`) --
first the plain (unbudgeted) algorithms for every instance and round,
then, once the reference peaks are known, every budgeted (algorithm,
budget, round) cell across all instances at once.  Warmup cells fan out
(and complete) before the timed cells of the same stage, so warmup keeps
its meaning under parallel execution.

The worker count picks the executor: ``workers > 1`` runs on the
persistent process engine, anything else in-process.  On an engine the
planner *work-splits*: each grid is cut into about
``saturate_factor x workers`` contiguous work units submitted as one
future each, so workers stay saturated without per-cell dispatch
overhead -- plus *straggler re-splitting*: a unit still running after
``straggler_factor x`` the median unit round trip is split in half and
resubmitted, and whichever copy of a cell finishes first wins (results
are deduplicated by cell index, deterministic because every solver is).
A chaos campaign (``fault_plan=``) without workers runs the same loop
over the in-process backend, whose futures complete on submission.  Every
mode produces bit-identical reports.
"""

from __future__ import annotations

import statistics
import time
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.tree import Tree
from ..solvers.facade import _solve_task
from ..solvers.registry import get_solver
from ..solvers.report import SolveReport
from .replay import ReplayError, replay_report
from .scenario import Scenario

__all__ = ["BenchRecord", "BenchRun", "run_scenarios"]

#: solver families that consume a main-memory budget
_BUDGETED_FAMILIES = ("minio", "explore")

#: the exact algorithm used as the optimality-ratio denominator
REFERENCE_ALGORITHM = "minmem"


@dataclass(frozen=True)
class BenchRecord:
    """Metrics of one (scenario, instance, algorithm, budget) cell.

    ``key`` uniquely identifies the cell across runs and machines, so two
    artifacts can be diffed record by record.
    """

    scenario: str
    family: str
    instance: str
    algorithm: str
    nodes: int
    peak_memory: float
    io_volume: float
    best_time: float
    mean_time: float
    repeats: int
    optimality_ratio: Optional[float] = None
    memory_limit: Optional[float] = None
    budget_fraction: Optional[float] = None
    replay_ok: bool = True
    replay_error: Optional[str] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        budget = "" if self.budget_fraction is None else f"@{self.budget_fraction:g}"
        return f"{self.scenario}/{self.instance}/{self.algorithm}{budget}"


@dataclass(frozen=True)
class BenchRun:
    """Outcome of one benchmark campaign.

    ``campaign_seconds`` is the end-to-end wall time of
    :func:`run_scenarios` -- tree building, solver rounds, replay
    validation and record assembly included -- which is the number that
    exposes dispatch overhead invisible to the per-solver ``wall_time``
    stamps.  ``extras`` carries run-level execution metadata: the backend
    that ran the campaign, the number of work units submitted, and how
    many straggler re-splits fired.
    """

    records: Tuple[BenchRecord, ...]
    seed: int
    repeat: int
    warmup: int
    workers: Optional[int]
    scenarios: Tuple[str, ...]
    campaign_seconds: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def families(self) -> Tuple[str, ...]:
        return tuple(sorted({r.family for r in self.records}))

    @property
    def algorithms(self) -> Tuple[str, ...]:
        return tuple(sorted({r.algorithm for r in self.records}))

    @property
    def replay_failures(self) -> Tuple[BenchRecord, ...]:
        return tuple(r for r in self.records if not r.replay_ok)

    def format_table(self) -> str:
        """Plain-text summary table (one line per record)."""
        header = (
            f"{'scenario/instance/algorithm':<58} {'nodes':>6} {'peak':>12} "
            f"{'IO':>10} {'ratio':>7} {'best':>9} {'replay':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.records:
            ratio = "-" if r.optimality_ratio is None else f"{r.optimality_ratio:.4f}"
            lines.append(
                f"{r.key:<58} {r.nodes:>6} {r.peak_memory:>12.6g} "
                f"{r.io_volume:>10.6g} {ratio:>7} {r.best_time * 1e3:>7.2f}ms "
                f"{'ok' if r.replay_ok else 'FAIL':>6}"
            )
        return "\n".join(lines)


def _is_budgeted(algorithm: str) -> bool:
    return get_solver(algorithm).family in _BUDGETED_FAMILIES


def _budgets_for(
    tree: Tree, reference_peak: float, fractions: Sequence[float]
) -> List[Tuple[float, float]]:
    """(fraction, absolute memory) budgets between max MemReq and the peak."""
    floor = tree.max_mem_req()
    span = reference_peak - floor
    if span <= 0:
        # degenerate trees where the floor already fits the optimum: every
        # fraction collapses to the same unconstrained bound, so label the
        # single budget honestly as 1.0 rather than with the first fraction
        return [(1.0, floor)]
    budgets = []
    seen = set()
    for fraction in fractions:
        memory = floor + fraction * span
        if memory in seen:
            continue
        seen.add(memory)
        budgets.append((float(fraction), memory))
    return budgets or [(1.0, reference_peak)]


def run_scenarios(
    scenarios: Sequence[Scenario],
    *,
    seed: int = 0,
    repeat: int = 1,
    warmup: int = 0,
    workers: Optional[int] = None,
    validate: bool = True,
    saturate_factor: float = 2.0,
    straggler_factor: float = 4.0,
    fault_plan: Any = None,
    retry_policy: Any = None,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
) -> BenchRun:
    """Execute ``scenarios`` and collect one record per benchmark cell.

    Parameters
    ----------
    scenarios:
        The scenarios to run (see :func:`repro.bench.select_scenarios`).
    seed:
        Passed to every scenario builder; identical seeds build identical
        instances.
    repeat:
        Timed rounds per batch; ``best_time``/``mean_time`` aggregate the
        per-solver wall times over the rounds.  Metrics are taken from the
        last round (all rounds are bit-identical, the solvers being
        deterministic).
    warmup:
        Untimed rounds discarded before the ``repeat`` timed ones.
    workers:
        Worker processes for the solver batches.  ``workers > 1`` runs on
        the persistent shared-memory process engine with work-splitting
        and straggler re-splitting; ``None``, ``0`` or ``1`` run in-process.
        Every choice produces bit-identical reports.
    validate:
        Replay-validate every report (see :mod:`repro.bench.replay`).
        Validation failures are recorded on the :class:`BenchRecord` rather
        than raised, so one bad solver cannot sink a whole campaign.
    saturate_factor:
        Work units submitted per worker (roughly; units are contiguous
        cell runs of near-equal size).
        More units mean finer-grained load balancing at slightly higher
        dispatch overhead.
    straggler_factor:
        A pending work unit older than ``straggler_factor`` times the
        median completed-unit round trip (and at least 50 ms) is split in
        half and resubmitted; the first finished copy of each cell wins.
    fault_plan:
        A :class:`~repro.faults.FaultPlan` to inject into the campaign
        (chaos mode).  The dispatcher then builds its own engine around a
        :class:`~repro.faults.FaultyBackend` wrapper -- never the shared
        process-wide engine, so chaos cannot leak into other callers --
        and the run-level ``extras`` gain a ``faults`` document (plan +
        injections).  Results stay bit-identical to a fault-free run.
    retry_policy:
        The :class:`~repro.faults.RetryPolicy` governing work-unit
        retries (and, in chaos mode, the dedicated engine's batch
        retries).  ``None`` uses the default policy.
    checkpoint:
        Path of a journal to write: every completed timed cell is
        appended (and flushed) as it finishes, so a killed campaign can
        be resumed.  Truncates any existing file at the path.
    resume:
        Path of an existing journal to resume from: completed cells are
        skipped (their reports rehydrate from the journal; run-level
        ``extras`` report them as ``resumed_cells``) and new completions
        keep appending to the same file.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if saturate_factor <= 0:
        raise ValueError("saturate_factor must be > 0")
    if straggler_factor <= 0:
        raise ValueError("straggler_factor must be > 0")
    if checkpoint and resume and str(checkpoint) != str(resume):
        raise ValueError(
            "checkpoint and resume name different files; a resumed campaign "
            "keeps appending to the journal it resumes from"
        )
    start = perf_counter()
    journal = None
    if checkpoint or resume:
        from .checkpoint import CampaignJournal

        params = {
            "seed": seed,
            "repeat": repeat,
            "warmup": warmup,
            "scenarios": [s.name for s in scenarios],
            "validate": validate,
        }
        context = {"workers": workers}
        if resume:
            journal = CampaignJournal.resume(resume, params, context)
        else:
            journal = CampaignJournal.fresh(checkpoint, params, context)
    dispatcher = _CampaignDispatcher(
        workers=workers,
        saturate_factor=saturate_factor,
        straggler_factor=straggler_factor,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    records: List[BenchRecord] = []
    try:
        for scenario in scenarios:
            records.extend(
                _run_scenario(
                    scenario,
                    seed=seed,
                    repeat=repeat,
                    warmup=warmup,
                    validate=validate,
                    dispatcher=dispatcher,
                    journal=journal,
                )
            )
    finally:
        dispatcher.close()
        if journal is not None:
            journal.close()
    extras: Dict[str, Any] = {
        "backend": dispatcher.backend_name,
        "work_units": dispatcher.work_units,
        "straggler_resplits": dispatcher.straggler_resplits,
        "unit_retries": dispatcher.unit_retries,
    }
    fault_summary = dispatcher.fault_summary()
    if fault_summary is not None:
        extras["faults"] = fault_summary
    if journal is not None:
        extras["checkpoint"] = str(journal.path)
        extras["checkpoint_cells"] = journal.cells_written
        extras["resumed_cells"] = journal.cells_resumed
    return BenchRun(
        records=tuple(records),
        seed=seed,
        repeat=repeat,
        warmup=warmup,
        workers=workers,
        scenarios=tuple(s.name for s in scenarios),
        campaign_seconds=perf_counter() - start,
        extras=extras,
    )


#: one planned solver invocation: (tree, algorithm, memory, options)
_Cell = Tuple[Any, str, Optional[float], Dict[str, Any]]

#: a straggler must also be at least this old (seconds) before re-splitting,
#: so micro-campaigns with sub-millisecond units never thrash on resubmits
_STRAGGLER_MIN_WAIT = 0.05

#: completion-scan interval while work units are in flight (seconds)
_POLL_INTERVAL = 0.002


@dataclass
class _WorkUnit:
    """One in-flight contiguous cell run ``[start, stop)`` and its future."""

    start: int
    stop: int
    future: Any
    submitted: float
    split: bool = False  # re-split already fired; never split twice
    attempts: int = 1  # tries of this [start, stop) range, for the policy


class _CampaignDispatcher:
    """Fan-out of one campaign's cell grids over an engine's futures.

    One dispatcher serves a whole :func:`run_scenarios` call, so its
    ``work_units`` / ``straggler_resplits`` counters aggregate across
    scenarios into the run-level extras.  Without an engine (no workers,
    no fault plan) every grid solves inline.
    """

    def __init__(
        self,
        *,
        workers: Optional[int],
        saturate_factor: float = 2.0,
        straggler_factor: float = 4.0,
        fault_plan: Any = None,
        retry_policy: Any = None,
    ) -> None:
        self.workers = workers or 1
        self.saturate_factor = saturate_factor
        self.straggler_factor = straggler_factor
        self.work_units = 0
        self.straggler_resplits = 0
        self.unit_retries = 0
        if retry_policy is None:
            from ..faults.policy import DEFAULT_RETRY_POLICY

            retry_policy = DEFAULT_RETRY_POLICY
        self.retry_policy = retry_policy
        self._retry_budget = retry_policy.new_budget()
        self._engine = None
        self._owns_engine = False
        if fault_plan is not None:
            # chaos mode gets a dedicated engine around a FaultyBackend
            # wrapper -- never the shared process-wide engine, which other
            # callers (the service daemon, solve_many) may be using
            from ..faults.injector import FaultyBackend
            from ..solvers.engine import PersistentBackend, SerialBackend, SolveEngine

            inner = PersistentBackend() if self.workers > 1 else SerialBackend()
            self._engine = SolveEngine(
                backend=FaultyBackend(inner, fault_plan),
                retry_policy=retry_policy,
            )
            self._owns_engine = True
        elif self.workers > 1:
            from ..solvers.engine import get_engine

            self._engine = get_engine()

    @property
    def backend_name(self) -> str:
        return "serial" if self._engine is None else self._engine.backend_name

    def fault_summary(self) -> Optional[Dict[str, Any]]:
        """The chaos extras document, or ``None`` outside chaos mode."""
        if not self._owns_engine:
            return None
        backend = self._engine.backend
        return {
            "plan": backend.plan.describe(),
            "injected": dict(sorted(backend.injected.items())),
        }

    def close(self) -> None:
        """Release a dispatcher-owned chaos engine (shared engines persist)."""
        if self._owns_engine and self._engine is not None:
            self._engine.shutdown()

    def solve(self, cells: List[_Cell]) -> List[SolveReport]:
        """Solve every cell, in order; bit-identical to the serial path."""
        engine = self._engine
        if engine is None or len(cells) < 2:
            return [_solve_task(cell) for cell in cells]
        return self._solve_split(engine, cells)

    # ------------------------------------------------------------------
    def _unit_bounds(self, n: int) -> List[Tuple[int, int]]:
        """Cut ``n`` cells into ~saturate_factor x workers contiguous runs."""
        n_units = min(n, max(1, round(self.saturate_factor * self.workers)))
        base, extra = divmod(n, n_units)
        bounds, start = [], 0
        for u in range(n_units):
            size = base + (1 if u < extra else 0)
            bounds.append((start, start + size))
            start += size
        return bounds

    def _solve_split(self, engine, cells: List[_Cell]) -> List[SolveReport]:
        """Submit the grid as work units; re-split stragglers; dedup by cell.

        ``results`` is keyed by cell index and written with ``setdefault``:
        after a re-split both the original unit and its halves may complete,
        and the first finisher wins -- deterministic, because every
        registered solver is (only ``wall_time`` differs, and report
        equality excludes it).
        """
        results: Dict[int, SolveReport] = {}
        pending: List[_WorkUnit] = []
        rtts: List[float] = []

        def submit(
            start: int, stop: int, attempts: int = 1
        ) -> Optional[_WorkUnit]:
            future = engine.submit_chunk(cells[start:stop], self.workers)
            if future is None:
                # backend unavailable on this platform: complete inline
                for idx in range(start, stop):
                    results.setdefault(idx, _solve_task(cells[idx]))
                return None
            self.work_units += 1
            unit = _WorkUnit(start, stop, future, perf_counter(), attempts=attempts)
            pending.append(unit)
            return unit

        def collect(unit: _WorkUnit) -> None:
            from concurrent.futures import CancelledError

            from ..faults.policy import classify_fault
            from ..faults.stats import global_fault_stats

            try:
                reports = unit.future.result()
            except CancelledError:
                return  # a re-split superseded this unit
            except Exception as exc:
                fault = classify_fault(exc)
                if fault == "solver":
                    raise  # the solver's own exception: propagate unchanged
                if fault == "broken_pool":
                    engine.reset()
                if self.retry_policy.should_retry(
                    fault, unit.attempts, self._retry_budget
                ):
                    # typed retry: resubmit the same [start, stop) range
                    # after the policy's deterministic backoff.  The cell
                    # objects are reused, so a chaos injector neither
                    # advances its sequence nor re-fires consumed faults.
                    self.unit_retries += 1
                    global_fault_stats.record_retry("bench", fault)
                    time.sleep(
                        self.retry_policy.delay(
                            unit.attempts, key=f"unit:{unit.start}-{unit.stop}"
                        )
                    )
                    submit(unit.start, unit.stop, attempts=unit.attempts + 1)
                    return  # inline fallback inside submit() settles the rest
                warnings.warn(
                    f"bench dispatcher: work unit failed ({exc}); completing "
                    "the unit in-process",
                    RuntimeWarning,
                    stacklevel=4,
                )
                reports = [_solve_task(c) for c in cells[unit.start:unit.stop]]
            else:
                rtts.append(perf_counter() - unit.submitted)
            for offset, report in enumerate(reports):
                results.setdefault(unit.start + offset, report)

        def resplit_stragglers() -> None:
            if not rtts:
                return
            threshold = max(
                _STRAGGLER_MIN_WAIT, self.straggler_factor * statistics.median(rtts)
            )
            now = perf_counter()
            for unit in list(pending):
                if unit.split or unit.stop - unit.start < 2:
                    continue
                if now - unit.submitted < threshold:
                    continue
                mid = (unit.start + unit.stop) // 2
                first = submit(unit.start, mid)
                second = submit(mid, unit.stop)
                unit.split = True
                self.straggler_resplits += 1
                if first is not None or second is not None:
                    # only retire the original once a replacement is in
                    # flight; if it is already running the cancel fails and
                    # the dedup above settles the race
                    unit.future.cancel()

        try:
            for start, stop in self._unit_bounds(len(cells)):
                submit(start, stop)
            while pending:
                done = [u for u in pending if u.future.done()]
                for unit in done:
                    pending.remove(unit)
                    collect(unit)
                if not pending:
                    break
                if not done:
                    resplit_stragglers()
                    time.sleep(_POLL_INTERVAL)
        except BaseException:
            for unit in pending:  # solver errors propagate; don't leak work
                unit.future.cancel()
            raise
        # safety net: anything lost (cancelled both copies, dropped futures)
        # completes in-process so the grid always comes back whole
        return [
            results[i] if i in results else _solve_task(cells[i])
            for i in range(len(cells))
        ]


def _solve_stage(
    dispatcher: _CampaignDispatcher,
    journal,
    scenario_name: str,
    stage: int,
    cells: List[_Cell],
    warm_cells: List[_Cell],
) -> List[SolveReport]:
    """Solve one stage grid, via the checkpoint journal when one is active.

    With a journal, cells already recorded (a resumed run) are skipped and
    their reports rehydrated; only the missing ones are dispatched, and
    each is journaled as the stage completes.  Warmup runs only when there
    is timed work left -- a fully resumed stage costs nothing.
    """
    if journal is None:
        dispatcher.solve(warm_cells)  # discarded (barrier below)
        return dispatcher.solve(cells)
    cached = journal.cached(scenario_name, stage)
    missing = [i for i in range(len(cells)) if i not in cached]
    journal.count_resumed(len(cells) - len(missing))
    out: List[Optional[SolveReport]] = [
        cached.get(i) for i in range(len(cells))
    ]
    if missing:
        dispatcher.solve(warm_cells)
        reports = dispatcher.solve([cells[i] for i in missing])
        for i, report in zip(missing, reports):
            out[i] = report
            journal.record(scenario_name, stage, i, report)
    return out  # type: ignore[return-value]


def _run_scenario(
    scenario: Scenario,
    *,
    seed: int,
    repeat: int,
    warmup: int,
    validate: bool,
    dispatcher: _CampaignDispatcher,
    journal=None,
) -> List[BenchRecord]:
    """Campaign-planned execution: the scenario grid as backend fan-outs.

    Stage 1 expands the plain (unbudgeted) algorithms over every instance
    and round into batches.  Stage 2 -- which needs the stage-1 reference
    peaks to place the memory budgets -- expands every budgeted (instance,
    algorithm, budget, round) cell into a second pair of batches, so the
    budget sweeps run in parallel rather than as serial size-1 calls.
    Each stage fans out its warmup cells first and waits for them before
    the timed cells, preserving the documented warmup semantics (timed
    rounds never contend with, or run ahead of, warmup work).  Cells are
    ordered tree-major within each round, keeping arena chunks
    single-tree.  Execution strategy (work-splitting, straggler
    re-splitting, inline) is entirely the ``dispatcher``'s concern.
    """
    instances = scenario.build(seed)
    trees = [tree for _, tree in instances]
    plain = [a for a in scenario.algorithms if not _is_budgeted(a)]
    budgeted = [a for a in scenario.algorithms if _is_budgeted(a)]
    # the reference solver anchors optimality ratios and budget sweeps; run
    # it even when the scenario did not list it explicitly
    reference_in_run = REFERENCE_ALGORITHM in plain
    if not reference_in_run:
        plain = plain + [REFERENCE_ALGORITHM]
    n_trees, n_plain = len(trees), len(plain)

    # ---- stage 1: the plain grid ----------------------------------------
    # the options dict is shared across cells: solvers copy before use, and
    # the pickle memo ships it once per executor chunk
    plain_options: Dict[str, Any] = {}

    def _plain_cells(n_rounds: int) -> List[_Cell]:
        return [
            (trees[i], name, None, plain_options)
            for _ in range(n_rounds)
            for i in range(n_trees)
            for name in plain
        ]

    flat1 = _solve_stage(
        dispatcher, journal, scenario.name, 1, _plain_cells(repeat),
        _plain_cells(warmup),
    )
    timings: Dict[Tuple[int, str], List[float]] = {}
    for r in range(repeat):
        base = r * n_trees * n_plain
        for i in range(n_trees):
            for j, name in enumerate(plain):
                timings.setdefault((i, name), []).append(
                    flat1[base + i * n_plain + j].wall_time
                )
    last = (repeat - 1) * n_trees * n_plain
    batches = [
        {
            name: flat1[last + i * n_plain + j]
            for j, name in enumerate(plain)
        }
        for i in range(n_trees)
    ]

    # ---- stage 2: every budgeted cell across all instances --------------
    budgets_of: Dict[int, List[Tuple[float, float]]] = {}
    budget_option_of: Dict[int, Dict[str, Any]] = {}
    for i, tree in enumerate(trees):
        reference = batches[i][REFERENCE_ALGORITHM]
        budgets_of[i] = _budgets_for(
            tree, reference.peak_memory, scenario.budget_fractions
        )
        # hand the minio family the reference traversal and its peak so the
        # timed rounds measure the scheduler alone, not a hidden re-run of
        # the in-core base solver; explore ignores both (lenient dispatch)
        budget_option_of[i] = {
            "traversal": reference.traversal,
            "in_core_peak": reference.peak_memory,
        }

    def _budget_cells(n_rounds: int):
        cells: List[_Cell] = []
        meta: List[Tuple[int, str]] = []  # (instance, algorithm@budget)
        for i, tree in enumerate(trees):
            for name in budgeted:
                for b, (_, memory) in enumerate(budgets_of[i]):
                    for _ in range(n_rounds):
                        cells.append((tree, name, memory, budget_option_of[i]))
                        meta.append((i, f"{name}@{b}"))
        return cells, meta

    warm_cells, _ = _budget_cells(warmup)
    timed_cells, meta = _budget_cells(repeat)
    flat2 = _solve_stage(
        dispatcher, journal, scenario.name, 2, timed_cells, warm_cells
    )
    budget_reports: Dict[Tuple[int, str], SolveReport] = {}
    budget_times: Dict[Tuple[int, str], List[float]] = {}
    for (i, cell_key), report in zip(meta, flat2):
        budget_times.setdefault((i, cell_key), []).append(report.wall_time)
        budget_reports[(i, cell_key)] = report  # rounds are bit-identical

    # ---- records, in the same order as the legacy path ------------------
    records: List[BenchRecord] = []
    for i, (instance_name, tree) in enumerate(instances):
        reference_peak = batches[i][REFERENCE_ALGORITHM].peak_memory
        for name in plain:
            if name == REFERENCE_ALGORITHM and not reference_in_run:
                continue
            records.append(
                _make_record(
                    scenario,
                    instance_name,
                    tree,
                    batches[i][name],
                    timings[(i, name)],
                    reference_peak=reference_peak,
                    validate=validate,
                )
            )
        for name in budgeted:
            for b, (fraction, memory) in enumerate(budgets_of[i]):
                cell_key = f"{name}@{b}"
                records.append(
                    _make_record(
                        scenario,
                        instance_name,
                        tree,
                        budget_reports[(i, cell_key)],
                        budget_times[(i, cell_key)],
                        reference_peak=reference_peak,
                        validate=validate,
                        memory_limit=memory,
                        budget_fraction=fraction,
                    )
                )
    return records


def _make_record(
    scenario: Scenario,
    instance_name: str,
    tree: Tree,
    report: SolveReport,
    times: Sequence[float],
    *,
    reference_peak: float,
    validate: bool,
    memory_limit: Optional[float] = None,
    budget_fraction: Optional[float] = None,
) -> BenchRecord:
    replay_ok, replay_error = True, None
    if validate:
        try:
            replay_report(tree, report)
        except ReplayError as exc:
            replay_ok, replay_error = False, str(exc)
    ratio = None
    if memory_limit is None and reference_peak > 0:
        # in-core solvers compete on peak memory; budgeted runs (minio,
        # explore -- possibly partial) compete on I/O volume under a bound,
        # where a peak ratio would be meaningless or misleading
        ratio = report.peak_memory / reference_peak
    extras = {
        key: value
        for key, value in report.extras.items()
        if isinstance(value, (int, float, str, bool)) or value is None
    }
    return BenchRecord(
        scenario=scenario.name,
        family=scenario.family,
        instance=instance_name,
        algorithm=report.algorithm,
        nodes=tree.size,
        peak_memory=report.peak_memory,
        io_volume=report.io_volume,
        best_time=min(times),
        mean_time=sum(times) / len(times),
        repeats=len(times),
        optimality_ratio=ratio,
        memory_limit=memory_limit,
        budget_fraction=budget_fraction,
        replay_ok=replay_ok,
        replay_error=replay_error,
        extras=extras,
    )
