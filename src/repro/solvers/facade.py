"""The ``solve`` / ``solve_many`` / ``compare`` facade.

These three functions are the intended entry points of the library:

* :func:`solve` runs one registered algorithm on one tree and returns a
  :class:`~repro.solvers.report.SolveReport`;
* :func:`solve_many` batches ``trees x algorithms`` and, when ``workers > 1``,
  fans the batch across the persistent shared-memory process engine of
  :mod:`repro.solvers.engine` (workers and resident trees reused across
  calls), falling back to serial execution when the platform cannot spawn
  workers, e.g. in sandboxes; results are bit-identical to the serial path
  because every registered solver is deterministic;
* :func:`compare` runs several algorithms on the same tree and returns them
  ranked (peak memory first, then I/O volume, then wall time).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import lru_cache
from time import perf_counter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.tree import Tree
from .registry import SolverSpec, UnknownOptionError, get_solver
from .report import SolveReport

__all__ = [
    "solve",
    "solve_many",
    "compare",
    "Comparison",
    "DEFAULT_COMPARE_ALGORITHMS",
]

#: algorithms compared side by side when :func:`compare` is given none
DEFAULT_COMPARE_ALGORITHMS = ("postorder", "liu", "minmem")

AlgorithmArg = Union[str, Sequence[str]]


@lru_cache(maxsize=None)
def _declared_options(func) -> Optional[FrozenSet[str]]:
    """Keyword options ``func`` consumes, or ``None`` for "accepts anything".

    Built-in adapters declare their real options and swallow the rest with a
    var-keyword parameter named ``_ignored`` (so batch calls can forward
    options that only apply to some of the algorithms).  A var-keyword
    parameter with any *other* name marks a solver that genuinely accepts
    arbitrary options, disabling the :func:`_check_options` check.
    """
    names = set()
    for param in inspect.signature(func).parameters.values():
        if param.kind in (param.KEYWORD_ONLY, param.POSITIONAL_OR_KEYWORD):
            names.add(param.name)
        elif param.kind == param.VAR_KEYWORD and param.name != "_ignored":
            return None
    names.discard("tree")
    return frozenset(names)


def _check_options(specs: Sequence[SolverSpec], options: Dict[str, Any]) -> None:
    """Raise :class:`UnknownOptionError` for an option no solver in ``specs`` takes.

    The one rule behind every entry point (:func:`solve`, :func:`solve_many`,
    :func:`compare`, the service's request parser): a batch may carry an
    option only some of its solvers take, but an option none of them takes
    is a typo or a removed feature, never silently dropped.
    """
    unknown = set(options)
    accepted: set = set()
    for spec in specs:
        declared = _declared_options(spec.func)
        if declared is None:
            return
        unknown -= declared
        accepted |= declared
    if unknown:
        names = ", ".join(repr(spec.name) for spec in specs)
        raise UnknownOptionError(
            f"solver {names} got unexpected option(s) {sorted(unknown)}; "
            f"accepted: {sorted(accepted)}"
        )


def _prepare_options(
    spec: SolverSpec,
    memory: Optional[float],
    options: Dict[str, Any],
) -> Dict[str, Any]:
    """Resolve the options actually handed to ``spec.func``.

    ``memory`` is a facade-level parameter: it is forwarded only to solvers
    that take one (``explore``, the ``minio`` family) and silently dropped
    otherwise.  Any other option the solver does not declare is dropped:
    the entry points already refused an option no requested solver takes
    (:func:`_check_options`), and a batch shares one option set across
    algorithms with different signatures.
    """
    declared = _declared_options(spec.func)
    opts = dict(options)
    if declared is not None:
        for key in set(opts) - declared:
            opts.pop(key)
        if memory is not None and "memory" in declared:
            opts["memory"] = memory
    elif memory is not None:
        opts["memory"] = memory
    return opts


def solve(
    tree: Tree,
    algorithm: str = "minmem",
    *,
    memory: Optional[float] = None,
    **options: Any,
) -> SolveReport:
    """Run one registered solver on ``tree`` and return its report.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree.  A flat :class:`~repro.core.kernel.TreeKernel` is
        accepted by every built-in solver and skips the per-solve
        conversion (``Tree`` inputs cache their kernel transparently).
    algorithm : str
        Registry name or alias (see :func:`repro.solvers.list_solvers`).
    memory : float, optional
        Main-memory budget, forwarded to solvers that take one (``explore``
        and the ``minio`` family); the in-core MinMemory solvers ignore it.
    options
        Solver-specific keyword options (e.g. ``rule=`` for ``postorder``,
        ``heuristic=`` for ``minio``).  Options the solver does not declare
        raise :class:`~repro.solvers.UnknownOptionError` (a
        :class:`TypeError`), so a typo cannot silently fall back to a
        default.

    Returns
    -------
    SolveReport
        Peak memory, witness traversal, I/O volume / schedule where
        applicable, wall time, and solver-specific ``extras``.

    Raises
    ------
    UnknownSolverError
        If ``algorithm`` does not resolve to a registered solver.
    UnknownOptionError
        If the solver does not take one of ``options``.

    Examples
    --------
    >>> from repro.core.builders import chain_tree
    >>> solve(chain_tree(4, f=1.0, n=1.0), "minmem").peak_memory
    3.0
    """
    _check_options((get_solver(algorithm),), options)
    return _dispatch(tree, algorithm, memory, options)


def _dispatch(
    tree: Tree,
    algorithm: str,
    memory: Optional[float],
    options: Dict[str, Any],
) -> SolveReport:
    fault = options.get("_fault")
    if fault is not None:
        # chaos injection (repro.faults): the reserved _fault key carries a
        # worker-side fault into this dispatch.  It must trip *before* the
        # wall-time stamp so injected straggler sleeps never pollute the
        # timing columns of a chaos campaign.
        options = {k: v for k, v in options.items() if k != "_fault"}
        from ..faults.plan import trip

        trip(fault)
    spec = get_solver(algorithm)
    opts = _prepare_options(spec, memory, options)
    start = perf_counter()
    report = spec.func(tree, **opts)
    elapsed = perf_counter() - start
    # the report carries the *registry* name the caller asked for (aliases
    # canonicalised), so batch keys and Comparison lookups always match;
    # variant details (the rule, the eviction heuristic) live in extras
    return replace(report, algorithm=spec.name, wall_time=elapsed)


def _normalize_algorithms(algorithms: AlgorithmArg) -> Tuple[str, ...]:
    if isinstance(algorithms, str):
        algorithms = (algorithms,)
    canonical = tuple(get_solver(name).name for name in algorithms)
    if not canonical:
        raise ValueError("solve_many needs at least one algorithm")
    if len(set(canonical)) != len(canonical):
        raise ValueError(f"duplicate algorithms after canonicalisation: {canonical}")
    return canonical


def _solve_task(payload: Tuple[Tree, str, Optional[float], Dict[str, Any]]) -> SolveReport:
    """Module-level worker so the process pool can pickle it."""
    tree, algorithm, memory, options = payload
    return _dispatch(tree, algorithm, memory, options)


def solve_many(
    trees: Iterable[Tree],
    algorithms: AlgorithmArg = ("minmem",),
    *,
    memory: Optional[float] = None,
    workers: Optional[int] = None,
    **options: Any,
) -> List[Dict[str, SolveReport]]:
    """Solve every tree with every algorithm, optionally in parallel.

    Parameters
    ----------
    trees : iterable of Tree or TreeKernel
        The task trees (any iterable; it is materialised once).  Passing
        :class:`~repro.core.kernel.TreeKernel` objects ships the compact
        flat form to worker processes, which then skip per-tree
        reconstruction; pickled ``Tree`` objects carry their cached kernel
        for the same reason.
    algorithms : str or sequence of str
        One name or a sequence of names/aliases.
    memory : float, optional
        Forwarded to every :func:`solve` call (budgeted solvers only).
    workers : int, optional
        ``None``, ``0`` or ``1`` run serially in-process.  Larger values run
        on the process-wide :class:`~repro.solvers.engine.SolveEngine`:
        worker processes stay alive across calls and every tree's kernel is
        shipped to them exactly once through the shared arena.  If the
        platform cannot spawn subprocesses the batch degrades to the serial
        path with a :class:`RuntimeWarning` (emitted once per engine for the
        missing platform, per batch for pool crashes and unpicklable
        options; the results are identical either way, only slower).
    options
        Forwarded to every solver that declares them and dropped for the
        others, so one option set can serve a mixed batch.  An option none
        of the algorithms declares raises
        :class:`~repro.solvers.UnknownOptionError` (a :class:`TypeError`).

    Returns
    -------
    list of dict
        One dictionary per input tree (in input order) mapping the
        canonical algorithm name to its :class:`SolveReport`.
    """
    tree_list = list(trees)
    names = _normalize_algorithms(algorithms)
    _check_options([get_solver(name) for name in names], options)
    # one shared options dict: solvers never mutate it (_prepare_options
    # copies), and the pickle memo then ships it once per executor chunk
    shared_options = dict(options)
    payloads = [
        (tree, name, memory, shared_options) for tree in tree_list for name in names
    ]

    flat: Optional[List[SolveReport]] = None
    if workers is not None and workers > 1 and len(payloads) > 1:
        from .engine import get_engine

        flat = get_engine().run_batch(payloads, workers)
    if flat is None:
        flat = [_solve_task(payload) for payload in payloads]

    out: List[Dict[str, SolveReport]] = []
    for i in range(len(tree_list)):
        chunk = flat[i * len(names) : (i + 1) * len(names)]
        out.append({name: report for name, report in zip(names, chunk)})
    return out


@dataclass(frozen=True)
class Comparison:
    """Ranked side-by-side reports of several algorithms on one tree.

    ``reports`` is sorted best-first: by peak memory, then I/O volume; ties
    keep the order in which the algorithms were requested.
    """

    reports: Tuple[SolveReport, ...]

    @property
    def best(self) -> SolveReport:
        """The winning report (lowest peak memory)."""
        return self.reports[0]

    @property
    def algorithms(self) -> Tuple[str, ...]:
        """Algorithm names in ranked order."""
        return tuple(report.algorithm for report in self.reports)

    def __iter__(self):
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    def __getitem__(self, algorithm: str) -> SolveReport:
        for report in self.reports:
            if report.algorithm == algorithm:
                return report
        raise KeyError(algorithm)

    def ratios(self) -> Dict[str, float]:
        """Peak-memory ratio of every algorithm to the best one."""
        best = self.best.peak_memory
        return {
            report.algorithm: (report.peak_memory / best if best else 1.0)
            for report in self.reports
        }

    def format_table(self) -> str:
        """Plain-text ranking table (used by the CLI)."""
        lines = [f"{'algorithm':<26} {'peak memory':>14} {'ratio':>8} {'IO':>10} {'time':>10}"]
        ratios = self.ratios()
        for report in self.reports:
            lines.append(
                f"{report.algorithm:<26} {report.peak_memory:>14.6g} "
                f"{ratios[report.algorithm]:>8.4f} {report.io_volume:>10.6g} "
                f"{report.wall_time * 1e3:>8.2f}ms"
            )
        return "\n".join(lines)


def compare(
    tree: Tree,
    algorithms: AlgorithmArg = DEFAULT_COMPARE_ALGORITHMS,
    *,
    memory: Optional[float] = None,
    workers: Optional[int] = None,
    **options: Any,
) -> Comparison:
    """Run several algorithms on one tree and rank the reports.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree (or its flat kernel form).
    algorithms : str or sequence of str
        Registry names or aliases; defaults to the paper's three MinMemory
        solvers (``postorder``, ``liu``, ``minmem``).
    memory : float, optional
        Budget forwarded to budgeted solvers (``explore``, ``minio``).
    workers : int, optional
        Worker processes, as in :func:`solve_many`.
    options
        Extra solver options, as in :func:`solve_many`: dropped for the
        solvers that do not declare them, refused when none does.

    Returns
    -------
    Comparison
        Reports sorted best-first by (peak memory, I/O volume); ties keep
        the requested algorithm order.

    Examples
    --------
    >>> from repro.core.builders import chain_tree
    >>> ranking = compare(chain_tree(4, f=1.0, n=1.0))
    >>> ranking.best.peak_memory
    3.0
    """
    (reports_by_name,) = solve_many(
        [tree], algorithms, memory=memory, workers=workers, **options
    )
    # stable sort: ties on (peak, IO) keep the caller's algorithm order, so
    # the ranking is deterministic (wall time is not a tie-breaker)
    ranked = sorted(
        reports_by_name.values(),
        key=lambda r: (r.peak_memory, r.io_volume),
    )
    return Comparison(reports=tuple(ranked))
