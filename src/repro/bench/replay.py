"""Schedule replay: an independent execution oracle for solver outputs.

Every solver of the registry returns a :class:`~repro.solvers.SolveReport`
whose headline numbers (peak memory, I/O volume) are computed *inside* the
algorithm.  This module re-executes the reported schedule step by step with
its own memory accounting and recomputes those numbers from scratch, so a
bug in a solver's bookkeeping cannot silently propagate into benchmark
artifacts or papers built on them.

* :func:`replay_traversal` replays an in-core traversal (full, or a
  top-down prefix for partial ``explore`` runs) and returns its peak memory;
* :func:`replay_schedule` replays an out-of-core schedule (traversal plus
  eviction steps), recomputing the peak *resident* memory and the I/O
  volume while enforcing every constraint of the paper's Algorithm 2;
* :func:`replay_report` dispatches on the report shape and *validates* the
  replayed metrics against the ones the solver claimed, raising
  :class:`ReplayMismatch` on any disagreement.

The replay shares no *accounting logic* with :mod:`repro.core.traversal` or
the MinIO scheduler -- it re-executes every schedule with its own
bookkeeping (:func:`~repro.core.kernel.kernel_replay_traversal` and
:func:`~repro.core.kernel.kernel_replay_schedule` on the flat index arrays),
which is what makes it usable as a cross-solver test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

from ..core.kernel import kernel_replay_schedule, kernel_replay_traversal
from ..core.traversal import BOTTOMUP, TOPDOWN, OutOfCoreSchedule, Traversal
from ..core.tree import Tree
from ..solvers.report import SolveReport

__all__ = [
    "ReplayError",
    "ReplayMismatch",
    "ReplayResult",
    "replay_traversal",
    "replay_schedule",
    "replay_report",
]

NodeId = Hashable

#: relative tolerance for float metric comparisons; solver metrics are sums
#: of user-scale weights, so honest recomputations agree far below this
_REL_TOL = 1e-9
_ABS_TOL = 1e-9


class ReplayError(ValueError):
    """Raised when a schedule cannot be executed (infeasible or malformed)."""


class ReplayMismatch(ReplayError):
    """Raised when a replay disagrees with the metrics a solver reported."""


@dataclass(frozen=True)
class ReplayResult:
    """Metrics recomputed by replaying a schedule.

    Attributes
    ----------
    peak_memory:
        Largest memory simultaneously in use over the whole execution.  For
        out-of-core schedules this is the peak *resident* size.
    io_volume:
        Total volume written to secondary memory (``0.0`` in-core).
    steps:
        Number of nodes executed (smaller than the tree for partial runs).
    evictions:
        Number of files written to secondary memory.
    complete:
        True when every node of the tree was executed.
    """

    peak_memory: float
    io_volume: float = 0.0
    steps: int = 0
    evictions: int = 0
    complete: bool = True


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


# ----------------------------------------------------------------------
# in-core replay
# ----------------------------------------------------------------------
def replay_traversal(
    tree: Tree,
    traversal: Traversal,
    *,
    partial: bool = False,
) -> ReplayResult:
    """Re-execute an in-core traversal and recompute its peak memory.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree (a flat :class:`~repro.core.kernel.TreeKernel` is
        accepted directly).
    traversal : Traversal
        The node order, in either convention.  Unless ``partial`` is set the
        order must be a permutation of the tree nodes.
    partial : bool
        Allow a strict prefix of a top-down execution (as produced by a
        budget-limited ``explore`` run).  Partial bottom-up replays are not
        defined and raise :class:`ReplayError`.

    Returns
    -------
    ReplayResult
        The recomputed peak memory, step count, and completeness flag.

    Raises
    ------
    ReplayError
        On duplicate or unknown nodes, precedence violations, or an
        incomplete order without ``partial``.
    """
    kern = tree.kernel() if isinstance(tree, Tree) else tree
    try:
        order_idx = kern.order_to_indices(traversal.order)
    except KeyError as exc:
        raise ReplayError(
            f"node {exc.args[0]!r} is not in the tree"
        ) from None
    try:
        peak, steps, complete = kernel_replay_traversal(
            kern,
            order_idx,
            topdown=traversal.convention == TOPDOWN,
            partial=partial,
        )
    except ValueError as exc:
        raise ReplayError(str(exc)) from None
    return ReplayResult(peak_memory=peak, steps=steps, complete=complete)


# ----------------------------------------------------------------------
# out-of-core replay
# ----------------------------------------------------------------------
def replay_schedule(
    tree: Tree,
    schedule: OutOfCoreSchedule,
    *,
    memory: Optional[float] = None,
) -> ReplayResult:
    """Re-execute an out-of-core schedule, recomputing peak and I/O volume.

    The replay enforces the constraints of the paper's Algorithm 2: a file
    may only be evicted after it has been produced and before its owner
    executes, never twice, and -- when ``memory`` is given -- the resident
    set plus the executing node must fit the bound at every step.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree (a flat :class:`~repro.core.kernel.TreeKernel` is
        accepted directly).
    schedule : OutOfCoreSchedule
        Node order plus eviction steps.  Bottom-up orders are reversed into
        the top-down convention first (the eviction steps must then refer to
        the reversed order, as everywhere else in the library).
    memory : float, optional
        Optional main-memory bound to validate against.  ``None`` replays
        without a bound and only recomputes the metrics.

    Returns
    -------
    ReplayResult
        The recomputed peak resident memory, I/O volume, and counters.

    Raises
    ------
    ReplayError
        On any violated constraint.
    """
    traversal = schedule.traversal
    if traversal.convention == BOTTOMUP:
        traversal = traversal.reversed()
    kern = tree.kernel() if isinstance(tree, Tree) else tree
    try:
        order_idx = kern.order_to_indices(traversal.order)
    except KeyError:
        raise ReplayError(
            "schedule order is not a permutation of the tree nodes"
        ) from None
    index = kern.index
    evictions_idx = {}
    for victim, step in schedule.evictions.items():
        j = index.get(victim)
        if j is None:
            raise ReplayError(f"eviction of unknown node {victim!r}")
        evictions_idx[j] = step
    try:
        peak, io_total, n_evictions = kernel_replay_schedule(
            kern,
            order_idx,
            evictions_idx,
            memory=memory,
            rel_tol=_REL_TOL,
            abs_tol=_ABS_TOL,
        )
    except ValueError as exc:
        raise ReplayError(str(exc)) from None
    return ReplayResult(
        peak_memory=peak,
        io_volume=io_total,
        steps=len(order_idx),
        evictions=n_evictions,
        complete=True,
    )


# ----------------------------------------------------------------------
# report validation
# ----------------------------------------------------------------------
def replay_report(tree: Tree, report: SolveReport) -> ReplayResult:
    """Replay a :class:`SolveReport` and validate its claimed metrics.

    Out-of-core reports are replayed through :func:`replay_schedule` under
    their ``extras["memory_limit"]`` bound (when recorded); in-core reports
    through :func:`replay_traversal`, allowing a partial prefix for
    ``explore`` runs that did not complete.  The recomputed peak memory must
    match ``report.peak_memory`` and the recomputed I/O volume must match
    ``report.io_volume``; any disagreement raises :class:`ReplayMismatch`.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree the report was computed on.
    report : SolveReport
        The solver output to validate.

    Returns
    -------
    ReplayResult
        The independently recomputed metrics.

    Raises
    ------
    ReplayMismatch
        When the replayed metrics disagree with the reported ones.
    ReplayError
        When the schedule itself is malformed or infeasible.
    """
    if report.schedule is not None:
        memory = report.extras.get("memory_limit")
        result = replay_schedule(
            tree,
            report.schedule,
            memory=float(memory) if memory is not None else None,
        )
        if not _close(result.io_volume, report.io_volume):
            raise ReplayMismatch(
                f"{report.algorithm}: replayed I/O volume {result.io_volume:.6g} "
                f"!= reported {report.io_volume:.6g}"
            )
    else:
        partial = not bool(report.extras.get("completed", True))
        result = replay_traversal(tree, report.traversal, partial=partial)
        if report.io_volume:
            raise ReplayMismatch(
                f"{report.algorithm}: in-core report claims nonzero I/O volume "
                f"{report.io_volume:.6g} without a schedule"
            )
    if not _close(result.peak_memory, report.peak_memory):
        raise ReplayMismatch(
            f"{report.algorithm}: replayed peak memory {result.peak_memory:.6g} "
            f"!= reported {report.peak_memory:.6g}"
        )
    return result
