"""Adapters registering the paper's algorithm families as solvers.

Importing this module populates the registry with:

========================  ==========  ===============================================
name                      family      underlying implementation
========================  ==========  ===============================================
``postorder``             postorder   :func:`repro.core.postorder.best_postorder`
``postorder_natural``     postorder   ``postorder_with_rule(rule="natural")``
``postorder_subtree_memory`` postorder ``postorder_with_rule(rule="subtree_memory")``
``liu``                   exact       :func:`repro.core.liu.liu_optimal_traversal`
``minmem``                exact       :func:`repro.core.minmem.min_mem`
``explore``               explore     :class:`repro.core.kernel.KernelExploreSolver`
``minio``                 minio       :func:`repro.core.minio.run_out_of_core`
``minio_<heuristic>``     minio       same, with the eviction policy pinned
========================  ==========  ===============================================

The legacy spellings ``"PostOrder"``, ``"Liu"`` and ``"MinMem"`` used by the
experiment drivers and the CLI are registered as aliases.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.kernel import (
    KernelExploreSolver,
    TreeKernel,
    kernel_liu,
    kernel_postorder,
    kernel_replay_traversal,
)
from ..core.minio import HEURISTICS, run_out_of_core
from ..core.minmem import min_mem
from ..core.postorder import POSTORDER_RULES
from ..core.traversal import BOTTOMUP, TOPDOWN, Traversal, TraversalError
from ..core.tree import Tree
from .registry import register_solver
from .report import SolveReport

__all__ = ["DEFAULT_ALGORITHM", "MINMEMORY_SOLVERS"]

#: the facade's default algorithm: exact and fast on assembly trees
DEFAULT_ALGORITHM = "minmem"

#: canonical names of the three MinMemory solvers compared throughout the paper
MINMEMORY_SOLVERS = ("postorder", "liu", "minmem")


def _as_kernel(tree) -> TreeKernel:
    """The flat form of ``tree`` (cached on :class:`Tree` instances)."""
    return tree if isinstance(tree, TreeKernel) else tree.kernel()


# ----------------------------------------------------------------------
# MinMemory family: PostOrder and its child-ordering rules
# ----------------------------------------------------------------------
def _postorder_report(tree: Tree, rule: str) -> SolveReport:
    if rule not in POSTORDER_RULES:
        raise ValueError(
            f"unknown postorder rule {rule!r}; expected one of {POSTORDER_RULES}"
        )
    # the report only needs the peak and the order, so skip the per-node
    # subtree_peak / child_order dicts of PostOrderResult
    kern = _as_kernel(tree)
    memory, order_idx, _, _ = kernel_postorder(kern, rule)
    return SolveReport(
        algorithm="postorder" if rule == "liu" else f"postorder_{rule}",
        peak_memory=memory,
        traversal=Traversal(kern.order_to_ids(order_idx), BOTTOMUP),
        extras={"rule": rule},
    )


@register_solver(
    "postorder",
    family="postorder",
    summary="best postorder traversal (Liu's child-ordering rule)",
    aliases=("PostOrder", "best_postorder"),
)
def _solve_postorder(tree: Tree, *, rule: str = "liu", **_ignored) -> SolveReport:
    """Memory-optimal postorder traversal; ``rule`` selects the child order."""
    return _postorder_report(tree, rule)


@register_solver(
    "postorder_natural",
    family="postorder",
    summary="postorder with children in insertion order (naive baseline)",
)
def _solve_postorder_natural(tree: Tree, **_ignored) -> SolveReport:
    return _postorder_report(tree, "natural")


@register_solver(
    "postorder_subtree_memory",
    family="postorder",
    summary="postorder with children by increasing subtree peak (folklore rule)",
)
def _solve_postorder_subtree(tree: Tree, **_ignored) -> SolveReport:
    return _postorder_report(tree, "subtree_memory")


# ----------------------------------------------------------------------
# exact MinMemory family: Liu and MinMem
# ----------------------------------------------------------------------
@register_solver(
    "liu",
    family="exact",
    summary="Liu's exact hill--valley algorithm (optimal over all traversals)",
    aliases=("Liu",),
)
def _solve_liu(tree: Tree, **_ignored) -> SolveReport:
    # skip the subtree_peak dict and the Segment objects of LiuResult; the
    # report only records the peak, order and segment count
    kern = _as_kernel(tree)
    memory, order_idx, _, root_segments = kernel_liu(kern)
    return SolveReport(
        algorithm="liu",
        peak_memory=memory,
        traversal=Traversal(kern.order_to_ids(order_idx), BOTTOMUP),
        extras={"segments": len(root_segments)},
    )


@register_solver(
    "minmem",
    family="exact",
    summary="the paper's MinMem algorithm (optimal, explore-based)",
    aliases=("MinMem",),
)
def _solve_minmem(tree: Tree, **_ignored) -> SolveReport:
    result = min_mem(tree)
    return SolveReport(
        algorithm="minmem",
        peak_memory=result.memory,
        traversal=result.traversal,
        extras={
            "iterations": result.iterations,
            "explore_calls": result.explore_calls,
        },
    )


# ----------------------------------------------------------------------
# Explore: bounded-memory partial exploration (Algorithm 3)
# ----------------------------------------------------------------------
@register_solver(
    "explore",
    family="explore",
    summary="single Explore sweep with a fixed memory budget (Algorithm 3)",
)
def _solve_explore(
    tree: Tree,
    *,
    memory: Optional[float] = None,
    **_ignored,
) -> SolveReport:
    """Partial traversal reachable with ``memory`` (default ``max MemReq``)."""
    kern = _as_kernel(tree)
    if memory is None:
        memory = kern.max_mem_req()
    solver = KernelExploreSolver(kern)
    resident, cut, order_idx, peak, required = solver.explore(memory)
    order = kern.order_to_ids(order_idx)
    return SolveReport(
        algorithm="explore",
        peak_memory=required,
        traversal=Traversal(order, TOPDOWN),
        extras={
            "memory_limit": memory,
            "completed": len(order) == kern.size,
            # "inf" when the root cannot run: strict JSON has no Infinity
            "resident": "inf" if math.isinf(resident) else resident,
            "cut": [kern.ids[j] for j in cut],
            # memory unlocking the next node; "inf" when fully processed
            "next_peak": "inf" if math.isinf(peak) else peak,
        },
    )


# ----------------------------------------------------------------------
# MinIO family: out-of-core scheduling with the six eviction heuristics
# ----------------------------------------------------------------------
def _minio_report(
    tree: Tree,
    heuristic: str,
    memory: Optional[float],
    traversal: Optional[Traversal],
    traversal_algorithm: str,
    in_core_peak: Optional[float],
) -> SolveReport:
    # local import: the facade imports this module at package init time
    from .facade import _dispatch

    if traversal is None:
        base = _dispatch(tree, traversal_algorithm, None, {})
        traversal, in_core_peak = base.traversal, base.peak_memory
        traversal_algorithm = base.algorithm
    else:
        if in_core_peak is None:
            # callers sweeping many memory values over one traversal should
            # pass in_core_peak to skip this O(p) replay
            kern = _as_kernel(tree)
            try:
                in_core_peak, _, _ = kernel_replay_traversal(
                    kern,
                    kern.order_to_indices(traversal.order),
                    topdown=traversal.convention == TOPDOWN,
                )
            except KeyError:
                raise TraversalError(
                    "order is not a permutation of the tree nodes"
                ) from None
            except ValueError as exc:
                raise TraversalError(str(exc)) from None
        traversal_algorithm = "given"
    if memory is None:
        # the CLI's historical default: halfway between the bound below which
        # no execution exists and the in-core peak of the traversal
        memory = (tree.max_mem_req() + in_core_peak) / 2.0
    result = run_out_of_core(tree, memory, traversal, heuristic)
    return SolveReport(
        algorithm=f"minio_{heuristic}",
        peak_memory=result.peak_resident,
        traversal=result.schedule.traversal,
        io_volume=result.io_volume,
        schedule=result.schedule,
        extras={
            "heuristic": heuristic,
            "memory_limit": memory,
            "io_operations": result.io_operations,
            "traversal_algorithm": traversal_algorithm,
            "in_core_peak": in_core_peak,
        },
    )


@register_solver(
    "minio",
    family="minio",
    summary="out-of-core schedule under a memory bound (pick --heuristic)",
    aliases=("out_of_core",),
)
def _solve_minio(
    tree: Tree,
    *,
    memory: Optional[float] = None,
    heuristic: str = "first_fit",
    traversal: Optional[Traversal] = None,
    traversal_algorithm: str = DEFAULT_ALGORITHM,
    in_core_peak: Optional[float] = None,
    **_ignored,
) -> SolveReport:
    """Replay a traversal out-of-core; evicts files with ``heuristic``."""
    return _minio_report(
        tree, heuristic, memory, traversal, traversal_algorithm, in_core_peak
    )


def _register_minio_variant(heuristic: str) -> None:
    @register_solver(
        f"minio_{heuristic}",
        family="minio",
        summary=f"out-of-core schedule with the {heuristic!r} eviction policy",
    )
    def _variant(
        tree: Tree,
        *,
        memory: Optional[float] = None,
        traversal: Optional[Traversal] = None,
        traversal_algorithm: str = DEFAULT_ALGORITHM,
        in_core_peak: Optional[float] = None,
        **_ignored,
    ) -> SolveReport:
        return _minio_report(
            tree, heuristic, memory, traversal, traversal_algorithm, in_core_peak
        )


for _heuristic in HEURISTICS:
    _register_minio_variant(_heuristic)

assert set(POSTORDER_RULES) == {"liu", "subtree_memory", "natural"}, (
    "postorder adapters must cover every registered child-ordering rule"
)
