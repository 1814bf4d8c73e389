"""``solve`` over the per-node oracles, for every registered solver name.

Each branch builds the :class:`~repro.solvers.SolveReport` the matching
adapter of :mod:`repro.solvers.adapters` (or the ``auto`` portfolio) builds,
from the reference implementations of :mod:`_oracles.core` and
:mod:`_oracles.explore` instead of the kernel.  Tests compare the two
reports field by field.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Optional

from repro.core.traversal import TOPDOWN, Traversal, peak_memory
from repro.core.tree import Tree
from repro.solvers.registry import get_solver
from repro.solvers.report import SolveReport

from .core import (
    flatten_nodes,
    liu_optimal_traversal,
    min_mem,
    postorder_with_rule,
    run_out_of_core,
)
from .explore import ExploreSolver

__all__ = ["solve"]

#: registry name -> pinned child-ordering rule (None: the ``rule`` option)
_POSTORDER_RULES = {
    "postorder": None,
    "postorder_natural": "natural",
    "postorder_subtree_memory": "subtree_memory",
}


def solve(
    tree: Tree, algorithm: str, *, memory: Optional[float] = None, **options: Any
) -> SolveReport:
    """The report of ``algorithm`` on ``tree``, computed by the oracles."""
    name = get_solver(algorithm).name
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    if name in _POSTORDER_RULES:
        rule = _POSTORDER_RULES[name] or options.get("rule", "liu")
        result = postorder_with_rule(tree, rule)
        report = SolveReport(
            algorithm=name,
            peak_memory=result.memory,
            traversal=result.traversal,
            extras={"rule": rule},
        )
    elif name == "liu":
        result = liu_optimal_traversal(tree)
        report = SolveReport(
            algorithm=name,
            peak_memory=result.memory,
            traversal=result.traversal,
            extras={"segments": len(result.segments)},
        )
    elif name == "minmem":
        result = min_mem(tree)
        report = SolveReport(
            algorithm=name,
            peak_memory=result.memory,
            traversal=result.traversal,
            extras={
                "iterations": result.iterations,
                "explore_calls": result.explore_calls,
            },
        )
    elif name == "explore":
        report = _explore(tree, memory)
    elif name == "auto":
        report = _auto(tree)
    else:
        heuristic = options.get("heuristic", "first_fit")
        if name != "minio":
            heuristic = name[len("minio_"):]
        report = _minio(
            tree,
            heuristic,
            memory,
            options.get("traversal"),
            options.get("traversal_algorithm", "minmem"),
            options.get("in_core_peak"),
        )
    return replace(report, algorithm=name)


def _explore(tree: Tree, memory: Optional[float]) -> SolveReport:
    if memory is None:
        memory = tree.max_mem_req()
    solver = ExploreSolver(tree)
    result = solver.explore(tree.root, memory)
    order = tuple(flatten_nodes(result.traversal_chunks))
    return SolveReport(
        algorithm="explore",
        peak_memory=result.required,
        traversal=Traversal(order, TOPDOWN),
        extras={
            "memory_limit": memory,
            "completed": len(order) == tree.size,
            "resident": "inf" if math.isinf(result.resident) else result.resident,
            "cut": list(result.cut),
            "next_peak": "inf" if math.isinf(result.peak) else result.peak,
        },
    )


def _minio(
    tree: Tree,
    heuristic: str,
    memory: Optional[float],
    traversal: Optional[Traversal],
    traversal_algorithm: str,
    in_core_peak: Optional[float],
) -> SolveReport:
    if traversal is None:
        base = solve(tree, traversal_algorithm)
        traversal, in_core_peak = base.traversal, base.peak_memory
        traversal_algorithm = base.algorithm
    else:
        if in_core_peak is None:
            in_core_peak = peak_memory(tree, traversal)
        traversal_algorithm = "given"
    if memory is None:
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


def _auto(tree: Tree) -> SolveReport:
    inner = solve(tree, "minmem")
    info = {"algorithm": "minmem", "mode": "route"}
    return replace(inner, extras={**inner.extras, "portfolio": info})
