"""The ``"auto"`` solver: MinMem, reported under the portfolio's name.

MinMem is exact, and in the paper's Figure 6 it is the fastest of the
three MinMemory algorithms on about 80% of the assembly trees, so ``auto``
always solves with it.  The entry stays registered so that every surface
naming ``auto`` (solver lists, CLI choices, campaign cells, traffic
scenarios) keeps working; ``extras["portfolio"]`` records which algorithm
answered.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..core.tree import Tree
from .registry import get_solver, register_solver
from .report import SolveReport


@register_solver(
    "auto",
    family="portfolio",
    summary="the fastest exact algorithm (MinMem)",
    aliases=("portfolio",),
)
def _solve_auto(tree: Tree, **_ignored: Any) -> SolveReport:
    report = get_solver("minmem").func(tree)
    # benchmarks/perf reads "mode" from every auto report
    portfolio = {"algorithm": "minmem", "mode": "route"}
    return replace(report, extras={**report.extras, "portfolio": portfolio})
