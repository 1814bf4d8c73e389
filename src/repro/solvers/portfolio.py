"""The ``"auto"`` solver: MinMem, reported under the portfolio's name.

``auto`` always solves with MinMem, the paper's exact algorithm; the
paper's Figure 6 has it the fastest MinMemory algorithm on about 80% of the
assembly trees, a share this repository's own Figure 6 does not show (see
the ROADMAP).  The entry stays registered so that every surface
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
    summary="the paper's exact algorithm (MinMem)",
    aliases=("portfolio",),
)
def _solve_auto(tree: Tree, **_ignored: Any) -> SolveReport:
    report = get_solver("minmem").func(tree)
    # benchmarks/perf reads "mode" from every auto report
    portfolio = {"algorithm": "minmem", "mode": "route"}
    return replace(report, extras={**report.extras, "portfolio": portfolio})
