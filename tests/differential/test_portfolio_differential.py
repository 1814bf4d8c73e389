"""Differential tests: the ``"auto"`` solver vs the best single solver.

``auto``'s contract is relative, so the oracle is exhaustive: run every
in-core algorithm on the same tree and demand
``auto.peak <= TOLERANCE * min(single peaks)``.  The bench families are
replayed instance by instance, and a hypothesis layer checks the bound on
drawn trees too.
"""

from __future__ import annotations

from hypothesis import given, settings

from _diff_strategies import task_trees
from repro.bench.scenario import get_scenario
from repro.bench.scenarios import IN_CORE_ALGORITHMS
from repro.solvers import solve

#: acceptance bound: auto's peak vs the best single in-core algorithm
TOLERANCE = 1.05

#: the cheap bench families; ``large`` and ``sparse_pipeline`` are covered
#: by the committed campaign artifact
FAMILIES = ("synthetic", "random", "harpoon", "assembly", "etree")


def best_single_peak(kern) -> float:
    return min(solve(kern, name).peak_memory for name in IN_CORE_ALGORITHMS)


def test_auto_within_tolerance_on_bench_families():
    checked = 0
    for scenario_name in FAMILIES:
        for instance, tree in get_scenario(scenario_name).builder(0):
            kern = tree.kernel()
            auto = solve(kern, "auto")
            best = best_single_peak(kern)
            assert auto.peak_memory <= TOLERANCE * best, (
                f"{scenario_name}/{instance}: auto={auto.peak_memory} best={best}"
            )
            checked += 1
    assert checked >= 25  # the families must actually enumerate instances


@given(tree=task_trees(max_nodes=32))
@settings(max_examples=60)
def test_auto_within_tolerance_off_distribution(tree):
    kern = tree.kernel()
    auto = solve(kern, "auto")
    assert auto.peak_memory <= TOLERANCE * best_single_peak(kern)
