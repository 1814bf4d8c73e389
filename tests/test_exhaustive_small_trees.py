"""Exhaustive gate: every tree of up to 7 nodes, kernels against oracles.

Every parent array with ``parent[i] < i`` and at most 7 entries -- 874
arrays, which covers every tree shape in every child order -- is weighted
twice from a seeded stream of small integers (so every sum is exact in
floating point and equality can be exact).  On each of the 1,748 trees:

* every registered solver's report equals the report its per-node oracle
  (``_oracles.solve``) builds, with ``explore`` and the MinIO family run at
  one budget halfway between ``max MemReq`` and the optimum;
* one :class:`KernelExploreSolver` driven through the budgets floor, mid,
  floor, optimum returns what the per-node ``ExploreSolver`` driven the
  same way returns at every step: the third call cannot resume the root's
  state and restarts it, the fourth resumes what the restart reached;
* the paper's exactness results hold: the Liu peak equals the MinMem peak
  equals the exhaustive optimum of :func:`optimal_min_memory`, and the best
  postorder peak equals the exhaustive :func:`optimal_postorder_memory`.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Tuple

import pytest

import _oracles
from _oracles import flatten_nodes
from _oracles.bruteforce import optimal_min_memory, optimal_postorder_memory
from _oracles.explore import ExploreSolver
from repro.core.kernel import KernelExploreSolver
from repro.core.tree import Tree
from repro.solvers import solve, solver_table

MAX_NODES = 7

#: seeds of the two weightings applied to every parent array
WEIGHT_SEEDS = (11, 29)


def _parent_arrays() -> List[Tuple[int, ...]]:
    arrays = []
    for p in range(1, MAX_NODES + 1):
        for tail in itertools.product(*(range(i) for i in range(1, p))):
            arrays.append((-1, *tail))
    return arrays


@pytest.fixture(scope="module")
def small_trees() -> List[Tuple[str, Tree]]:
    trees = []
    for parents in _parent_arrays():
        for seed in WEIGHT_SEEDS:
            rng = random.Random(f"{seed}:{parents}")
            f = [rng.randint(0, 9) for _ in parents]
            n = [rng.randint(0, 9) for _ in parents]
            label = f"parents={list(parents)} f={f} n={n}"
            trees.append((label, Tree.from_parents(list(parents), f=f, n=n)))
    return trees


def test_every_solver_matches_its_oracle(small_trees):
    # (p-1)! arrays of p nodes: 0! + 1! + ... + 6! = 874, weighted twice
    assert len(small_trees) == 874 * len(WEIGHT_SEEDS)
    # the library's solvers (other tests register throwaway ones)
    algorithms = [
        spec.name
        for spec in solver_table()
        if spec.func.__module__.startswith("repro.")
    ]
    for label, tree in small_trees:
        optimum = solve(tree, "minmem").peak_memory
        budget = (tree.max_mem_req() + optimum) / 2.0
        for algorithm in algorithms:
            kernel = solve(tree, algorithm, memory=budget)
            oracle = _oracles.solve(tree, algorithm, memory=budget)
            assert kernel == oracle, f"{algorithm} on {label}"


def test_explore_resumes_and_restarts_like_its_oracle(small_trees):
    restarts = 0
    for label, tree in small_trees:
        floor = tree.max_mem_req()
        optimum = solve(tree, "minmem").peak_memory
        kern = tree.kernel()
        kernel = KernelExploreSolver(kern)
        oracle = ExploreSolver(tree)
        required_before = 0.0
        for step, memory in enumerate((floor, (floor + optimum) / 2.0, floor, optimum)):
            resident, cut, order, peak, required = kernel.explore(memory)
            expected = oracle.explore(tree.root, memory)
            got = (
                resident,
                tuple(kern.ids[j] for j in cut),
                tuple(kern.ids[j] for j in order),
                peak,
                required,
                kernel.explore_calls,
            )
            want = (
                expected.resident,
                expected.cut,
                tuple(flatten_nodes(expected.traversal_chunks)),
                expected.peak,
                expected.required,
                oracle.explore_calls,
            )
            assert got == want, f"step {step} (memory {memory}) on {label}"
            if step == 2 and required_before > memory:
                restarts += 1
            required_before = required
    # 198 of the trees have optimum > floor; on 9 of them the mid-budget
    # traversal needs more than the floor, so the third call restarts the root
    assert restarts == 9


def test_exact_solvers_match_bruteforce(small_trees):
    for label, tree in small_trees:
        optimum = optimal_min_memory(tree)
        assert solve(tree, "liu").peak_memory == optimum, label
        assert solve(tree, "minmem").peak_memory == optimum, label


def test_best_postorder_matches_bruteforce(small_trees):
    for label, tree in small_trees:
        assert solve(tree, "postorder").peak_memory == optimal_postorder_memory(
            tree
        ), label
