"""Differential tests: the in-core kernels vs their per-node oracles.

:func:`~repro.core.kernel.kernel_postorder`, :func:`~repro.core.kernel.kernel_liu`
and :func:`~repro.core.kernel.kernel_min_mem` keep their per-node state in
flat lists; the oracles in ``_oracles`` keep one container per node.  On
drawn trees -- random attachment trees, and chains, stars, caterpillars and
brooms of up to about 2,000 nodes -- both sides must agree exactly: peak,
traversal, every subtree peak, PostOrder's child order of every node, and
Liu's root segments (hill, valley and the flattened nodes).  The stateful
:class:`~repro.core.kernel.KernelExploreSolver` must agree with the oracle's
``ExploreSolver`` call by call over drawn budget sequences, on those shapes
and on harpoons.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _diff_strategies import task_trees
from repro.core.kernel import (
    KernelExploreSolver,
    kernel_liu,
    kernel_min_mem,
    kernel_postorder,
    kernel_replay_traversal,
)
from repro.core.postorder import POSTORDER_RULES
from repro.core.tree import Tree
from repro.generators.harpoon import iterated_harpoon_tree

#: the largest drawn chain, star or caterpillar
MAX_SHAPE_NODES = 2_000


@st.composite
def shaped_trees(draw, max_size: int = MAX_SHAPE_NODES) -> Tree:
    """A chain, a star, a caterpillar or a broom with exact integer weights."""
    kind = draw(st.sampled_from(("chain", "star", "caterpillar", "broom")))
    size = draw(st.integers(min_value=1, max_value=max_size))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "chain":
        parents = [i - 1 for i in range(size)]
    elif kind == "star":
        parents = [-1] + [0] * (size - 1)
    elif kind == "caterpillar":
        # a spine of spine_len nodes, each later node hung off a random
        # spine node
        spine_len = rng.randint(1, size)
        parents = [i - 1 for i in range(spine_len)]
        parents += [rng.randrange(spine_len) for _ in range(spine_len, size)]
    else:
        # a handle of handle_len nodes above a random subtree rooted at its
        # last node: Liu's one-child re-cut meets children with several
        # segments
        handle_len = rng.randint(1, size)
        parents = [i - 1 for i in range(handle_len)]
        parents += [rng.randrange(handle_len - 1, i) for i in range(handle_len, size)]
    f = [float(rng.randint(0, 12)) for _ in range(size)]
    n = [float(rng.randint(0, 6)) for _ in range(size)]
    return Tree.from_parents(parents, f=f, n=n)


any_trees = st.one_of(task_trees(), shaped_trees())


def _check_postorder(tree: Tree) -> None:
    kern = tree.kernel()
    ptr = kern.child_ptr
    for rule in POSTORDER_RULES:
        memory, order, peaks, kids = kernel_postorder(kern, rule)
        reference = _oracles.postorder_with_rule(tree, rule=rule)
        assert memory == reference.memory
        assert kern.order_to_ids(order) == reference.traversal.order
        for i, node in enumerate(kern.ids):
            assert peaks[i] == reference.subtree_peak[node]
            assert (
                kern.order_to_ids(kids[ptr[i] : ptr[i + 1]])
                == reference.child_order[node]
            ), (rule, node)


def _check_liu(tree: Tree) -> None:
    kern = tree.kernel()
    memory, order, peaks, segments = kernel_liu(kern)
    reference = _oracles.liu_optimal_traversal(tree)
    assert memory == reference.memory
    assert kern.order_to_ids(order) == reference.traversal.order
    for i, node in enumerate(kern.ids):
        assert peaks[i] == reference.subtree_peak[node]
    assert [
        (hill, valley, kern.order_to_ids(nodes)) for hill, valley, nodes in segments
    ] == [
        (seg.hill, seg.valley, tuple(_oracles.flatten_nodes(seg.nodes)))
        for seg in reference.segments
    ]


def _check_min_mem(tree: Tree) -> None:
    kern = tree.kernel()
    memory, order, iterations, explore_calls = kernel_min_mem(kern)
    reference = _oracles.min_mem(tree)
    assert memory == reference.memory
    assert kern.order_to_ids(order) == reference.traversal.order
    assert (iterations, explore_calls) == (
        reference.iterations,
        reference.explore_calls,
    )


@given(tree=any_trees)
@settings(max_examples=60)
def test_postorder_kernel_matches_the_oracle(tree):
    _check_postorder(tree)


@given(tree=any_trees)
@settings(max_examples=60)
def test_liu_kernel_matches_the_oracle(tree):
    _check_liu(tree)


@given(tree=any_trees)
@settings(max_examples=40)
def test_min_mem_kernel_matches_the_oracle(tree):
    _check_min_mem(tree)


def test_largest_shapes_match_the_oracles():
    # the strategy may never draw its upper size: pin each shape at it once
    size = MAX_SHAPE_NODES
    half = size // 2
    trees = [
        Tree.from_parents([i - 1 for i in range(size)], f=[2.0] * size, n=[1.0] * size),
        Tree.from_parents(
            [-1] + [0] * (size - 1),
            f=[float(i % 7) for i in range(size)],
            n=[float(i % 3) for i in range(size)],
        ),
        Tree.from_parents(
            [i - 1 for i in range(half)] + [i % half for i in range(size - half)],
            f=[float((5 * i) % 11) for i in range(size)],
            n=[float(i % 4) for i in range(size)],
        ),
    ]
    for tree in trees:
        _check_postorder(tree)
        _check_liu(tree)
        _check_min_mem(tree)


def test_tuple_node_ids_stay_whole():
    # node ids that are tuples: the oracles flatten only their own chunks,
    # which are lists, so every id stays whole on both sides
    tree = Tree.from_parents(
        [-1, 0, 0],
        f=[1.0, 2.0, 3.0],
        n=[1.0, 4.0, 2.0],
        ids=[("r", 0), ("a", 1), ("b", 2)],
    )
    _check_postorder(tree)
    _check_liu(tree)
    _check_min_mem(tree)


@st.composite
def harpoons(draw) -> Tree:
    """An iterated harpoon with exact integer weights."""
    branches = draw(st.integers(min_value=1, max_value=4))
    memory = float(branches * draw(st.integers(min_value=1, max_value=6)))
    return iterated_harpoon_tree(
        branches,
        levels=draw(st.integers(min_value=1, max_value=3)),
        memory=memory,
        epsilon=float(draw(st.integers(min_value=0, max_value=3))),
    )


@given(tree=st.one_of(shaped_trees(max_size=400), harpoons()), data=st.data())
@settings(max_examples=50)
def test_explore_solver_matches_the_oracle_over_budget_sequences(tree, data):
    # one solver per tree, called with drawn budgets: a lower budget
    # restarts states a higher one reached, a higher one resumes them, and
    # an infinite one admits every node of the cut
    floor = tree.max_mem_req()
    gap = int(_oracles.min_mem(tree).memory - floor)
    budget = st.integers(min_value=-2, max_value=gap + 2).map(lambda k: floor + k)
    budgets = data.draw(
        st.lists(st.one_of(budget, st.just(math.inf)), min_size=1, max_size=10)
    )
    kern = tree.kernel()
    kernel = KernelExploreSolver(kern)
    oracle = _oracles.ExploreSolver(tree)
    for memory in budgets:
        resident, cut, order, peak, required = kernel.explore(memory)
        ref = oracle.explore(tree.root, memory)
        assert (resident, peak, required) == (ref.resident, ref.peak, ref.required)
        assert kern.order_to_ids(cut) == ref.cut
        assert kern.order_to_ids(order) == tuple(
            _oracles.flatten_nodes(ref.traversal_chunks)
        )
        assert kernel.explore_calls == oracle.explore_calls


@given(
    tree=st.one_of(task_trees(max_nodes=12), shaped_trees(max_size=60), harpoons()),
    data=st.data(),
)
@settings(max_examples=100)
def test_explore_replays_and_completes_over_falling_then_rising_budgets(tree, data):
    # the tree is explored to the end, falling budgets restart what it
    # reached, rising ones resume it: every result replays to exactly its
    # `required`, and a budget of MinMem's optimum finishes the tree again
    floor = tree.max_mem_req()
    optimum = _oracles.min_mem(tree).memory
    offsets = st.lists(
        st.integers(min_value=-2, max_value=int(optimum - floor) + 2),
        min_size=1,
        max_size=5,
    )
    falling = sorted(data.draw(offsets), reverse=True)
    rising = sorted(data.draw(offsets))
    budgets = [optimum] + [max(floor + k, 0.0) for k in falling + rising] + [optimum]
    kern = tree.kernel()
    kernel = KernelExploreSolver(kern)
    oracle = _oracles.ExploreSolver(tree)
    for memory in budgets:
        resident, cut, order, peak, required = kernel.explore(memory)
        ref = oracle.explore(tree.root, memory)
        assert (resident, peak, required) == (ref.resident, ref.peak, ref.required)
        assert kern.order_to_ids(order) == tuple(
            _oracles.flatten_nodes(ref.traversal_chunks)
        )
        replayed, _, complete = kernel_replay_traversal(
            kern, order, topdown=True, partial=True
        )
        assert replayed == required <= memory
        assert complete or memory < optimum
