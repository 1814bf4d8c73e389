"""Tests for the array-backed tree kernel (:mod:`repro.core.kernel`).

Layers of coverage:

* representation: ``TreeKernel`` construction, caching on :class:`Tree`,
  round-trips, and the bulk :meth:`Tree.from_parents` builder;
* equivalence: every registered solver and its per-node oracle
  (``_oracles``) on random and adversarial trees must agree on peak
  memory, I/O volume and the traversal itself, and both schedules must
  validate under both the kernel replay and the oracle replay;
* scale regression: a 100k-node chain and a ~100k-node iterated harpoon
  solve with every registered algorithm under the default interpreter
  recursion limit (the hot paths are explicit-stack iterative);
* Explore's state handling: budget sequences that restart and resume
  states agree with the oracle, and a finished solver keeps no object per
  node alive;
* the collector: no in-core kernel keeps a container per node through a
  solve, so no collection of generation 1 or 2 finds one.
"""

from __future__ import annotations

import gc
import math
import pickle
import random
import sys

import pytest

import _oracles
from _helpers import make_random_tree
from _oracles.explore import ExploreSolver
from repro.bench.replay import replay_report
from repro.core.builders import chain_tree, star_tree
from repro.core.kernel import (
    KernelExploreSolver,
    TreeKernel,
    kernel_liu,
    kernel_min_mem,
    kernel_postorder,
)
from repro.core.liu import liu_optimal_traversal
from repro.core.minmem import min_mem
from repro.core.postorder import postorder_with_rule
from repro.core.tree import Tree, TreeValidationError
from repro.generators.harpoon import iterated_harpoon_tree
from repro.generators.random_trees import (
    random_attachment_tree,
    random_binary_tree,
    random_caterpillar,
    random_recent_attachment_tree,
)
from repro.solvers import list_solvers, solve


def sample_trees():
    """A diverse bag of small trees exercising every structural corner."""
    rng = random.Random(20110527)
    trees = [
        chain_tree(1, f=3.0, n=1.0),
        chain_tree(60, f=2.0, n=1.0),
        star_tree(40, leaf_f=3.0, n=1.0),
        iterated_harpoon_tree(3, levels=3, memory=27.0, epsilon=0.5),
        random_attachment_tree(130, seed=7),
        random_recent_attachment_tree(130, seed=8, window=5),
        random_binary_tree(33, seed=9),
        random_caterpillar(25, seed=10),
    ]
    trees += [make_random_tree(60, rng) for _ in range(4)]
    trees += [make_random_tree(60, rng, window=4) for _ in range(4)]
    return trees


# ----------------------------------------------------------------------
# representation
# ----------------------------------------------------------------------
class TestTreeKernel:
    def test_from_tree_layout(self):
        tree = Tree()
        tree.add_node("r", f=1.0, n=0.5)
        tree.add_node("a", parent="r", f=2.0, n=0.0)
        tree.add_node("b", parent="r", f=3.0, n=0.25)
        tree.add_node("c", parent="a", f=4.0, n=0.0)
        kern = tree.kernel()
        assert kern.size == 4
        assert kern.ids[0] == "r" and kern.parent[0] == -1
        # children keep insertion order
        assert [kern.ids[i] for i in kern.children(0)] == ["a", "b"]
        assert kern.f[kern.index["c"]] == 4.0
        assert kern.mem_req[0] == pytest.approx(1.0 + 0.5 + 2.0 + 3.0)
        assert kern.child_f_sum[kern.index["a"]] == pytest.approx(4.0)
        assert kern.max_mem_req() == pytest.approx(tree.max_mem_req())

    def test_cache_and_invalidation(self):
        tree = chain_tree(5, f=1.0, n=1.0)
        kern = tree.kernel()
        assert tree.kernel() is kern  # cached
        tree.set_f(3, 7.0)
        kern2 = tree.kernel()
        assert kern2 is not kern
        assert kern2.f[3] == 7.0
        tree.add_node(5, parent=4, f=1.0, n=0.0)
        assert tree.kernel().size == 6

    def test_to_tree_round_trip(self):
        for tree in sample_trees():
            back = tree.kernel().to_tree()
            assert back == tree

    def test_pickle_round_trip(self):
        tree = random_attachment_tree(40, seed=3)
        kern = tree.kernel()
        clone = pickle.loads(pickle.dumps(kern))
        assert clone.ids == kern.ids
        assert clone.parent == kern.parent
        assert clone.f == kern.f
        # a pickled tree ships its cached kernel (workers skip the rebuild)
        tree2 = pickle.loads(pickle.dumps(tree))
        assert tree2.kernel().parent == kern.parent

    def test_rejects_non_topological_parents(self):
        with pytest.raises(ValueError):
            TreeKernel([-1, 2, 1], [0.0] * 3, [0.0] * 3)
        with pytest.raises(ValueError):
            TreeKernel([0, -1], [0.0] * 2, [0.0] * 2)
        with pytest.raises(ValueError):
            TreeKernel([-1, 0], [0.0], [0.0, 0.0])

    def test_validate_weights(self):
        kern = TreeKernel([-1, 0], [1.0, 2.0], [0.0, 0.0])
        kern.validate_weights()  # fine
        with pytest.raises(ValueError, match="negative file size"):
            TreeKernel([-1, 0], [1.0, -2.0], [5.0, 0.0]).validate_weights()
        with pytest.raises(ValueError, match="non-finite"):
            TreeKernel([-1, 0], [1.0, math.nan], [0.0, 0.0]).validate_weights()
        with pytest.raises(ValueError, match="negative memory requirement"):
            TreeKernel([-1, 0], [1.0, 1.0], [0.0, -5.0]).validate_weights()


class TestFromParents:
    def test_bulk_matches_add_node(self):
        bulk = Tree.from_parents([-1, 0, 0, 1], f=[1.0, 2.0, 3.0, 4.0], n=[0.5] * 4)
        manual = Tree()
        manual.add_node(0, f=1.0, n=0.5)
        manual.add_node(1, parent=0, f=2.0, n=0.5)
        manual.add_node(2, parent=0, f=3.0, n=0.5)
        manual.add_node(3, parent=1, f=4.0, n=0.5)
        assert bulk == manual
        bulk.validate()

    def test_custom_ids(self):
        tree = Tree.from_parents([-1, 0, 1], f=[1, 2, 3], ids=["x", "y", "z"])
        assert tree.root == "x"
        assert tree.parent("z") == "y"
        assert tree.f("y") == 2.0

    def test_rejects_malformed(self):
        with pytest.raises(TreeValidationError):
            Tree.from_parents([])
        with pytest.raises(TreeValidationError):
            Tree.from_parents([-1, 2, 1])  # forward reference
        with pytest.raises(TreeValidationError):
            Tree.from_parents([-1, -1])  # two roots
        with pytest.raises(TreeValidationError):
            Tree.from_parents([-1, 0], f=[1.0])  # length mismatch
        with pytest.raises(TreeValidationError):
            Tree.from_parents([-1, 0], ids=["a", "a"])  # duplicate ids


# ----------------------------------------------------------------------
# kernel vs per-node oracle equivalence
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(set(list_solvers())))
    def test_identical_reports_and_valid_replays(self, algorithm):
        for tree in sample_trees():
            kernel = solve(tree, algorithm)
            reference = _oracles.solve(tree, algorithm)
            assert kernel.peak_memory == pytest.approx(reference.peak_memory)
            assert kernel.io_volume == pytest.approx(reference.io_volume)
            assert kernel.traversal.order == reference.traversal.order
            assert kernel.traversal.convention == reference.traversal.convention
            if kernel.schedule is not None:
                assert kernel.schedule.evictions == reference.schedule.evictions
            # both outputs validate under both replays
            _oracles.replay_report(tree, kernel)
            replay_report(tree, reference)

    def test_solver_entry_points_accept_kernels(self):
        tree = random_attachment_tree(60, seed=5)
        kern = tree.kernel()
        assert liu_optimal_traversal(kern).memory == pytest.approx(
            liu_optimal_traversal(tree).memory
        )
        assert min_mem(kern).memory == pytest.approx(min_mem(tree).memory)
        assert postorder_with_rule(kern).memory == pytest.approx(
            postorder_with_rule(tree).memory
        )

    def test_result_shapes_match_reference(self):
        tree = random_attachment_tree(60, seed=6)
        for rule in ("liu", "natural", "subtree_memory"):
            kernel = postorder_with_rule(tree, rule=rule)
            reference = _oracles.postorder_with_rule(tree, rule=rule)
            assert kernel.subtree_peak == pytest.approx(reference.subtree_peak)
            assert kernel.child_order == reference.child_order
        kernel = liu_optimal_traversal(tree)
        reference = _oracles.liu_optimal_traversal(tree)
        assert kernel.subtree_peak == pytest.approx(reference.subtree_peak)
        assert len(kernel.segments) == len(reference.segments)
        for seg_k, seg_r in zip(kernel.segments, reference.segments):
            assert seg_k.hill == pytest.approx(seg_r.hill)
            assert seg_k.valley == pytest.approx(seg_r.valley)
            assert seg_k.nodes == tuple(_oracles.flatten_nodes(seg_r.nodes))

    def test_explore_solver_parity_under_memory_pressure(self):
        rng = random.Random(99)
        for trial in range(6):
            tree = make_random_tree(50, rng, window=5 if trial % 2 else None)
            floor = tree.max_mem_req()
            optimum = min_mem(tree).memory
            for fraction in (1.0, 0.5, 0.0):
                memory = floor + fraction * (optimum - floor)
                ref = ExploreSolver(tree).explore(tree.root, memory)
                kern = tree.kernel()
                solver = KernelExploreSolver(kern)
                resident, cut, _, peak, required = solver.explore(memory)
                assert resident == pytest.approx(ref.resident)
                assert peak == pytest.approx(ref.peak)
                assert required == pytest.approx(ref.required)
                assert [kern.ids[j] for j in cut] == list(ref.cut)

    def test_unknown_engine_rejected(self):
        # one implementation per algorithm: no entry point takes engine=
        from repro.bench import get_scenario, run_scenarios
        from repro.bench.replay import replay_schedule, replay_traversal
        from repro.core import best_postorder, liu_min_memory, min_memory
        from repro.core.minio import run_out_of_core

        tree = chain_tree(3)
        liu = solve(tree, "liu")
        minio = solve(tree, "minio")
        calls = [
            lambda: best_postorder(tree, engine="kernel"),
            lambda: postorder_with_rule(tree, engine="kernel"),
            lambda: liu_min_memory(tree, engine="kernel"),
            lambda: liu_optimal_traversal(tree, engine="kernel"),
            lambda: min_memory(tree, engine="kernel"),
            lambda: min_mem(tree, engine="kernel"),
            lambda: run_out_of_core(
                tree, tree.max_mem_req(), liu.traversal, engine="kernel"
            ),
            lambda: replay_traversal(tree, liu.traversal, engine="kernel"),
            lambda: replay_schedule(tree, minio.schedule, engine="kernel"),
            lambda: replay_report(tree, liu, engine="kernel"),
            lambda: run_scenarios([get_scenario("harpoon")], engine="kernel"),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="engine"):
                call()


# ----------------------------------------------------------------------
# scale regression: deep and wide 100k-node instances, no recursion
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deep_chain():
    return chain_tree(100_000, f=2.0, n=1.0)


@pytest.fixture(scope="module")
def big_harpoon():
    # 1 + 3*2*(2^14 - 1) = 98_299 nodes, 42 levels of nested harpoons
    return iterated_harpoon_tree(2, levels=14, memory=1.0, epsilon=0.01)


class TestHundredThousandNodes:
    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        # the hot paths must not recurse: solving 100k-node instances has to
        # succeed without ever touching the interpreter recursion limit
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(old)

    @pytest.mark.parametrize("algorithm", sorted(set(list_solvers())))
    def test_chain_100k_solves(self, deep_chain, algorithm):
        report = solve(deep_chain, algorithm)
        assert report.peak_memory > 0
        assert replay_report(deep_chain, report).peak_memory == pytest.approx(
            report.peak_memory
        )

    @pytest.mark.parametrize("algorithm", sorted(set(list_solvers())))
    def test_harpoon_100k_solves(self, big_harpoon, algorithm):
        report = solve(big_harpoon, algorithm)
        assert report.peak_memory > 0
        assert replay_report(big_harpoon, report).peak_memory == pytest.approx(
            report.peak_memory
        )

    def test_chain_100k_known_optimum(self, deep_chain):
        # uniform chain f=2, n=1: every traversal needs f_parent+n+f = 5
        assert min_mem(deep_chain).memory == pytest.approx(5.0)
        assert liu_optimal_traversal(deep_chain).memory == pytest.approx(5.0)
        assert postorder_with_rule(deep_chain).memory == pytest.approx(5.0)

    def test_harpoon_100k_matches_theorem_bounds(self, big_harpoon):
        from repro.generators.harpoon import (
            optimal_memory_bound,
            postorder_memory_bound,
        )

        optimum = liu_optimal_traversal(big_harpoon).memory
        postorder = postorder_with_rule(big_harpoon).memory
        assert optimum == pytest.approx(optimal_memory_bound(2, 14, 1.0, 0.01))
        assert postorder == pytest.approx(postorder_memory_bound(2, 14, 1.0, 0.01))


# ----------------------------------------------------------------------
# Explore: resumed and restarted states, nothing kept per node
# ----------------------------------------------------------------------
def _objects_held_by_finished_solver(tree) -> int:
    """Growth of the GC-tracked object count while a finished solver lives."""
    kern = tree.kernel()
    gc.collect()
    before = len(gc.get_objects())
    solver = KernelExploreSolver(kern)
    memory = kern.max_mem_req()
    peak = 0.0
    while peak != math.inf:
        peak = solver.explore(memory)[3]
        memory = peak
    gc.collect()
    held = len(gc.get_objects()) - before
    assert solver.explore_calls >= kern.size  # the solver is still alive here
    return held


def _most_tracked_at_old_collections(run) -> int:
    """Most GC-tracked objects alive beyond the baseline, over every
    collection of generation 1 or 2 during ``run()``.

    Counted as each collection stops: a tuple holding only ints has been
    untracked by then, a list never is.
    """
    gc.collect()
    before = len(gc.get_objects())
    most = 0

    def count(phase, info):
        nonlocal most
        if phase == "stop" and info["generation"] >= 1:
            most = max(most, len(gc.get_objects()) - before)

    gc.callbacks.append(count)
    try:
        run()
    finally:
        gc.callbacks.remove(count)
    return most


class TestNoPromotion:
    """The in-core kernels keep no container per node through a solve.

    A list per node survives every young collection and is promoted, so a
    100k-node tree would set off full collections that walk all of them.
    """

    @pytest.mark.parametrize(
        "kernel",
        [kernel_postorder, kernel_liu, kernel_min_mem],
        ids=["postorder", "liu", "minmem"],
    )
    def test_chain(self, kernel):
        kern = chain_tree(20_000, f=2.0, n=1.0).kernel()
        assert _most_tracked_at_old_collections(lambda: kernel(kern)) < 100

    def test_liu_on_a_harpoon(self):
        # many segments per subtree, merged and re-cut at every level
        kern = iterated_harpoon_tree(3, levels=7, memory=1.0, epsilon=0.01).kernel()
        assert _most_tracked_at_old_collections(lambda: kernel_liu(kern)) < 100


class TestExploreSolver:
    def test_finished_chain_holds_no_object_per_node(self):
        # one Explore sweep runs the whole chain; every node ends finished
        assert _objects_held_by_finished_solver(chain_tree(20_000, f=2.0, n=1.0)) < 100

    def test_finished_harpoon_holds_under_one_object_per_two_nodes(self):
        # what stays is the cut list of each node left partly explored
        tree = iterated_harpoon_tree(3, levels=7, memory=1.0, epsilon=0.01)
        assert _objects_held_by_finished_solver(tree) < tree.size / 2

    # the kernel always keeps every node's state: only the oracle's
    # matching mode can agree call by call
    @pytest.mark.parametrize("reuse_states", [True])
    def test_budget_sequences_match_the_oracle(self, reuse_states):
        # random budget sequences on one solver: a lower budget restarts
        # states a higher one reached, a higher one resumes them
        rng = random.Random(2011)
        root_restarts = 0
        for trial in range(40):
            tree = make_random_tree(60, rng, window=4 if trial % 2 else None)
            floor = tree.max_mem_req()
            gap = int(min_mem(tree).memory - floor)
            kern = tree.kernel()
            kernel = KernelExploreSolver(kern)
            oracle = ExploreSolver(tree, reuse_states=reuse_states)
            required = 0.0
            for _ in range(10):
                memory = floor + rng.randint(0, gap)
                root_restarts += required > memory
                resident, cut, order, peak, required = kernel.explore(memory)
                ref = oracle.explore(tree.root, memory)
                assert (resident, peak, required) == (
                    ref.resident, ref.peak, ref.required
                )
                assert [kern.ids[j] for j in cut] == list(ref.cut)
                assert kern.order_to_ids(order) == tuple(
                    _oracles.flatten_nodes(ref.traversal_chunks)
                )
                assert kernel.explore_calls == oracle.explore_calls
        assert root_restarts > 0

    @pytest.mark.parametrize(
        "parents, f, n, budgets",
        [
            # a child explored to the end kept peak_of = inf after its
            # parent restarted, and was never admitted again
            ([-1, 0, 1], [1.0, 1.0, 5.0], [0.0] * 3, (100.0, 3.0, 100.0)),
            # a merged child's saved cut ([2] under node 1) had moved on
            # through the root, so resuming it after the root restarted
            # met node 2 with peak_of = inf
            (
                [-1, 0, 1, 0, 2, 4],
                [2.0, 7.0, 3.0, 2.0, 6.0, 7.0],
                [5.0, 5.0, 0.0, 2.0, 5.0, 1.0],
                (18.0, 17.0, 18.0),
            ),
        ],
    )
    def test_a_restart_explores_the_subtree_afresh(self, parents, f, n, budgets):
        tree = Tree.from_parents(parents, f, n)
        kern = tree.kernel()
        kernel = KernelExploreSolver(kern)
        oracle = ExploreSolver(tree)
        results = []
        for memory in budgets:
            resident, cut, order, peak, required = kernel.explore(memory)
            ref = oracle.explore(tree.root, memory)
            assert (resident, peak, required) == (ref.resident, ref.peak, ref.required)
            assert kern.order_to_ids(order) == tuple(
                _oracles.flatten_nodes(ref.traversal_chunks)
            )
            results.append((order, peak))
        # the smaller budget restarts the root and stops short, with a
        # finite next peak; the last budget finishes the tree again, as a
        # fresh solver does
        (_, restarted_peak), (order, peak) = results[1], results[2]
        assert restarted_peak != math.inf
        assert len(order) == tree.size and peak == math.inf
        assert order == KernelExploreSolver(kern).explore(budgets[2])[2]

    def test_starved_root_returns_nothing(self):
        tree = chain_tree(5, f=2.0, n=1.0)
        solver = KernelExploreSolver(tree.kernel())
        assert solver.explore(1.0) == (math.inf, (), [], 5.0, 0.0)
        resident, cut, order, peak, required = solver.explore(5.0)
        assert (resident, cut, order, peak) == (0.0, (), [0, 1, 2, 3, 4], math.inf)
        # a later starved call leaves the reached state alone
        assert solver.explore(1.0)[2] == []
        assert solver.explore(5.0)[2] == [0, 1, 2, 3, 4]


class TestFlatArrays:
    """to_flat_arrays / from_flat_arrays: the engine arena's transport."""

    def _trees(self):
        from repro.core.builders import chain_tree, star_tree
        from repro.generators.random_trees import random_attachment_tree

        return [
            chain_tree(1),
            chain_tree(6, f=2.0, n=1.0),
            star_tree(12, leaf_f=3.0, n=0.5),
            random_attachment_tree(150, seed=17),
        ]

    def test_round_trip_is_bit_identical(self):
        for tree in self._trees():
            kern = tree.kernel()
            parent, f, n = kern.to_flat_arrays()
            ids = None if kern.has_trivial_ids() else kern.ids
            clone = TreeKernel.from_flat_arrays(parent, f, n, ids=ids)
            for attr in (
                "size", "ids", "index", "parent", "child_ptr", "child_idx",
                "f", "n", "mem_req", "child_f_sum",
            ):
                assert getattr(clone, attr) == getattr(kern, attr), attr
            # plain python scalars, exactly like the __init__ path
            assert all(type(x) is int for x in clone.parent)
            assert all(type(x) is float for x in clone.mem_req)

    def test_non_trivial_ids(self):
        tree = Tree()
        tree.add_node("r", f=1.0, n=0.5)
        tree.add_node("a", parent="r", f=2.0, n=0.25)
        tree.add_node(("b", 3), parent="r", f=3.0, n=0.75)
        kern = tree.kernel()
        assert not kern.has_trivial_ids()
        parent, f, n = kern.to_flat_arrays()
        clone = TreeKernel.from_flat_arrays(parent, f, n, ids=kern.ids)
        assert clone.ids == kern.ids
        assert clone.index == kern.index

    def test_validation_errors(self):
        import numpy as np

        with pytest.raises(ValueError, match="root"):
            TreeKernel.from_flat_arrays(np.array([0]), np.ones(1), np.ones(1))
        with pytest.raises(ValueError, match="topological"):
            TreeKernel.from_flat_arrays(
                np.array([-1, 2, 1]), np.zeros(3), np.zeros(3)
            )
        with pytest.raises(ValueError, match="same length"):
            TreeKernel.from_flat_arrays(np.array([-1, 0]), np.zeros(1), np.zeros(2))
        with pytest.raises(ValueError, match="empty"):
            TreeKernel.from_flat_arrays(
                np.array([], dtype=np.int64), np.array([]), np.array([])
            )
        with pytest.raises(ValueError, match="duplicates"):
            TreeKernel.from_flat_arrays(
                np.array([-1, 0]), np.zeros(2), np.zeros(2), ids=["x", "x"]
            )

    def test_solvers_agree_on_attached_kernel(self):
        from repro.solvers import solve

        tree = self._trees()[-1]
        kern = tree.kernel()
        parent, f, n = kern.to_flat_arrays()
        ids = None if kern.has_trivial_ids() else kern.ids
        clone = TreeKernel.from_flat_arrays(parent, f, n, ids=ids)
        for algorithm in ("postorder", "liu", "minmem"):
            assert solve(clone, algorithm) == solve(kern, algorithm)
