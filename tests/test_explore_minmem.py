"""Unit tests for the Explore algorithm and the MinMem exact solver."""

import math
import signal
from contextlib import contextmanager

import pytest

from repro.core.builders import chain_tree, from_parent_list, star_tree
from repro.core.liu import liu_min_memory
from repro.core.minmem import min_mem, min_memory
from repro.core.postorder import best_postorder
from repro.core.traversal import TOPDOWN, check_in_core, is_topological, peak_memory
from repro.core.tree import Tree
from repro.generators.harpoon import harpoon_tree, iterated_harpoon_tree

from _helpers import make_random_tree
from _oracles import flatten_nodes
from _oracles.bruteforce import optimal_min_memory
from _oracles.core import min_mem as oracle_min_mem
from _oracles.explore import ExploreSolver


class TestExplore:
    def test_blocked_root(self):
        t = star_tree(3, root_f=1.0, leaf_f=2.0)
        solver = ExploreSolver(t)
        res = solver.explore(t.root, 3.0)  # MemReq(root) = 7 > 3
        assert res.resident == math.inf
        assert res.peak == pytest.approx(7.0)
        assert res.cut == ()

    def test_full_exploration(self):
        t = star_tree(3, root_f=1.0, leaf_f=2.0)
        solver = ExploreSolver(t)
        res = solver.explore(t.root, 10.0)
        assert res.resident == 0.0
        assert res.peak == math.inf
        assert sorted(flatten_nodes(res.traversal_chunks), key=str) == sorted(
            t.nodes(), key=str
        )

    def test_partial_exploration_reports_cut(self):
        # root f=0 with two chains; one chain needs little memory, the other a lot
        t = from_parent_list(
            [None, 0, 0, 1, 2],
            f=[0.0, 1.0, 1.0, 1.0, 8.0],
            n=[0.0, 0.0, 0.0, 0.0, 0.0],
        )
        solver = ExploreSolver(t)
        res = solver.explore(t.root, 3.0)
        # node 4 (needs 8+1=9 > available) blocks its branch
        assert 4 in res.cut or 2 in res.cut
        assert res.peak > 3.0
        assert res.resident >= 0.0

    def test_peak_estimate_lets_progress(self):
        t = star_tree(2, root_f=0.0, leaf_f=4.0)
        solver = ExploreSolver(t)
        res = solver.explore(t.root, 8.0)
        assert res.peak == math.inf  # fully explored: 8 = MemReq(root) suffices

    def test_resume_states_consistent(self):
        t = make_random_tree(30, __import__("random").Random(3))
        fresh = ExploreSolver(t, reuse_states=False)
        cached = ExploreSolver(t, reuse_states=True)
        for m in (t.max_mem_req(), t.max_mem_req() * 1.5, t.max_mem_req() * 3):
            a = fresh.explore(t.root, m)
            b = cached.explore(t.root, m)
            assert a.resident == pytest.approx(b.resident)
            assert (a.peak == b.peak == math.inf) or a.peak == pytest.approx(b.peak)


class TestMinMem:
    def test_single_node(self):
        t = from_parent_list([None], f=[1.0], n=[4.0])
        res = min_mem(t)
        assert res.memory == pytest.approx(5.0)
        assert res.traversal.convention == TOPDOWN

    def test_matches_bruteforce(self, rng):
        for _ in range(80):
            t = make_random_tree(rng.randint(1, 10), rng)
            assert min_memory(t) == pytest.approx(optimal_min_memory(t))

    def test_matches_liu(self, rng):
        for _ in range(60):
            t = make_random_tree(rng.randint(1, 60), rng)
            assert min_memory(t) == pytest.approx(liu_min_memory(t))

    def test_traversal_is_complete_witness(self, rng):
        for _ in range(40):
            t = make_random_tree(rng.randint(1, 40), rng)
            res = min_mem(t)
            assert len(res.traversal) == t.size
            assert is_topological(t, res.traversal)
            assert peak_memory(t, res.traversal) == pytest.approx(res.memory)
            assert check_in_core(t, res.memory, res.traversal)

    def test_no_reuse_same_result(self, rng):
        # the paper-literal mode (only the root's state survives a sweep)
        # lives on in the oracle and reaches the kernel's optimum
        for _ in range(20):
            t = make_random_tree(rng.randint(1, 25), rng)
            fast = min_mem(t)
            slow = oracle_min_mem(t, reuse_states=False)
            assert fast.memory == pytest.approx(slow.memory)
            assert peak_memory(t, slow.traversal) == pytest.approx(slow.memory)

    def test_never_below_max_memreq(self, rng):
        for _ in range(30):
            t = make_random_tree(rng.randint(1, 30), rng)
            assert min_memory(t) >= t.max_mem_req() - 1e-9

    def test_never_worse_than_postorder(self, rng):
        for _ in range(30):
            t = make_random_tree(rng.randint(1, 30), rng)
            assert min_memory(t) <= best_postorder(t).memory + 1e-9

    def test_harpoon_optimal(self):
        t = harpoon_tree(4, memory=1.0, epsilon=0.01)
        assert min_memory(t) == pytest.approx(1.0 + 4 * 0.01)

    def test_iterated_harpoon_optimal(self):
        t = iterated_harpoon_tree(3, 3, memory=1.0, epsilon=0.01)
        assert min_memory(t) == pytest.approx(liu_min_memory(t))

    def test_deep_chain_no_recursion_error(self):
        t = chain_tree(20000, f=1.0, n=0.0)
        res = min_mem(t)
        assert res.memory == pytest.approx(2.0)
        assert len(res.traversal) == 20000

    def test_iteration_counters(self):
        t = star_tree(4, root_f=0.0, leaf_f=1.0)
        res = min_mem(t)
        assert res.iterations >= 1
        assert res.explore_calls >= res.iterations


@contextmanager
def _deadline(seconds: int):
    """Raise ``TimeoutError`` in the block after ``seconds``, so that a
    solver that loops forever fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize(
    "solver", [min_mem, oracle_min_mem], ids=["kernel", "oracle"]
)
def test_a_pass_that_changes_nothing_ends_its_node(solver):
    # At file sizes near 1e9 the admission test (headroom + f_j) and the
    # child's budget (avail - (total - f_j)) round differently, and the
    # absolute tolerance is below the float spacing: the second sweep's
    # root admits node 1 on a budget with which node 1 admits none of its
    # children, so the root's pass changes nothing.  Repeating that pass
    # forever is the livelock; ending the node instead leaves MinMem to
    # find Liu's optimum or to report its floating-point stall.
    tree = Tree.from_parents(
        [-1, 0, 1, 1],
        f=[196938310.6007121, 4703980.108759609, 656855979.254854, 952054501.3424805],
        n=[31629590.208869763, 0.0, 31850652.33900364, 59801621.44657785],
    )
    with _deadline(20):
        try:
            memory = solver(tree).memory
        except RuntimeError as exc:
            assert "floating-point stall" in str(exc)
        else:
            assert memory == liu_min_memory(tree)
