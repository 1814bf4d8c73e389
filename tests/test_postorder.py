"""Unit tests for the best-postorder algorithm (Liu 1986)."""

import random

import pytest

from repro.core.builders import chain_tree, from_parent_list, star_tree
from repro.core.postorder import POSTORDER_RULES, best_postorder, postorder_with_rule
from repro.core.traversal import is_postorder, peak_memory
from repro.generators.harpoon import harpoon_tree, postorder_memory_bound

from _helpers import make_random_tree
from _oracles.bruteforce import optimal_postorder_memory


class TestSmallInstances:
    def test_single_node(self):
        t = from_parent_list([None], f=[3.0], n=[2.0])
        res = best_postorder(t)
        assert res.memory == pytest.approx(5.0)
        assert list(res.traversal.order) == [0]

    def test_chain(self):
        t = chain_tree(5, f=2.0, n=1.0)
        res = best_postorder(t)
        # every step needs f_child + n + f = 2 + 1 + 2 = 5 (except the leaf)
        assert res.memory == pytest.approx(5.0)
        assert is_postorder(t, res.traversal)

    def test_star(self):
        t = star_tree(4, root_f=1.0, leaf_f=3.0)
        res = best_postorder(t)
        # all leaf files must be present when the root runs: 1 + 4*3 = 13
        assert res.memory == pytest.approx(13.0)

    def test_two_subtrees_ordering_matters(self):
        # root with two children: one subtree peaks high but leaves a small
        # file, the other is the opposite; Liu's rule orders the high-peak,
        # small-residual subtree first.
        t = from_parent_list(
            [None, 0, 0, 1, 2],
            f=[0.0, 1.0, 5.0, 10.0, 1.0],
            n=[0.0, 0.0, 0.0, 0.0, 0.0],
        )
        res = best_postorder(t)
        assert res.memory == pytest.approx(optimal_postorder_memory(t))
        # natural order is strictly worse on this instance
        natural = postorder_with_rule(t, rule="natural")
        assert natural.memory >= res.memory

    def test_child_order_recorded(self):
        t = star_tree(3, root_f=0.0, leaf_f=1.0)
        res = best_postorder(t)
        assert set(res.child_order[t.root]) == {1, 2, 3}


class TestCorrectness:
    def test_memory_matches_witness_traversal(self, rng):
        for _ in range(60):
            t = make_random_tree(rng.randint(1, 40), rng)
            res = best_postorder(t)
            assert is_postorder(t, res.traversal)
            assert peak_memory(t, res.traversal) == pytest.approx(res.memory)

    def test_optimal_among_postorders(self, rng):
        for _ in range(60):
            t = make_random_tree(rng.randint(1, 12), rng)
            res = best_postorder(t)
            assert res.memory == pytest.approx(optimal_postorder_memory(t))

    def test_rules_never_beat_liu_rule(self, rng):
        for _ in range(40):
            t = make_random_tree(rng.randint(1, 15), rng)
            best = best_postorder(t).memory
            for rule in POSTORDER_RULES:
                assert postorder_with_rule(t, rule).memory >= best - 1e-9

    def test_unknown_rule_rejected(self):
        t = chain_tree(2)
        with pytest.raises(ValueError):
            postorder_with_rule(t, rule="does-not-exist")

    def test_subtree_peaks_monotone(self, rng):
        """A subtree peak never exceeds its parent's peak."""
        for _ in range(20):
            t = make_random_tree(rng.randint(2, 30), rng)
            res = best_postorder(t)
            for v in t.nodes():
                p = t.parent(v)
                if p is not None:
                    assert res.subtree_peak[v] <= res.subtree_peak[p] + 1e-9


class TestHarpoonWorstCase:
    def test_matches_theorem1_formula(self):
        for b in (2, 3, 5):
            t = harpoon_tree(b, memory=1.0, epsilon=0.01)
            res = best_postorder(t)
            assert res.memory == pytest.approx(postorder_memory_bound(b, 1, 1.0, 0.01))

    def test_deep_chain_no_recursion_error(self):
        t = chain_tree(5000, f=1.0, n=0.0)
        res = best_postorder(t)
        assert res.memory == pytest.approx(2.0)
        assert len(res.traversal) == 5000
