"""Unit tests for Liu's exact MinMemory algorithm (hill--valley segments)."""

import pytest

from repro.core.builders import chain_tree, from_parent_list, star_tree
from repro.core.liu import liu_min_memory, liu_optimal_traversal
from repro.core.postorder import best_postorder
from repro.core.traversal import check_in_core, is_topological, peak_memory
from repro.generators.harpoon import harpoon_tree, optimal_memory_bound

from _helpers import make_random_tree
from _oracles import flatten_nodes
from _oracles.bruteforce import optimal_min_memory


class TestBasics:
    def test_single_node(self):
        t = from_parent_list([None], f=[2.0], n=[3.0])
        res = liu_optimal_traversal(t)
        assert res.memory == pytest.approx(5.0)
        assert list(res.traversal.order) == [0]
        assert len(res.segments) == 1

    def test_chain(self):
        t = chain_tree(6, f=2.0, n=0.0)
        assert liu_min_memory(t) == pytest.approx(4.0)

    def test_star(self):
        t = star_tree(5, root_f=1.0, leaf_f=2.0)
        assert liu_min_memory(t) == pytest.approx(11.0)

    def test_traversal_is_witness(self, rng):
        for _ in range(40):
            t = make_random_tree(rng.randint(1, 30), rng)
            res = liu_optimal_traversal(t)
            assert is_topological(t, res.traversal)
            assert peak_memory(t, res.traversal) == pytest.approx(res.memory)
            assert check_in_core(t, res.memory, res.traversal)

    def test_flatten_nodes(self):
        # the oracles' chunks are lists; a node id that is a tuple stays whole
        nested = [[1, [2, 3]], 4, [[5]]]
        assert flatten_nodes(nested) == [1, 2, 3, 4, 5]
        assert flatten_nodes([("r", 0), [("a", 1), [("b", 2)]]]) == [
            ("r", 0),
            ("a", 1),
            ("b", 2),
        ]


class TestOptimality:
    def test_matches_bruteforce(self, rng):
        for _ in range(80):
            t = make_random_tree(rng.randint(1, 10), rng)
            assert liu_min_memory(t) == pytest.approx(optimal_min_memory(t))

    def test_never_worse_than_postorder(self, rng):
        for _ in range(40):
            t = make_random_tree(rng.randint(1, 40), rng)
            assert liu_min_memory(t) <= best_postorder(t).memory + 1e-9

    def test_beats_postorder_on_harpoon(self):
        t = harpoon_tree(4, memory=1.0, epsilon=0.01)
        liu = liu_min_memory(t)
        post = best_postorder(t).memory
        assert liu == pytest.approx(optimal_memory_bound(4, 1, 1.0, 0.01))
        assert liu < post


class TestSegments:
    def test_canonical_shape(self, rng):
        """Hills are non-increasing and valleys non-decreasing."""
        for _ in range(30):
            t = make_random_tree(rng.randint(1, 25), rng)
            res = liu_optimal_traversal(t)
            hills = [s.hill for s in res.segments]
            valleys = [s.valley for s in res.segments]
            assert hills == sorted(hills, reverse=True)
            assert valleys == sorted(valleys)
            # the last valley is the root file left in memory
            assert valleys[-1] == pytest.approx(t.f(t.root))
            assert hills[0] == pytest.approx(res.memory)

    def test_segment_nodes_partition_tree(self, rng):
        for _ in range(20):
            t = make_random_tree(rng.randint(1, 25), rng)
            res = liu_optimal_traversal(t)
            nodes = [v for seg in res.segments for v in seg.nodes]
            assert sorted(nodes, key=str) == sorted(t.nodes(), key=str)

    def test_subtree_peaks_consistent(self, rng):
        for _ in range(20):
            t = make_random_tree(rng.randint(1, 20), rng)
            res = liu_optimal_traversal(t)
            assert res.subtree_peak[t.root] == pytest.approx(res.memory)
            for v in t.nodes():
                assert res.subtree_peak[v] >= t.f(v) - 1e-9


class TestScalability:
    def test_deep_chain(self):
        t = chain_tree(20000, f=1.0, n=0.0)
        assert liu_min_memory(t) == pytest.approx(2.0)

    def test_wide_star(self):
        t = star_tree(5000, root_f=0.0, leaf_f=1.0)
        assert liu_min_memory(t) == pytest.approx(5000.0)
