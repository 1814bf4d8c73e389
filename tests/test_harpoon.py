"""Unit tests for the harpoon constructions (Theorems 1 and 2)."""

import math

import pytest

from repro.core.liu import liu_min_memory
from repro.core.minio import HEURISTICS, run_out_of_core
from repro.core.minmem import min_mem
from repro.core.postorder import best_postorder
from repro.generators.harpoon import (
    harpoon_tree,
    iterated_harpoon_tree,
    optimal_memory_bound,
    postorder_memory_bound,
    postorder_vs_optimal_ratio_bound,
    two_partition_harpoon,
)

from _oracles.bruteforce import optimal_min_io


class TestTheorem1:
    @pytest.mark.parametrize("branches", [2, 3, 5])
    def test_single_level_bounds(self, branches):
        t = harpoon_tree(branches, memory=1.0, epsilon=0.01)
        assert best_postorder(t).memory == pytest.approx(
            postorder_memory_bound(branches, 1, 1.0, 0.01)
        )
        assert liu_min_memory(t) == pytest.approx(
            optimal_memory_bound(branches, 1, 1.0, 0.01)
        )

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_iterated_bounds(self, levels):
        branches = 3
        t = iterated_harpoon_tree(branches, levels, memory=1.0, epsilon=0.01)
        assert best_postorder(t).memory == pytest.approx(
            postorder_memory_bound(branches, levels, 1.0, 0.01)
        )
        assert min_mem(t).memory == pytest.approx(
            optimal_memory_bound(branches, levels, 1.0, 0.01)
        )

    def test_ratio_grows_without_bound(self):
        ratios = [
            postorder_vs_optimal_ratio_bound(4, level, 1.0, 0.001) for level in (1, 4, 16, 64)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 10.0

    def test_node_count(self):
        # 1 + 3 * b * (b^L - 1) / (b - 1) nodes
        for b, levels in ((2, 3), (3, 2)):
            t = iterated_harpoon_tree(b, levels)
            expected = 1 + 3 * b * (b**levels - 1) // (b - 1)
            assert t.size == expected

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            iterated_harpoon_tree(0, 1)
        with pytest.raises(ValueError):
            iterated_harpoon_tree(2, 0)


class TestTheorem2:
    def test_structure(self):
        t = two_partition_harpoon([1, 2, 3])
        assert t.size == 2 * 3 + 3
        # MemReq(T_in) = sum(a_i) + f(T_big) = S + S = 2S
        assert t.mem_req("T_in") == pytest.approx(2 * 6)
        assert t.f("T_big") == pytest.approx(6.0)
        assert t.f("T_out_big") == pytest.approx(3.0)

    def test_yes_instance_reaches_io_bound(self):
        """A solvable 2-Partition instance admits I/O exactly S/2."""
        values = [1, 1, 2, 2]  # S = 6, partition {1,2} / {1,2}
        total = sum(values)
        t = two_partition_harpoon(values)
        memory = 2 * total
        opt_io = optimal_min_io(t, memory)
        assert opt_io == pytest.approx(total / 2)

    def test_no_instance_needs_more_io(self):
        """An unsolvable 2-Partition instance needs strictly more than S/2."""
        values = [1, 1, 1]  # S = 3, odd -> no perfect partition
        total = sum(values)
        t = two_partition_harpoon(values)
        opt_io = optimal_min_io(t, 2 * total)
        assert opt_io > total / 2 + 1e-9

    def test_heuristics_upper_bound_optimum(self):
        """At M = 2S the optimum respects the S/2 threshold of the
        reduction, and every eviction heuristic is an upper bound on it."""
        for values in (
            [2, 3, 5, 4], [1, 1, 2, 2], [3, 1, 1, 2, 1], [1, 1, 1],
            [1, 2, 4, 8], [2, 3, 5, 4, 6],
        ):
            total = sum(values)
            t = two_partition_harpoon(values)
            memory = 2 * total
            opt_io = optimal_min_io(t, memory)
            assert opt_io >= total / 2 - 1e-9
            trav = min_mem(t).traversal
            for heuristic in HEURISTICS:
                io = run_out_of_core(t, memory, trav, heuristic).io_volume
                assert io >= opt_io - 1e-9, (values, heuristic)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            two_partition_harpoon([])

    def test_memreq_is_2s(self):
        values = [3, 5, 2]
        t = two_partition_harpoon(values)
        total = sum(values)
        # the root requirement is sum(a_i) + S/2 + ... = 2S + S/2?  Check the
        # paper's claim that M = 2S equals the largest requirement instead:
        # leaves T_out_i need f = S plus parent's files already accounted when
        # executed; their MemReq is S.  The root's requirement dominates.
        assert t.max_mem_req() == t.mem_req("T_in")
