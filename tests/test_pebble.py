"""Unit tests for the pebble-game special cases."""

import pytest

from repro.core.builders import chain_tree, uniform_weights
from repro.core.liu import liu_min_memory
from repro.core.postorder import best_postorder
from repro.core.minio import run_out_of_core
from repro.core.minmem import min_mem
from repro.generators.synthetic import full_binary_expression_tree

from _oracles.pebble import (
    belady_io_volume,
    sethi_ullman_labels,
    sethi_ullman_number,
    unit_replacement_tree,
)


class TestSethiUllman:
    def test_single_node(self):
        t = full_binary_expression_tree(0)
        assert sethi_ullman_number(t) == 1

    def test_balanced_binary_depth(self):
        # a perfect binary tree of depth d needs d + 1 registers
        for depth in range(0, 5):
            t = full_binary_expression_tree(depth)
            assert sethi_ullman_number(t) == depth + 1

    def test_chain(self):
        t = chain_tree(6)
        assert sethi_ullman_number(t) == 1

    def test_unbalanced(self):
        # root with a leaf child and a depth-2 subtree: labels max(1, 3)... hand-check
        from repro.core.tree import Tree

        t = Tree()
        t.add_node("r")
        t.add_node("leaf", parent="r")
        t.add_node("a", parent="r")
        t.add_node("a1", parent="a")
        t.add_node("a2", parent="a")
        labels = sethi_ullman_labels(t)
        assert labels["a"] == 2
        assert labels["leaf"] == 1
        assert labels["r"] == 2  # max(2, 1 + 1)

    def test_matches_pebble_minmemory_on_binary_trees(self):
        """The Sethi--Ullman number equals the optimal memory of the unit
        replacement-model instance (classical pebble game on trees)."""
        for depth in range(0, 5):
            shape = full_binary_expression_tree(depth)
            pebbles = unit_replacement_tree(shape)
            assert liu_min_memory(pebbles) == pytest.approx(sethi_ullman_number(shape))
            # postorder is optimal for the classical pebble game on trees
            assert best_postorder(pebbles).memory == pytest.approx(
                sethi_ullman_number(shape)
            )


class TestBelady:
    def test_no_io_when_memory_sufficient(self):
        shape = full_binary_expression_tree(3)
        t = uniform_weights(shape, f=1.0, n=0.0)
        res = min_mem(t)
        assert belady_io_volume(t, res.memory, res.traversal) == pytest.approx(0.0)

    def test_io_appears_when_memory_tight(self):
        shape = full_binary_expression_tree(3)
        t = uniform_weights(shape, f=1.0, n=0.0)
        res = min_mem(t)
        tight = max(t.max_mem_req(), res.memory - 2)
        io = belady_io_volume(t, tight, res.traversal)
        assert io > 0

    def test_belady_matches_lsnf_for_unit_files(self):
        shape = full_binary_expression_tree(4)
        t = uniform_weights(shape, f=1.0, n=0.0)
        res = min_mem(t)
        for memory in (t.max_mem_req(), t.max_mem_req() + 1, res.memory):
            belady = belady_io_volume(t, memory, res.traversal)
            lsnf = run_out_of_core(t, memory, res.traversal, "lsnf").io_volume
            assert belady == pytest.approx(lsnf)

    def test_rejects_too_small_memory(self):
        t = uniform_weights(full_binary_expression_tree(2), f=1.0, n=0.0)
        with pytest.raises(ValueError):
            belady_io_volume(t, 1.0, min_mem(t).traversal)
