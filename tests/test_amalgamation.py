"""Unit tests for supernode amalgamation and its weights."""

import numpy as np
import pytest

from repro.sparse.amalgamation import amalgamate
from repro.sparse.etree import elimination_tree
from repro.sparse.matrices import banded_spd, grid_laplacian_2d
from repro.sparse.symbolic import column_counts


def chain_instance(n=6):
    """Elimination chain 0 -> 1 -> ... -> n-1 with counts n, n-1, ..., 1."""
    parent = np.array([i + 1 for i in range(n - 1)] + [-1], dtype=np.int64)
    counts = np.arange(n, 0, -1, dtype=np.int64)
    return parent, counts


class TestPerfectAmalgamation:
    def test_chain_collapses_to_one_supernode(self):
        parent, counts = chain_instance(6)
        result = amalgamate(parent, counts, relaxed=0)
        assert result.size == 1
        sn = result.supernodes[0]
        assert sn.eta == 6
        assert sn.mu == 1  # count of the topmost column
        assert sn.members == tuple(range(6))

    def test_no_perfect_when_counts_do_not_shrink(self):
        parent = np.array([1, -1], dtype=np.int64)
        counts = np.array([2, 2], dtype=np.int64)  # parent count != child - 1
        result = amalgamate(parent, counts, relaxed=0)
        assert result.size == 2

    def test_no_perfect_when_two_children(self):
        parent = np.array([2, 2, -1], dtype=np.int64)
        counts = np.array([3, 3, 2], dtype=np.int64)
        result = amalgamate(parent, counts, relaxed=0)
        assert result.size == 3

    def test_disable_perfect(self):
        parent, counts = chain_instance(5)
        result = amalgamate(parent, counts, relaxed=0, perfect=False)
        assert result.size == 5


class TestRelaxedAmalgamation:
    def test_budget_merges_children(self):
        parent = np.array([2, 2, -1], dtype=np.int64)
        counts = np.array([3, 2, 2], dtype=np.int64)
        none = amalgamate(parent, counts, relaxed=0)
        one = amalgamate(parent, counts, relaxed=1)
        two = amalgamate(parent, counts, relaxed=2)
        assert none.size == 3
        assert one.size == 2
        assert two.size == 1

    def test_densest_child_absorbed_first(self):
        parent = np.array([3, 3, 3, -1], dtype=np.int64)
        counts = np.array([2, 5, 3, 1], dtype=np.int64)
        result = amalgamate(parent, counts, relaxed=1, perfect=False)
        # the root supernode must contain column 1 (the densest child)
        root_sn = [sn for sn in result.supernodes if 3 in sn.members][0]
        assert 1 in root_sn.members
        assert 0 not in root_sn.members

    def test_monotone_in_budget(self):
        a = grid_laplacian_2d(8)
        parent = elimination_tree(a)
        counts = column_counts(a, parent)
        sizes = [amalgamate(parent, counts, relaxed=r).size for r in (0, 1, 2, 4, 16)]
        assert all(x >= y for x, y in zip(sizes, sizes[1:]))


class TestWeightsAndStructure:
    def test_paper_weight_formulas(self):
        a = banded_spd(40, 3, seed=0)
        parent = elimination_tree(a)
        counts = column_counts(a, parent)
        result = amalgamate(parent, counts, relaxed=2)
        for sn in result.supernodes:
            assert sn.node_weight == pytest.approx(sn.eta**2 + 2 * sn.eta * (sn.mu - 1))
            assert sn.edge_weight == pytest.approx((sn.mu - 1) ** 2)
            assert sn.front_order == sn.eta + sn.mu - 1
            assert sn.representative == max(sn.members)
            assert sn.mu == counts[sn.representative]

    def test_members_partition_columns(self):
        a = grid_laplacian_2d(7)
        parent = elimination_tree(a)
        counts = column_counts(a, parent)
        result = amalgamate(parent, counts, relaxed=4)
        seen = sorted(m for sn in result.supernodes for m in sn.members)
        assert seen == list(range(a.shape[0]))
        for sn in result.supernodes:
            for m in sn.members:
                assert result.column_to_supernode[m] == sn.index

    def test_quotient_tree_is_consistent(self):
        a = grid_laplacian_2d(7)
        parent = elimination_tree(a)
        counts = column_counts(a, parent)
        result = amalgamate(parent, counts, relaxed=1)
        children = result.children()
        for s, p in enumerate(result.parent):
            if p >= 0:
                assert s in children[p]
                # the parent supernode contains the etree parent of s's top column
                top = max(result.supernodes[s].members)
                assert parent[top] in result.supernodes[p].members

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            amalgamate([1, -1], [1], relaxed=0)
        # a parent array must be labelled like an elimination tree: every
        # entry -1 or j < parent[j] < n
        for parent, counts in (([-1, 0], [1, 2]), ([-1, 0, 0], [2, 3, 3]), ([5, -1], [2, 1])):
            with pytest.raises(ValueError, match="elimination-tree"):
                amalgamate(parent, counts, relaxed=1)
