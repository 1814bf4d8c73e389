"""Unit tests for the matrix -> assembly tree pipeline."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.liu import liu_min_memory
from repro.core.postorder import best_postorder
from repro.sparse.assembly import build_assembly_tree
from repro.sparse.matrices import grid_laplacian_2d, random_spd
from repro.sparse.ordering import ORDERINGS


class TestBuildAssemblyTree:
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_pipeline_all_orderings(self, ordering):
        result = build_assembly_tree(grid_laplacian_2d(8), ordering=ordering, relaxed=1)
        tree = result.tree
        tree.validate()
        assert result.ordering == ordering
        assert sorted(result.permutation.tolist()) == list(range(64))
        # every supernode appears exactly once as a tree node (plus perhaps
        # an artificial super-root)
        supernode_ids = {sn.index for sn in result.amalgamated.supernodes}
        tree_ids = set(tree.nodes())
        assert supernode_ids <= tree_ids
        assert tree_ids - supernode_ids <= {-1}

    def test_weights_follow_paper_formulas(self):
        result = build_assembly_tree(grid_laplacian_2d(8), ordering="rcm", relaxed=2)
        tree = result.tree
        for sn in result.amalgamated.supernodes:
            assert tree.n(sn.index) == pytest.approx(sn.node_weight)
            if tree.parent(sn.index) is not None and tree.parent(sn.index) != -1:
                assert tree.f(sn.index) == pytest.approx(sn.edge_weight)
        # root carries no output file
        assert tree.f(tree.root) == 0.0

    def test_explicit_permutation(self):
        a = grid_laplacian_2d(6)
        perm = np.arange(36)[::-1].copy()
        result = build_assembly_tree(a, ordering=perm, relaxed=1)
        assert result.ordering == "custom"
        assert np.array_equal(result.permutation, perm)

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            build_assembly_tree(grid_laplacian_2d(4), ordering="magic")

    @pytest.mark.parametrize(
        "ordering, rule",
        [
            pytest.param([0] * 16, "each of 0..15 exactly once", id="repeated"),
            pytest.param(list(range(8)), "length 16", id="short"),
            pytest.param([0.5] * 16, "integers", id="float"),
            pytest.param([-1] + list(range(1, 16)), "each of 0..15 exactly once", id="negative"),
            pytest.param(list(range(17)), "length 16", id="long"),
            pytest.param(np.arange(16).reshape(4, 4), "1-D", id="2d"),
        ],
    )
    def test_custom_ordering_must_be_a_permutation(self, ordering, rule):
        with pytest.raises(ValueError, match=rule):
            build_assembly_tree(grid_laplacian_2d(4), ordering=ordering)

    def test_custom_permutation_gives_the_named_orderings_tree(self):
        a = grid_laplacian_2d(6)
        named = build_assembly_tree(a, ordering="minimum_degree", relaxed=1)
        custom = build_assembly_tree(a, ordering=named.permutation.tolist(), relaxed=1)
        assert custom.ordering == "custom"
        assert np.array_equal(custom.permutation, named.permutation)
        assert np.array_equal(custom.etree_parent, named.etree_parent)

        def nodes(tree):
            return [(v, tree.parent(v), tree.f(v), tree.n(v)) for v in tree.nodes()]

        assert nodes(custom.tree) == nodes(named.tree)

    def test_relaxation_shrinks_tree(self):
        a = grid_laplacian_2d(10)
        sizes = [
            build_assembly_tree(a, ordering="nested_dissection", relaxed=r).tree.size
            for r in (0, 1, 4, 16)
        ]
        assert all(x >= y for x, y in zip(sizes, sizes[1:]))

    def test_traversal_algorithms_consume_result(self):
        result = build_assembly_tree(random_spd(80, 0.05, seed=21), ordering="minimum_degree")
        tree = result.tree
        post = best_postorder(tree).memory
        opt = liu_min_memory(tree)
        assert post >= opt - 1e-9
        assert opt >= tree.max_mem_req() - 1e-9

    def test_forest_handled(self):
        # block-diagonal matrix -> forest of assembly trees under a super-root
        a = sp.block_diag([grid_laplacian_2d(3), grid_laplacian_2d(3)]).tocsc()
        result = build_assembly_tree(a, ordering="natural", relaxed=0)
        tree = result.tree
        assert tree.root == -1
        assert tree.f(-1) == 0.0 and tree.n(-1) == 0.0
        assert len(tree.children(-1)) >= 2

    def test_metadata_statistics(self):
        result = build_assembly_tree(grid_laplacian_2d(8), ordering="nested_dissection")
        assert result.symbolic.n == 64
        assert result.symbolic.nnz_l >= result.symbolic.nnz_a
        assert result.counts.shape == (64,)
        assert result.etree_parent.shape == (64,)
