"""Unit tests for the multifrontal Cholesky engine."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.liu import liu_optimal_traversal
from repro.core.minmem import min_mem
from repro.core.postorder import best_postorder
from repro.core.traversal import BOTTOMUP, Traversal, peak_memory
from repro.sparse.etree import elimination_tree, etree_postorder
from repro.sparse.matrices import banded_spd, grid_laplacian_2d, random_spd
from repro.sparse.multifrontal import frontal_memory_tree, multifrontal_cholesky
from repro.sparse.ordering import apply_ordering, minimum_degree_ordering, rcm_ordering


def factorization_error(matrix, factor):
    return float(np.abs((factor @ factor.T - matrix)).max())


class TestNumericFactorization:
    @pytest.mark.parametrize(
        "matrix",
        [grid_laplacian_2d(6), banded_spd(40, 3, seed=2), random_spd(50, 0.06, seed=8)],
        ids=["grid", "banded", "random"],
    )
    def test_llt_equals_a(self, matrix):
        result = multifrontal_cholesky(matrix)
        assert factorization_error(matrix, result.factor) < 1e-9

    def test_factor_is_lower_triangular(self):
        result = multifrontal_cholesky(grid_laplacian_2d(5))
        rows, cols = result.factor.nonzero()
        assert np.all(rows >= cols)

    def test_matches_scipy_dense_cholesky(self):
        a = grid_laplacian_2d(5)
        result = multifrontal_cholesky(a)
        dense_l = np.linalg.cholesky(a.toarray())
        assert np.allclose(result.factor.toarray(), dense_l, atol=1e-10)

    def test_non_spd_rejected(self):
        a = sp.identity(4, format="csc") * -1.0
        with pytest.raises(ValueError):
            multifrontal_cholesky(a)

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            multifrontal_cholesky(sp.csc_matrix(np.ones((3, 4))))

    def test_custom_traversal_same_factor(self):
        a = grid_laplacian_2d(5)
        default = multifrontal_cholesky(a)
        # use the optimal (possibly non-postorder) traversal of the column tree
        tree = frontal_memory_tree(a)
        traversal = min_mem(tree).traversal
        order = tuple(v for v in traversal.reversed().order)
        custom = multifrontal_cholesky(a, Traversal(order, BOTTOMUP))
        assert np.allclose(default.factor.toarray(), custom.factor.toarray())

    def test_incomplete_traversal_rejected(self):
        a = grid_laplacian_2d(3)
        with pytest.raises(ValueError):
            multifrontal_cholesky(a, Traversal((0, 1, 2), BOTTOMUP))


class TestMemoryAccounting:
    def test_peak_matches_task_tree_model(self):
        """The engine's peak equals the task-tree peak for the same traversal."""
        for matrix in (grid_laplacian_2d(7), banded_spd(40, 4, seed=1)):
            tree = frontal_memory_tree(matrix)
            post = Traversal(
                tuple(int(j) for j in etree_postorder(elimination_tree(matrix))), BOTTOMUP
            )
            engine = multifrontal_cholesky(matrix, post)
            assert engine.peak_memory == pytest.approx(peak_memory(tree, post))

    def test_better_traversal_never_hurts(self):
        a = grid_laplacian_2d(7)
        tree = frontal_memory_tree(a)
        optimal = liu_optimal_traversal(tree)
        postorder = best_postorder(tree)
        peak_optimal = multifrontal_cholesky(a, optimal.traversal).peak_memory
        peak_postorder = multifrontal_cholesky(a, postorder.traversal).peak_memory
        assert peak_optimal <= peak_postorder + 1e-9
        assert peak_optimal == pytest.approx(optimal.memory)

    def test_engine_matches_model_on_ordered_matrices(self):
        """Under both the best postorder and the optimal traversal, the
        engine's peak is the task-tree model's, optimal never loses, and
        the factor stays exact -- on fill-reducing orderings too."""
        def ordered(matrix, ordering):
            return apply_ordering(matrix, ordering(matrix))

        for matrix in (
            grid_laplacian_2d(12),
            ordered(grid_laplacian_2d(12), minimum_degree_ordering),
            ordered(banded_spd(200, 4, seed=3), rcm_ordering),
            ordered(random_spd(120, 0.05, seed=7), minimum_degree_ordering),
        ):
            tree = frontal_memory_tree(matrix)
            postorder = best_postorder(tree)
            optimal = liu_optimal_traversal(tree)
            engine_po = multifrontal_cholesky(matrix, postorder.traversal)
            engine_opt = multifrontal_cholesky(matrix, optimal.traversal)
            assert engine_po.peak_memory == pytest.approx(postorder.memory)
            assert engine_opt.peak_memory == pytest.approx(optimal.memory)
            assert engine_opt.peak_memory <= engine_po.peak_memory + 1e-9
            assert factorization_error(matrix, engine_opt.factor) < 1e-8

    def test_cb_volume_independent_of_traversal(self):
        a = grid_laplacian_2d(6)
        tree = frontal_memory_tree(a)
        t1 = multifrontal_cholesky(a, best_postorder(tree).traversal)
        t2 = multifrontal_cholesky(a, min_mem(tree).traversal.reversed())
        assert t1.total_cb_volume == pytest.approx(t2.total_cb_volume)


class TestFrontalMemoryTree:
    def test_structure_matches_etree(self):
        a = grid_laplacian_2d(5)
        tree = frontal_memory_tree(a)
        parent = elimination_tree(a)
        assert tree.size == a.shape[0]
        for j in range(a.shape[0]):
            expected = None if parent[j] < 0 else int(parent[j])
            assert tree.parent(j) == expected

    def test_weights_are_front_sizes(self):
        from repro.sparse.symbolic import column_patterns

        a = grid_laplacian_2d(4)
        tree = frontal_memory_tree(a)
        patterns = column_patterns(a)
        for j in range(a.shape[0]):
            front = (len(patterns[j]) + 1) ** 2
            assert tree.n(j) + tree.f(j) == pytest.approx(front)
