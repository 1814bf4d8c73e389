"""Unit tests for the graph utilities of the sparse substrate."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.graph import (
    adjacency_lists,
    bfs_levels,
    connected_components,
    pseudo_peripheral_vertex,
    symmetrized_pattern,
)
from repro.sparse.matrices import grid_laplacian_2d


class TestSymmetrizedPattern:
    def test_unsymmetric_input(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [4.0, 0.0, 0.0]]))
        pattern = symmetrized_pattern(a)
        dense = pattern.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 1.0)
        assert dense[0, 2] == 1.0 and dense[2, 0] == 1.0

    def test_values_are_one(self):
        a = grid_laplacian_2d(4)
        pattern = symmetrized_pattern(a)
        assert set(np.unique(pattern.data)) == {1.0}

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            symmetrized_pattern(sp.csr_matrix(np.ones((2, 3))))

    def test_explicitly_stored_zeros(self):
        # regression: .nonzero() drops stored zeros while .nnz counts them,
        # which used to crash the pattern constructor with a length mismatch
        a = sp.csc_matrix(
            (np.array([2.0, 0.0, 3.0]), (np.array([0, 2, 1]), np.array([0, 0, 1]))),
            shape=(3, 3),
        )
        assert a.nnz == 3  # the zero at (2, 0) really is stored
        pattern = symmetrized_pattern(a)
        dense = pattern.toarray()
        # the stored-zero position is part of the structural pattern
        assert dense[2, 0] == 1.0 and dense[0, 2] == 1.0
        assert np.array_equal(dense, dense.T)

    def test_explicit_zero_matrix_market_regression(self):
        # the same crash, reproduced through a MatrixMarket file that stores
        # an explicit zero entry (as collection files routinely do), in
        # general and in symmetric storage
        from pathlib import Path

        from repro.sparse.mmio import read_matrix_market

        for name in ("explicit_zero.mtx", "explicit_zero_symmetric.mtx"):
            path = Path(__file__).parent / "data" / name
            matrix = read_matrix_market(path)
            assert matrix.nnz > np.count_nonzero(matrix.toarray()), name
            pattern = symmetrized_pattern(matrix)
            dense = pattern.toarray()
            assert dense[3, 1] == 1.0 and dense[1, 3] == 1.0, name
            assert np.array_equal(dense, dense.T)
            assert np.all(np.diag(dense) == 1.0)


class TestAdjacencyAndComponents:
    def test_adjacency_excludes_self_loops(self):
        pattern = symmetrized_pattern(grid_laplacian_2d(3))
        adj = adjacency_lists(pattern)
        assert all(v not in set(adj[v]) for v in range(9))
        # corner vertex of a 3x3 grid has two neighbours
        assert len(adj[0]) == 2

    def test_connected_components_single(self):
        adj = adjacency_lists(symmetrized_pattern(grid_laplacian_2d(3)))
        comps = connected_components(adj)
        assert len(comps) == 1
        assert sorted(comps[0]) == list(range(9))

    def test_connected_components_two_blocks(self):
        block = grid_laplacian_2d(2)
        a = sp.block_diag([block, block])
        adj = adjacency_lists(symmetrized_pattern(a))
        comps = connected_components(adj)
        assert len(comps) == 2
        assert sorted(len(c) for c in comps) == [4, 4]


class TestBFSAndPeripheral:
    def test_bfs_levels_cover_graph(self):
        adj = adjacency_lists(symmetrized_pattern(grid_laplacian_2d(4)))
        levels = bfs_levels(adj, 0)
        assert sum(len(l) for l in levels) == 16
        assert levels[0] == [0]
        # level k contains vertices at manhattan distance k from the corner
        assert len(levels[1]) == 2

    def test_bfs_restricted(self):
        adj = adjacency_lists(symmetrized_pattern(grid_laplacian_2d(3)))
        allowed = np.zeros(9, dtype=bool)
        allowed[[0, 1, 2]] = True
        levels = bfs_levels(adj, 0, allowed)
        assert sum(len(l) for l in levels) == 3

    def test_pseudo_peripheral_on_path(self):
        # path graph: peripheral vertex must be one of the two endpoints
        n = 15
        diag = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1])
        adj = adjacency_lists(symmetrized_pattern(sp.csr_matrix(diag)))
        vertex, levels = pseudo_peripheral_vertex(adj, list(range(n)))
        assert vertex in (0, n - 1)
        assert len(levels) == n

    def test_pseudo_peripheral_empty(self):
        adj = adjacency_lists(symmetrized_pattern(grid_laplacian_2d(2)))
        with pytest.raises(ValueError):
            pseudo_peripheral_vertex(adj, [])
