"""Unit tests for the fill-reducing orderings."""

import zlib

import numpy as np
import pytest

from repro.sparse.matrices import banded_spd, grid_laplacian_2d, grid_laplacian_3d, random_spd
from repro.sparse.ordering import (
    ORDERINGS,
    apply_ordering,
    minimum_degree_ordering,
    natural_ordering,
    nested_dissection_ordering,
    permutation_matrix,
    rcm_ordering,
)
from repro.sparse.symbolic import symbolic_stats


def is_permutation(perm, n):
    return sorted(perm.tolist()) == list(range(n))


class TestBasics:
    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_returns_permutation(self, name):
        a = grid_laplacian_2d(7)
        perm = ORDERINGS[name](a)
        assert is_permutation(perm, 49)

    def test_natural_is_identity(self):
        a = grid_laplacian_2d(4)
        assert np.array_equal(natural_ordering(a), np.arange(16))

    def test_apply_ordering_symmetric(self):
        a = grid_laplacian_2d(5)
        perm = rcm_ordering(a)
        b = apply_ordering(a, perm)
        assert (abs(b - b.T)).nnz == 0
        assert b.nnz == a.nnz

    def test_permutation_matrix(self):
        a = grid_laplacian_2d(4)
        perm = rcm_ordering(a)
        p = permutation_matrix(perm)
        direct = apply_ordering(a, perm).toarray()
        via_matrix = (p @ a @ p.T).toarray()
        assert np.allclose(direct, via_matrix)


class TestQuality:
    def test_rcm_reduces_bandwidth(self):
        a = random_spd(80, density=0.05, seed=4)
        perm = rcm_ordering(a)
        b = apply_ordering(a, perm)
        def bandwidth(m):
            rows, cols = m.nonzero()
            return int(np.max(np.abs(rows - cols))) if rows.size else 0
        assert bandwidth(b) <= bandwidth(a)

    def test_fill_reduction_on_grid(self):
        """MD and ND must produce (much) less fill than the natural order."""
        a = grid_laplacian_2d(12)
        natural_fill = symbolic_stats(apply_ordering(a, natural_ordering(a))).nnz_l
        md_fill = symbolic_stats(apply_ordering(a, minimum_degree_ordering(a))).nnz_l
        nd_fill = symbolic_stats(apply_ordering(a, nested_dissection_ordering(a))).nnz_l
        assert md_fill < natural_fill
        assert nd_fill < natural_fill

    def test_minimum_degree_on_banded(self):
        a = banded_spd(60, bandwidth=2, seed=1)
        perm = minimum_degree_ordering(a)
        assert is_permutation(perm, 60)

    def test_nested_dissection_leaf_size(self):
        a = grid_laplacian_2d(9)
        perm = nested_dissection_ordering(a, leaf_size=8)
        assert is_permutation(perm, 81)

    def test_nested_dissection_disconnected(self):
        import scipy.sparse as sp

        a = sp.block_diag([grid_laplacian_2d(5), grid_laplacian_2d(6)]).tocsc()
        perm = nested_dissection_ordering(a)
        assert is_permutation(perm, 25 + 36)

    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_a_symmetric_pattern_needs_no_second_pass(self, name, monkeypatch):
        # the pipeline hands the orderings its symmetrized pattern once
        import repro.sparse.assembly as assembly
        import repro.sparse.ordering as ordering
        from repro.sparse.graph import symmetrized_pattern

        a = random_spd(120, density=0.04, seed=9).tolil()
        a[3, 90] = 1.0  # one-sided entries: the raw matrix is not symmetric
        a[100, 7] = 1.0
        a = a.tocsc()
        expected = ORDERINGS[name](a)
        pattern = symmetrized_pattern(a)
        assert np.array_equal(ORDERINGS[name](pattern, symmetrize=False), expected)
        calls = []

        def counted(matrix):
            calls.append(matrix.shape)
            return symmetrized_pattern(matrix)

        monkeypatch.setattr(assembly, "symmetrized_pattern", counted)
        monkeypatch.setattr(ordering, "symmetrized_pattern", counted)
        result = assembly.build_assembly_tree(a, ordering=name)
        assert calls == [a.shape]
        assert np.array_equal(result.permutation, expected)

    def test_deterministic(self):
        a = grid_laplacian_2d(8)
        for name, func in ORDERINGS.items():
            assert np.array_equal(func(a), func(a)), name


@pytest.mark.parametrize(
    "ordering, matrix, crc",
    [
        pytest.param(minimum_degree_ordering, lambda: grid_laplacian_2d(80), 0xE6FB571D, id="md-grid2d-80"),
        pytest.param(minimum_degree_ordering, lambda: grid_laplacian_3d(12), 0x5E158176, id="md-grid3d-12"),
        pytest.param(nested_dissection_ordering, lambda: grid_laplacian_2d(120), 0x57740127, id="nd-grid2d-120"),
    ],
)
def test_benchmark_scale_permutations_are_pinned(ordering, matrix, crc):
    """The permutations of the benchmark's MD and ND matrices, pinned by
    crc32 of their little-endian int64 bytes: a faster ordering must keep
    every tie-break, and the differential gate stops at 576 rows."""
    perm = ordering(matrix())
    assert perm.dtype == np.int64
    assert zlib.crc32(perm.astype("<i8").tobytes()) == crc
