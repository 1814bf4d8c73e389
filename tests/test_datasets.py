"""Unit tests for the experiment data sets."""

import pytest

from repro.analysis.datasets import (
    SCALES,
    assembly_tree_dataset,
    matrix_suite,
    random_tree_dataset,
)
from repro.sparse.assembly import build_assembly_tree
from repro.sparse.matrices import grid_laplacian_2d


class TestMatrixSuite:
    def test_tiny_suite(self):
        suite = matrix_suite("tiny")
        assert len(suite) >= 3
        for name, matrix in suite:
            assert isinstance(name, str)
            assert matrix.shape[0] == matrix.shape[1]

    def test_scales_increase_sizes(self):
        tiny = max(m.shape[0] for _, m in matrix_suite("tiny"))
        small = max(m.shape[0] for _, m in matrix_suite("small"))
        assert small > tiny

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            matrix_suite("huge")


class TestAssemblyDataset:
    def test_tiny_dataset(self):
        instances = assembly_tree_dataset("tiny")
        assert len(instances) >= 4
        for inst in instances:
            inst.tree.validate()
            assert inst.source == "assembly"
            assert inst.metadata["ordering"] in (
                "natural",
                "rcm",
                "minimum_degree",
                "nested_dissection",
            )
            assert inst.size == inst.tree.size

    def test_names_unique(self):
        instances = assembly_tree_dataset("tiny")
        names = [inst.name for inst in instances]
        assert len(names) == len(set(names))

    def test_custom_matrices_and_orderings(self):
        matrix = grid_laplacian_2d(6)
        orderings = ("natural", "minimum_degree", "nested_dissection")
        instances = assembly_tree_dataset(
            "tiny",
            matrices=[("g", matrix)],
            orderings=orderings,
            relaxed=(1, 4),
        )
        assert len(instances) == 2 * len(orderings)
        assert {inst.metadata["relaxed"] for inst in instances} == {1, 4}
        # one ordering per (matrix, ordering) builds the trees a per-budget
        # build from the ordering's name builds
        for inst in instances:
            fresh = build_assembly_tree(
                matrix,
                ordering=inst.metadata["ordering"],
                relaxed=inst.metadata["relaxed"],
            )
            assert inst.tree == fresh.tree

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            assembly_tree_dataset("gigantic")


class TestRandomDataset:
    def test_reweights_assembly_shapes(self):
        assembly = assembly_tree_dataset(
            "tiny", matrices=[("g", grid_laplacian_2d(6))], orderings=("natural",), relaxed=(1,)
        )
        rnd = random_tree_dataset("tiny", seed=3, assembly_instances=assembly, extra_shapes=False)
        assert len(rnd) == len(assembly)
        for orig, rew in zip(assembly, rnd):
            assert rew.source == "random"
            assert rew.tree.size == orig.tree.size
            # shapes preserved
            for v in orig.tree.nodes():
                assert rew.tree.parent(v) == orig.tree.parent(v)

    def test_extra_shapes_appended(self):
        assembly = assembly_tree_dataset(
            "tiny", matrices=[("g", grid_laplacian_2d(6))], orderings=("natural",), relaxed=(1,)
        )
        rnd = random_tree_dataset("tiny", seed=3, assembly_instances=assembly, extra_shapes=True)
        assert len(rnd) > len(assembly)

    def test_deterministic(self):
        assembly = assembly_tree_dataset(
            "tiny", matrices=[("g", grid_laplacian_2d(6))], orderings=("natural",), relaxed=(1,)
        )
        a = random_tree_dataset("tiny", seed=3, assembly_instances=assembly)
        b = random_tree_dataset("tiny", seed=3, assembly_instances=assembly)
        assert [i.name for i in a] == [i.name for i in b]
        assert all(x.tree == y.tree for x, y in zip(a, b))
