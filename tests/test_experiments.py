"""Unit tests for the experiment drivers (Figures 5-9, Tables I-II)."""

import math

import pytest

from repro.analysis.datasets import (
    TreeInstance,
    assembly_tree_dataset,
    random_tree_dataset,
)
from repro.analysis.experiments import (
    MINMEMORY_ALGORITHMS,
    run_harpoon_ablation,
    run_minio_heuristics,
    run_minmemory_comparison,
    run_runtime_comparison,
    run_traversal_io,
    traversal_for,
)
from repro.core.liu import liu_min_memory
from repro.core.traversal import peak_memory
from repro.generators.harpoon import harpoon_tree
from repro.sparse.matrices import grid_laplacian_2d


@pytest.fixture(scope="module")
def instances():
    return assembly_tree_dataset(
        "tiny", matrices=[("g8", grid_laplacian_2d(8))], orderings=("nested_dissection", "rcm"),
        relaxed=(1, 4),
    )


@pytest.fixture(scope="module")
def harpoon_instances():
    return [
        TreeInstance(name=f"harpoon-b{b}", tree=harpoon_tree(b, 1.0, 0.01), source="synthetic")
        for b in (2, 3, 4)
    ]


class TestTraversalFor:
    def test_all_algorithms(self, instances):
        tree = instances[0].tree
        for name in MINMEMORY_ALGORITHMS:
            memory, traversal = traversal_for(tree, name)
            assert peak_memory(tree, traversal) == pytest.approx(memory)

    def test_unknown_algorithm(self, instances):
        with pytest.raises(ValueError):
            traversal_for(instances[0].tree, "Magic")


class TestMinMemoryComparison:
    def test_postorder_at_least_optimal(self, instances):
        comparison = run_minmemory_comparison(instances)
        assert len(comparison.names) == len(instances)
        for post, opt in zip(comparison.postorder, comparison.optimal):
            assert post >= opt - 1e-9
        stats = comparison.statistics()
        assert stats.mean_ratio >= 1.0

    def test_optimal_matches_liu(self, instances):
        comparison = run_minmemory_comparison(instances)
        for inst, opt in zip(instances, comparison.optimal):
            assert opt == pytest.approx(liu_min_memory(inst.tree))

    def test_profile_non_optimal_only(self, harpoon_instances):
        comparison = run_minmemory_comparison(harpoon_instances)
        # postorder is strictly suboptimal on every harpoon
        assert comparison.statistics().non_optimal_fraction == 1.0
        profile = comparison.profile(non_optimal_only=True)
        assert profile.fraction_best("Optimal") == 1.0
        assert profile.fraction_best("PostOrder") == 0.0

    def test_rows(self, harpoon_instances):
        rows = run_minmemory_comparison(harpoon_instances).rows()
        assert len(rows) == 3
        assert all(row["ratio"] >= 1.0 for row in rows)

    def test_random_trees_harder_than_assembly(self):
        """Section VI-E: PostOrder misses the optimum more often on the
        randomly reweighted trees than on the assembly trees they reuse."""
        assembly = assembly_tree_dataset("tiny")
        reweighted = random_tree_dataset("tiny", seed=0, assembly_instances=assembly)
        assembly_stats = run_minmemory_comparison(assembly).statistics()
        random_stats = run_minmemory_comparison(reweighted).statistics()
        assert random_stats.non_optimal_fraction >= assembly_stats.non_optimal_fraction


class TestRuntimeComparison:
    def test_times_recorded(self, instances):
        runtime = run_runtime_comparison(instances[:2], repeats=1)
        assert set(runtime.times) == {"PostOrder", "Liu", "MinMem"}
        for alg, values in runtime.times.items():
            assert len(values) == 2
            assert all(v >= 0 for v in values)
            assert runtime.total_time(alg) == pytest.approx(sum(values))

    def test_memories_consistent(self, instances):
        runtime = run_runtime_comparison(instances[:2])
        for liu_mem, minmem_mem in zip(runtime.memories["Liu"], runtime.memories["MinMem"]):
            assert liu_mem == pytest.approx(minmem_mem)

    def test_profile_builds(self, instances):
        profile = run_runtime_comparison(instances[:2]).profile()
        assert set(profile.methods) == {"PostOrder", "Liu", "MinMem"}


class TestMinIOExperiments:
    def test_heuristics_experiment(self, instances):
        comparison = run_minio_heuristics(
            instances[:2], memory_fractions=(0.0, 0.5), heuristics=("first_fit", "lsnf")
        )
        assert set(comparison.io_volumes) == {"first_fit", "lsnf"}
        n_cases = len(comparison.cases)
        assert n_cases == 2 * 2
        assert all(len(v) == n_cases for v in comparison.io_volumes.values())
        assert all(v >= 0 for vol in comparison.io_volumes.values() for v in vol)

    def test_traversal_experiment(self, instances):
        comparison = run_traversal_io(
            instances[:2], memory_fractions=(0.0,), heuristic="first_fit"
        )
        assert set(comparison.io_volumes) == {
            "PostOrder + first_fit",
            "Liu + first_fit",
            "MinMem + first_fit",
        }
        profile = comparison.profile()
        assert all(0.0 <= profile.fraction_best(m) <= 1.0 for m in profile.methods)

    def test_io_zero_at_full_memory(self, instances):
        comparison = run_minio_heuristics(
            instances[:1], memory_fractions=(1.0,), heuristics=("first_fit",)
        )
        assert all(v == pytest.approx(0.0) for v in comparison.io_volumes["first_fit"])


class TestHarpoonAblation:
    def test_ratio_grows(self):
        ablation = run_harpoon_ablation(branches=3, levels=(1, 2, 3), epsilon=0.01)
        ratios = ablation.ratios()
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        for measured, predicted in zip(ablation.postorder, ablation.predicted_postorder):
            assert measured == pytest.approx(predicted)
        for measured, predicted in zip(ablation.optimal, ablation.predicted_optimal):
            assert measured == pytest.approx(predicted)
