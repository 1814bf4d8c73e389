"""Scenario registry, seed determinism and the benchmark runner."""

import pytest

from repro.bench.runner import run_scenarios
from repro.bench.scenario import (
    Scenario,
    UnknownScenarioError,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_table,
    select_scenarios,
)
from repro.core.builders import chain_tree
from repro.generators.random_trees import random_attachment_tree
from repro.solvers import UnknownSolverError


def make_scenario(**overrides) -> Scenario:
    defaults = dict(
        name="unit",
        family="synthetic",
        builder=lambda seed: [("chain-8", chain_tree(8, f=2.0, n=1.0))],
        algorithms=("postorder", "liu", "minmem"),
        budget_fractions=(0.5,),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestRegistry:
    def test_builtin_campaign_registered(self):
        # importing repro.bench registers the five default families
        import repro.bench  # noqa: F401

        names = list_scenarios()
        for expected in (
            "synthetic", "random", "harpoon", "assembly", "etree",
            "sparse_pipeline",
        ):
            assert expected in names
        families = {s.family for s in scenario_table()}
        assert len(families) >= 4

    def test_sparse_pipeline_scenario_metadata(self):
        import repro.bench  # noqa: F401

        scenario = get_scenario("sparse_pipeline")
        # too large for the smoke gate; CI runs it explicitly on the kernel
        # engine (the builder itself is exercised by test_sparse_kernel.py)
        assert not scenario.smoke
        assert scenario.family == "sparse_pipeline"
        assert "minmem" in scenario.algorithms
        assert "scale" in scenario.tags

    def test_register_and_get(self):
        @register_scenario(
            "Unit-Test-Scenario",
            family="synthetic",
            algorithms=("MinMem",),  # aliases canonicalise at registration
            summary="one chain",
        )
        def _build(seed):
            return [("chain", chain_tree(4))]

        scenario = get_scenario("unit_test_scenario")
        assert scenario.algorithms == ("minmem",)
        assert scenario.build(0)[0][0] == "chain"

    def test_unknown_scenario_raises(self):
        with pytest.raises(UnknownScenarioError):
            get_scenario("no-such-scenario")

    def test_unknown_algorithm_fails_at_registration(self):
        with pytest.raises(UnknownSolverError):
            register_scenario(
                "broken", family="synthetic", algorithms=("not_an_algorithm",)
            )(lambda seed: [])

    def test_select_by_filter_and_smoke(self):
        import repro.bench  # noqa: F401

        assert [s.name for s in select_scenarios("harpoon")] == ["harpoon"]
        # filters also match family names, tags and algorithm names
        assert {s.name for s in select_scenarios("minmem")} >= {"harpoon", "random"}
        smoke = select_scenarios(smoke=True)
        assert smoke and all(s.smoke for s in smoke)
        assert select_scenarios("zzz-no-match") == []

    def test_empty_builder_rejected(self):
        scenario = make_scenario(builder=lambda seed: [])
        with pytest.raises(ValueError, match="no instances"):
            scenario.build(0)


class TestSeedDeterminism:
    def test_same_seed_identical_instances(self):
        import repro.bench  # noqa: F401

        scenario = get_scenario("random")
        first = scenario.build(seed=123)
        second = scenario.build(seed=123)
        assert [name for name, _ in first] == [name for name, _ in second]
        for (_, a), (_, b) in zip(first, second):
            assert a == b  # Tree equality covers structure and weights

    def test_different_seed_different_instances(self):
        import repro.bench  # noqa: F401

        scenario = get_scenario("random")
        trees_a = dict(scenario.build(seed=1))
        trees_b = dict(scenario.build(seed=2))
        assert any(trees_a[name] != trees_b[name] for name in trees_a)


class TestRunner:
    def test_records_and_ratios(self):
        run = run_scenarios([make_scenario()], seed=0, repeat=2)
        assert run.repeat == 2
        by_alg = {r.algorithm: r for r in run.records}
        assert set(by_alg) == {"postorder", "liu", "minmem"}
        for record in run.records:
            assert record.repeats == 2
            assert record.replay_ok, record.replay_error
            assert record.best_time <= record.mean_time
            assert record.optimality_ratio >= 1.0 - 1e-9
            assert record.key == f"unit/chain-8/{record.algorithm}"
        assert by_alg["minmem"].optimality_ratio == pytest.approx(1.0)

    def test_budgeted_sweep(self):
        scenario = make_scenario(
            algorithms=("minmem", "minio_first_fit"),
            budget_fractions=(0.25, 0.75),
            builder=lambda seed: [
                ("rand-40", random_attachment_tree(40, seed=seed))
            ],
        )
        run = run_scenarios([scenario], seed=5)
        budgeted = [r for r in run.records if r.algorithm == "minio_first_fit"]
        assert [r.budget_fraction for r in budgeted] == [0.25, 0.75]
        for record in budgeted:
            assert record.memory_limit is not None
            assert record.replay_ok, record.replay_error
            assert record.peak_memory <= record.memory_limit * (1 + 1e-9)
        # a tighter budget can only cost more I/O
        assert budgeted[0].io_volume >= budgeted[1].io_volume - 1e-9
        # the scheduler replays the reference traversal rather than hiding a
        # re-run of the in-core base solver inside the timed rounds
        assert all(
            r.extras.get("traversal_algorithm") == "given" for r in budgeted
        )

    def test_budgeted_records_carry_no_optimality_ratio(self):
        # a budget-limited run (possibly a partial explore prefix) must not
        # be ranked against the in-core optimum: a prefix peak below the
        # MinMem optimum would read as "better than optimal"
        scenario = make_scenario(
            algorithms=("minmem", "explore", "minio_first_fit"),
            budget_fractions=(0.25,),
            builder=lambda seed: [
                ("rand-40", random_attachment_tree(40, seed=seed))
            ],
        )
        run = run_scenarios([scenario], seed=3)
        for record in run.records:
            if record.budget_fraction is None:
                assert record.optimality_ratio is not None
            else:
                assert record.optimality_ratio is None

    def test_degenerate_budget_labeled_unconstrained(self):
        # chain trees have floor == in-core peak: every fraction collapses
        # to the same unconstrained bound, which must be labeled 1.0
        scenario = make_scenario(
            algorithms=("minmem", "minio_first_fit"),
            budget_fractions=(0.25, 0.75),
        )
        run = run_scenarios([scenario])
        budgeted = [r for r in run.records if r.algorithm == "minio_first_fit"]
        (record,) = budgeted
        assert record.budget_fraction == 1.0
        assert record.io_volume == 0.0

    def test_reference_added_when_missing(self):
        scenario = make_scenario(algorithms=("postorder",))
        run = run_scenarios([scenario])
        assert {r.algorithm for r in run.records} == {"postorder"}
        (record,) = run.records
        assert record.optimality_ratio >= 1.0 - 1e-9

    def test_identical_seeds_identical_metrics(self):
        scenario = make_scenario(
            builder=lambda seed: [("rand-30", random_attachment_tree(30, seed=seed))]
        )
        run_a = run_scenarios([scenario], seed=9)
        run_b = run_scenarios([scenario], seed=9)
        for a, b in zip(run_a.records, run_b.records):
            assert (a.key, a.peak_memory, a.io_volume) == (b.key, b.peak_memory, b.io_volume)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_scenarios([make_scenario()], repeat=0)
        with pytest.raises(ValueError):
            run_scenarios([make_scenario()], warmup=-1)

    def test_format_table_mentions_every_record(self):
        run = run_scenarios([make_scenario()])
        table = run.format_table()
        for record in run.records:
            assert record.key in table


class TestCampaignPlanner:
    """The planned (persistent-engine) path vs the legacy loop structure."""

    def _campaign(self):
        return [
            make_scenario(
                name="planner-a",
                algorithms=("postorder", "liu", "minmem", "minio_first_fit", "explore"),
                budget_fractions=(0.25, 0.75),
                builder=lambda seed: [
                    ("rand-40", random_attachment_tree(40, seed=seed)),
                    ("rand-55", random_attachment_tree(55, seed=seed + 1)),
                    ("chain-30", chain_tree(30, f=2.0, n=1.0)),
                ],
            ),
            make_scenario(name="planner-b"),
        ]

    @pytest.mark.parametrize("workers", (None, 2))
    def test_pool_modes_bit_identical_records(self, workers):
        # the worker count picks the executor: in-process for None, the
        # persistent process engine for 2; both match the serial reference
        from dataclasses import replace

        runs = {
            label: run_scenarios(
                self._campaign(), seed=3, repeat=2, warmup=1, workers=w,
            )
            for label, w in (("serial", 1), ("run", workers))
        }
        stripped = {
            label: [replace(r, best_time=0.0, mean_time=0.0) for r in run.records]
            for label, run in runs.items()
        }
        assert stripped["run"] == stripped["serial"]
        # record order (and therefore keys) is also identical
        keys = [r.key for r in runs["serial"].records]
        assert [r.key for r in runs["run"].records] == keys
        for run in runs.values():
            assert not run.replay_failures
            assert run.campaign_seconds > 0.0
        backend = "persistent" if workers else "serial"
        assert runs["run"].extras["backend"] == backend

    def test_invalid_pool_rejected(self):
        # the pool= knob is gone: the worker count picks the executor
        with pytest.raises(TypeError, match="pool"):
            run_scenarios([make_scenario()], pool="serial")

    def test_planned_timings_per_round(self):
        run = run_scenarios([make_scenario()], seed=0, repeat=3, warmup=1)
        for record in run.records:
            assert record.repeats == 3
            assert record.best_time > 0.0


class TestServiceScenarios:
    def test_service_metadata(self):
        scenario = get_scenario("service")
        assert scenario.smoke  # part of the CI bench-smoke gate
        assert scenario.family == "service"
        # the request-traffic mix runs every in-core algorithm + the portfolio
        assert set(scenario.algorithms) == {
            "postorder",
            "postorder_natural",
            "postorder_subtree_memory",
            "liu",
            "minmem",
            "auto",
        }
        burst = get_scenario("service_burst")
        assert not burst.smoke  # 10k records: artifact-size, not CI, bound
        assert burst.family == "service"
        assert burst.algorithms == scenario.algorithms

    def test_service_builder_traffic_shape(self):
        scenario = get_scenario("service")
        instances = scenario.build(7)
        assert len(instances) == 320
        sizes = [tree.size for _, tree in instances]
        # small heterogeneous trees around the 50-500 band (caterpillar
        # leaf counts are random, so allow a little slack at the edges)
        assert min(sizes) >= 40
        assert max(sizes) <= 550
        labels = {name.split("-")[2] for name, _ in instances}
        assert {"attach", "deep", "caterpillar", "harpoon", "chain"} <= labels
        # deterministic in the seed, different across seeds
        again = scenario.build(7)
        assert [name for name, _ in again] == [name for name, _ in instances]
        other = scenario.build(8)
        assert [t.size for _, t in other] != sizes

    def test_service_burst_is_thousands(self):
        assert len(get_scenario("service_burst").build(0)) == 2000
