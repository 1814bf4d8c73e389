"""Unit tests for the unified solver registry and solve()/solve_many() facade."""

import json
import random

import pytest

from _helpers import make_random_tree
from repro import (
    Comparison,
    SolveReport,
    Tree,
    UnknownSolverError,
    compare,
    get_solver,
    list_solvers,
    register_solver,
    solve,
    solve_many,
)
from repro.core.minio import HEURISTICS
from repro.core.serialize import (
    save_tree,
    solve_report_from_dict,
    solve_report_to_dict,
)
from repro.core.traversal import check_in_core, is_postorder, peak_memory
from repro.solvers import MINMEMORY_SOLVERS, solver_table


@pytest.fixture
def tree(rng):
    return make_random_tree(40, rng)


class TestRegistry:
    def test_all_families_registered(self):
        names = list_solvers()
        assert {"postorder", "postorder_natural", "postorder_subtree_memory"} <= set(names)
        assert {"liu", "minmem", "explore", "minio"} <= set(names)
        assert {f"minio_{h}" for h in HEURISTICS} <= set(names)

    def test_family_filter(self):
        assert set(list_solvers(family="exact")) == {"liu", "minmem"}
        assert all(name.startswith("minio") for name in list_solvers(family="minio"))

    def test_legacy_aliases_resolve(self):
        assert get_solver("PostOrder").name == "postorder"
        assert get_solver("Liu").name == "liu"
        assert get_solver("MinMem").name == "minmem"
        assert get_solver("best_postorder").name == "postorder"

    def test_lookup_is_case_insensitive(self):
        assert get_solver("MINMEM").name == "minmem"
        assert get_solver("Minio-LSNF").name == "minio_lsnf"

    def test_unknown_name_raises_value_error(self, tree):
        with pytest.raises(UnknownSolverError, match="magic"):
            get_solver("magic")
        with pytest.raises(ValueError, match="expected one of"):
            solve(tree, "magic")
        with pytest.raises(UnknownSolverError):
            solve_many([tree], ("minmem", "magic"))

    def test_custom_registration_dispatches(self, tree):
        @register_solver("test_only_dummy", family="test", summary="dummy")
        def _dummy(t, **options):
            from repro.core.postorder import best_postorder

            result = best_postorder(t)
            return SolveReport(
                algorithm="test_only_dummy",
                peak_memory=result.memory,
                traversal=result.traversal,
                extras={"options": sorted(options)},
            )

        report = solve(tree, "Test-Only-Dummy", rule="ignored")
        assert report.algorithm == "test_only_dummy"
        assert report.extras == {"options": ["rule"]}

    def test_solver_table_has_summaries(self):
        for spec in solver_table():
            assert spec.summary
            assert spec.name == spec.name.lower()

    def test_conflicting_registration_fails_atomically(self, tree):
        # re-registering 'minmem' with an alias owned by 'liu' must fail
        # without corrupting either existing entry
        with pytest.raises(ValueError, match="already registered"):
            @register_solver("minmem", family="broken", aliases=("Liu",))
            def _broken(t, **options):
                raise AssertionError("never dispatched")

        assert get_solver("minmem").family == "exact"
        assert get_solver("Liu").name == "liu"
        assert solve(tree, "minmem").algorithm == "minmem"

    def test_typo_option_rejected_not_swallowed(self, tree):
        with pytest.raises(TypeError, match="heuristc"):
            solve(tree, "minio", memory=tree.max_mem_req(), heuristc="lsnf")
        with pytest.raises(TypeError, match="unexpected option"):
            solve(tree, "postorder", rulee="natural")

    @pytest.mark.parametrize("algorithm", list_solvers())
    def test_bad_weights_rejected_by_every_solver(self, algorithm):
        # the kernel checks the weights once, for every solver
        for f in ([0.0, float("nan"), 9.0], [0.0, -5.0, 9.0]):
            bad = Tree.from_parents([-1, 0, 0], f=f, n=[10.0, 20.0, 12.0])
            with pytest.raises(ValueError):
                solve(bad, algorithm)

    @pytest.mark.parametrize("algorithm", list_solvers())
    def test_engine_option_is_gone(self, tree, algorithm):
        # one implementation per algorithm: engine= is an unknown option
        with pytest.raises(TypeError, match="engine"):
            solve(tree, algorithm, engine="kernel")

    def test_facade_memory_dropped_for_in_core_solvers(self, tree):
        # `memory` is a facade-level parameter: harmless for solvers that
        # take no budget (documented), never a TypeError
        report = solve(tree, "postorder", memory=123.0)
        assert report == solve(tree, "postorder")


class TestSolveReports:
    def test_minmemory_reports_are_feasible(self, tree):
        for name in MINMEMORY_SOLVERS:
            report = solve(tree, name)
            assert isinstance(report, SolveReport)
            assert report.algorithm == name
            assert report.io_volume == 0.0
            assert report.schedule is None
            assert report.wall_time >= 0.0
            assert report.memory == report.peak_memory
            assert peak_memory(tree, report.traversal) == pytest.approx(report.peak_memory)

    def test_postorder_rules(self, tree):
        best = solve(tree, "postorder")
        for name in ("postorder_natural", "postorder_subtree_memory"):
            report = solve(tree, name)
            assert is_postorder(tree, report.traversal)
            assert report.peak_memory >= best.peak_memory - 1e-9
        via_opt = solve(tree, "postorder", rule="natural")
        natural = solve(tree, "postorder_natural")
        # same computation, but the report names the registry entry invoked
        assert via_opt.algorithm == "postorder"
        assert natural.algorithm == "postorder_natural"
        assert via_opt.peak_memory == natural.peak_memory
        assert via_opt.traversal == natural.traversal
        assert via_opt.extras == natural.extras == {"rule": "natural"}

    def test_cross_solver_agreement_on_random_trees(self):
        rng = random.Random(1107)
        for trial in range(8):
            t = make_random_tree(30 + 5 * trial, rng, window=6 if trial % 2 else None)
            postorder = solve(t, "postorder").peak_memory
            liu = solve(t, "liu").peak_memory
            minmem = solve(t, "minmem").peak_memory
            assert liu == pytest.approx(minmem)
            assert minmem <= postorder + 1e-9

    def test_explore_with_enough_memory_completes(self, tree):
        optimal = solve(tree, "minmem")
        report = solve(tree, "explore", memory=optimal.peak_memory)
        assert report.extras["completed"] is True
        assert len(report.traversal) == tree.size
        assert check_in_core(tree, optimal.peak_memory, report.traversal)

    def test_explore_with_minimal_memory_is_partial(self, tree):
        report = solve(tree, "explore", memory=tree.max_mem_req())
        assert report.peak_memory <= tree.max_mem_req() + 1e-9
        assert len(report.traversal) <= tree.size

    def test_minio_reports_schedule_and_io(self, tree):
        optimal = solve(tree, "minmem")
        memory = tree.max_mem_req()
        for heuristic in ("first_fit", "lsnf"):
            report = solve(tree, "minio", memory=memory, heuristic=heuristic)
            assert report.schedule is not None
            assert report.io_volume >= 0.0
            assert report.peak_memory <= memory + 1e-9
            assert report.extras["heuristic"] == heuristic
            assert report.extras["memory_limit"] == memory
            pinned = solve(tree, f"minio_{heuristic}", memory=memory)
            assert pinned.io_volume == report.io_volume
        # with the optimal in-core memory no file is ever evicted
        free = solve(tree, "minio", memory=optimal.peak_memory)
        assert free.io_volume == pytest.approx(0.0)

    def test_minio_accepts_precomputed_traversal(self, tree):
        base = solve(tree, "postorder")
        report = solve(
            tree, "minio", memory=tree.max_mem_req(), traversal=base.traversal
        )
        assert report.algorithm == "minio"  # requested registry name
        assert report.extras["traversal_algorithm"] == "given"
        assert report.extras["in_core_peak"] == pytest.approx(base.peak_memory)
        # callers sweeping one traversal can hand over the known peak
        pinned = solve(
            tree,
            "minio",
            memory=tree.max_mem_req(),
            traversal=base.traversal,
            in_core_peak=base.peak_memory,
        )
        assert pinned == report

    def test_comparison_lookup_by_requested_name(self, tree):
        comparison = compare(
            tree, ("postorder", "minio"), memory=tree.max_mem_req()
        )
        assert comparison["minio"].extras["heuristic"] == "first_fit"
        assert set(comparison.algorithms) == {"postorder", "minio"}


class TestAuto:
    def test_auto_is_minmem_in_process_on_large_trees(self, monkeypatch):
        import repro.solvers.facade as facade
        from repro.generators.random_trees import random_attachment_tree, reweight_random

        def no_engine(*args, **kwargs):
            raise AssertionError("auto must not dispatch through solve_many")

        monkeypatch.setattr(facade, "solve_many", no_engine)
        big = reweight_random(random_attachment_tree(25_000, seed=4), seed=5)
        auto, minmem = solve(big, "auto"), solve(big, "minmem")
        assert auto.algorithm == "auto"
        assert auto.peak_memory == minmem.peak_memory
        assert auto.traversal == minmem.traversal
        assert auto.io_volume == minmem.io_volume
        assert auto.extras["portfolio"] == {"algorithm": "minmem", "mode": "route"}

    def test_auto_takes_no_options(self, tree):
        with pytest.raises(TypeError, match="unexpected option"):
            solve(tree, "auto", race_threshold=1)


class TestSolveMany:
    def test_parallel_matches_serial(self):
        rng = random.Random(20110527)
        trees = [make_random_tree(35, rng) for _ in range(6)]
        serial = solve_many(trees, ("postorder", "liu", "minmem"), workers=1)
        parallel = solve_many(trees, ("postorder", "liu", "minmem"), workers=4)
        assert len(serial) == len(parallel) == len(trees)
        # SolveReport equality excludes wall_time, so deterministic solvers
        # must produce identical reports on both paths
        assert serial == parallel

    def test_single_algorithm_string(self, tree):
        (reports,) = solve_many([tree], "minmem")
        assert set(reports) == {"minmem"}
        assert reports["minmem"] == solve(tree, "minmem")

    def test_aliases_canonicalised_in_keys(self, tree):
        (reports,) = solve_many([tree], ("PostOrder", "MinMem"))
        assert set(reports) == {"postorder", "minmem"}

    def test_duplicate_algorithms_rejected(self, tree):
        with pytest.raises(ValueError, match="duplicate"):
            solve_many([tree], ("minmem", "MinMem"))

    def test_empty_algorithms_rejected(self, tree):
        with pytest.raises(ValueError):
            solve_many([tree], ())

    def test_options_forwarded(self, tree):
        (reports,) = solve_many([tree], "minmem", reuse_states=False)
        assert reports["minmem"].extras["reuse_states"] is False

    def test_pool_typo_rejected_eagerly(self, tree):
        # the reserved pool= option must fail fast on unknown strings --
        # before any solving -- not silently fall back to some default
        with pytest.raises(ValueError, match="persistant"):
            solve_many([tree], "minmem", pool="persistant")
        with pytest.raises(ValueError, match="expected one of"):
            solve_many([tree], "minmem", workers=2, pool="thread")

    def test_pool_accepts_known_modes(self, tree):
        for mode in ("persistent", "serial", "threads"):
            (reports,) = solve_many([tree], "minmem", pool=mode)
            assert reports["minmem"] == solve(tree, "minmem")


class TestCompare:
    def test_ranked_best_first(self, tree):
        comparison = compare(tree)
        assert isinstance(comparison, Comparison)
        assert len(comparison) == 3
        peaks = [report.peak_memory for report in comparison]
        assert peaks == sorted(peaks)
        assert comparison.best.peak_memory == pytest.approx(
            solve(tree, "minmem").peak_memory
        )
        assert comparison.ratios()[comparison.best.algorithm] == pytest.approx(1.0)
        assert comparison["postorder"].algorithm == "postorder"
        with pytest.raises(KeyError):
            comparison["nope"]

    def test_format_table(self, tree):
        table = compare(tree).format_table()
        assert "algorithm" in table and "peak memory" in table
        assert "minmem" in table and "liu" in table


class TestReportSerialization:
    def test_in_core_round_trip(self, tree):
        report = solve(tree, "minmem")
        data = json.loads(json.dumps(solve_report_to_dict(report)))
        back = solve_report_from_dict(data)
        assert back == report  # wall_time excluded from equality
        assert back.wall_time == pytest.approx(report.wall_time)
        assert back.extras == report.extras

    def test_out_of_core_round_trip(self, tree):
        report = solve(tree, "minio", memory=tree.max_mem_req(), heuristic="lsnf")
        back = solve_report_from_dict(json.loads(json.dumps(solve_report_to_dict(report))))
        assert back == report
        assert back.schedule.evictions == report.schedule.evictions
        assert back.schedule.io_volume(tree) == pytest.approx(report.io_volume)

    def test_bad_document_rejected(self):
        with pytest.raises(ValueError):
            solve_report_from_dict({"schema": 99, "kind": "solve_report"})
        with pytest.raises(ValueError):
            solve_report_from_dict({"schema": 1, "kind": "tree"})


class TestSolveCli:
    @pytest.fixture
    def tree_file(self, tmp_path, rng):
        path = tmp_path / "tree.json"
        save_tree(make_random_tree(25, rng), path)
        return path

    def test_solve_json_round_trips(self, tree_file, capsys):
        from repro.cli import main
        from repro.core.serialize import load_tree

        assert main(["solve", str(tree_file), "--algorithm", "minmem", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = solve_report_from_dict(payload["report"])
        assert report == solve(load_tree(tree_file), "minmem")

    def test_solve_text_output(self, tree_file, capsys):
        from repro.cli import main

        assert main(["solve", str(tree_file), "--algorithm", "liu"]) == 0
        out = capsys.readouterr().out
        assert "peak memory" in out and "liu" in out

    def test_solve_list_algorithms(self, capsys):
        from repro.cli import main

        assert main(["solve", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("postorder", "liu", "minmem", "minio_lsnf", "explore"):
            assert name in out

    def test_solve_unknown_algorithm_fails(self, tree_file, capsys):
        from repro.cli import main

        assert main(["solve", str(tree_file), "--algorithm", "magic"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_solve_many_trees_batch(self, tmp_path, rng, capsys):
        from repro.cli import main

        paths = []
        for i in range(3):
            path = tmp_path / f"t{i}.json"
            save_tree(make_random_tree(15, rng), path)
            paths.append(str(path))
        code = main(["solve", *paths, "--algorithm", "postorder", "--json", "--workers", "2"])
        assert code == 0
        documents = json.loads(capsys.readouterr().out)
        assert len(documents) == 3
        for document in documents:
            assert solve_report_from_dict(document["report"]).algorithm == "postorder"
