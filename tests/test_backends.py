"""Tests for the executor-backend seam (:mod:`repro.solvers.engine.backends`).

Four concerns, mirroring the call sites that share the seam:

* the registry is the single source of truth: names, capability flags and
  the CLI ``--pool`` choices all agree;
* the parity matrix: every registered algorithm (the ``auto`` portfolio and
  ``reuse=`` incremental re-solves included) is bit-identical across the
  ``serial``/``persistent``/``threads`` backends;
* the engine lifecycle (stop -> reject new work -> shutdown -> re-arm);
* the campaign planner's straggler re-splitting is an execution detail:
  exactly one record per cell, bit-identical to the serial campaign.
"""

from __future__ import annotations

import argparse
import random
import time
from dataclasses import replace

import pytest

from repro.bench.runner import run_scenarios
from repro.bench.scenario import Scenario
from repro.core.builders import chain_tree
from repro.core.kernel import TreeKernel
from repro.core.traversal import BOTTOMUP, Traversal
from repro.solvers import (
    SolveReport,
    backend_names,
    backend_table,
    list_solvers,
    register_solver,
    solve,
    solve_many,
)
from repro.solvers.engine import (
    EngineStoppedError,
    ExecutorBackend,
    SolveEngine,
    create_backend,
    get_backend_spec,
    shutdown_engine,
)
from repro.solvers.facade import POOL_MODES

from _helpers import make_random_tree

#: every registered backend
LOCAL_POOLS = ("serial", "persistent", "threads")


@pytest.fixture(scope="module", autouse=True)
def _shutdown_engines():
    # the parity matrix leaves warm per-backend default engines behind;
    # release their workers once the module is done
    yield
    shutdown_engine()


# ----------------------------------------------------------------------
# registry: one source of truth
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registration_order_and_pool_modes(self):
        assert backend_names() == ("persistent", "serial", "threads")
        assert POOL_MODES == backend_names()
        assert [spec.name for spec in backend_table()] == list(backend_names())

    def test_capability_flags(self):
        flags = {
            spec.name: (spec.cls.releases_gil, spec.cls.supports_futures)
            for spec in backend_table()
        }
        assert flags == {
            # (releases_gil, supports_futures)
            "persistent": (True, True),
            "serial": (False, False),
            "threads": (False, True),
        }

    def test_every_spec_has_a_summary(self):
        for spec in backend_table():
            assert spec.summary
            assert issubclass(spec.cls, ExecutorBackend)

    def test_unknown_backend_lists_the_registry(self):
        with pytest.raises(ValueError, match="unknown executor backend 'bogus'"):
            get_backend_spec("bogus")
        with pytest.raises(ValueError, match="persistent"):
            create_backend("bogus")

    def test_solve_many_validates_pool_from_registry(self):
        tree = chain_tree(4, f=2.0, n=1.0)
        with pytest.raises(ValueError, match="unknown pool mode"):
            solve_many([tree], "minmem", pool="bogus")


class TestCliChoices:
    @staticmethod
    def _pool_choices(command):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        pool = next(
            action
            for action in sub.choices[command]._actions
            if "--pool" in action.option_strings
        )
        return tuple(pool.choices), pool.help or ""

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_solve_and_bench_offer_every_backend(self, command):
        choices, help_text = self._pool_choices(command)
        assert choices == backend_names()
        # the help text is generated from the registry summaries
        for spec in backend_table():
            assert spec.name in help_text

    def test_serve_offers_service_backends_only(self):
        # every registered backend can serve the daemon
        choices, _ = self._pool_choices("serve")
        assert choices == backend_names()


# ----------------------------------------------------------------------
# parity matrix: every algorithm, every local backend
# ----------------------------------------------------------------------
def _parity_trees():
    rng = random.Random(20110527)
    trees = [
        make_random_tree(22, rng),
        make_random_tree(17, rng, max_f=6, max_n=3),
        chain_tree(12, f=3.0, n=1.0),
    ]
    return [tree.kernel() for tree in trees]


class TestBackendParity:
    def test_all_algorithms_bit_identical_across_backends(self):
        kerns = _parity_trees()
        algorithms = list_solvers()  # includes "auto"
        # a budget equal to the in-core peak keeps every budgeted solver
        # (explore, the minio family) feasible on every tree
        budget = max(
            solve(kern, "minmem").peak_memory for kern in kerns
        )
        expected = solve_many(kerns, algorithms, memory=budget, workers=1)
        for pool in LOCAL_POOLS:
            got = solve_many(
                kerns, algorithms, memory=budget, workers=3, pool=pool
            )
            assert got == expected, f"pool={pool} diverged"

    @pytest.mark.parametrize("algorithm", ["postorder", "liu"])
    def test_incremental_reuse_matches_every_backend(self, algorithm):
        rng = random.Random(5)
        tree = make_random_tree(26, rng)
        report = solve(tree, algorithm, reuse=True)
        # mutate a few nodes, then re-solve incrementally
        tree.set_f(rng.randrange(tree.size), 9.0)
        tree.add_node(tree.size, parent=rng.randrange(tree.size), f=4.0, n=2.0)
        incremental = solve(tree, algorithm, reuse=report)
        assert incremental.extras["incremental"] in ("patched", "full")
        for pool in LOCAL_POOLS:
            (scratch,) = solve_many(
                [tree.copy()], ("postorder", "liu"), workers=2, pool=pool
            )
            got = scratch[algorithm]
            assert got.peak_memory == incremental.peak_memory
            assert got.io_volume == incremental.io_volume
            assert got.traversal.order == incremental.traversal.order
            assert got.traversal.convention == incremental.traversal.convention


# ----------------------------------------------------------------------
# lifecycle: stop -> reject -> shutdown -> re-arm
# ----------------------------------------------------------------------
class TestLifecycle:
    @pytest.mark.parametrize("backend", ["threads", "serial"])
    def test_stop_rejects_and_shutdown_rearms(self, backend):
        cells = [
            (chain_tree(5, f=2.0, n=1.0).kernel(), "minmem", None, {})
            for _ in range(3)
        ]
        engine = SolveEngine(backend=backend)
        try:
            first = engine.run_batch(cells, workers=2)
            if first is None:  # serial backend: engine says "run in-process"
                first = [None] * len(cells)
            assert len(first) == len(cells)

            engine.stop()
            assert engine.stopping
            with pytest.raises(EngineStoppedError):
                engine.run_batch(cells, workers=2)
            with pytest.raises(EngineStoppedError):
                engine.submit(cells[0], workers=2)

            engine.shutdown()  # graceful drain completes: flag clears
            assert not engine.stopping
            again = engine.run_batch(cells, workers=2)
            if again is None:
                again = [None] * len(cells)
            assert len(again) == len(cells)
        finally:
            engine.shutdown()

    def test_threads_futures_and_snapshot(self):
        kern = chain_tree(6, f=2.0, n=1.0).kernel()
        with SolveEngine(backend="threads") as engine:
            future = engine.submit((kern, "minmem", None, {}), workers=2)
            report = future.result(timeout=30)
            assert report.algorithm == "minmem"
            chunk = engine.submit_chunk(
                [(kern, "minmem", None, {}), (kern, "postorder", None, {})],
                workers=2,
            )
            reports = chunk.result(timeout=30)
            assert [r.algorithm for r in reports] == ["minmem", "postorder"]
            snap = engine.snapshot()
            assert snap["backend"] == "threads"
            assert snap["submits"] >= 2
            assert snap["pool"]["kind"] == "thread"

    def test_engine_reset_survives(self):
        kern = chain_tree(6, f=2.0, n=1.0).kernel()
        with SolveEngine(backend="threads") as engine:
            assert engine.run_batch([(kern, "minmem", None, {})] * 2, workers=2)
            engine.reset()  # discard the pool; next call rebuilds it
            assert engine.run_batch([(kern, "minmem", None, {})] * 2, workers=2)


# ----------------------------------------------------------------------
# campaign work-splitting: straggler re-splits are an execution detail
# ----------------------------------------------------------------------
@pytest.fixture()
def _sleepy_bench_solver():
    # registered at fixture time (never at import), so parametrized tests
    # that enumerate list_solvers() at collection never see it
    @register_solver(
        "bench_sleepy", family="test", summary="sleeps by size then answers"
    )
    def _sleepy(tree, **_ignored):
        kern = tree if isinstance(tree, TreeKernel) else tree.kernel()
        time.sleep(0.4 if kern.size >= 20 else 0.01)
        root = tree.ids[0] if isinstance(tree, TreeKernel) else tree.root
        return SolveReport(
            algorithm="bench_sleepy",
            peak_memory=float(kern.size),
            traversal=Traversal((root,), BOTTOMUP),
        )

    yield


def _straggler_campaign():
    def builder(seed):
        return [
            ("fast-0", chain_tree(4, f=2.0, n=1.0)),
            ("fast-1", chain_tree(5, f=2.0, n=1.0)),
            ("fast-2", chain_tree(6, f=2.0, n=1.0)),
            ("slow-0", chain_tree(24, f=2.0, n=1.0)),
        ]

    return Scenario(
        name="straggler",
        family="synthetic",
        builder=builder,
        algorithms=("bench_sleepy",),
        budget_fractions=(),
        summary="three quick instances and one deliberate straggler",
    )


class TestStragglerResplit:
    def test_resplit_fires_and_records_stay_bit_identical(
        self, _sleepy_bench_solver
    ):
        campaign = [_straggler_campaign()]
        # saturate_factor=1.0 builds exactly `workers` units, so the slow
        # instance shares a unit with a fast one; straggler_factor=1.2 puts
        # the re-split threshold far below the 0.4 s sleep
        threaded = run_scenarios(
            campaign,
            seed=1,
            repeat=1,
            validate=False,
            workers=2,
            pool="threads",
            saturate_factor=1.0,
            straggler_factor=1.2,
        )
        serial = run_scenarios(
            campaign, seed=1, repeat=1, validate=False, pool="serial"
        )

        assert threaded.extras["backend"] == "threads"
        assert threaded.extras["work_units"] > 0
        assert threaded.extras["straggler_resplits"] >= 1
        assert serial.extras == {
            "backend": "serial",
            "work_units": 0,
            "straggler_resplits": 0,
            "unit_retries": 0,
        }

        # exactly one record per cell, in the serial campaign's order,
        # despite the duplicate in-flight copies the re-split created
        threaded_keys = [record.key for record in threaded.records]
        assert threaded_keys == [record.key for record in serial.records]
        assert len(threaded_keys) == len(set(threaded_keys))

        stripped = [
            [replace(r, best_time=0.0, mean_time=0.0) for r in run.records]
            for run in (threaded, serial)
        ]
        assert stripped[0] == stripped[1]

    def test_bad_split_factors_rejected(self):
        with pytest.raises(ValueError, match="saturate_factor"):
            run_scenarios([_straggler_campaign()], saturate_factor=0.0)
        with pytest.raises(ValueError, match="straggler_factor"):
            run_scenarios([_straggler_campaign()], straggler_factor=-1.0)
