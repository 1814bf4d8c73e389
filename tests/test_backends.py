"""Tests for the executor-backend seam (:mod:`repro.solvers.engine.backends`).

Three concerns, mirroring the call sites that share the seam:

* the parity matrix: every registered algorithm (the ``auto`` portfolio
  included) is bit-identical in-process and on the persistent process
  engine;
* the engine lifecycle (stop -> reject new work -> shutdown -> re-arm) and
  the serial backend's already-completed futures;
* the campaign planner's straggler re-splitting is an execution detail:
  exactly one record per cell, bit-identical to the serial campaign.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.bench import run_scenarios, select_scenarios
from repro.core.builders import chain_tree
from repro.faults import FaultPlan, FaultSpec
from repro.solvers import UnknownSolverError, list_solvers, solve, solve_many
from repro.solvers.engine import (
    EngineStoppedError,
    PersistentBackend,
    SerialBackend,
    SolveEngine,
    shutdown_engine,
)
from repro.solvers.facade import _solve_task

from _helpers import can_spawn_workers, make_random_tree


@pytest.fixture(scope="module", autouse=True)
def _shutdown_engines():
    # the parity matrix leaves the warm default engine behind; release its
    # workers once the module is done
    yield
    shutdown_engine()


# ----------------------------------------------------------------------
# parity matrix: every algorithm, in-process and on the process engine
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
        got = solve_many(kerns, algorithms, memory=budget, workers=3)
        assert got == expected


# ----------------------------------------------------------------------
# lifecycle: stop -> reject -> shutdown -> re-arm
# ----------------------------------------------------------------------
class TestLifecycle:
    @pytest.mark.parametrize(
        "backend", [PersistentBackend, SerialBackend],
        ids=["persistent", "serial"],
    )
    def test_stop_rejects_and_shutdown_rearms(self, backend):
        cells = [
            (chain_tree(5, f=2.0, n=1.0).kernel(), "minmem", None, {})
            for _ in range(3)
        ]
        engine = SolveEngine(backend=backend())
        try:
            first = engine.run_batch(cells, workers=2)
            if first is None:  # the platform cannot spawn workers
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

    def test_serial_futures_are_already_completed(self):
        kern = chain_tree(6, f=2.0, n=1.0).kernel()
        cells = [(kern, "minmem", None, {}), (kern, "postorder", None, {})]
        backend = SerialBackend()
        single = backend.submit_cell(cells[0], workers=1)
        chunk = backend.submit_chunk(cells, workers=1)
        assert single.done() and chunk.done()
        assert single.result() == _solve_task(cells[0])
        assert chunk.result() == [_solve_task(cell) for cell in cells]
        # a solver error settles the future instead of raising at submit
        failed = backend.submit_chunk([(kern, "nope", None, {})], workers=1)
        assert isinstance(failed.exception(), UnknownSolverError)

    @pytest.mark.skipif(not can_spawn_workers(),
                        reason="platform cannot spawn worker processes")
    def test_engine_reset_survives(self):
        kern = chain_tree(6, f=2.0, n=1.0).kernel()
        with SolveEngine() as engine:
            assert engine.run_batch([(kern, "minmem", None, {})] * 2, workers=2)
            engine.reset()  # discard the pool; next call rebuilds it
            assert engine.run_batch([(kern, "minmem", None, {})] * 2, workers=2)


# ----------------------------------------------------------------------
# campaign work-splitting: straggler re-splits are an execution detail
# ----------------------------------------------------------------------
class TestStragglerResplit:
    @pytest.mark.skipif(not can_spawn_workers(),
                        reason="platform cannot spawn worker processes")
    def test_resplit_fires_and_records_stay_bit_identical(self):
        campaign = select_scenarios("assembly")
        # cell 3 sleeps 0.5 s in its worker: its unit outlives the re-split
        # threshold (4x the median unit round trip, at least 50 ms)
        plan = FaultPlan([FaultSpec("straggler", 3, 0.5)])
        split = run_scenarios(
            campaign, seed=1, repeat=1, workers=2, fault_plan=plan
        )
        serial = run_scenarios(campaign, seed=1, repeat=1)

        assert split.extras["backend"] == "persistent"
        assert split.extras["work_units"] > 0
        assert split.extras["straggler_resplits"] >= 1
        assert serial.extras == {
            "backend": "serial",
            "work_units": 0,
            "straggler_resplits": 0,
            "unit_retries": 0,
        }

        # exactly one record per cell, in the serial campaign's order,
        # despite the duplicate in-flight copies the re-split created
        split_keys = [record.key for record in split.records]
        assert split_keys == [record.key for record in serial.records]
        assert len(split_keys) == len(set(split_keys))

        stripped = [
            [replace(r, best_time=0.0, mean_time=0.0) for r in run.records]
            for run in (split, serial)
        ]
        assert stripped[0] == stripped[1]

    def test_bad_split_factors_rejected(self):
        with pytest.raises(ValueError, match="saturate_factor"):
            run_scenarios([], saturate_factor=0.0)
        with pytest.raises(ValueError, match="straggler_factor"):
            run_scenarios([], straggler_factor=-1.0)
