"""Tests for the deterministic fault-injection layer (repro.faults).

Three tiers, mirroring the package:

* unit tests of the plan / retry-policy / circuit-breaker primitives;
* injector semantics (position bookkeeping, re-submission immunity,
  worker-kill degradation, submit-side delivery);
* end-to-end chaos campaigns through ``bench.run_scenarios`` -- seeded
  faults in-process and on the persistent engine, checkpoint/resume --
  whose acceptance criterion is always the same: exactly one record per
  cell, bit-identical to the fault-free run, counters matching the
  injected plan.
"""

import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bench import JournalError, run_scenarios, select_scenarios
from repro.core.builders import chain_tree
from repro.faults import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    FaultyBackend,
    RetryBudget,
    RetryPolicy,
    TransientSolverError,
    classify_fault,
    parse_faults,
)
from repro.faults.injector import FAULT_OPTION_KEY
from repro.solvers.engine import SolveEngine
from repro.solvers.engine.backends import (
    ExecutorUnavailable,
    PersistentBackend,
    SerialBackend,
)
from repro.solvers.engine.pool import PersistentPool
from repro.solvers.facade import _solve_task

from _helpers import can_spawn_workers


def _stable(record):
    """A record's identity minus wall-clock noise (timings vary per run)."""
    return (
        record.key, record.nodes, record.peak_memory, record.io_volume,
        record.optimality_ratio, record.memory_limit, record.budget_fraction,
        record.replay_ok, record.replay_error, record.repeats,
    )


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_seeded_plans_are_deterministic(self):
        a = FaultPlan.seeded(42, 100, worker_kill=1, straggler=2, transient=3)
        b = FaultPlan.seeded(42, 100, worker_kill=1, straggler=2, transient=3)
        assert a.specs == b.specs
        assert a.counts() == {"worker_kill": 1, "straggler": 2, "transient": 3}
        # distinct positions (sampling is without replacement)
        positions = [s.at for s in a.specs]
        assert len(set(positions)) == len(positions)
        different = FaultPlan.seeded(43, 100, worker_kill=1, straggler=2,
                                     transient=3)
        assert different.specs != a.specs

    def test_seeded_rejects_overfull_plans(self):
        with pytest.raises(ValueError, match="cannot place"):
            FaultPlan.seeded(0, 2, transient=3)

    def test_parse_round_trips_describe(self):
        plan = parse_faults("kill@3,straggler@5:0.2,transient@9")
        assert plan.counts() == {"worker_kill": 1, "straggler": 1,
                                 "transient": 1}
        assert [s.at for s in plan.specs] == [3, 5, 9]
        assert parse_faults(plan.describe()).specs == plan.specs

    @pytest.mark.parametrize("bad,match", [
        ("kill", "kind@position"),
        ("kill@x", "position"),
        ("kill@3:soon", "delay"),
        ("nope@1", "unknown fault kind"),
        (" , ", "names no faults"),
    ])
    def test_parse_rejects_malformed_specs(self, bad, match):
        with pytest.raises(ValueError, match=match):
            parse_faults(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode", 0)
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec("transient", -1)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_classify_fault_taxonomy(self):
        assert classify_fault(BrokenProcessPool("x")) == "broken_pool"
        assert classify_fault(pickle.PicklingError("x")) == "pickling"
        assert classify_fault(TransientSolverError("x")) == "transient"
        assert classify_fault(TimeoutError("x")) == "timeout"
        assert classify_fault(ExecutorUnavailable("x")) == "unavailable"
        assert classify_fault(ValueError("x")) == "solver"

    def test_retryability_and_attempt_cap(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry("transient", 1)
        assert policy.should_retry("broken_pool", 2)
        assert not policy.should_retry("transient", 3)   # attempts exhausted
        assert not policy.should_retry("pickling", 1)    # deterministic fault
        assert not policy.should_retry("solver", 1)      # caller's problem

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.5, multiplier=2.0,
                             jitter=0.5)
        first = policy.delay(1, key="unit:0-10")
        assert first == policy.delay(1, key="unit:0-10")  # same key, same jitter
        assert first != policy.delay(1, key="unit:10-20")
        assert 0.0 < first <= 0.5
        # exponential growth until the cap
        assert policy.delay(6, key="k") <= 0.5 * 1.25

    def test_budget_bounds_total_retries(self):
        budget = RetryBudget(2)
        policy = RetryPolicy(max_attempts=10)
        taken = [policy.should_retry("transient", 1, budget) for _ in range(4)]
        assert taken == [True, True, False, False]
        assert budget.exhausted


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _stepped(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0,
                                 clock=lambda: clock[0])
        return breaker, clock

    def test_opens_after_consecutive_failures_only(self):
        breaker, _ = self._stepped()
        breaker.record_failure()
        breaker.record_success()  # success resets the consecutive count
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.rejections == 1

    def test_cooldown_half_open_probe_then_close(self):
        breaker, clock = self._stepped()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock[0] = 5.0
        assert not breaker.allow()  # cooldown not yet expired
        clock[0] = 10.0
        assert breaker.allow()      # the half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # only one probe in flight
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.snapshot()["transitions"] == {
            "closed->open": 1, "open->half_open": 1, "half_open->closed": 1,
        }

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker, clock = self._stepped()
        breaker.record_failure()
        breaker.record_failure()
        clock[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock[0] = 19.0
        assert not breaker.allow()  # cooldown restarted at t=10
        clock[0] = 20.0
        assert breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_state_codes_are_stable(self):
        breaker, _ = self._stepped()
        assert breaker.state_code == 0
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state_code == 1


# ----------------------------------------------------------------------
# injector
# ----------------------------------------------------------------------
class TestFaultyBackend:
    def _cells(self, n):
        return [(chain_tree(4), "minmem", None, {}) for _ in range(n)]

    def test_worker_fault_rides_in_options_and_solves(self):
        plan = FaultPlan([FaultSpec("straggler", 1, 0.0)])
        backend = FaultyBackend(SerialBackend(), plan)
        cells = self._cells(3)
        reports = backend.map_cells(cells, workers=1)
        assert len(reports) == 3
        assert backend.injected == {"straggler": 1}
        # the armed option never leaks into the caller's cells
        assert all(FAULT_OPTION_KEY not in cell[3] for cell in cells)
        backend.shutdown()

    def test_resubmission_neither_advances_nor_refires(self):
        plan = FaultPlan([FaultSpec("transient", 0)])
        backend = FaultyBackend(SerialBackend(), plan)
        cells = self._cells(2)
        with pytest.raises(TransientSolverError):
            backend.map_cells(cells, workers=1)
        # the retry (same cell objects) sails through: the fault was
        # consumed, and positions did not advance past the plan
        reports = backend.map_cells(cells, workers=1)
        assert len(reports) == 2
        assert backend.injected == {"transient": 1}
        assert backend.snapshot()["faults"]["cells_seen"] == 2
        backend.shutdown()

    def test_worker_kill_degrades_on_in_process_backends(self):
        plan = FaultPlan([FaultSpec("worker_kill", 0)])
        backend = FaultyBackend(SerialBackend(), plan)
        # an in-process backend cannot lose a worker: the kill becomes a
        # transient solver error instead of os._exit
        with pytest.raises(TransientSolverError):
            backend.map_cells(self._cells(1), workers=1)
        backend.shutdown()

    def test_submit_side_faults_surface_as_planned(self):
        plan = FaultPlan([
            FaultSpec("pickling", 0), FaultSpec("shm", 1),
            FaultSpec("broken_pool", 2),
        ])
        backend = FaultyBackend(SerialBackend(), plan)
        cells = self._cells(3)
        failed = backend.submit_cell(cells[0], workers=1)
        assert isinstance(failed, Future)
        with pytest.raises(pickle.PicklingError):
            failed.result()
        with pytest.raises(ExecutorUnavailable):
            backend.submit_cell(cells[1], workers=1)  # shm raises eagerly
        broken = backend.submit_cell(cells[2], workers=1)
        with pytest.raises(BrokenProcessPool):
            broken.result()
        assert backend.injected == {"pickling": 1, "shm": 1, "broken_pool": 1}
        backend.shutdown()

    def test_mirrors_inner_identity(self):
        backend = FaultyBackend(PersistentBackend(), FaultPlan())
        inner = backend.inner
        assert (backend.name, backend.releases_gil) == (
            inner.name, inner.releases_gil
        )
        backend.shutdown()


# ----------------------------------------------------------------------
# chaos campaigns (the tentpole acceptance check)
# ----------------------------------------------------------------------
class TestChaosCampaigns:
    SCENARIOS = select_scenarios("assembly")

    def _baseline(self):
        return run_scenarios(self.SCENARIOS, seed=0, repeat=1)

    def test_serial_campaign_bit_identical_under_chaos(self):
        # without workers the plan wraps the in-process backend, whose
        # completed futures run through the same work-unit loop
        baseline = self._baseline()
        plan = FaultPlan.seeded(7, 40, transient=2, straggler=1,
                                straggler_delay=0.01)
        chaotic = run_scenarios(
            self.SCENARIOS, seed=0, repeat=1, fault_plan=plan,
        )
        assert [_stable(r) for r in chaotic.records] == [
            _stable(r) for r in baseline.records
        ]
        faults = chaotic.extras["faults"]
        assert faults["injected"] == plan.counts()
        assert faults["plan"] == plan.describe()
        assert chaotic.extras["backend"] == "serial"
        assert chaotic.extras["work_units"] > 0
        assert chaotic.extras["unit_retries"] == 2  # both transients retried

    @pytest.mark.skipif(not can_spawn_workers(),
                        reason="platform cannot spawn worker processes")
    def test_persistent_campaign_survives_worker_kill(self):
        baseline = self._baseline()
        plan = FaultPlan.seeded(11, 40, worker_kill=1, transient=1)
        chaotic = run_scenarios(
            self.SCENARIOS, seed=0, repeat=1, workers=2, fault_plan=plan,
        )
        assert [_stable(r) for r in chaotic.records] == [
            _stable(r) for r in baseline.records
        ]
        assert chaotic.extras["faults"]["injected"] == plan.counts()
        assert chaotic.extras["unit_retries"] >= 1

    def test_shm_fault_degrades_in_process_with_one_warning(self):
        # the shm fault raises ExecutorUnavailable at submit: the engine
        # warns exactly once, completes the unit in-process, and the run
        # stays bit-identical
        baseline = self._baseline()
        plan = FaultPlan([FaultSpec("shm", 0)])
        with pytest.warns(RuntimeWarning) as caught:
            chaotic = run_scenarios(
                self.SCENARIOS, seed=0, repeat=1, fault_plan=plan,
            )
        unavailable = [w for w in caught
                       if "warned once per engine" in str(w.message)]
        assert len(unavailable) == 1
        assert [_stable(r) for r in chaotic.records] == [
            _stable(r) for r in baseline.records
        ]
        assert chaotic.extras["faults"]["injected"] == {"shm": 1}


# ----------------------------------------------------------------------
# warn-once degradation + engine retry loop, per backend
# ----------------------------------------------------------------------
class TestEngineDegradation:
    def _cells(self, n):
        return [(chain_tree(4 + i), "minmem", None, {}) for i in range(n)]

    def test_serial_backend_warns_once_then_stays_silent(self):
        plan = FaultPlan([FaultSpec("shm", 0), FaultSpec("shm", 2)])
        engine = SolveEngine(backend=FaultyBackend(SerialBackend(), plan))
        try:
            cells = self._cells(6)
            with pytest.warns(RuntimeWarning, match="warned once per engine"):
                assert engine.run_batch(cells[0:2], 2) is None
            # second unavailable batch: counted, not warned again
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                assert engine.run_batch(cells[2:4], 2) is None
            assert engine.serial_fallbacks == 2
            # the engine stays usable once the plan is spent, and its
            # reports match in-process execution bit for bit
            healthy = engine.run_batch(cells[4:6], 2)
            assert healthy == [_solve_task(c) for c in cells[4:6]]
        finally:
            engine.shutdown()

    def test_run_batch_retries_transient_faults(self):
        plan = FaultPlan([FaultSpec("transient", 1)])
        engine = SolveEngine(backend=FaultyBackend(SerialBackend(), plan))
        try:
            cells = self._cells(3)
            reports = engine.run_batch(cells, 2)
            assert reports == [_solve_task(c) for c in cells]
            assert engine.retries == 1
            assert engine.snapshot()["retries"] == 1
        finally:
            engine.shutdown()


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    SCENARIOS = select_scenarios("assembly")

    def test_resume_skips_cells_and_stays_bit_identical(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        full = run_scenarios(self.SCENARIOS, seed=0, repeat=1,
                             checkpoint=journal)
        lines = journal.read_text().splitlines()
        cells = full.extras["checkpoint_cells"]
        assert len(lines) == cells + 1  # header + one line per cell
        # simulate an interrupt: keep the header and the first 10 cells
        journal.write_text("\n".join(lines[:11]) + "\n")
        resumed = run_scenarios(self.SCENARIOS, seed=0, repeat=1,
                                resume=journal)
        assert resumed.extras["resumed_cells"] == 10
        assert resumed.extras["checkpoint_cells"] == cells - 10
        assert [_stable(r) for r in resumed.records] == [
            _stable(r) for r in full.records
        ]
        # the journal grew back to a complete record of the campaign
        assert len(journal.read_text().splitlines()) == cells + 1

    def test_resume_tolerates_a_torn_tail(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        full = run_scenarios(self.SCENARIOS, seed=0, repeat=1,
                             checkpoint=journal)
        text = journal.read_text()
        torn = text[: len(text) - 40]  # cut mid-JSON through the last line
        journal.write_text(torn)
        resumed = run_scenarios(self.SCENARIOS, seed=0, repeat=1,
                                resume=journal)
        assert [_stable(r) for r in resumed.records] == [
            _stable(r) for r in full.records
        ]

    def test_resume_refuses_mismatched_params(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_scenarios(self.SCENARIOS, seed=0, repeat=1, checkpoint=journal)
        with pytest.raises(JournalError, match="seed"):
            run_scenarios(self.SCENARIOS, seed=1, repeat=1, resume=journal)

    def test_conflicting_checkpoint_and_resume_paths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="different files"):
            run_scenarios(self.SCENARIOS, seed=0, repeat=1,
                          checkpoint=tmp_path / "a.jsonl",
                          resume=tmp_path / "b.jsonl")


# ----------------------------------------------------------------------
# exactly-one-reset under concurrency (PersistentPool.invalidate)
# ----------------------------------------------------------------------
class TestPoolInvalidate:
    def test_concurrent_observers_reset_exactly_once(self):
        import threading

        pool = PersistentPool()
        executor = pool.ensure(2)
        if executor is None:
            pytest.skip("platform cannot spawn worker processes")
        try:
            results = []
            barrier = threading.Barrier(4)

            def observer():
                barrier.wait()
                results.append(pool.invalidate(executor))

            threads = [threading.Thread(target=observer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # every observer saw the same broken executor, one reset won
            assert sorted(results) == [False, False, False, True]
            assert pool.snapshot()["resets"] == 1
            # a stale invalidation (executor already replaced) is a no-op
            replacement = pool.ensure(2)
            assert replacement is not executor
            assert pool.invalidate(executor) is False
            assert pool.snapshot()["resets"] == 1
        finally:
            pool.shutdown()
