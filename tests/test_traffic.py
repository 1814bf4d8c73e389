"""Tests for the open-loop traffic benchmarks (repro.bench.traffic)."""

import asyncio
import time

import pytest

from repro.bench import (
    TrafficCell,
    TrafficScenario,
    UnknownTrafficScenarioError,
    get_traffic_scenario,
    list_traffic_scenarios,
    load_artifact,
    run_traffic_scenarios,
    select_traffic_scenarios,
    write_artifact,
)
from repro.bench.runner import run_scenarios
from repro.bench.traffic import _drive_open_loop, arrival_schedule, build_request_docs
from repro.core.kernel import TreeKernel
from repro.core.traversal import BOTTOMUP, Traversal
from repro.solvers import SolveReport, register_solver


@pytest.fixture(scope="module", autouse=True)
def _slow_solver():
    # registered at fixture time so collection-time list_solvers() calls in
    # other modules never see it (same pattern as test_service)
    @register_solver("traffic_slow", family="test", summary="fixed-delay solver")
    def _slow(tree, *, seconds=0.03, **_ignored):
        time.sleep(float(seconds))
        root = tree.ids[0] if isinstance(tree, TreeKernel) else tree.root
        return SolveReport(
            algorithm="traffic_slow",
            peak_memory=1.0,
            traversal=Traversal((root,), BOTTOMUP),
        )

    yield


def _tiny_scenario(**overrides):
    defaults = dict(
        name="test_tiny",
        summary="tiny deterministic scenario for tests",
        tree_count=4,
        cells=(TrafficCell(name="poisson-fast", arrival="poisson",
                           requests=12, rate=300.0, deadline=30.0),),
        algorithms=("postorder", "minmem"),
    )
    defaults.update(overrides)
    return TrafficScenario(**defaults)


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = list_traffic_scenarios()
        for expected in ("service_open_smoke", "service_poisson",
                         "service_burst_open"):
            assert expected in names
        assert get_traffic_scenario("Service-Open-Smoke").smoke

    def test_unknown_scenario_raises(self):
        with pytest.raises(UnknownTrafficScenarioError, match="expected one of"):
            get_traffic_scenario("nope")

    def test_select_by_smoke_and_pattern(self):
        smoke = select_traffic_scenarios(smoke=True)
        assert all(s.smoke for s in smoke)
        assert any(s.name == "service_open_smoke" for s in smoke)
        burst = select_traffic_scenarios("burst")
        assert any(s.name == "service_burst_open" for s in burst)

    def test_cell_validation(self):
        with pytest.raises(ValueError, match="arrival"):
            TrafficCell(name="x", arrival="uniform", requests=10)
        with pytest.raises(ValueError, match="requests"):
            TrafficCell(name="x", arrival="poisson", requests=0)
        with pytest.raises(ValueError, match="rate"):
            TrafficCell(name="x", arrival="poisson", requests=10, rate=0.0)


class TestSchedulesAndStreams:
    def test_poisson_schedule_deterministic_and_monotonic(self):
        cell = TrafficCell(name="p", arrival="poisson", requests=50, rate=100.0)
        a = arrival_schedule(cell, seed=7)
        b = arrival_schedule(cell, seed=7)
        assert a == b
        assert len(a) == 50
        assert all(t2 > t1 for t1, t2 in zip(a, a[1:]))
        assert arrival_schedule(cell, seed=8) != a
        # mean rate in the right ballpark (seeded, so this is stable)
        assert 50 / a[-1] == pytest.approx(100.0, rel=0.5)

    def test_burst_schedule_groups_arrivals(self):
        cell = TrafficCell(name="b", arrival="burst", requests=10, rate=100.0,
                           burst_size=4)
        times = arrival_schedule(cell, seed=0)
        assert len(times) == 10
        assert times[0] == times[1] == times[2] == times[3] == 0.0
        assert times[4] == times[7] == pytest.approx(0.04)  # 4 / 100 rps
        assert times[8] == pytest.approx(0.08)

    def test_closed_cells_have_no_schedule(self):
        cell = TrafficCell(name="c", arrival="closed", requests=10)
        assert arrival_schedule(cell, seed=0) == []

    def test_request_docs_full_payload_once_then_tokens(self):
        scenario = _tiny_scenario()
        cell = scenario.cells[0]
        docs = build_request_docs(scenario, cell, seed=3)
        assert docs == build_request_docs(scenario, cell, seed=3)
        assert len(docs) == cell.requests
        full = [d for d in docs if "parents" in d["tree"]]
        tokens = [d for d in docs if "token" in d["tree"]]
        assert len(full) + len(tokens) == len(docs)
        assert 1 <= len(full) <= scenario.tree_count  # first sight only
        assert len(tokens) >= len(docs) - scenario.tree_count
        assert all(d["deadline"] == 30.0 for d in docs)
        assert all(d["algorithm"] in scenario.algorithms for d in docs)
        ids = [d["id"] for d in docs]
        assert len(set(ids)) == len(ids)


class TestRunner:
    def test_inproc_run_produces_artifact_ready_records(self, tmp_path):
        run = run_traffic_scenarios(
            [_tiny_scenario()], seed=0, transport="inproc"
        )
        assert len(run.records) == 1
        record = run.records[0]
        assert record.family == "traffic"
        assert record.algorithm == "service"
        e = record.extras
        assert e["requests"] == 12
        assert e["completed"] == 12
        assert e["rejected"] == 0 and e["deadline_missed"] == 0
        assert e["latency_p50"] <= e["latency_p95"] <= e["latency_p99"]
        assert e["latency_p50"] > 0 and e["throughput_rps"] > 0
        assert record.best_time == e["latency_p50"]
        # traffic runs persist and reload through the v1 artifact pipeline
        path = write_artifact(run, tmp_path / "BENCH_traffic.json")
        loaded = load_artifact(path)
        assert loaded["records"][0]["extras"]["completed"] == 12
        assert loaded["records"][0]["scenario"] == record.scenario
        assert loaded["records"][0]["instance"] == record.instance

    def test_stdio_transport_equivalent_counts(self):
        run = run_traffic_scenarios(
            [_tiny_scenario()], seed=0, transport="stdio"
        )
        e = run.records[0].extras
        assert e["transport"] == "stdio"
        assert e["completed"] == 12 and e["rejected"] == 0

    def test_closed_loop_cell(self):
        scenario = _tiny_scenario(cells=(
            TrafficCell(name="closed-c3", arrival="closed", requests=9,
                        concurrency=3),
        ))
        run = run_traffic_scenarios([scenario])
        e = run.records[0].extras
        assert e["arrival"] == "closed"
        assert e["offered_rate"] is None
        assert e["concurrency"] == 3
        assert e["completed"] == 9

    def test_overload_sheds_via_admission_control(self):
        # a slow solver, one inflight slot, queue bound 2, arrivals far
        # faster than service: the open-loop generator must see rejections
        scenario = _tiny_scenario(
            algorithms=("traffic_slow",),
            tree_count=2,
            cells=(TrafficCell(name="overload", arrival="burst", requests=12,
                               rate=2000.0, burst_size=12),),
        )
        run = run_traffic_scenarios([scenario], max_pending=2)
        e = run.records[0].extras
        assert e["completed"] + e["rejected"] == 12
        assert e["rejected"] >= 8  # bound 2 + a burst of 12 back-to-back
        assert e["completed"] >= 2

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            run_traffic_scenarios([_tiny_scenario()], transport="smoke-signals")


class TestOpenLoopTiming:
    def test_latency_runs_from_the_scheduled_arrival(self):
        # the first send blocks the event loop for 50 ms while four more
        # requests fall due: their wait is latency, not hidden by starting
        # their clocks only once the loop gets round to sending them
        class StallingTransport:
            sends = 0

            async def send(self, doc):
                self.sends += 1
                if self.sends == 1:
                    time.sleep(0.05)
                return {"id": doc["id"], "status": "ok"}

        docs = [{"id": f"r{i}"} for i in range(5)]
        times = [0.0, 0.001, 0.002, 0.003, 0.004]
        outcome = asyncio.run(_drive_open_loop(StallingTransport(), docs, times))
        assert outcome.completed == 5
        assert len(outcome.latencies) == 5
        assert outcome.latencies[0] >= 0.045
        assert min(outcome.latencies[1:]) >= 0.045, outcome.latencies


class TestPoolValidationRegression:
    """The removed pool= knob fails loudly instead of being ignored."""

    def test_run_scenarios_rejects_pool_typo(self):
        with pytest.raises(TypeError, match="pool"):
            run_scenarios([], pool="persistant")
        with pytest.raises(TypeError, match="pool"):
            run_traffic_scenarios([], pool="serial")
