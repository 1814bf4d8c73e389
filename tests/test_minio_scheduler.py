"""Unit tests for the out-of-core scheduler and the I/O lower bounds."""

import pytest

from repro.core.builders import from_parent_list, star_tree
from repro.core.liu import liu_min_memory
from repro.core.minio import (
    HEURISTICS,
    divisible_lower_bound,
    io_volume,
    memory_deficit_lower_bound,
    run_out_of_core,
)
from repro.core.minmem import min_mem
from repro.core.postorder import best_postorder
from repro.core.traversal import check_out_of_core

from _helpers import make_random_tree
from _oracles.bruteforce import optimal_min_io


def tight_tree():
    """Root with two 2-node chains; forces I/O when memory is scarce."""
    return from_parent_list(
        [None, 0, 0, 1, 2], f=[0.0, 3.0, 3.0, 4.0, 4.0], n=[0.0] * 5
    )


class TestScheduler:
    def test_no_io_when_memory_is_peak(self):
        t = tight_tree()
        res = min_mem(t)
        out = run_out_of_core(t, res.memory, res.traversal, "first_fit")
        assert out.io_volume == 0.0
        assert out.io_operations == 0

    def test_io_when_memory_tight(self):
        t = tight_tree()
        trav = min_mem(t).traversal
        out = run_out_of_core(t, t.max_mem_req(), trav, "first_fit")
        assert out.io_volume > 0
        ok, io = check_out_of_core(t, t.max_mem_req(), out.schedule)
        assert ok
        assert io == pytest.approx(out.io_volume)

    def test_schedules_always_valid(self, rng):
        for _ in range(40):
            t = make_random_tree(rng.randint(2, 15), rng, max_f=8, max_n=4)
            trav = min_mem(t).traversal
            for frac in (0.0, 0.5):
                memory = t.max_mem_req() + frac * (min_mem(t).memory - t.max_mem_req())
                for name in HEURISTICS:
                    out = run_out_of_core(t, memory, trav, name)
                    ok, io = check_out_of_core(t, memory, out.schedule)
                    assert ok, name
                    assert io == pytest.approx(out.io_volume)
                    assert out.peak_resident <= memory + 1e-9

    def test_heuristics_at_least_optimal(self, rng):
        for _ in range(25):
            t = make_random_tree(rng.randint(2, 8), rng, max_f=6, max_n=3)
            memory = t.max_mem_req()
            opt = optimal_min_io(t, memory)
            trav = min_mem(t).traversal
            for name in HEURISTICS:
                assert run_out_of_core(t, memory, trav, name).io_volume >= opt - 1e-9

    def test_memory_below_max_memreq_rejected(self):
        t = tight_tree()
        with pytest.raises(ValueError):
            run_out_of_core(t, t.max_mem_req() - 1, min_mem(t).traversal)

    def test_custom_selector(self):
        t = tight_tree()
        trav = min_mem(t).traversal
        calls = []

        def greedy_all(candidates, io_req):
            calls.append(io_req)
            return [node for node, _ in candidates]

        out = run_out_of_core(t, t.max_mem_req(), trav, greedy_all)
        assert calls, "selector should have been invoked"
        ok, _ = check_out_of_core(t, t.max_mem_req(), out.schedule)
        assert ok

    def test_io_volume_helper(self):
        t = tight_tree()
        trav = min_mem(t).traversal
        assert io_volume(t, t.max_mem_req(), trav, "lsnf") == pytest.approx(
            run_out_of_core(t, t.max_mem_req(), trav, "lsnf").io_volume
        )

    def test_bottomup_traversal_accepted(self):
        t = tight_tree()
        trav = min_mem(t).traversal.reversed()
        out = run_out_of_core(t, t.max_mem_req(), trav, "first_fit")
        ok, _ = check_out_of_core(t, t.max_mem_req(), out.schedule)
        assert ok

    def test_io_bounded_and_zero_at_peak(self, rng):
        """I/O never exceeds one write per file, and vanishes once the memory
        reaches the traversal's in-core peak."""
        for _ in range(20):
            t = make_random_tree(rng.randint(2, 12), rng, max_f=6, max_n=2)
            result = min_mem(t)
            for name in HEURISTICS:
                tight = run_out_of_core(t, t.max_mem_req(), result.traversal, name)
                assert tight.io_volume <= t.total_file_size() + 1e-9
                roomy = run_out_of_core(t, result.memory, result.traversal, name)
                assert roomy.io_volume == pytest.approx(0.0)


class TestLowerBounds:
    def test_memory_deficit_bound(self):
        t = tight_tree()
        opt_memory = liu_min_memory(t)
        assert memory_deficit_lower_bound(t, opt_memory) == 0.0
        assert memory_deficit_lower_bound(t, opt_memory - 2) == pytest.approx(2.0)

    def test_deficit_bound_below_heuristics(self, rng):
        for _ in range(20):
            t = make_random_tree(rng.randint(2, 12), rng, max_f=6, max_n=2)
            memory = t.max_mem_req()
            bound = memory_deficit_lower_bound(t, memory)
            trav = min_mem(t).traversal
            for name in HEURISTICS:
                assert run_out_of_core(t, memory, trav, name).io_volume >= bound - 1e-9

    def test_divisible_bound_below_integral(self, rng):
        for _ in range(20):
            t = make_random_tree(rng.randint(2, 12), rng, max_f=6, max_n=2)
            memory = t.max_mem_req()
            trav = min_mem(t).traversal
            frac = divisible_lower_bound(t, memory, trav)
            for name in HEURISTICS:
                assert run_out_of_core(t, memory, trav, name).io_volume >= frac - 1e-9

    def test_divisible_bound_zero_at_peak(self):
        t = tight_tree()
        res = min_mem(t)
        assert divisible_lower_bound(t, res.memory, res.traversal) == pytest.approx(0.0)

    def test_divisible_bound_rejects_small_memory(self):
        t = tight_tree()
        with pytest.raises(ValueError):
            divisible_lower_bound(t, 1.0, min_mem(t).traversal)
