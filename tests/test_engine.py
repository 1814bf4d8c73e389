"""Tests for the persistent shared-memory batch engine (repro.solvers.engine)."""

import gc
import os

import pytest

from repro.core.builders import chain_tree, star_tree
from repro.core.kernel import TreeKernel
from repro.core.traversal import BOTTOMUP, Traversal
from repro.generators.random_trees import random_attachment_tree, random_caterpillar
from repro.solvers import (
    SolveReport,
    get_engine,
    list_solvers,
    register_solver,
    shutdown_engine,
    solve_many,
)
from repro.solvers.engine import PersistentBackend, SolveEngine, TreeArena, resolve
from repro.solvers.engine.dispatch import _compute_chunksize
from repro.solvers.engine.pool import PersistentPool
from repro.solvers.facade import _solve_task


# anonymous module-level lambda: pickling fails with a genuine PicklingError
# (attribute lookup "<lambda>" fails), unlike a function-local object whose
# failure surfaces as AttributeError
_UNPICKLABLE = lambda: None  # noqa: E731


def _sample_trees():
    return [
        random_attachment_tree(90, seed=11),
        chain_tree(40, f=2.0, n=1.0),
        random_caterpillar(25, seed=3, max_leaves=3),
        star_tree(30, leaf_f=3.0, n=1.0),
    ]


@pytest.fixture(autouse=True)
def _engine_teardown():
    # every test leaves the process-wide engine shut down, so no state
    # (workers, segments, tokens) leaks across tests
    yield
    shutdown_engine()


class TestEquivalence:
    """In-process vs persistent engine: bit-identical reports."""

    @pytest.mark.parametrize("algorithm", list_solvers())
    def test_every_algorithm_matches_serial(self, algorithm):
        trees = _sample_trees()
        memory = max(t.max_mem_req() for t in trees) * 1.25
        serial = solve_many(trees, algorithm, memory=memory, workers=None)
        engine = solve_many(trees, algorithm, memory=memory, workers=2)
        assert serial == engine

    def test_pool_modes_identical_multi_algorithm(self):
        trees = _sample_trees()
        algorithms = ("postorder", "liu", "minmem")
        serial = solve_many(trees, algorithms, workers=1)
        persistent = solve_many(trees, algorithms, workers=2)
        assert serial == persistent

    def test_shared_arena_vs_blob_transport(self):
        trees = _sample_trees()
        cells = [(t, "minmem", None, {}) for t in trees]
        serial = [_solve_task(c) for c in cells]
        shm_engine = SolveEngine(backend=PersistentBackend(use_shared_memory=True))
        blob_engine = SolveEngine(backend=PersistentBackend(use_shared_memory=False))
        try:
            via_shm = shm_engine.run_batch(cells, workers=2)
            via_blob = blob_engine.run_batch(cells, workers=2)
        finally:
            shm_engine.shutdown()
            blob_engine.shutdown()
        if via_shm is None or via_blob is None:
            pytest.skip("platform cannot spawn worker processes")
        assert via_shm == serial
        assert via_blob == serial


class TestPersistence:
    def test_pool_reused_across_solve_many_calls(self):
        trees = _sample_trees()
        solve_many(trees, "minmem", workers=2)
        engine = get_engine()
        executor = engine.pool.executor
        if executor is None:
            pytest.skip("platform cannot spawn worker processes")
        solve_many(trees, "postorder", workers=2)
        assert get_engine() is engine
        assert engine.pool.executor is executor

    def test_arena_export_idempotent_per_kernel(self):
        tree = random_attachment_tree(60, seed=5)
        arena = TreeArena()
        try:
            ref_a = arena.export(tree)
            ref_b = arena.export(tree)
            assert ref_a is ref_b
            # a rebuilt kernel (mutation) gets a new token
            tree.set_f(tree.root, 1.0)
            assert arena.export(tree).token != ref_a.token
        finally:
            arena.close()

    def test_pool_grows_but_never_shrinks(self):
        pool = PersistentPool()
        try:
            two = pool.ensure(2)
            if two is None:
                pytest.skip("platform cannot spawn worker processes")
            assert pool.ensure(1) is two  # smaller request reuses
            four = pool.ensure(4)
            assert four is not two
            assert pool.workers == 4
        finally:
            pool.shutdown()

    def test_shutdown_then_reuse(self):
        trees = _sample_trees()[:2]
        first = solve_many(trees, "minmem", workers=2)
        shutdown_engine()
        second = solve_many(trees, "minmem", workers=2)
        assert first == second


class TestArenaTransport:
    def test_shm_roundtrip_in_process(self):
        tree = random_attachment_tree(120, seed=2)
        kern = tree.kernel()
        arena = TreeArena(use_shared_memory=True)
        try:
            ref = arena.export(kern)
            assert ref.kind == "shm"
            clone = resolve(ref)
            assert clone.parent == kern.parent
            assert clone.f == kern.f
            assert clone.n == kern.n
            assert clone.ids == kern.ids
            assert clone.mem_req == kern.mem_req
            assert clone.child_idx == kern.child_idx
        finally:
            arena.close()

    def test_nontrivial_ids_survive_transport(self):
        from repro.core.tree import Tree

        tree = Tree()
        tree.add_node("root", f=1.0, n=0.5)
        tree.add_node(("leaf", 1), parent="root", f=2.0, n=0.25)
        tree.add_node("other", parent="root", f=3.0, n=0.75)
        arena = TreeArena(use_shared_memory=True)
        try:
            ref = arena.export(tree)
            assert ref.ids_bytes > 0
            clone = resolve(ref)
            assert clone.ids == tree.kernel().ids
        finally:
            arena.close()

    def test_segments_cleaned_on_shutdown(self):
        from multiprocessing import shared_memory

        engine = SolveEngine(backend=PersistentBackend(use_shared_memory=True))
        trees = _sample_trees()
        result = engine.run_batch([(t, "postorder", None, {}) for t in trees], 2)
        names = engine.arena.live_segments
        if result is None or not names:
            engine.shutdown()
            pytest.skip("shared-memory transport unavailable")
        engine.shutdown()
        assert engine.arena.live_segments == ()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_segment_released_when_tree_collected(self):
        arena = TreeArena(use_shared_memory=True)
        try:
            tree = random_attachment_tree(40, seed=1)
            ref = arena.export(tree)
            if ref.kind != "shm":
                pytest.skip("shared-memory transport unavailable")
            assert len(arena.live_segments) == 1
            del tree
            gc.collect()
            assert arena.live_segments == ()
        finally:
            arena.close()

    def test_blob_transport_when_shared_memory_unavailable(self, monkeypatch):
        import multiprocessing.shared_memory as shm_module

        def _broken(*args, **kwargs):
            raise OSError("shared memory disabled for this test")

        monkeypatch.setattr(shm_module, "SharedMemory", _broken)
        arena = TreeArena()  # probe mode: must fall back to blobs
        try:
            tree = random_attachment_tree(30, seed=8)
            ref = arena.export(tree)
            assert ref.kind == "blob"
            assert ref.blob  # the pickled flat arrays ride in the ref
            clone = resolve(ref)
            assert clone.parent == tree.kernel().parent
            # the probe failure is remembered: no second attempt
            ref2 = arena.export(chain_tree(5))
            assert ref2.kind == "blob"
        finally:
            arena.close()

    def test_forced_shm_unavailable_raises(self, monkeypatch):
        import multiprocessing.shared_memory as shm_module

        monkeypatch.setattr(
            shm_module, "SharedMemory", lambda *a, **k: (_ for _ in ()).throw(OSError())
        )
        arena = TreeArena(use_shared_memory=True)
        try:
            with pytest.raises(OSError, match="unavailable"):
                arena.export(chain_tree(4))
        finally:
            arena.close()


class TestFallbacks:
    def test_engine_warns_on_unpicklable_options(self):
        trees = _sample_trees()[:2]
        # solve_many refuses an option no solver takes, so the cells go to
        # the engine directly; the option's value cannot be pickled
        cells = [(tree, "minmem", None, {"probe": _UNPICKLABLE}) for tree in trees]
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            assert get_engine().run_batch(cells, 2) is None
        # the serial fallback still produces correct reports (the dispatch
        # drops an option the solver does not declare)
        expected = [reports["minmem"] for reports in solve_many(trees, "minmem")]
        assert [_solve_task(cell) for cell in cells] == expected

    def test_unavailable_platform_warns_once_per_engine(self, monkeypatch):
        engine = SolveEngine()
        monkeypatch.setattr(engine.pool, "ensure", lambda workers: None)
        cells = [(chain_tree(4), "minmem", None, {})] * 2
        try:
            with pytest.warns(RuntimeWarning, match="cannot spawn worker"):
                assert engine.run_batch(cells, 2) is None
            # second batch: remembered, no warning spam
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                assert engine.run_batch(cells, 2) is None
        finally:
            engine.shutdown()

    def test_pool_growth_does_not_cancel_inflight_batches(self):
        # growing the shared pool must let the old executor drain: a batch
        # mid-map on it would otherwise die with CancelledError
        pool = PersistentPool()
        try:
            two = pool.ensure(2)
            if two is None:
                pytest.skip("platform cannot spawn worker processes")
            import time as _time

            futures = [two.submit(_time.sleep, 0.05) for _ in range(4)]
            four = pool.ensure(4)
            assert four is not two
            for future in futures:
                future.result(timeout=10)  # raises if cancelled
        finally:
            pool.shutdown()

    def test_worker_crash_recovers_and_cleans_up(self):
        # a solver that kills the process when run in a worker (but not in
        # the main process, so the serial fallback can finish the batch)
        from repro.solvers import registry

        @register_solver("crash_probe", family="test", summary="worker killer")
        def _crash_probe(tree, *, main_pid=None, **_ignored):
            if main_pid is not None and os.getpid() != int(main_pid):
                os._exit(13)
            root = tree.ids[0] if isinstance(tree, TreeKernel) else tree.root
            return SolveReport(
                algorithm="crash_probe",
                peak_memory=0.0,
                traversal=Traversal((root,), BOTTOMUP),
            )

        try:
            engine = SolveEngine()
            trees = _sample_trees()[:2]
            cells = [
                (t, "crash_probe", None, {"main_pid": os.getpid()}) for t in trees
            ]
            if engine.pool.ensure(2) is None:
                pytest.skip("platform cannot spawn worker processes")
            with pytest.warns(RuntimeWarning, match="worker pool broke"):
                result = engine.run_batch(cells, workers=2)
            assert result is None  # caller is expected to run serially
            # the engine recovered: a fresh pool serves the next batch
            healthy = engine.run_batch([(trees[0], "minmem", None, {})], 2)
            assert healthy is not None
            assert healthy == [_solve_task((trees[0], "minmem", None, {}))]
            # segments owned by the arena survive the crash and are
            # released by shutdown
            names = engine.arena.live_segments
            engine.shutdown()
            assert engine.arena.live_segments == ()
            if names:
                from multiprocessing import shared_memory

                for name in names:
                    with pytest.raises(FileNotFoundError):
                        shared_memory.SharedMemory(name=name)
        finally:
            # deregister the probe so registry-wide tests stay unaffected
            spec = registry._REGISTRY.pop("crash_probe", None)
            if spec is not None:
                for key in (spec.name, *spec.aliases):
                    registry._LOOKUP.pop(key, None)


class TestChunking:
    def test_chunksize_bounds(self):
        assert _compute_chunksize(1, 4) == 1
        assert _compute_chunksize(10, 4) == 1
        assert _compute_chunksize(640, 4) == 40
        assert _compute_chunksize(100_000, 4) == 64  # capped


class TestLifecycle:
    """Context-manager support, the stop flag and idempotent shutdown."""

    def test_context_manager_shuts_down(self):
        with SolveEngine() as engine:
            tree = chain_tree(12, f=2.0, n=1.0)
            if engine.pool.ensure(2) is not None:
                batch = engine.run_batch([(tree, "minmem", None, {})], 2)
                assert batch == [_solve_task((tree, "minmem", None, {}))]
        assert engine.pool.executor is None
        assert engine.arena.live_segments == ()

    def test_stop_flag_rejects_new_work_until_shutdown(self):
        from repro.solvers.engine import EngineStoppedError

        engine = SolveEngine()
        try:
            tree = chain_tree(8)
            engine.stop()
            assert engine.stopping
            with pytest.raises(EngineStoppedError, match="stopping"):
                engine.run_batch([(tree, "minmem", None, {})], 2)
            with pytest.raises(EngineStoppedError, match="stopping"):
                engine.submit((tree, "minmem", None, {}), 2)
            # shutdown completes the drain and clears the flag: the engine
            # accepts work again on a fresh pool
            engine.shutdown()
            assert not engine.stopping
            result = engine.run_batch([(tree, "minmem", None, {})], 2)
            if result is not None:  # platform-dependent; None = serial
                assert result == [_solve_task((tree, "minmem", None, {}))]
        finally:
            engine.shutdown()

    def test_shutdown_is_idempotent(self):
        engine = SolveEngine()
        engine.pool.ensure(2)
        engine.shutdown()
        engine.shutdown()  # second shutdown: no error, still clean
        assert engine.pool.executor is None
        # the process-wide default engine behaves the same
        get_engine()
        shutdown_engine()
        shutdown_engine()

    def test_submit_future_matches_serial(self):
        engine = SolveEngine()
        try:
            if engine.pool.ensure(2) is None:
                pytest.skip("platform cannot spawn worker processes")
            tree = random_attachment_tree(60, seed=5)
            cell = (tree, "minmem", None, {})
            future = engine.submit(cell, 2)
            assert future is not None
            assert future.result(timeout=60) == _solve_task(cell)
            # same tree, second submission: the arena ships nothing new
            exported = engine.arena.live_segments
            future2 = engine.submit((tree, "liu", None, {}), 2)
            assert future2.result(timeout=60) == _solve_task((tree, "liu", None, {}))
            assert engine.arena.live_segments == exported
        finally:
            engine.shutdown()


class TestEngineObservability:
    def test_counters_and_snapshot_after_batches(self):
        trees = [chain_tree(6, f=2.0, n=1.0), star_tree(5, n=1.0)]
        cells = [(tree, "minmem", None, {}) for tree in trees]
        engine = SolveEngine()
        try:
            first = engine.run_batch(cells, workers=2)
            second = engine.run_batch(cells, workers=2)
            snap = engine.snapshot()
            assert snap["batches"] == 2
            assert snap["cells"] == 4
            if first is not None:  # pool available on this platform
                assert second is not None
                pool = snap["pool"]
                assert pool["alive"] and pool["creations"] == 1
                arena = snap["arena"]
                # scatter-once: 2 distinct trees exported once, reused once
                assert arena["exports"] == 2
                assert arena["reuses"] == 2
                assert arena["shm_exports"] + arena["blob_exports"] == 2
            else:
                assert snap["serial_fallbacks"] >= 2
        finally:
            engine.shutdown()

    def test_submit_counts_and_fork_safe_counters(self):
        engine = SolveEngine()
        # the caller must keep the tree alive until the worker attaches:
        # segment lifetime is tied to the kernel (weakref.finalize)
        tree = chain_tree(4, f=1.0, n=1.0)
        try:
            future = engine.submit((tree, "minmem", None, {}), workers=2)
            snap = engine.snapshot()
            assert snap["submits"] == 1
            if future is not None:
                future.result(timeout=60)
        finally:
            engine.shutdown()

    def test_pool_snapshot_shape(self):
        pool = PersistentPool()
        snap = pool.snapshot()
        assert snap == {
            "workers": 0, "alive": False, "unavailable": False,
            "creations": 0, "grows": 0, "resets": 0,
        }
        executor = pool.ensure(2)
        try:
            if executor is not None:
                snap = pool.snapshot()
                assert snap["alive"] and snap["workers"] == 2
                assert snap["creations"] == 1
                pool.ensure(4)  # grow
                assert pool.snapshot()["grows"] == 1
        finally:
            pool.shutdown()

    def test_reset_counts_only_live_pools(self):
        pool = PersistentPool()
        pool.reset()  # nothing live: not a reset event
        assert pool.snapshot()["resets"] == 0
        if pool.ensure(1) is not None:
            pool.reset()
            assert pool.snapshot()["resets"] == 1
        pool.shutdown()

    def test_worker_cache_stats_probe(self):
        from repro.solvers.engine.arena import worker_cache_stats

        stats = worker_cache_stats()  # also callable in-process
        assert set(stats) == {"pid", "resident", "hits", "misses", "hit_rate"}
        assert stats["pid"] == os.getpid()

        engine = SolveEngine()
        try:
            cells = [(chain_tree(5, f=1.0, n=1.0), "minmem", None, {})] * 4
            if engine.run_batch(cells, workers=2) is not None:
                samples = engine.sample_worker_caches(timeout=30.0)
                assert samples, "live pool must answer the probe"
                for sample in samples:
                    assert sample["hits"] + sample["misses"] >= 0
                    assert 0.0 <= sample["hit_rate"] <= 1.0
            else:
                assert engine.sample_worker_caches() == []
        finally:
            engine.shutdown()
