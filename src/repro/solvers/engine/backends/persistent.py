"""The default backend: persistent process pool + shared-memory tree arena.

This is the engine's original execution strategy, rehomed behind the
:class:`~.base.ExecutorBackend` protocol: a
:class:`~repro.solvers.engine.pool.PersistentPool` of worker processes
reused across batches, and a :class:`~repro.solvers.engine.arena.TreeArena`
that ships each tree's flat kernel arrays to the workers exactly once, so
payloads are compact ``(token, algorithm, memory, options)`` tuples rather
than pickled trees.  Behaviour -- clamping, chunk sizing, the grow-retry on
a concurrently replaced executor, arena dedup by kernel identity -- is
unchanged from the pre-backend engine.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..arena import TreeArena, TreeRef, resolve
from ..pool import PersistentPool
from .base import (
    Cell,
    ExecutorBackend,
    ExecutorUnavailable,
    _call_with_pool_retry,
)

__all__ = [
    "PersistentBackend",
    "MAX_CHUNKSIZE",
    "_compute_chunksize",
    "_solve_payload",
    "_solve_payload_chunk",
]

#: payloads per executor message: large enough to amortize IPC, small enough
#: to keep every worker busy (at least ~4 chunks per worker per batch)
MAX_CHUNKSIZE = 64


def _solve_payload(payload: Tuple[TreeRef, str, Optional[float], Dict[str, Any]]):
    """Module-level worker entry point (importable under any start method).

    Lenient dispatch, as in the serial batch path: one option set serves
    algorithms with different signatures.
    """
    from ...facade import _dispatch

    ref, algorithm, memory, options = payload
    return _dispatch(resolve(ref), algorithm, memory, options, strict=False)


def _solve_payload_chunk(payloads: Sequence[Tuple]) -> List[Any]:
    """Worker entry point for one campaign work unit (a payload list)."""
    return [_solve_payload(payload) for payload in payloads]


def _compute_chunksize(n_payloads: int, workers: int) -> int:
    return max(1, min(MAX_CHUNKSIZE, n_payloads // (workers * 4) or 1))


class PersistentBackend(ExecutorBackend):
    """Shared-memory process engine: workers and resident trees persist."""

    name = "persistent"
    summary = (
        "shared-memory process engine reused across batches (the default)"
    )
    releases_gil = True

    def __init__(self, *, use_shared_memory: Optional[bool] = None) -> None:
        self.arena = TreeArena(use_shared_memory=use_shared_memory)
        self.pool = PersistentPool()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _ensure(self, workers: int):
        executor = self.pool.ensure(workers)
        if executor is None:
            raise ExecutorUnavailable(
                "this platform cannot spawn worker processes"
            )
        return executor

    def _payloads(self, cells: Sequence[Cell]) -> List[Tuple]:
        # cells sharing a tree should be adjacent (tree-major order): chunks
        # then reference a single arena token each, and blob-transport
        # fallbacks serialize the tree once per chunk (pickle memo)
        refs: Dict[int, TreeRef] = {}
        payloads = []
        for tree, algorithm, memory, options in cells:
            ref = refs.get(id(tree))
            if ref is None:
                ref = refs[id(tree)] = self.arena.export(tree)
            payloads.append((ref, algorithm, memory, options))
        return payloads

    def _retry_on_grow(self, executor, call):
        # grow races retry by policy, broken pools are invalidated exactly
        # once; see _call_with_pool_retry
        return _call_with_pool_retry(self.pool, executor, call)

    # ------------------------------------------------------------------
    def map_cells(self, cells: Sequence[Cell], workers: int) -> List[Any]:
        with self._lock:
            executor = self._ensure(workers)
            payloads = self._payloads(cells)
            chunksize = _compute_chunksize(len(payloads), self.pool.workers)
        return self._retry_on_grow(
            executor,
            lambda ex: list(
                ex.map(_solve_payload, payloads, chunksize=chunksize)
            ),
        )

    def submit_cell(self, cell: Cell, workers: int):
        with self._lock:
            executor = self._ensure(workers)
            tree, algorithm, memory, options = cell
            payload = (self.arena.export(tree), algorithm, memory, options)
        return self._retry_on_grow(
            executor, lambda ex: ex.submit(_solve_payload, payload)
        )

    def submit_chunk(self, cells: Sequence[Cell], workers: int):
        with self._lock:
            executor = self._ensure(workers)
            payloads = self._payloads(cells)
        return self._retry_on_grow(
            executor, lambda ex: ex.submit(_solve_payload_chunk, payloads)
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.pool.reset()

    def shutdown(self) -> None:
        self.pool.shutdown()
        self.arena.close()

    def snapshot(self) -> Dict[str, Any]:
        return {"pool": self.pool.snapshot(), "arena": self.arena.snapshot()}

    def sample_worker_caches(self, timeout: float = 1.0) -> List[Dict[str, Any]]:
        """Best-effort worker kernel-cache stats, one entry per worker seen.

        Submits the picklable
        :func:`~repro.solvers.engine.arena.worker_cache_stats` probe
        ``2 x workers`` times and deduplicates by pid -- sampling, not a
        barrier: an idle pool answers from every worker, a busy pool from
        whichever workers pick the probes up first.  Returns ``[]`` when no
        pool is alive (serial platforms, or before the first batch).
        """
        from ..arena import worker_cache_stats

        with self._lock:
            executor = self.pool.executor
            workers = self.pool.workers
        if executor is None or workers < 1:
            return []
        futures = []
        try:
            for _ in range(2 * workers):
                futures.append(executor.submit(worker_cache_stats))
        except RuntimeError:  # pool shut down underneath us
            return []
        by_pid: Dict[int, Dict[str, Any]] = {}
        for future in futures:
            try:
                stats = future.result(timeout=timeout)
            except Exception:
                continue
            by_pid[int(stats["pid"])] = stats
        return [by_pid[pid] for pid in sorted(by_pid)]
