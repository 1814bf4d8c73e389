"""Batch/submit dispatch over an executor backend.

A *cell* is one solver invocation: ``(tree, algorithm, memory, options)``.
:class:`SolveEngine` owns the cross-cutting concerns -- the stop flag,
serial-fallback warnings, observability counters -- and delegates actual
execution to an :class:`~.backends.ExecutorBackend` (by default the
shared arena + persistent process pool of
:class:`~.backends.PersistentBackend`).

Results come back in cell order and are bit-identical to the serial path
(``wall_time``, stamped inside the worker, is excluded from report
equality).  Infrastructure failures -- a platform that cannot spawn
subprocesses, a worker crash, unpicklable custom options -- degrade to
``None`` (callers run the batch serially) with a :class:`RuntimeWarning`
naming the cause; exceptions raised by the solvers themselves propagate
unchanged, exactly like the legacy pool path.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..report import SolveReport
from .backends import ExecutorBackend, ExecutorUnavailable, PersistentBackend

# compatibility re-exports: the worker entry point and chunk sizing lived
# here before the backend split, and pickled references resolve by module
from .backends.persistent import (  # noqa: F401
    MAX_CHUNKSIZE,
    _compute_chunksize,
    _solve_payload,
)

__all__ = ["EngineStoppedError", "SolveEngine", "get_engine", "shutdown_engine"]


class EngineStoppedError(RuntimeError):
    """Raised when work is submitted to an engine whose stop flag is set.

    The stop flag (:meth:`SolveEngine.stop`) is the drain signal of the
    service layer: once set, new batches and submissions fail fast with this
    typed error instead of quietly queueing behind a shutdown, while work
    already on the pool runs to completion.  :meth:`SolveEngine.shutdown`
    clears the flag, so an engine remains reusable after a full drain.
    """

Cell = Tuple[Any, str, Optional[float], Dict[str, Any]]


class SolveEngine:
    """Stop flag + counters + fallback policy over one executor backend.

    One engine instance (usually the process-wide default from
    :func:`get_engine`) is shared by every ``solve_many`` call and bench
    round; :meth:`shutdown` releases the backend's workers and shipped
    state explicitly, and is registered via ``atexit`` for the default
    engine.

    ``backend`` is the :class:`~.backends.ExecutorBackend` to run on
    (default: a fresh :class:`~.backends.PersistentBackend`; tests and
    the fault injector's wrapper pass their own).
    """

    def __init__(
        self,
        *,
        backend: Optional[ExecutorBackend] = None,
        retry_policy: Any = None,
    ) -> None:
        self.backend = backend if backend is not None else PersistentBackend()
        if retry_policy is None:
            from ...faults.policy import DEFAULT_RETRY_POLICY

            retry_policy = DEFAULT_RETRY_POLICY
        self.retry_policy = retry_policy
        self._retry_budget = retry_policy.new_budget()
        self._lock = threading.Lock()
        self._warned_unavailable = False
        self._stopping = threading.Event()
        # observability counters (see snapshot()); guarded by _lock on the
        # batch path and incremented from the event loop on the submit path
        self.batches = 0
        self.cells = 0
        self.submits = 0
        self.serial_fallbacks = 0
        self.broken_pools = 0
        self.retries = 0

    @property
    def backend_name(self) -> str:
        return self.backend.name

    # the persistent backend's plumbing, surfaced for tests and the service
    # daemon's stats; ``None`` for backends without a pool or arena
    @property
    def pool(self):
        return getattr(self.backend, "pool", None)

    @property
    def arena(self):
        return getattr(self.backend, "arena", None)

    # ------------------------------------------------------------------
    # lifecycle: context manager, stop flag
    # ------------------------------------------------------------------
    def __enter__(self) -> "SolveEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    @property
    def stopping(self) -> bool:
        """True between :meth:`stop` and the next :meth:`shutdown`."""
        return self._stopping.is_set()

    def stop(self) -> None:
        """Set the stop flag: new submissions raise :class:`EngineStoppedError`.

        Work already accepted keeps running -- this is the first half of a
        graceful drain (reject new, finish old); :meth:`shutdown` is the
        second half and clears the flag again.  The backend's own stop
        signal is raised alongside.
        """
        self._stopping.set()
        self.backend.stop()

    def _check_stopped(self) -> None:
        if self._stopping.is_set():
            raise EngineStoppedError(
                "solve engine is stopping; no new work is accepted until "
                "shutdown() completes"
            )

    def _warn_unavailable(self, exc: Exception, what: str) -> None:
        with self._lock:
            self.serial_fallbacks += 1
            if self._warned_unavailable:
                return
            self._warned_unavailable = True
        warnings.warn(
            f"solve engine: {exc}; {what} (warned once per engine)",
            RuntimeWarning,
            stacklevel=4,
        )

    # ------------------------------------------------------------------
    def run_batch(
        self, cells: Sequence[Cell], workers: int
    ) -> Optional[List[SolveReport]]:
        """Solve every cell on the backend; ``None`` means "run serially".

        Cells sharing a tree should be adjacent (tree-major order): arena
        chunks then reference a single token each, and blob-transport
        fallbacks serialize the tree once per chunk (pickle memo) instead
        of once per payload.

        The requested worker count is clamped to the batch size and twice
        the machine's core count: up to one extra worker per core hides the
        queue latency at chunk boundaries (a lone worker sleeps while the
        parent feeds and drains the pipes), while heavier oversubscription
        only adds scheduler churn.
        """
        self._check_stopped()
        cores = os.cpu_count() or 1
        workers = max(1, min(workers, len(cells), 2 * cores))
        with self._lock:
            self.batches += 1
            self.cells += len(cells)
            batch_no = self.batches
        import time

        from pickle import PicklingError

        from ...faults.policy import classify_fault
        from ...faults.stats import global_fault_stats

        # typed retry loop: retryable fault classes (broken_pool, transient,
        # timeout) re-map the whole batch -- map_cells is all-or-nothing, so
        # a retry discards nothing -- with deterministic backoff, until the
        # policy's attempts/budget run out; then broken pools degrade to
        # serial and solver exceptions propagate unchanged
        policy = self.retry_policy
        attempt = 0
        while True:
            attempt += 1
            try:
                return self.backend.map_cells(list(cells), workers)
            except ExecutorUnavailable as exc:
                self._warn_unavailable(exc, "batches run serially")
                return None
            except PicklingError as exc:
                warnings.warn(
                    f"solve engine: payload not picklable ({exc}); falling "
                    "back to serial execution for this batch",
                    RuntimeWarning,
                    stacklevel=3,
                )
                with self._lock:
                    self.serial_fallbacks += 1
                return None
            except Exception as exc:
                fault = classify_fault(exc)
                if fault == "broken_pool":
                    with self._lock:
                        self.broken_pools += 1
                    # the backend already invalidated the broken executor;
                    # reset() is an idempotent safety net for backends that
                    # did not
                    self.backend.reset()
                if policy.should_retry(fault, attempt, self._retry_budget):
                    with self._lock:
                        self.retries += 1
                    global_fault_stats.record_retry("engine", fault)
                    time.sleep(policy.delay(attempt, key=f"batch:{batch_no}"))
                    continue
                if fault == "broken_pool":
                    warnings.warn(
                        f"solve engine: worker pool broke ({exc}); restarting "
                        "the pool and falling back to serial execution for "
                        "this batch",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    with self._lock:
                        self.serial_fallbacks += 1
                    return None
                raise

    def submit(self, cell: Cell, workers: int):
        """Submit one cell asynchronously; a future, or ``None`` = "go serial".

        This is the service daemon's seam into the engine: where
        :meth:`run_batch` blocks on a whole campaign grid, ``submit`` hands
        back one future per request, so an asyncio front end can interleave
        admission, dispatch and completion.  On the persistent backend the
        tree is interned in the shared arena exactly as in the batch path
        (idempotent per kernel: a request stream hitting the same tree ships
        it to the workers once).  ``None`` means the platform cannot run
        this backend -- callers fall back to in-process execution; the
        engine's stop flag raises :class:`EngineStoppedError` instead, so a
        draining daemon never quietly enqueues new work.

        Unlike :meth:`run_batch`, infrastructure failures surface on the
        *returned future* (e.g. ``BrokenProcessPool``), because by then the
        caller has moved on; callers owning a fallback executor should
        re-run the cell there.  The future is a
        :class:`concurrent.futures.Future`.
        """
        self._check_stopped()
        cores = os.cpu_count() or 1
        workers = max(1, min(workers, 2 * cores))
        with self._lock:
            self.submits += 1
        try:
            return self.backend.submit_cell(cell, workers)
        except ExecutorUnavailable as exc:
            self._warn_unavailable(exc, "submissions run in-process")
            return None

    def submit_chunk(self, cells: Sequence[Cell], workers: int):
        """Submit one work unit (a cell list) as a single backend future.

        The campaign planner's work-splitting seam: the future resolves to
        the unit's report list, in cell order.  ``None`` means the backend
        cannot execute right now (the dispatcher falls back to serial);
        the stop flag raises :class:`EngineStoppedError` as in
        :meth:`submit`.
        """
        self._check_stopped()
        cores = os.cpu_count() or 1
        workers = max(1, min(workers, 2 * cores))
        with self._lock:
            self.submits += 1
            self.cells += len(cells)
        try:
            return self.backend.submit_chunk(list(cells), workers)
        except ExecutorUnavailable as exc:
            self._warn_unavailable(exc, "work units run in-process")
            return None

    def reset(self) -> None:
        """Heal broken worker plumbing (backend-generic pool reset)."""
        self.backend.reset()

    def shutdown(self) -> None:
        """Release the backend's workers and shipped state.

        Idempotent, and clears the stop flag on the way out: an engine can
        be shut down any number of times, and after a ``stop(); shutdown()``
        drain it accepts work again (fresh plumbing builds on demand).
        """
        with self._lock:
            self.backend.shutdown()
            self._stopping.clear()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Engine-level instrumentation: dispatch + backend counters.

        Cheap and non-blocking (no worker round trips) -- this is what the
        service daemon embeds in every ``/stats`` document and exports under
        ``/metrics``.  The backend contributes its own sub-documents
        (``pool``/``arena`` for the persistent engine); worker kernel-cache
        hit rates need a worker round trip, so they are sampled separately
        (:meth:`sample_worker_caches`).
        """
        with self._lock:
            doc: Dict[str, Any] = {
                "backend": self.backend.name,
                "batches": self.batches,
                "cells": self.cells,
                "submits": self.submits,
                "serial_fallbacks": self.serial_fallbacks,
                "broken_pools": self.broken_pools,
                "retries": self.retries,
                "stopping": self._stopping.is_set(),
            }
        doc.update(self.backend.snapshot())
        return doc

    def sample_worker_caches(self, timeout: float = 1.0) -> List[Dict[str, Any]]:
        """Best-effort worker kernel-cache stats (persistent backend only)."""
        sampler = getattr(self.backend, "sample_worker_caches", None)
        if sampler is None:
            return []
        return sampler(timeout=timeout)


# ----------------------------------------------------------------------
# the process-wide default engine
# ----------------------------------------------------------------------
_default_engine: Optional[SolveEngine] = None
_default_lock = threading.Lock()
_atexit_registered = False


def get_engine() -> SolveEngine:
    """The process-wide persistent :class:`SolveEngine`, created lazily.

    Shared by every ``solve_many`` call and campaign with ``workers > 1``;
    :func:`shutdown_engine` releases it.
    """
    global _default_engine, _atexit_registered
    with _default_lock:
        if _default_engine is None:
            import atexit

            _default_engine = SolveEngine()
            if not _atexit_registered:
                _atexit_registered = True
                atexit.register(shutdown_engine)
        return _default_engine


def shutdown_engine() -> None:
    """Shut down the default engine (idempotent; rebuilt on demand)."""
    global _default_engine
    with _default_lock:
        engine, _default_engine = _default_engine, None
    if engine is not None:
        engine.shutdown()
