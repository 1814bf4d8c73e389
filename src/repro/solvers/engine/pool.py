"""Lazily-created, reusable worker pool for the solve engine.

The old batch path built a fresh :class:`~concurrent.futures.ProcessPoolExecutor`
inside every ``solve_many`` call and tore it down on the way out, paying the
process spawn (and, on spawn-start platforms, a full interpreter boot plus
imports) once per call -- per benchmark *round*, per budget step.
:class:`PersistentPool` keeps one executor alive across calls:

* created on first use with the requested worker count and kept until
  :meth:`shutdown` (the engine registers an ``atexit`` hook);
* grown (recreated) when a later call asks for more workers than the live
  executor has; shrunk never -- idle workers are cheap, restarts are not;
* fork-safe: a forked child detects the pid change and drops the inherited
  handle without touching the parent's processes;
* start-method agnostic: the worker entry point is a module-level function,
  so ``fork``, ``forkserver`` and ``spawn`` all work;
* unavailable platforms (sandboxes that cannot allocate the multiprocessing
  semaphores) make :meth:`ensure` return ``None`` once and remember it, so
  callers degrade to serial execution without re-probing every call.
"""

from __future__ import annotations

import os
import threading

__all__ = ["PersistentPool"]


class PersistentPool:
    """One reusable worker pool, created on demand.

    Lifecycle events are counted (``creations``, ``grows``, ``resets``) so
    the observability layer can surface how often the pool was (re)built --
    a growing ``resets`` count on a live service is a worker-crash signal,
    a growing ``grows`` count means callers keep asking for more workers.

    Lifecycle methods are serialized by an internal lock, and broken-pool
    healing should go through :meth:`invalidate` rather than :meth:`reset`:
    ``invalidate(executor)`` only discards the executor that actually broke,
    so when several threads observe the same ``BrokenProcessPool`` the first
    one resets and the rest no-op instead of tearing down the freshly built
    replacement (exactly one ``resets`` increment per broken executor).
    """

    def __init__(self) -> None:
        self._executor = None
        self._workers = 0
        self._pid = os.getpid()
        self._unavailable = False
        # reentrant: ensure() may be called with the lock held by reset()
        # paths in subclassing tests, and reentrancy costs nothing here
        self._lock = threading.RLock()
        self.creations = 0
        self.grows = 0
        self.resets = 0

    # ------------------------------------------------------------------
    def _fork_guard(self) -> None:
        # a forked child inherits this object but not usable pool plumbing;
        # drop the handle (without shutdown: the processes belong to the
        # parent) and let the child lazily build its own pool
        if os.getpid() != self._pid:
            self._executor = None
            self._workers = 0
            self._unavailable = False
            self._pid = os.getpid()
            # the child starts its own lifecycle; inherited counts would
            # double-report events that happened in the parent
            self.creations = 0
            self.grows = 0
            self.resets = 0

    def ensure(self, workers: int):
        """The live executor with at least ``workers`` workers, or ``None``.

        ``None`` means "this platform cannot run subprocesses" -- the caller
        is expected to fall back to serial execution.  The requested count
        is honoured as given here; the dispatch layer
        (:meth:`~repro.solvers.engine.SolveEngine.run_batch`) clamps its
        requests to the batch size and the core count before calling.
        """
        with self._lock:
            self._fork_guard()
            if workers < 1:
                raise ValueError("workers must be >= 1")
            if self._unavailable:
                return None
            if self._executor is not None and self._workers >= workers:
                return self._executor
            from concurrent.futures import ProcessPoolExecutor

            previous = self._executor
            try:
                # pool construction allocates the multiprocessing queues and
                # semaphores: this is where sandboxed platforms fail with
                # OSError/PermissionError
                executor = ProcessPoolExecutor(max_workers=workers)
            except OSError:
                self._unavailable = previous is None
                return previous  # keep a smaller live pool rather than nothing
            if previous is not None:
                # let in-flight batches on the old executor drain: another
                # thread may be mid-map on it, and cancelling its futures would
                # crash that batch with a CancelledError it has no reason to
                # expect.  The old workers exit once their queue is empty.
                previous.shutdown(wait=False, cancel_futures=False)
                self.grows += 1
            else:
                self.creations += 1
            self._executor = executor
            self._workers = workers
            return executor

    def reset(self) -> None:
        """Discard a broken executor so the next call builds a fresh one."""
        with self._lock:
            self._fork_guard()
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self.resets += 1
            self._executor = None
            self._workers = 0

    def invalidate(self, executor) -> bool:
        """Reset *iff* ``executor`` is still the live one; report whether.

        The broken-pool healing entry point: every thread that caught a
        ``BrokenProcessPool`` passes the executor it was using, and only the
        first call actually resets -- later calls (same broken executor,
        already replaced or discarded) return ``False`` without touching the
        replacement.  ``None`` executors no-op.
        """
        if executor is None:
            return False
        with self._lock:
            self._fork_guard()
            if self._executor is not executor:
                return False
            self.reset()
            return True

    def shutdown(self) -> None:
        """Terminate the workers (idempotent; the pool can be reused after)."""
        with self._lock:
            self._fork_guard()
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
            self._workers = 0
            self._unavailable = False

    @property
    def executor(self):
        """The live executor (or ``None``); exposed for reuse assertions."""
        with self._lock:
            self._fork_guard()
            return self._executor

    @property
    def workers(self) -> int:
        """Worker count of the live executor (0 when none)."""
        return self._workers

    def snapshot(self) -> dict:
        """Lifecycle counters + current shape (for stats and ``/metrics``)."""
        with self._lock:
            self._fork_guard()
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict:
        return {
            "workers": self._workers,
            "alive": self._executor is not None,
            "unavailable": self._unavailable,
            "creations": self.creations,
            "grows": self.grows,
            "resets": self.resets,
        }
