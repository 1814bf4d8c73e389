"""Persistent shared-memory batch engine for ``solve_many`` and the bench runner.

The engine is the batch layer's hot path: a :class:`~.pool.PersistentPool`
of worker processes reused across calls, a :class:`~.arena.TreeArena` that
ships each tree's flat kernel arrays to the workers exactly once (zero-copy
``multiprocessing.shared_memory`` segments where available, pickle-once
blobs otherwise), and a :class:`~.dispatch.SolveEngine` that fans compact
``(token, algorithm, memory, options)`` payloads over the pool with a
computed chunk size.

:class:`~.dispatch.SolveEngine` delegates execution to an
:class:`~.backends.ExecutorBackend`: the persistent process engine, or
the in-process serial backend.  ``solve_many(..., workers=N)`` with
``N > 1`` routes through the process-wide engine from :func:`get_engine`;
:func:`shutdown_engine` releases its workers and shared segments
explicitly (also registered ``atexit``).

The service daemon (:mod:`repro.service`) uses the asynchronous seam
instead: :meth:`SolveEngine.submit` hands back one future per request, and
the engine's stop flag (:meth:`SolveEngine.stop` /
:class:`EngineStoppedError`) lets a draining daemon reject new work while
in-flight requests finish.  Engines are context managers (``with
SolveEngine() as eng:``), and ``shutdown`` is idempotent.
"""

from .arena import TreeArena, TreeRef, resolve, worker_cache_info
from .backends import (
    ExecutorBackend,
    ExecutorUnavailable,
    PersistentBackend,
    SerialBackend,
)
from .dispatch import EngineStoppedError, SolveEngine, get_engine, shutdown_engine
from .pool import PersistentPool

__all__ = [
    "TreeArena",
    "TreeRef",
    "PersistentPool",
    "ExecutorBackend",
    "ExecutorUnavailable",
    "PersistentBackend",
    "SerialBackend",
    "EngineStoppedError",
    "SolveEngine",
    "get_engine",
    "shutdown_engine",
    "resolve",
    "worker_cache_info",
]
