"""The :class:`ExecutorBackend` protocol and the backend registry.

An *executor backend* is the strategy object behind the solve engine: it
owns the actual worker plumbing (a process pool, a thread pool -- or nothing
at all) and exposes one small protocol the three call sites above it share:

* ``map_cells(cells, workers)`` -- solve a batch of cells, blocking, in cell
  order;
* ``submit_cell(cell, workers)`` / ``submit_chunk(cells, workers)`` -- the
  asynchronous seam: one future per request (the service daemon) or per
  work unit (the bench campaign planner's work-splitting dispatcher);
* ``stop()`` / ``reset()`` / ``shutdown()`` -- lifecycle.

Capability flags describe what the layers above may assume:

=================== ======================================================
``releases_gil``    work leaves the parent interpreter's GIL (separate
                    processes); ``False`` for the in-process backends,
                    where parallel speed-up waits on the compiled
                    (GIL-releasing) solver tier
``supports_futures`` ``submit_cell``/``submit_chunk`` are implemented; the
                    campaign planner only work-splits on such backends and
                    falls back to blocking ``map_cells`` otherwise
=================== ======================================================

The registry (:func:`register_backend` / :func:`backend_names` /
:func:`create_backend`) is the single source of truth for every ``pool=``
surface: ``solve_many`` validation, ``bench --pool`` and ``serve --pool``
choices, the CLI help text, and the docs tables all derive from it.
Registration order is presentation order, so ``POOL_MODES`` stays stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

__all__ = [
    "ExecutorUnavailable",
    "ExecutorBackend",
    "BackendSpec",
    "register_backend",
    "backend_names",
    "get_backend_spec",
    "create_backend",
    "backend_table",
]

#: one planned solver invocation: (tree, algorithm, memory, options)
Cell = Tuple[Any, str, Optional[float], Dict[str, Any]]


class ExecutorUnavailable(RuntimeError):
    """A live backend cannot execute work *right now* on this platform.

    Raised from ``map_cells``/``submit_cell`` when e.g. the sandbox cannot
    spawn subprocesses.  The engine catches it, warns once, and degrades to
    serial execution.
    """


def _solve_cell(cell: Cell):
    """In-process solve of one raw cell (thread/serial execution)."""
    from ...facade import _solve_task

    return _solve_task(cell)


def _solve_chunk(cells: Sequence[Cell]) -> List[Any]:
    """In-process solve of a work unit (the chunk-future entry point)."""
    from ...facade import _solve_task

    return [_solve_task(cell) for cell in cells]


def _call_with_pool_retry(pool, executor, call, *, policy=None, key: str = ""):
    """Run ``call(executor)``, healing pool-grow races by retry policy.

    The shared execution wrapper of the pooled backends (persistent,
    threads).  Two failure shapes are handled:

    * **grow race** -- a concurrent caller grew the pool between the
      backend's ``ensure()`` and this call, so the drained old executor
      rejects new futures ("cannot schedule new futures after shutdown").
      Retried on the replacement executor as many times as the
      :class:`~repro.faults.policy.RetryPolicy` allows (fault class
      ``pool_grow``; no backoff -- the replacement is already live, there
      is nothing to wait for).  A ``RuntimeError`` with the pool unchanged
      is a genuine solver error and re-raises immediately.
    * **broken pool** -- the executor lost a worker.  The broken executor
      is retired via the identity-guarded
      :meth:`~repro.solvers.engine.pool.PersistentPool.invalidate` (so
      concurrent observers of the same crash trigger exactly one reset)
      and the error propagates for the engine-level policy to retry or
      degrade.
    """
    from concurrent.futures.process import BrokenProcessPool

    # lazy: repro.faults wraps these backends, so module-level imports in
    # either direction would cycle
    from ....faults.policy import DEFAULT_RETRY_POLICY
    from ....faults.stats import global_fault_stats

    policy = policy or DEFAULT_RETRY_POLICY
    attempt = 0
    current = executor
    while True:
        attempt += 1
        try:
            return call(current)
        except BrokenProcessPool:
            pool.invalidate(current)
            raise
        except RuntimeError:
            replacement = pool.executor
            if replacement is None or replacement is current:
                raise
            if not policy.should_retry("pool_grow", attempt):
                raise
            global_fault_stats.record_retry("backend", "pool_grow")
            current = replacement


class ExecutorBackend:
    """Base class of the executor backends (see the module docstring).

    Subclasses set the class-level ``name``/``summary``/capability flags and
    implement the execution methods.  ``reset``/``stop``/``shutdown``
    default to no-ops so trivial backends stay trivial.
    """

    name: str = "?"
    summary: str = ""
    releases_gil: bool = False
    supports_futures: bool = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def map_cells(self, cells: Sequence[Cell], workers: int) -> List[Any]:
        """Solve ``cells`` in order, blocking.

        Raises :class:`ExecutorUnavailable` when the platform cannot run
        this backend (the engine then falls back to serial execution);
        infrastructure errors (``BrokenProcessPool``, ``PicklingError``)
        propagate for the engine to translate.
        """
        raise NotImplementedError

    def submit_cell(self, cell: Cell, workers: int):
        """Submit one cell; returns a future resolving to its report."""
        raise NotImplementedError(
            f"backend {self.name!r} does not support asynchronous submission"
        )

    def submit_chunk(self, cells: Sequence[Cell], workers: int):
        """Submit a work unit; returns a future resolving to a report list."""
        raise NotImplementedError(
            f"backend {self.name!r} does not support asynchronous submission"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard broken worker plumbing so the next call rebuilds it."""

    def stop(self) -> None:
        """Best-effort cooperative stop signal (no-op by default)."""

    def shutdown(self) -> None:
        """Release workers and shipped state (idempotent)."""

    def snapshot(self) -> Dict[str, Any]:
        """Backend-specific observability sub-documents (may be empty)."""
        return {}


@dataclass(frozen=True)
class BackendSpec:
    """One registry entry: the backend class plus its metadata."""

    name: str
    cls: Type[ExecutorBackend]
    summary: str


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(
    name: str, cls: Type[ExecutorBackend], *, summary: str
) -> BackendSpec:
    """Register ``cls`` under ``name`` (insertion order is listing order)."""
    if name in _REGISTRY:
        raise ValueError(f"executor backend {name!r} is already registered")
    spec = BackendSpec(name=name, cls=cls, summary=summary)
    _REGISTRY[name] = spec
    return spec


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend_spec(name: str) -> BackendSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown executor backend {name!r}; expected one of "
            f"{backend_names()}"
        )
    return spec


def create_backend(name: str, **options: Any) -> ExecutorBackend:
    """Instantiate the backend registered under ``name``.

    Raises
    ------
    ValueError
        Unknown name (the message lists the registered backends).
    """
    return get_backend_spec(name).cls(**options)


def backend_table() -> List[BackendSpec]:
    """Every registered spec, in registration order (CLI help, docs)."""
    return list(_REGISTRY.values())
