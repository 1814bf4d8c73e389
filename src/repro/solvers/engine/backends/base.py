"""The :class:`ExecutorBackend` protocol.

An *executor backend* is the strategy object behind the solve engine: it
owns the actual worker plumbing (a process pool -- or nothing at all) and
exposes one small protocol the three call sites above it share:

* ``map_cells(cells, workers)`` -- solve a batch of cells, blocking, in cell
  order;
* ``submit_cell(cell, workers)`` / ``submit_chunk(cells, workers)`` -- the
  asynchronous seam: one future per request (the service daemon) or per
  work unit (the bench campaign planner's work-splitting dispatcher);
* ``stop()`` / ``reset()`` / ``shutdown()`` -- lifecycle.

``releases_gil`` tells the layers above whether work leaves the parent
interpreter (separate processes).  The fault injector reads it: an
in-process "worker" cannot be killed without taking the parent with it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["ExecutorUnavailable", "ExecutorBackend"]

#: one planned solver invocation: (tree, algorithm, memory, options)
Cell = Tuple[Any, str, Optional[float], Dict[str, Any]]


class ExecutorUnavailable(RuntimeError):
    """A live backend cannot execute work *right now* on this platform.

    Raised from ``map_cells``/``submit_cell`` when e.g. the sandbox cannot
    spawn subprocesses.  The engine catches it, warns once, and degrades to
    serial execution.
    """


class ExecutorBackend:
    """Base class of the executor backends (see the module docstring).

    Subclasses set ``name``/``releases_gil`` and implement the execution
    methods.  ``reset``/``stop``/``shutdown`` default to no-ops so trivial
    backends stay trivial.
    """

    name: str = "?"
    releases_gil: bool = False

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
        raise NotImplementedError

    def submit_chunk(self, cells: Sequence[Cell], workers: int):
        """Submit a work unit; returns a future resolving to a report list."""
        raise NotImplementedError

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
