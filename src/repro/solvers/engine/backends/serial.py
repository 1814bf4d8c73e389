"""In-process execution: the backend of ``workers <= 1``.

The degenerate backend: cells solve inline on the calling thread, in
order, with no worker plumbing at all.  Its futures are already completed
when they are returned, so the campaign planner drives it through the
same work-unit loop as the process engine.  It is the reference the
process engine must be bit-identical to (the solvers are deterministic;
only ``wall_time`` differs, and report equality excludes it).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from .base import Cell, ExecutorBackend

__all__ = ["SerialBackend"]


def _solve_chunk(cells: Sequence[Cell]) -> List[Any]:
    from ...facade import _solve_task

    return [_solve_task(cell) for cell in cells]


def _completed(call, *args):
    """A future already settled with ``call(*args)`` or its exception."""
    # lazy: importing concurrent.futures costs every in-process user of
    # the package, and only campaigns and tests ask for these futures
    from concurrent.futures import Future

    future = Future()
    try:
        future.set_result(call(*args))
    except Exception as exc:  # solver errors surface on the future
        future.set_exception(exc)
    return future


class SerialBackend(ExecutorBackend):
    """Inline execution on the calling thread."""

    name = "serial"

    def map_cells(self, cells: Sequence[Cell], workers: int) -> List[Any]:
        return _solve_chunk(cells)

    def submit_cell(self, cell: Cell, workers: int):
        from ...facade import _solve_task

        return _completed(_solve_task, cell)

    def submit_chunk(self, cells: Sequence[Cell], workers: int):
        return _completed(_solve_chunk, cells)
