"""The ``faults=``-wrapping backend decorator: chaos without backend edits.

:class:`FaultyBackend` wraps any registered :class:`ExecutorBackend` and
executes a :class:`~repro.faults.plan.FaultPlan` against the cell stream
passing through it.  The wrapped backend is untouched -- the whole point of
the decorator shape is that persistent/threads/serial all run under chaos
with zero code changes to the backends themselves.

Position bookkeeping is the subtle part.  Faults are keyed by *cell
sequence number*: the order cells are **first** submitted.  The resilience
machinery above re-submits cells freely (straggler re-splits, retry
attempts, engine serial fallbacks), so the injector keeps an ``id()``-keyed
map of every cell object it has seen -- with strong references, so ids stay
valid -- and a re-submission neither advances the sequence nor re-fires a
consumed fault.  A plan therefore injects each fault exactly once, which is
what lets chaos tests assert "counters in extras == the injected plan".

Fault delivery by kind:

* worker-side kinds (``worker_kill``, ``straggler``, ``timeout``,
  ``transient``) ride inside the cell's options under the reserved
  ``_fault`` key; the solver dispatch trips them in the worker *before*
  the wall-time stamp starts.  ``worker_kill`` degrades to ``transient``
  on backends that do not release the GIL (threads/serial): an in-process
  "worker" cannot die without taking the parent with it.
* submit-side kinds fire in this wrapper: ``pickling`` and ``shm`` raise
  (``PicklingError`` / ``ExecutorUnavailable``) from blocking calls and
  resolve to failed futures from asynchronous ones; ``broken_pool``
  likewise surfaces a ``BrokenProcessPool`` without any real crash, which
  is how the service smoke drives the circuit breaker deterministically.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Dict, List, Sequence

from ..solvers.engine.backends.base import Cell, ExecutorBackend, ExecutorUnavailable
from .plan import FaultPlan, FaultSpec, WORKER_FAULT_KINDS
from .stats import global_fault_stats

__all__ = ["FaultyBackend", "FAULT_OPTION_KEY"]

#: reserved options key carrying a worker-side fault into the dispatch
FAULT_OPTION_KEY = "_fault"


def _submit_error(spec: FaultSpec) -> BaseException:
    """The exception a submit-side fault surfaces as."""
    if spec.kind == "pickling":
        from pickle import PicklingError

        return PicklingError(
            f"injected pickling fault at cell {spec.at}"
        )
    if spec.kind == "shm":
        return ExecutorUnavailable(
            f"injected shm-unavailable fault at cell {spec.at}"
        )
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool(
        f"injected broken-pool fault at cell {spec.at}"
    )


class FaultyBackend(ExecutorBackend):
    """Wrap ``inner`` so the given :class:`FaultPlan` fires against it.

    Mirrors the inner backend's name and capability flags, delegates every
    lifecycle call, and keeps per-wrapper injection counters (``injected``)
    alongside the process-global ledger.
    """

    def __init__(self, inner: ExecutorBackend, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._lock = threading.Lock()
        #: id(cell) -> sequence position; _refs pins the ids
        self._positions: Dict[int, int] = {}
        self._refs: List[Cell] = []
        self._next_position = 0
        self.injected: Dict[str, int] = {}
        # mirror identity and capabilities so every layer above sees the
        # wrapped backend exactly as it would see the real one
        self.name = inner.name
        self.summary = inner.summary
        self.releases_gil = inner.releases_gil
        self.supports_futures = inner.supports_futures

    # ------------------------------------------------------------------
    @property
    def inner(self) -> ExecutorBackend:
        return self._inner

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def _record(self, spec: FaultSpec) -> None:
        self.injected[spec.kind] = self.injected.get(spec.kind, 0) + 1
        global_fault_stats.record_injection(spec.kind)

    def _prepare(self, cell: Cell):
        """Assign ``cell`` its sequence position and arm its faults.

        Returns ``(cell_to_submit, submit_spec_or_None)``: the cell with any
        worker-side fault folded into its options, plus the first
        submit-side fault to fire (the caller surfaces it).  Re-submissions
        return the cell untouched -- their faults were consumed first time.
        """
        with self._lock:
            key = id(cell)
            if key in self._positions:
                return cell, None
            position = self._next_position
            self._next_position += 1
            self._positions[key] = position
            self._refs.append(cell)
            pending = self._plan.at(position)
        submit_spec = None
        out = cell
        for spec in pending:
            if spec.kind in WORKER_FAULT_KINDS:
                if out is not cell:
                    continue  # one worker fault per cell; extras are inert
                kind = spec.kind
                if kind == "worker_kill" and not self._inner.releases_gil:
                    # an in-process worker cannot die alone: degrade to a
                    # transient solver error (same retry class upstream)
                    kind = "transient"
                tree, algorithm, memory, options = cell
                armed = dict(options)
                armed[FAULT_OPTION_KEY] = {
                    "kind": kind,
                    "at": spec.at,
                    "delay": spec.delay,
                }
                out = (tree, algorithm, memory, armed)
                self._record(spec)
            elif submit_spec is None:
                submit_spec = spec
                self._record(spec)
        return out, submit_spec

    def _prepare_many(self, cells: Sequence[Cell]):
        """Prepare a chunk; the first submit-side fault wins for the unit."""
        prepared: List[Cell] = []
        submit_spec = None
        for cell in cells:
            out, spec = self._prepare(cell)
            prepared.append(out)
            if spec is not None and submit_spec is None:
                submit_spec = spec
        return prepared, submit_spec

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def map_cells(self, cells: Sequence[Cell], workers: int) -> List[Any]:
        prepared, submit_spec = self._prepare_many(cells)
        if submit_spec is not None:
            raise _submit_error(submit_spec)
        return self._inner.map_cells(prepared, workers)

    def submit_cell(self, cell: Cell, workers: int):
        prepared, submit_spec = self._prepare(cell)
        if submit_spec is not None:
            return self._fail_submit(submit_spec)
        return self._inner.submit_cell(prepared, workers)

    def submit_chunk(self, cells: Sequence[Cell], workers: int):
        prepared, submit_spec = self._prepare_many(cells)
        if submit_spec is not None:
            return self._fail_submit(submit_spec)
        return self._inner.submit_chunk(prepared, workers)

    def _fail_submit(self, spec: FaultSpec):
        # shm-unavailable is detected at the submit call in real executors,
        # so it raises synchronously -- that is the path the engine's
        # warn-once serial fallback handles; pickling and broken-pool
        # surface on the future, as concurrent.futures does
        error = _submit_error(spec)
        if spec.kind == "shm":
            raise error
        failed: Future = Future()
        failed.set_exception(error)
        return failed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._inner.reset()

    def stop(self) -> None:
        self._inner.stop()

    def shutdown(self) -> None:
        self._inner.shutdown()

    def snapshot(self) -> Dict[str, Any]:
        doc = self._inner.snapshot()
        doc["faults"] = {
            "plan": self._plan.describe(),
            "injected": dict(sorted(self.injected.items())),
            "cells_seen": self._next_position,
        }
        return doc

    def __getattr__(self, attr: str) -> Any:
        # anything beyond the protocol (pool handles, test seams) passes
        # through to the wrapped backend
        return getattr(self._inner, attr)
