"""Solver-as-a-service: an async daemon over the persistent solve engine.

Where :func:`repro.solve_many` answers "solve this batch now", this package
answers "keep solving whatever arrives": a long-lived asyncio daemon
(:class:`SolverService`) wrapping the persistent engine with

* a **bounded request queue with admission control** -- submissions beyond
  ``max_pending`` are rejected synchronously with the typed
  :class:`QueueFullError` (backpressure, never silent queueing);
* **per-request deadlines** with cooperative cancellation -- a request's
  response resolves *at* its deadline with a :class:`DeadlineError` naming
  the stage it died in (``queued`` or ``executing``), whatever the queue
  looks like;
* **tree interning** -- payloads are built into trees once per content
  token and shipped to the engine's worker processes once per kernel (the
  service-side analogue of the arena's scatter-once transport);
* **graceful drain-and-shutdown** -- ``close()`` stops admission, settles
  every admitted request, then releases the workers and shared memory;
* two thin **front ends over one core**: HTTP/JSON on asyncio streams
  (:func:`start_http_server`, no dependency) and newline-delimited JSON on
  stdio (:func:`serve_stdio`) for tests, CI and pipelines.

Quickstart::

    import asyncio
    from repro.service import SolverService

    async def main():
        async with SolverService(workers=4) as svc:
            resp = await svc.handle({
                "tree": {"parents": [-1, 0, 0, 1], "f": [0, 2, 3, 1]},
                "algorithm": "minmem",
            })
            print(resp.status, resp.report.peak_memory)

    asyncio.run(main())

or from a shell: ``repro serve --stdio`` / ``repro serve --port 8787``.

The open-loop traffic benchmarks over this daemon live in
:mod:`repro.bench.traffic`.
"""

from .daemon import ServiceStats, SolverService
from .errors import (
    BadRequestError,
    CircuitOpenError,
    DeadlineError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    SolverFailedError,
    UnknownTreeTokenError,
    error_from_dict,
)
from .http import start_http_server
from .protocol import (
    ServiceRequest,
    ServiceResponse,
    TreeInterner,
    error_response,
    parse_request,
    tree_payload_token,
)
from .stdio import run_stdio_server, serve_stdio

__all__ = [
    "SolverService",
    "ServiceStats",
    "ServiceError",
    "BadRequestError",
    "UnknownTreeTokenError",
    "QueueFullError",
    "CircuitOpenError",
    "DeadlineError",
    "ServiceClosedError",
    "SolverFailedError",
    "error_from_dict",
    "ServiceRequest",
    "ServiceResponse",
    "TreeInterner",
    "parse_request",
    "tree_payload_token",
    "error_response",
    "start_http_server",
    "serve_stdio",
    "run_stdio_server",
]
