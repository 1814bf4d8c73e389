"""The long-lived asyncio daemon over the persistent solve engine.

:class:`SolverService` is the core both front ends share -- a single-process
control loop modelled on the scatter-once / stop-flag structure of treeck's
``DistributedVerifier``:

* **accept**: a request document is parsed and its tree interned
  (:mod:`repro.service.protocol`) *before* it can occupy a queue slot;
* **admit**: admission control bounds the number of pending requests
  (queued + executing); a full service rejects synchronously with the typed
  :class:`~repro.service.errors.QueueFullError` -- backpressure, never
  silent queueing;
* **intern**: the interned tree's kernel is exported to the engine's shared
  arena once, so a stream of requests against the same tree ships it to the
  worker processes exactly once;
* **dispatch**: a dispatcher task feeds admitted requests to the executor --
  per-request futures on a :class:`~repro.solvers.engine.SolveEngine` over
  worker processes (``workers > 1``) or an in-process thread pool (fewer
  workers, also the automatic fallback where the engine is unavailable) --
  with a bounded number in flight;
* **report**: the response carries the frozen
  :class:`~repro.solvers.SolveReport` plus the queue/solve/total timing
  breakdown.

Deadlines are cooperative: each request may carry one (seconds from
acceptance), enforced by a per-request watchdog timer.  When it fires the
response resolves *immediately* with a typed
:class:`~repro.service.errors.DeadlineError` naming the stage (``queued`` --
the solve is skipped entirely, and a not-yet-started engine future is
cancelled -- or ``executing`` -- the miss is accounted and the abandoned
solve drains in the background).  A request therefore never hangs past its
deadline, whatever the queue looks like.

Shutdown is graceful by default: :meth:`SolverService.close` stops admission
(:class:`~repro.service.errors.ServiceClosedError`), drains every admitted
request to a response, then releases the engine's workers and shared-memory
segments (``drain=False`` aborts instead: queued requests are flushed with
``closed`` responses and the engine's stop flag cuts new dispatches).
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

from ..faults import CircuitBreaker
from ..faults.stats import global_fault_stats
from ..obs import (
    Histogram,
    MetricsRegistry,
    SpanTimeline,
    get_logger,
    log_event,
    render_prometheus,
)
from ..solvers.facade import _solve_task
from .errors import (
    CircuitOpenError,
    DeadlineError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    SolverFailedError,
)
from .protocol import (
    ServiceRequest,
    ServiceResponse,
    TreeInterner,
    error_response,
    parse_request,
)

__all__ = ["SolverService", "ServiceStats"]

_log = get_logger("service")


@dataclass
class ServiceStats:
    """Lifetime counters + streaming latency histograms of one service.

    Latencies live in fixed-bucket :class:`~repro.obs.Histogram` objects,
    not raw sample lists: memory is bounded by the bucket ladder and the
    p50/p95/p99 estimates keep tracking the live distribution at any request
    volume (the previous design capped the sample list and silently froze
    its percentiles past the cap).
    """

    accepted: int = 0
    completed: int = 0
    rejected: int = 0
    bad_requests: int = 0
    solver_errors: int = 0
    deadline_miss_queued: int = 0
    deadline_miss_executing: int = 0
    drained: int = 0
    max_queue_depth: int = 0
    #: total (admission -> response) latency of completed requests
    latency: Histogram = field(default_factory=Histogram, repr=False)
    #: stage histograms of the same requests (admission -> dispatch,
    #: dispatch -> completion)
    queue_latency: Histogram = field(default_factory=Histogram, repr=False)
    solve_latency: Histogram = field(default_factory=Histogram, repr=False)

    @property
    def deadline_misses(self) -> int:
        return self.deadline_miss_queued + self.deadline_miss_executing

    def record_latency(
        self,
        seconds: float,
        *,
        queue_seconds: Optional[float] = None,
        solve_seconds: Optional[float] = None,
    ) -> None:
        self.latency.observe(seconds)
        if queue_seconds is not None:
            self.queue_latency.observe(queue_seconds)
        if solve_seconds is not None:
            self.solve_latency.observe(solve_seconds)

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the completed requests' total latency (seconds)."""
        return self.latency.percentiles((50.0, 95.0, 99.0))

    def snapshot(self) -> Dict[str, Any]:
        doc = {
            "accepted": self.accepted,
            "completed": self.completed,
            "rejected": self.rejected,
            "bad_requests": self.bad_requests,
            "solver_errors": self.solver_errors,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_queued": self.deadline_miss_queued,
            "deadline_miss_executing": self.deadline_miss_executing,
            "drained": self.drained,
            "max_queue_depth": self.max_queue_depth,
        }
        doc["latency_seconds"] = self.latency_percentiles()
        doc["latency_seconds"]["mean"] = self.latency.mean
        doc["latency_seconds"]["count"] = self.latency.count
        return doc


class _Pending:
    """Book-keeping of one admitted request."""

    __slots__ = (
        "request", "future", "timer", "state", "dispatched_at", "exec_future",
    )

    def __init__(self, request: ServiceRequest, future: "asyncio.Future") -> None:
        self.request = request
        self.future = future
        self.timer = None           # watchdog handle (deadline requests)
        self.state = "queued"       # -> "executing" -> responded
        self.dispatched_at = 0.0
        self.exec_future = None     # engine future, for cooperative cancel

    def done(self) -> bool:
        return self.future.done()


_SENTINEL = object()


def _resolved(response: ServiceResponse) -> "asyncio.Future":
    future = asyncio.get_running_loop().create_future()
    future.set_result(response)
    return future


class SolverService:
    """Async request queue + admission control over the solve engine.

    Parameters
    ----------
    workers:
        Worker processes.  ``workers > 1`` makes the service own a
        :class:`~repro.solvers.engine.SolveEngine` on the persistent
        process engine (workers + shared-memory arena), shut down with the
        service; ``None``/``0``/``1`` solve on an in-process thread pool
        (deterministic, sandbox-safe).  ``pool_mode`` names the choice
        (``"persistent"`` or ``"serial"``) for stats and logs.
    max_pending:
        Admission bound on requests alive in the service (queued plus
        executing).  Submissions beyond it raise :class:`QueueFullError`.
    max_inflight:
        Solves running concurrently; defaults to ``2 x workers`` on the
        engine (one extra per worker hides IPC latency at the boundary) and
        ``workers or 1`` in-process.
    default_deadline:
        Deadline (seconds) applied to requests that do not carry one;
        ``None`` = no implicit deadline.
    interner_capacity:
        LRU size of the tree interner.
    breaker_threshold / breaker_cooldown:
        Circuit-breaker tuning: consecutive engine infrastructure failures
        that open the circuit, and seconds before a half-open probe is let
        through.  ``breaker`` injects a pre-built
        :class:`~repro.faults.CircuitBreaker` instead (tests use a stepped
        clock).  While open, submissions are refused synchronously with the
        typed 503 :class:`~repro.service.errors.CircuitOpenError`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; when given, the engine
        backend is wrapped in a
        :class:`~repro.faults.FaultyBackend` so the daemon runs under
        deterministic chaos (the service smoke drives the breaker this way).
        The plan needs the engine: without ``workers > 1`` it could never
        fire, so :class:`ValueError` is raised instead of dropping it.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        max_pending: int = 128,
        max_inflight: Optional[int] = None,
        default_deadline: Optional[float] = None,
        interner_capacity: int = 512,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        breaker: Optional[CircuitBreaker] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.workers = int(workers or 0)
        self.pool_mode = "persistent" if self.workers > 1 else "serial"
        if fault_plan is not None and self.pool_mode == "serial":
            raise ValueError(
                "a fault plan needs the process engine (workers > 1); "
                "in-process execution has no backend for it to fault"
            )
        self.max_pending = max_pending
        if max_inflight is None:
            if self.pool_mode == "persistent":
                max_inflight = 2 * self.workers
            else:
                max_inflight = max(1, self.workers)
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self.default_deadline = default_deadline
        self.interner = TreeInterner(capacity=interner_capacity)
        self.stats = ServiceStats()
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        self._fault_plan = fault_plan
        self._engine = None
        self._thread_pool = None
        self._queue: "asyncio.Queue" = None  # created in start()
        self._inflight: "asyncio.Semaphore" = None
        self._idle: "asyncio.Event" = None
        self._dispatcher: "asyncio.Task" = None
        self._tasks: set = set()
        #: every admitted-but-unresponded request, queued *or* executing --
        #: the abort-close flush and the watchdog-leak seam iterate this
        self._pendings: set = set()
        self._pending_count = 0
        self._started = False
        self._accepting = False
        self._closed = False
        self._abort = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SolverService":
        """Start the dispatcher (idempotent); returns self for chaining."""
        if self._started:
            return self
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._inflight = asyncio.Semaphore(self.max_inflight)
        self._idle = asyncio.Event()
        self._idle.set()
        if self.pool_mode == "persistent":
            from ..solvers.engine import PersistentBackend, SolveEngine

            backend = PersistentBackend()
            if self._fault_plan is not None:
                from ..faults import FaultyBackend

                backend = FaultyBackend(backend, self._fault_plan)
            self._engine = SolveEngine(backend=backend)
        self._dispatcher = loop.create_task(self._dispatch_loop())
        self._started = True
        self._accepting = True
        log_event(
            _log, "service_started",
            backend=self.pool_mode, workers=self.workers,
            max_pending=self.max_pending, max_inflight=self.max_inflight,
        )
        return self

    async def __aenter__(self) -> "SolverService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def pending(self) -> int:
        """Requests alive in the service (queued + executing)."""
        return self._pending_count

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    async def close(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop admission, settle every admitted request, release the engine.

        With ``drain=True`` (the default) every admitted request still runs
        to a real response before the workers go away.  With ``drain=False``
        the engine's stop flag is set, queued requests are flushed with
        ``closed`` responses, and not-yet-started solves are cancelled.
        ``timeout`` bounds the wait; stragglers are then flushed with
        ``closed`` responses as well, so no caller is left hanging.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        self._accepting = False
        if not drain:
            self._abort = True
            if self._engine is not None:
                self._engine.stop()
        self._queue.put_nowait(_SENTINEL)
        try:
            await asyncio.wait_for(self._dispatcher, timeout)
        except asyncio.TimeoutError:
            self._dispatcher.cancel()
        if self._tasks:
            tasks = set(self._tasks)
            if not drain:
                # abort: executing solves are cut loose *now*, not awaited --
                # their pendings settle in the flush below
                for task in tasks:
                    task.cancel()
            done, stragglers = await asyncio.wait(tasks, timeout=timeout)
            for task in stragglers:
                task.cancel()
        # whatever is still unresponded -- queued on the abort path, torn out
        # of an executing task, or past the drain timeout -- gets a typed
        # closed response; _finish also cancels its watchdog timer, so an
        # abort-close leaves no armed deadline timers behind (live_timers==0)
        for pending in list(self._pendings):
            if pending.done():
                self._pendings.discard(pending)
                continue
            self._finish(
                pending,
                error_response(
                    pending.request.id,
                    ServiceClosedError("service closed before the solve finished"),
                    tree_token=pending.request.tree_token,
                    algorithm=pending.request.algorithm,
                    total_seconds=perf_counter() - pending.request.accepted_at,
                ),
            )
        if self._engine is not None:
            self._engine.shutdown()
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=False, cancel_futures=True)
        log_event(
            _log, "service_closed",
            drain=drain, completed=self.stats.completed,
            rejected=self.stats.rejected, drained=self.stats.drained,
        )

    @property
    def live_timers(self) -> int:
        """Armed watchdog timers over unresponded requests.

        The regression seam of the close-path timer leak: after ``close()``
        -- graceful or abort -- this must be 0, or cancelled deadline timers
        would keep firing into a dead service.
        """
        return sum(1 for p in list(self._pendings) if p.timer is not None)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_nowait(self, request: ServiceRequest) -> "asyncio.Future":
        """Admit ``request`` and return the future of its response.

        Raises
        ------
        ServiceClosedError
            When the service is not started, closing or closed.
        CircuitOpenError
            When the engine circuit breaker is open -- the engine tier is
            failing, and admitting more work would only queue it onto a
            dead pool.
        QueueFullError
            When admission control finds ``max_pending`` requests alive --
            the request is *not* enqueued.
        """
        if not self._started or not self._accepting:
            raise ServiceClosedError("service is not accepting requests")
        if not self.breaker.allow():
            log_event(
                _log, "circuit_open", level=logging.WARNING,
                id=request.id, breaker=self.breaker.state,
            )
            raise CircuitOpenError(
                "engine circuit breaker is "
                f"{self.breaker.state}; back off for at least "
                f"{self.breaker.cooldown:g}s"
            )
        if self._pending_count >= self.max_pending:
            self.stats.rejected += 1
            log_event(
                _log, "request_rejected", level=logging.WARNING,
                id=request.id, pending=self._pending_count,
                max_pending=self.max_pending,
            )
            raise QueueFullError(
                f"request queue is full ({self._pending_count} pending, "
                f"bound {self.max_pending}); retry with backoff"
            )
        loop = asyncio.get_running_loop()
        request.accepted_at = perf_counter()
        if request.trace is None:
            # hand-built requests (tests, embedding callers) get a timeline
            # at admission; parse_request-built ones arrive with one
            request.trace = SpanTimeline(origin=request.accepted_at)
        request.trace.begin("queued", at=request.accepted_at)
        pending = _Pending(request, loop.create_future())
        self._pendings.add(pending)
        self._pending_count += 1
        self._idle.clear()
        self.stats.accepted += 1
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, self._queue.qsize() + 1
        )
        if request.deadline is not None:
            pending.timer = loop.call_later(
                request.deadline, self._expire, pending
            )
        self._queue.put_nowait(pending)
        return pending.future

    async def submit(self, request: ServiceRequest) -> ServiceResponse:
        """Admit ``request`` and await its response (admission may raise)."""
        return await self.submit_nowait(request)

    def handle_nowait(self, doc: Dict[str, Any]) -> "asyncio.Future":
        """Parse + intern and admit one wire document; its response future.

        Never raises.  Every failure -- malformed document, queue full,
        closed service -- resolves the future at once with an error
        *response*, so the front ends share one code path.  The document is
        admitted (or refused) before this returns, so documents handed in
        one after another are admitted in that order.
        """
        try:
            request = parse_request(
                doc, self.interner, default_deadline=self.default_deadline
            )
        except ServiceError as exc:
            self.stats.bad_requests += 1
            request_id = doc.get("id") if isinstance(doc, dict) else None
            log_event(
                _log, "bad_request", level=logging.WARNING,
                id=request_id, code=exc.code, message=str(exc),
            )
            return _resolved(error_response(
                request_id if isinstance(request_id, str) else None, exc
            ))
        try:
            return self.submit_nowait(request)
        except ServiceError as exc:
            return _resolved(error_response(
                request.id, exc,
                tree_token=request.tree_token, algorithm=request.algorithm,
            ))

    async def handle(self, doc: Dict[str, Any]) -> ServiceResponse:
        """Full request lifecycle for one wire document; never raises.

        Parse + intern, admit, await (:meth:`handle_nowait`, awaited).
        """
        return await self.handle_nowait(doc)

    async def join(self) -> None:
        """Wait until no request is pending (the service is idle)."""
        await self._idle.wait()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _SENTINEL:
                break
            if item.done():  # deadline fired while queued
                continue
            await self._inflight.acquire()
            if item.done():  # ... or while waiting for an inflight slot
                self._inflight.release()
                continue
            if self._abort:
                self._inflight.release()
                self._finish(
                    item,
                    error_response(
                        item.request.id,
                        ServiceClosedError("service closed before dispatch"),
                        tree_token=item.request.tree_token,
                        algorithm=item.request.algorithm,
                        queue_seconds=perf_counter() - item.request.accepted_at,
                        total_seconds=perf_counter() - item.request.accepted_at,
                    ),
                )
                continue
            task = asyncio.get_running_loop().create_task(self._execute(item))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _execute(self, pending: _Pending) -> None:
        request = pending.request
        try:
            pending.state = "executing"
            pending.dispatched_at = perf_counter()
            if request.trace is not None:
                request.trace.end("queued", at=pending.dispatched_at)
                request.trace.begin("dispatch", at=pending.dispatched_at)
            cell = (
                request.tree,
                request.algorithm,
                request.memory,
                request.options,
            )
            try:
                report, tier = await self._run_cell(cell, pending)
            except asyncio.CancelledError:
                # the watchdog cancelled a not-yet-started engine future (or
                # an aborting close tore the pool down); the response -- a
                # deadline or closed error -- is already settled
                return
            except ServiceError as exc:
                self._respond_error(pending, exc)
                return
            except Exception as exc:
                self._respond_error(
                    pending,
                    SolverFailedError(f"{type(exc).__name__}: {exc}", cause=exc),
                )
                return
            if pending.done():
                # deadline fired mid-solve: the miss is already accounted,
                # the late report is dropped on the floor
                return
            end = perf_counter()
            if request.trace is not None:
                request.trace.close_open(at=end)  # settles the solve span
                request.trace.begin("report", at=end)
            # the degradation ladder: which tier actually answered, and
            # whether it sits below the engine tier the service was built on
            extras: Dict[str, Any] = {"tier": tier}
            if self._engine is not None and tier != self._engine.backend_name:
                extras["degraded"] = True
            self._finish(
                pending,
                ServiceResponse(
                    request_id=request.id,
                    status="ok",
                    algorithm=request.algorithm,
                    tree_token=request.tree_token,
                    report=report,
                    report_mode=request.report_mode,
                    queue_seconds=pending.dispatched_at - request.accepted_at,
                    solve_seconds=end - pending.dispatched_at,
                    total_seconds=end - request.accepted_at,
                    extras=extras,
                ),
            )
        finally:
            self._inflight.release()

    async def _run_cell(self, cell: Tuple, pending: _Pending):
        """Run one cell and name the tier that answered it.

        Returns ``(report, tier)`` where ``tier`` walks the degradation
        ladder: the engine backend's name when the engine answered,
        ``"threads"`` when a broken pool pushed the request onto the
        in-process thread fallback, ``"serial"`` when the service has no
        engine at all (``workers <= 1``).  Engine outcomes feed the circuit
        breaker: a pool crash is a failure, anything else -- including a
        solver-level exception, which proves the engine alive -- a success.
        """
        trace = pending.request.trace
        if self._engine is not None:
            from ..solvers.engine import EngineStoppedError

            try:
                exec_future = self._engine.submit(cell, self.workers)
            except EngineStoppedError:
                raise ServiceClosedError("engine is stopping") from None
            if exec_future is not None:
                pending.exec_future = exec_future
                if trace is not None:
                    trace.end("dispatch")
                    trace.begin("solve")
                from concurrent.futures.process import BrokenProcessPool

                try:
                    report = await asyncio.wrap_future(exec_future)
                except BrokenProcessPool:
                    # a worker crashed mid-request: feed the breaker, heal
                    # the backend, and give this request its answer
                    # in-process -- one rung down the ladder
                    self.breaker.record_failure()
                    global_fault_stats.record_retry("service", "broken_pool")
                    log_event(
                        _log, "pool_broken", level=logging.WARNING,
                        id=pending.request.id, breaker=self.breaker.state,
                    )
                    self._engine.reset()
                    pending.exec_future = None
                except asyncio.CancelledError:
                    raise
                except Exception:
                    self.breaker.record_success()
                    raise
                else:
                    self.breaker.record_success()
                    return report, self._engine.backend_name
        loop = asyncio.get_running_loop()
        if trace is not None:
            # thread fallback: the dispatch span (if still open) ends here;
            # after a broken-pool retry it is already closed and the second
            # solve stretch simply extends the summed solve duration
            trace.end_if_open("dispatch")
            trace.begin("solve")
        report = await loop.run_in_executor(self._threads(), _solve_task, cell)
        return report, ("threads" if self._engine is not None else "serial")

    def _threads(self):
        if self._thread_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.max_inflight,
                thread_name_prefix="repro-service",
            )
        return self._thread_pool

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _expire(self, pending: _Pending) -> None:
        """Watchdog: the request's deadline fired -- respond *now*."""
        if pending.done():
            return
        request = pending.request
        stage = pending.state
        now = perf_counter()
        if stage == "queued":
            queue_seconds = now - request.accepted_at
            solve_seconds = 0.0
        else:
            queue_seconds = pending.dispatched_at - request.accepted_at
            solve_seconds = now - pending.dispatched_at
        if pending.exec_future is not None:
            # cooperative cancellation: an engine future still in the pool
            # queue dies here; a running solve merely gets abandoned
            pending.exec_future.cancel()
        log_event(
            _log, "deadline_miss", level=logging.WARNING,
            id=request.id, stage=stage, deadline=request.deadline,
        )
        self._finish(
            pending,
            error_response(
                request.id,
                DeadlineError(
                    f"deadline of {request.deadline:g}s exceeded while {stage}",
                    stage=stage,
                ),
                tree_token=request.tree_token,
                algorithm=request.algorithm,
                queue_seconds=queue_seconds,
                solve_seconds=solve_seconds,
                total_seconds=now - request.accepted_at,
            ),
        )

    def _respond_error(self, pending: _Pending, error: ServiceError) -> None:
        if pending.done():
            return
        request = pending.request
        now = perf_counter()
        self._finish(
            pending,
            error_response(
                request.id, error,
                tree_token=request.tree_token, algorithm=request.algorithm,
                queue_seconds=pending.dispatched_at - request.accepted_at,
                solve_seconds=now - pending.dispatched_at,
                total_seconds=now - request.accepted_at,
            ),
        )

    def _finish(self, pending: _Pending, response: ServiceResponse) -> None:
        """Resolve one pending request exactly once and account it."""
        if pending.done():
            return
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        self._pendings.discard(pending)
        trace = pending.request.trace
        if trace is not None:
            # whatever stage the request died in is still open on the error
            # paths (deadline, drain, solver crash); settle it so the stages
            # account for all the elapsed time
            trace.close_open()
            response.stages = trace.durations()
        pending.future.set_result(response)
        self._pending_count -= 1
        if self._pending_count == 0:
            self._idle.set()
        error = response.error
        if response.ok:
            self.stats.completed += 1
            self.stats.record_latency(
                response.total_seconds,
                queue_seconds=response.queue_seconds,
                solve_seconds=response.solve_seconds,
            )
        elif isinstance(error, DeadlineError):
            if error.stage == "queued":
                self.stats.deadline_miss_queued += 1
            else:
                self.stats.deadline_miss_executing += 1
        elif isinstance(error, SolverFailedError):
            self.stats.solver_errors += 1
        elif isinstance(error, ServiceClosedError):
            self.stats.drained += 1
        log_event(
            _log, "request_complete", level=logging.DEBUG,
            id=response.request_id, status=response.status,
            algorithm=response.algorithm,
            total_seconds=response.total_seconds,
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Live stats document (the ``/stats`` and stdio ``op: stats`` body)."""
        doc = self.stats.snapshot()
        doc.update({
            "pending": self._pending_count,
            "queue_depth": self.queue_depth,
            "max_pending": self.max_pending,
            "max_inflight": self.max_inflight,
            "pool": self.pool_mode,
            "workers": self.workers,
            "interned_trees": len(self.interner),
            "interner_hits": self.interner.hits,
            "interner_misses": self.interner.misses,
            "accepting": self._accepting,
        })
        doc["breaker"] = self.breaker.snapshot()
        if self._engine is not None:
            doc["engine"] = self._engine.snapshot()
        return doc

    def metrics_registry(self) -> MetricsRegistry:
        """A fresh registry over the live metric state, built per scrape.

        Counters and gauges are snapshotted into the registry; the latency
        histograms are *attached* (the live objects, one source of truth).
        Building per scrape keeps the daemon free of a parallel metrics
        store that could drift from :class:`ServiceStats`.
        """
        from .. import __version__

        reg = MetricsRegistry()
        stats = self.stats
        reg.gauge(
            "repro_build_info", "Build/version marker (value is always 1).",
            labels={"version": __version__}, value=1,
        )
        reg.counter(
            "repro_service_accepted_total",
            "Requests admitted past admission control.",
            value=stats.accepted,
        )
        outcomes = {
            "completed": stats.completed,
            "rejected": stats.rejected,
            "bad_request": stats.bad_requests,
            "solver_error": stats.solver_errors,
            "deadline_queued": stats.deadline_miss_queued,
            "deadline_executing": stats.deadline_miss_executing,
            "drained": stats.drained,
        }
        for outcome, value in outcomes.items():
            reg.counter(
                "repro_service_requests_total",
                "Settled requests by outcome.",
                labels={"outcome": outcome}, value=value,
            )
        reg.attach(
            "repro_service_latency_seconds",
            "Total latency (admission to response) of completed requests.",
            stats.latency,
        )
        reg.attach(
            "repro_service_stage_seconds",
            "Per-stage latency of completed requests.",
            stats.queue_latency, {"stage": "queued"},
        )
        reg.attach(
            "repro_service_stage_seconds",
            "Per-stage latency of completed requests.",
            stats.solve_latency, {"stage": "solve"},
        )
        reg.gauge(
            "repro_service_pending", "Requests alive (queued + executing).",
            value=self._pending_count,
        )
        reg.gauge(
            "repro_service_queue_depth", "Requests waiting for dispatch.",
            value=self.queue_depth,
        )
        reg.gauge(
            "repro_service_max_pending", "Admission bound on live requests.",
            value=self.max_pending,
        )
        reg.gauge(
            "repro_service_max_inflight", "Concurrent solve bound.",
            value=self.max_inflight,
        )
        reg.gauge(
            "repro_service_accepting",
            "1 while admission is open, 0 during/after close.",
            value=1 if self._accepting else 0,
        )
        reg.gauge(
            "repro_service_queue_depth_max", "High-water mark of the queue.",
            value=stats.max_queue_depth,
        )
        reg.gauge(
            "repro_interner_trees", "Trees held by the interner LRU.",
            value=len(self.interner),
        )
        reg.counter(
            "repro_interner_hits_total", "Interner lookups served from cache.",
            value=self.interner.hits,
        )
        reg.counter(
            "repro_interner_misses_total", "Interner misses (tree builds).",
            value=self.interner.misses,
        )
        if self._engine is not None:
            engine = self._engine.snapshot()
            backend = {"backend": engine["backend"]}
            reg.counter(
                "repro_engine_submits_total",
                "Single-cell submissions to the solve engine.",
                labels=backend, value=engine["submits"],
            )
            reg.counter(
                "repro_engine_batches_total",
                "Batches mapped over the solve engine.",
                labels=backend, value=engine["batches"],
            )
            reg.counter(
                "repro_engine_serial_fallbacks_total",
                "Engine calls degraded to serial/in-process execution.",
                labels=backend, value=engine["serial_fallbacks"],
            )
            reg.counter(
                "repro_engine_broken_pools_total",
                "Worker-pool crashes healed by a pool reset.",
                labels=backend, value=engine["broken_pools"],
            )
            reg.counter(
                "repro_engine_retries_total",
                "Engine batch retries after retryable faults.",
                labels=backend, value=engine["retries"],
            )
            # the process engine's pool and arena sub-documents
            pool = engine["pool"]
            reg.gauge(
                "repro_engine_pool_workers", "Workers of the live pool.",
                labels=backend, value=pool["workers"],
            )
            reg.counter(
                "repro_engine_pool_creations_total",
                "Worker pools built from scratch.",
                labels=backend, value=pool["creations"],
            )
            reg.counter(
                "repro_engine_pool_grows_total",
                "Worker pools rebuilt larger.",
                labels=backend, value=pool["grows"],
            )
            reg.counter(
                "repro_engine_pool_resets_total",
                "Broken worker pools discarded.",
                labels=backend, value=pool["resets"],
            )
            arena = engine["arena"]
            for transport, value in (
                ("shm", arena["shm_exports"]),
                ("blob", arena["blob_exports"]),
            ):
                reg.counter(
                    "repro_engine_arena_exports_total",
                    "Tree kernels shipped to the workers, by transport.",
                    labels={"transport": transport, **backend}, value=value,
                )
            reg.counter(
                "repro_engine_arena_reuses_total",
                "Exports answered by an already-shipped segment.",
                labels=backend, value=arena["reuses"],
            )
            reg.gauge(
                "repro_engine_arena_segments",
                "Live shared-memory segments.",
                labels=backend, value=arena["live_segments"],
            )
        reg.gauge(
            "repro_circuit_state",
            "Engine circuit breaker state (closed=0, open=1, half_open=2).",
            value=self.breaker.state_code,
        )
        for transition, value in self.breaker.transition_items():
            reg.counter(
                "repro_circuit_transitions_total",
                "Circuit breaker state transitions.",
                labels={"transition": transition}, value=value,
            )
        reg.counter(
            "repro_circuit_rejections_total",
            "Requests refused while the circuit was open or half-open.",
            value=self.breaker.rejections,
        )
        for (layer, fault), value in global_fault_stats.retry_items():
            reg.counter(
                "repro_retry_attempts_total",
                "Retry attempts by resilience layer and fault class.",
                labels={"layer": layer, "fault": fault}, value=value,
            )
        for kind, value in global_fault_stats.injection_items():
            reg.counter(
                "repro_fault_injections_total",
                "Faults fired by the chaos injector, by kind.",
                labels={"kind": kind}, value=value,
            )
        reg.counter(
            "repro_checkpoint_cells_total",
            "Campaign cells journaled to checkpoint sidecars.",
            value=global_fault_stats.checkpoint_cells,
        )
        return reg

    def render_metrics(self) -> str:
        """The Prometheus text document (``GET /metrics``, ``op: metrics``)."""
        return render_prometheus(self.metrics_registry())
