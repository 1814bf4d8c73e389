"""Open-loop traffic benchmarks over the solver service.

The campaign benchmarks (:mod:`repro.bench.runner`) measure *batch*
throughput: hand the engine a grid, wait for the last cell.  A service is
judged differently -- requests arrive on their own clock, and the question
is what latency, rejection and deadline-miss behaviour a given offered load
produces.  This module adds that axis:

* **arrival processes** -- seeded, deterministic inter-arrival schedules:
  ``poisson`` (exponential gaps at a target rate), ``burst`` (groups of
  back-to-back arrivals, bursts spaced to hold the same mean rate) and
  ``closed`` (the classic closed loop: ``concurrency`` clients, each
  issuing its next request when the previous answers -- the load generator
  the open-loop literature warns about, kept as the comparison baseline);
* **a load generator** that replays a schedule against a
  :class:`~repro.service.SolverService` through either transport --
  ``inproc`` (direct ``handle()`` calls) or ``stdio`` (full NDJSON
  round-trip through :func:`~repro.service.serve_stdio`, the transport CI
  uses) -- firing requests *at their arrival time* regardless of how slow
  the service answers (that is what makes it open-loop).  The stdio front
  end paces its intake by ``max_pending`` instead of rejecting past it, so
  only ``inproc`` shows admission-control rejections;
* **traffic scenarios** over the campaign's service tree mixes
  (:mod:`repro.bench.scenarios`), each a set of cells sweeping arrival
  process and offered rate;
* :func:`run_traffic_scenarios`, which drives the cells and returns a
  standard :class:`~repro.bench.runner.BenchRun` -- one record per cell,
  latency percentiles / throughput / rejection / deadline-miss counts in
  ``extras`` -- so traffic runs persist and diff through the existing
  schema-v1 artifact pipeline unchanged.

Request streams exercise the service realistically: every request names a
tree from the mix (full payload on first sight, interner token after --
the scatter-once analogue clients are expected to use) and an algorithm
drawn from the in-core set.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import percentile
from ..service import SolverService, serve_stdio, tree_payload_token
from .runner import BenchRecord, BenchRun
from .scenarios import IN_CORE_ALGORITHMS, _service_traffic

__all__ = [
    "TrafficCell",
    "TrafficScenario",
    "UnknownTrafficScenarioError",
    "register_traffic_scenario",
    "get_traffic_scenario",
    "list_traffic_scenarios",
    "select_traffic_scenarios",
    "build_request_docs",
    "request_stream_digest",
    "arrival_schedule",
    "run_traffic_scenarios",
    "ARRIVAL_PROCESSES",
    "TRAFFIC_TRANSPORTS",
]

ARRIVAL_PROCESSES = ("poisson", "burst", "closed")
TRAFFIC_TRANSPORTS = ("inproc", "stdio")


class UnknownTrafficScenarioError(ValueError):
    """Raised when a traffic scenario name is not registered."""


@dataclass(frozen=True)
class TrafficCell:
    """One load point: an arrival process at an offered rate.

    ``rate`` is the offered load in requests/second (the *schedule's* rate;
    an overloaded service still receives arrivals at this rate -- open
    loop).  ``burst_size`` groups arrivals back-to-back for the ``burst``
    process; ``concurrency`` is the client count of the ``closed`` process,
    which ignores ``rate`` entirely.  ``deadline`` (seconds) rides on every
    request of the cell; ``None`` means no deadline.
    """

    name: str
    arrival: str
    requests: int
    rate: float = 50.0
    burst_size: int = 1
    concurrency: int = 4
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; expected one of "
                f"{ARRIVAL_PROCESSES}"
            )
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.arrival != "closed" and self.rate <= 0:
            raise ValueError("rate must be > 0 requests/second")


@dataclass(frozen=True)
class TrafficScenario:
    """A named set of load points over one service tree mix."""

    name: str
    summary: str
    tree_count: int
    cells: Tuple[TrafficCell, ...]
    algorithms: Tuple[str, ...] = IN_CORE_ALGORITHMS
    tags: Tuple[str, ...] = ()
    smoke: bool = False


_REGISTRY: Dict[str, TrafficScenario] = {}


def register_traffic_scenario(scenario: TrafficScenario) -> TrafficScenario:
    """Add (or replace) a traffic scenario in the registry."""
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_traffic_scenario(name: str) -> TrafficScenario:
    canonical = name.strip().lower().replace("-", "_")
    if canonical not in _REGISTRY:
        raise UnknownTrafficScenarioError(
            f"unknown traffic scenario {name!r}; expected one of "
            f"{list_traffic_scenarios()}"
        )
    return _REGISTRY[canonical]


def list_traffic_scenarios() -> List[str]:
    return sorted(_REGISTRY)


def select_traffic_scenarios(
    pattern: Optional[str] = None, *, smoke: bool = False
) -> List[TrafficScenario]:
    """Traffic scenarios matched by substring / smoke flag (as in bench)."""
    needle = None if pattern is None else pattern.strip().lower()
    out = []
    for name in list_traffic_scenarios():
        scenario = _REGISTRY[name]
        if smoke and not scenario.smoke:
            continue
        if needle:
            haystack = (scenario.name, *scenario.tags, scenario.summary)
            if not any(needle in item.lower() for item in haystack):
                continue
        out.append(scenario)
    return out


# ----------------------------------------------------------------------
# request streams and arrival schedules
# ----------------------------------------------------------------------
def build_request_docs(
    scenario: TrafficScenario, cell: TrafficCell, seed: int
) -> List[Dict[str, Any]]:
    """The cell's request documents, in arrival order (seeded, stable).

    Trees come from the campaign's service mix
    (:func:`repro.bench.scenarios._service_traffic`); each request picks a
    mix tree and an in-core algorithm from the seeded stream.  The first
    request naming a tree carries its full parent-array payload; every
    later one sends the interner token -- the request pattern real clients
    are expected to converge to, and the one that exercises both interner
    paths.
    """
    import random as _random
    import zlib

    mix = _service_traffic(seed, scenario.tree_count)
    payloads = []
    for _, tree in mix:
        kernel = tree.kernel()
        payloads.append(
            {"parents": kernel.parent, "f": kernel.f, "n": kernel.n}
        )
    # crc32, not hash(): stable across processes whatever PYTHONHASHSEED is
    rng = _random.Random((seed * 7_368_787) ^ zlib.crc32(cell.name.encode()))
    sent_full = set()
    docs = []
    for i in range(cell.requests):
        which = rng.randrange(len(payloads))
        payload = payloads[which]
        if which in sent_full:
            tree_doc: Dict[str, Any] = {"token": tree_payload_token(payload)}
        else:
            sent_full.add(which)
            tree_doc = payload
        doc: Dict[str, Any] = {
            "id": f"r-{cell.name}-{i:05d}",
            "tree": tree_doc,
            "algorithm": rng.choice(scenario.algorithms),
            "report": "summary",
        }
        if cell.deadline is not None:
            doc["deadline"] = cell.deadline
        docs.append(doc)
    return docs


def request_stream_digest(scenario_name: str, cell_index: int, seed: int) -> int:
    """crc32 of a cell's full request stream, canonically serialised.

    The digest covers every byte a client would put on the wire (the docs
    in arrival order, JSON with sorted keys) plus the arrival schedule, so
    two processes agreeing on the digest agree on the exact traffic.  Used
    by the cross-process determinism tests to assert that spawn- and
    fork-started interpreters generate byte-identical streams (nothing in
    the pipeline may depend on ``PYTHONHASHSEED`` or interpreter state).
    """
    import zlib

    scenario = get_traffic_scenario(scenario_name)
    cell = scenario.cells[cell_index]
    payload = {
        "docs": build_request_docs(scenario, cell, seed),
        "schedule": arrival_schedule(cell, seed),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("utf-8"))


def arrival_schedule(cell: TrafficCell, seed: int) -> List[float]:
    """Arrival times (seconds from start) of the cell's open-loop schedule.

    ``poisson`` draws exponential inter-arrival gaps at ``rate``;
    ``burst`` releases ``burst_size`` requests back-to-back, with the
    inter-burst gap sized so the *mean* offered rate stays ``rate``.
    Closed-loop cells have no schedule (arrivals are completions).
    """
    import random as _random

    if cell.arrival == "closed":
        return []
    rng = _random.Random((seed * 2_246_822_519) % (2**31) + len(cell.name))
    times: List[float] = []
    now = 0.0
    if cell.arrival == "poisson":
        for _ in range(cell.requests):
            now += rng.expovariate(cell.rate)
            times.append(now)
    else:  # burst
        gap = cell.burst_size / cell.rate
        while len(times) < cell.requests:
            for _ in range(min(cell.burst_size, cell.requests - len(times))):
                times.append(now)
            now += gap
    return times


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
class _InprocTransport:
    """Direct calls into the service core (no serialization)."""

    def __init__(self, service: SolverService) -> None:
        self._service = service

    async def send(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        return (await self._service.handle(doc)).to_dict()

    async def close(self) -> None:
        pass


class _StdioTransport:
    """Full NDJSON round-trip through the stdio front end (in-memory pipes).

    Every request is serialized to a line, handed to
    :func:`~repro.service.serve_stdio`, and its response line parsed back --
    the identical code path the CI smoke job drives through a subprocess,
    without the subprocess.
    """

    def __init__(self, service: SolverService) -> None:
        self._lines: "asyncio.Queue" = asyncio.Queue()
        self._waiters: Dict[str, "asyncio.Future"] = {}
        self._server = asyncio.ensure_future(
            serve_stdio(service, self._read_line, self._write_line)
        )

    async def _read_line(self) -> Optional[str]:
        return await self._lines.get()

    def _write_line(self, text: str) -> None:
        doc = json.loads(text)
        waiter = self._waiters.pop(doc.get("id", ""), None)
        if waiter is not None and not waiter.done():
            waiter.set_result(doc)

    async def send(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[doc["id"]] = waiter
        await self._lines.put(json.dumps(doc, separators=(",", ":")))
        return await waiter

    async def close(self) -> None:
        await self._lines.put(None)  # EOF: the front end drains and returns
        await self._server


def _make_transport(service: SolverService, transport: str):
    if transport == "inproc":
        return _InprocTransport(service)
    if transport == "stdio":
        return _StdioTransport(service)
    raise ValueError(
        f"unknown transport {transport!r}; expected one of {TRAFFIC_TRANSPORTS}"
    )


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
@dataclass
class CellOutcome:
    """Client-side view of one cell's run."""

    sent: int = 0
    completed: int = 0
    rejected: int = 0
    deadline_missed: int = 0
    errors: int = 0
    duration_seconds: float = 0.0
    #: client-observed latency of each *successful* request (seconds)
    latencies: List[float] = field(default_factory=list)

    def percentiles(self) -> Dict[str, float]:
        ordered = sorted(self.latencies)
        return {
            "p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "p99": percentile(ordered, 99.0),
        }

    @property
    def throughput(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds


def _account(outcome: CellOutcome, response: Dict[str, Any], latency: float) -> None:
    status = response.get("status")
    if status == "ok":
        outcome.completed += 1
        outcome.latencies.append(latency)
    elif status == "rejected":
        outcome.rejected += 1
    elif status == "deadline":
        outcome.deadline_missed += 1
    else:
        outcome.errors += 1


async def _drive_open_loop(
    transport, docs: Sequence[Dict[str, Any]], times: Sequence[float]
) -> CellOutcome:
    """Fire each request at its scheduled arrival time; never wait in line.

    The generator's clock is the schedule, not the service: a response
    still in flight does not delay the next arrival.  Under overload the
    service therefore sees the full offered rate and must shed load via
    admission control -- exactly the behaviour closed-loop generators mask.
    Each latency runs from the request's scheduled arrival, not from when
    the event loop got round to sending it, so a stall in the generator
    or the transport counts against every request it delayed.
    """
    outcome = CellOutcome()
    tasks = []
    start = perf_counter()

    async def fire(doc: Dict[str, Any], due: float) -> None:
        response = await transport.send(doc)
        _account(outcome, response, perf_counter() - due)

    for doc, at in zip(docs, times):
        due = start + at
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome.sent += 1
        tasks.append(asyncio.ensure_future(fire(doc, due)))
    if tasks:
        await asyncio.gather(*tasks)
    outcome.duration_seconds = perf_counter() - start
    return outcome


async def _drive_closed_loop(
    transport, docs: Sequence[Dict[str, Any]], concurrency: int
) -> CellOutcome:
    """``concurrency`` clients, each sending its next request on response."""
    outcome = CellOutcome()
    queue = list(docs)
    queue.reverse()  # pop() from the front, in arrival order
    start = perf_counter()

    async def worker() -> None:
        while queue:
            doc = queue.pop()
            outcome.sent += 1
            t0 = perf_counter()
            response = await transport.send(doc)
            _account(outcome, response, perf_counter() - t0)

    await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    outcome.duration_seconds = perf_counter() - start
    return outcome


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
async def run_traffic_cell(
    service: SolverService,
    scenario: TrafficScenario,
    cell: TrafficCell,
    *,
    seed: int = 0,
    transport: str = "inproc",
) -> Tuple[CellOutcome, Dict[str, Any]]:
    """Drive one cell against a started service; (outcome, stats snapshot)."""
    docs = build_request_docs(scenario, cell, seed)
    client = _make_transport(service, transport)
    try:
        if cell.arrival == "closed":
            outcome = await _drive_closed_loop(client, docs, cell.concurrency)
        else:
            outcome = await _drive_open_loop(
                client, docs, arrival_schedule(cell, seed)
            )
    finally:
        await client.close()
    return outcome, service.snapshot()


def _cell_record(
    scenario: TrafficScenario,
    cell: TrafficCell,
    outcome: CellOutcome,
    stats: Dict[str, Any],
    *,
    transport: str,
) -> BenchRecord:
    """One schema-v1 record per cell: times are latencies, extras the rest.

    ``best_time`` carries the p50 and ``mean_time`` the mean of the
    client-observed latency; ``peak_memory``/``io_volume`` are 0 (traffic
    cells measure the service, not a schedule), keeping the artifact
    pipeline and its comparison math unchanged.
    """
    pct = outcome.percentiles()
    mean_latency = (
        sum(outcome.latencies) / len(outcome.latencies)
        if outcome.latencies else 0.0
    )
    extras: Dict[str, Any] = {
        "traffic": True,
        "transport": transport,
        "arrival": cell.arrival,
        "offered_rate": cell.rate if cell.arrival != "closed" else None,
        "burst_size": cell.burst_size if cell.arrival == "burst" else None,
        "concurrency": cell.concurrency if cell.arrival == "closed" else None,
        "deadline": cell.deadline,
        "requests": outcome.sent,
        "completed": outcome.completed,
        "rejected": outcome.rejected,
        "deadline_missed": outcome.deadline_missed,
        "errors": outcome.errors,
        "duration_seconds": outcome.duration_seconds,
        "throughput_rps": outcome.throughput,
        "latency_p50": pct["p50"],
        "latency_p95": pct["p95"],
        "latency_p99": pct["p99"],
        "latency_mean": mean_latency,
        "service_max_queue_depth": stats.get("max_queue_depth"),
        "service_interned_trees": stats.get("interned_trees"),
        "service_interner_hits": stats.get("interner_hits"),
        "pool": stats["pool"],
        "workers": stats["workers"],
    }
    return BenchRecord(
        scenario=scenario.name,
        family="traffic",
        instance=cell.name,
        algorithm="service",
        nodes=outcome.sent,
        peak_memory=0.0,
        io_volume=0.0,
        best_time=pct["p50"],
        mean_time=mean_latency,
        repeats=max(1, outcome.completed),
        extras=extras,
    )


def run_traffic_scenarios(
    scenarios: Sequence[TrafficScenario],
    *,
    seed: int = 0,
    workers: Optional[int] = None,
    transport: str = "inproc",
    max_pending: int = 128,
) -> BenchRun:
    """Run every cell of every traffic scenario; a standard :class:`BenchRun`.

    Each cell gets a fresh :class:`~repro.service.SolverService` (so its
    counters are the cell's counters) configured with ``workers`` exactly
    like the service the ``repro serve`` command starts.  The
    result flows through the existing artifact pipeline: ``write_artifact``
    persists it, ``compare_artifacts`` diffs two traffic runs cell by cell.
    """
    if transport not in TRAFFIC_TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of "
            f"{TRAFFIC_TRANSPORTS}"
        )
    start = perf_counter()

    async def _run() -> List[BenchRecord]:
        records: List[BenchRecord] = []
        for scenario in scenarios:
            for cell in scenario.cells:
                service = SolverService(
                    workers=workers,
                    max_pending=max_pending,
                    # the generator sends each distinct tree in full exactly
                    # once and by token afterwards, so the interner must hold
                    # the whole mix or evicted tokens come back unknown
                    interner_capacity=max(512, scenario.tree_count),
                )
                async with service:
                    outcome, stats = await run_traffic_cell(
                        service, scenario, cell,
                        seed=seed, transport=transport,
                    )
                records.append(_cell_record(
                    scenario, cell, outcome, stats, transport=transport,
                ))
        return records

    records = asyncio.run(_run())
    return BenchRun(
        records=tuple(records),
        seed=seed,
        repeat=1,
        warmup=0,
        workers=workers,
        scenarios=tuple(s.name for s in scenarios),
        campaign_seconds=perf_counter() - start,
    )


# ----------------------------------------------------------------------
# built-in traffic scenarios
# ----------------------------------------------------------------------
register_traffic_scenario(TrafficScenario(
    name="service_open_smoke",
    summary="CI smoke: ~50 mixed requests, modest Poisson rate, generous "
            "deadlines -- must complete with zero rejections or misses",
    tree_count=24,
    cells=(
        TrafficCell(
            name="poisson-r25",
            arrival="poisson",
            requests=50,
            rate=25.0,
            deadline=30.0,
        ),
    ),
    tags=("smoke", "ci"),
    smoke=True,
))

register_traffic_scenario(TrafficScenario(
    name="service_poisson",
    summary="open-loop Poisson arrivals over the 320-tree service mix, "
            "two offered rates",
    tree_count=320,
    cells=(
        TrafficCell(
            name="poisson-r50", arrival="poisson", requests=400, rate=50.0,
            deadline=10.0,
        ),
        TrafficCell(
            name="poisson-r200", arrival="poisson", requests=800, rate=200.0,
            deadline=10.0,
        ),
    ),
    tags=("open-loop", "poisson"),
))

register_traffic_scenario(TrafficScenario(
    name="service_auto",
    summary="every request solved with the 'auto' solver over a mixed "
            "64-tree shape mix",
    tree_count=64,
    cells=(
        TrafficCell(
            name="poisson-r40", arrival="poisson", requests=200, rate=40.0,
            deadline=15.0,
        ),
        TrafficCell(
            name="burst-b16-r80", arrival="burst", requests=200, rate=80.0,
            burst_size=16, deadline=15.0,
        ),
    ),
    algorithms=("auto",),
    tags=("open-loop", "portfolio"),
))

register_traffic_scenario(TrafficScenario(
    name="service_burst_open",
    summary="sustained bursty open-loop traffic over the 2000-tree burst "
            "mix, with a closed-loop comparison cell",
    tree_count=2000,
    cells=(
        TrafficCell(
            name="burst-b32-r160", arrival="burst", requests=2000,
            rate=160.0, burst_size=32, deadline=15.0,
        ),
        TrafficCell(
            name="poisson-r160", arrival="poisson", requests=1000,
            rate=160.0, deadline=15.0,
        ),
        TrafficCell(
            name="closed-c8", arrival="closed", requests=1000, concurrency=8,
        ),
    ),
    tags=("open-loop", "burst", "scale"),
))
