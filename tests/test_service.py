"""Tests for the solver service daemon (repro.service)."""

import asyncio
import json
import time

import pytest

from repro.core.builders import chain_tree
from repro.core.kernel import TreeKernel
from repro.core.serialize import tree_to_dict
from repro.core.traversal import BOTTOMUP, Traversal
from repro.solvers import SolveReport, register_solver, solve
from repro.service import (
    BadRequestError,
    DeadlineError,
    QueueFullError,
    ServiceClosedError,
    SolverService,
    TreeInterner,
    UnknownTreeTokenError,
    error_from_dict,
    parse_request,
    serve_stdio,
    start_http_server,
    tree_payload_token,
)
from repro.service.errors import SolverFailedError

from _helpers import can_spawn_workers


def run(coro):
    """Drive one async test body (the suite has no asyncio plugin)."""
    return asyncio.run(coro)


PARENTS = {"parents": [-1, 0, 0, 1, 1], "f": [0.0, 2.0, 3.0, 1.0, 2.0],
           "n": [1.0, 2.0, 1.0, 1.0, 3.0]}


@pytest.fixture(scope="module", autouse=True)
def _sleepy_solver():
    # registered at fixture time (never at import), so parametrized tests
    # that enumerate list_solvers() at collection never see it
    @register_solver("svc_sleepy", family="test", summary="sleeps then answers")
    def _sleepy(tree, *, seconds=0.2, **_ignored):
        time.sleep(float(seconds))
        root = tree.ids[0] if isinstance(tree, TreeKernel) else tree.root
        return SolveReport(
            algorithm="svc_sleepy",
            peak_memory=1.0,
            traversal=Traversal((root,), BOTTOMUP),
        )

    yield


# ----------------------------------------------------------------------
# protocol: tokens, interner, request parsing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_token_is_content_addressed(self):
        assert tree_payload_token(PARENTS) == tree_payload_token(dict(PARENTS))
        other = dict(PARENTS, f=[0.0, 2.0, 3.0, 1.0, 2.5])
        assert tree_payload_token(other) != tree_payload_token(PARENTS)
        assert tree_payload_token(PARENTS).startswith("t-")

    def test_parse_request_builds_tree_and_canonicalises(self):
        interner = TreeInterner()
        request = parse_request(
            {"tree": PARENTS, "algorithm": "MinMem", "memory": 12},
            interner,
        )
        assert request.algorithm == "minmem"  # canonical registry name
        assert request.memory == 12.0
        assert request.tree.size == 5
        assert request.tree_token == tree_payload_token(PARENTS)
        assert request.id.startswith("req-")

    def test_parse_request_accepts_stored_tree_documents(self):
        interner = TreeInterner()
        doc = {"tree": tree_to_dict(chain_tree(6, f=2.0, n=1.0))}
        request = parse_request(doc, interner)
        assert request.tree.size == 6

    def test_parse_request_accepts_unordered_parent_arrays(self):
        interner = TreeInterner()
        # root last: the topological fast path must hand over to the
        # validating builder instead of rejecting the request
        request = parse_request(
            {"tree": {"parents": [2, 2, -1], "f": [1.0, 2.0, 0.0]}}, interner
        )
        assert request.tree.size == 3

    @pytest.mark.parametrize("doc,match", [
        ("not a dict", "JSON object"),
        ({}, "'tree'"),
        ({"tree": {"parents": []}}, "non-empty"),
        ({"tree": {"parents": [-1, 0], "f": [1.0]}}, "entries"),
        ({"tree": {"wrong": 1}}, "parents"),
        ({"tree": PARENTS, "id": ""}, "non-empty string"),
        ({"tree": PARENTS, "algorithm": "nope"}, "nope"),
        ({"tree": PARENTS, "memory": "much"}, "number"),
        ({"tree": PARENTS, "deadline": 0}, "> 0"),
        ({"tree": PARENTS, "deadline": "soon"}, "number"),
        ({"tree": PARENTS, "options": [1]}, "object"),
        ({"tree": PARENTS, "options": {"pool": "persistent"}}, "reserved"),
        ({"tree": PARENTS, "report": "verbose"}, "report"),
        # bad weights fail the kernel's weight check at intern, in both the
        # topological and the unordered parent-array form
        ({"tree": {"parents": [-1, 0, 0], "f": [0, float("nan"), 9]}}, "non-finite"),
        ({"tree": {"parents": [-1, 0, 0], "f": [0, -5, 9]}}, "negative file size"),
        ({"tree": {"parents": [2, 2, -1], "f": [-5, 9, 0]}}, "negative file size"),
        # the fault-injection hook trips in the solver dispatch: a request
        # carrying it could kill the daemon's process or stall a solver
        ({"tree": PARENTS, "options": {"_fault": {"kind": "worker_kill"}}}, "reserved"),
        # an option the named solver does not take: the dispatch would drop
        # it and answer with the default heuristic
        ({"tree": PARENTS, "algorithm": "minio", "memory": 45,
          "options": {"heurstic": "best_fit"}}, "heurstic"),
    ])
    def test_parse_request_rejects_malformed(self, doc, match):
        with pytest.raises(BadRequestError, match=match):
            parse_request(doc, TreeInterner())

    def test_parse_request_applies_default_deadline(self):
        interner = TreeInterner()
        request = parse_request({"tree": PARENTS}, interner, default_deadline=2.5)
        assert request.deadline == 2.5
        explicit = parse_request(
            {"tree": PARENTS, "deadline": 0.5}, interner, default_deadline=2.5
        )
        assert explicit.deadline == 0.5

    def test_interner_lru_evicts_and_counts(self):
        interner = TreeInterner(capacity=2)
        token_a, tree_a = interner.intern(PARENTS)
        token_b, _ = interner.intern({"parents": [-1, 0], "f": [0.0, 1.0]})
        assert interner.misses == 2
        # re-intern a: a hit, and it becomes most-recently-used
        token_a2, tree_a2 = interner.intern(PARENTS)
        assert (token_a2, tree_a2) == (token_a, tree_a)
        assert interner.hits == 1
        # third distinct payload evicts b (least recently used)
        interner.intern({"parents": [-1, 0, 1], "f": [0.0, 1.0, 2.0]})
        assert len(interner) == 2
        assert interner.lookup(token_a) is tree_a
        with pytest.raises(UnknownTreeTokenError, match="re-send"):
            interner.lookup(token_b)

    def test_error_from_dict_round_trips_types(self):
        for error in (QueueFullError("full"), ServiceClosedError("bye"),
                      BadRequestError("bad"), SolverFailedError("boom")):
            rebuilt = error_from_dict(error.to_dict())
            assert type(rebuilt) is type(error)
            assert str(rebuilt) == str(error)
        deadline = error_from_dict(
            DeadlineError("late", stage="executing").to_dict()
        )
        assert isinstance(deadline, DeadlineError)
        assert deadline.stage == "executing"


# ----------------------------------------------------------------------
# the daemon core
# ----------------------------------------------------------------------
class TestDaemon:
    def test_ok_path_matches_direct_solve(self):
        async def body():
            async with SolverService() as svc:
                response = await svc.handle(
                    {"tree": PARENTS, "algorithm": "minmem"}
                )
                assert response.ok
                assert response.total_seconds >= response.solve_seconds
                return response.report

        report = run(body())
        from repro.core.tree import Tree

        direct = solve(
            Tree.from_parents(PARENTS["parents"], f=PARENTS["f"], n=PARENTS["n"]),
            "minmem",
        )
        assert report == direct

    def test_token_reuse_and_report_modes(self):
        async def body():
            async with SolverService() as svc:
                full = await svc.handle({"tree": PARENTS, "report": "full"})
                token = full.tree_token
                summary = await svc.handle(
                    {"tree": {"token": token}, "report": "summary"}
                )
                none = await svc.handle(
                    {"tree": {"token": token}, "report": "none"}
                )
                unknown = await svc.handle({"tree": {"token": "t-feedfacedeadbeef"}})
                return full, summary, none, unknown, svc.snapshot()

        full, summary, none, unknown, snap = run(body())
        assert "traversal" in full.to_dict()["report"]
        assert "traversal" not in summary.to_dict()["report"]
        assert summary.to_dict()["report"]["peak_memory"] == full.report.peak_memory
        assert "report" not in none.to_dict()
        assert unknown.status == "unknown_tree_token"
        assert snap["interned_trees"] == 1
        assert snap["interner_hits"] == 2

    def test_unknown_service_pool_mode_rejected_eagerly(self):
        # the worker count picks the executor; the old pool= knob is gone
        with pytest.raises(TypeError, match="pool"):
            SolverService(pool="serial")

    def test_fault_plan_without_engine_rejected(self):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec("broken_pool", 0)])
        # without workers there is no engine backend for the plan to fault
        with pytest.raises(ValueError, match="workers > 1"):
            SolverService(fault_plan=plan)

    def test_queue_full_rejects_synchronously(self):
        async def body():
            async with SolverService(
                max_pending=2, max_inflight=1
            ) as svc:
                interner = svc.interner
                doc = {"tree": PARENTS, "algorithm": "svc_sleepy",
                       "options": {"seconds": 0.15}}
                first = svc.submit_nowait(parse_request(dict(doc), interner))
                second = svc.submit_nowait(parse_request(dict(doc), interner))
                with pytest.raises(QueueFullError, match="retry"):
                    svc.submit_nowait(parse_request(dict(doc), interner))
                # the typed rejection also surfaces as a response document
                rejected = await svc.handle(dict(doc))
                assert rejected.status == "rejected"
                assert rejected.error.http_status == 429
                with pytest.raises(QueueFullError):
                    rejected.raise_for_status()
                results = await asyncio.gather(first, second)
                assert [r.status for r in results] == ["ok", "ok"]
                assert svc.stats.rejected == 2
                assert svc.stats.completed == 2

        run(body())

    def test_queue_full_under_concurrent_submitters(self):
        async def body():
            async with SolverService(
                max_pending=3, max_inflight=1
            ) as svc:
                doc = {"tree": PARENTS, "algorithm": "svc_sleepy",
                       "options": {"seconds": 0.05}}
                responses = await asyncio.gather(
                    *(svc.handle(dict(doc)) for _ in range(8))
                )
                ok = [r for r in responses if r.ok]
                rejected = [r for r in responses if r.status == "rejected"]
                assert len(ok) + len(rejected) == 8
                assert len(ok) == 3  # the admission bound, exactly
                assert svc.stats.rejected == 5
                assert svc.stats.max_queue_depth <= 3

        run(body())

    def test_deadline_expires_while_queued(self):
        async def body():
            async with SolverService(max_inflight=1) as svc:
                interner = svc.interner
                blocker = svc.submit_nowait(parse_request(
                    {"tree": PARENTS, "algorithm": "svc_sleepy",
                     "options": {"seconds": 0.3}}, interner))
                doomed = svc.submit_nowait(parse_request(
                    {"tree": PARENTS, "algorithm": "minmem", "deadline": 0.05},
                    interner))
                t0 = time.perf_counter()
                response = await doomed
                waited = time.perf_counter() - t0
                assert response.status == "deadline"
                assert response.error.stage == "queued"
                assert response.solve_seconds == 0.0
                # the response arrived at the deadline, not after the queue
                assert waited < 0.25
                await blocker
                assert svc.stats.deadline_miss_queued == 1
                assert svc.stats.deadline_miss_executing == 0

        run(body())

    def test_deadline_expires_while_executing(self):
        async def body():
            async with SolverService(max_inflight=1) as svc:
                t0 = time.perf_counter()
                response = await svc.handle(
                    {"tree": PARENTS, "algorithm": "svc_sleepy",
                     "deadline": 0.08, "options": {"seconds": 0.4}}
                )
                waited = time.perf_counter() - t0
                assert response.status == "deadline"
                assert response.error.stage == "executing"
                assert response.solve_seconds > 0.0
                assert waited < 0.35  # responded at the deadline, mid-solve
                assert svc.stats.deadline_miss_executing == 1
                with pytest.raises(DeadlineError):
                    response.raise_for_status()

        run(body())

    def test_close_drains_admitted_requests(self):
        async def body():
            svc = await SolverService(max_inflight=1).start()
            futures = [
                svc.submit_nowait(parse_request({"tree": PARENTS}, svc.interner))
                for _ in range(4)
            ]
            await svc.close()  # drain=True: every admitted request answers
            responses = [f.result() for f in futures]
            assert all(r.ok for r in responses)
            assert svc.stats.completed == 4
            with pytest.raises(ServiceClosedError):
                svc.submit_nowait(parse_request({"tree": PARENTS}, svc.interner))
            closed = await svc.handle({"tree": PARENTS})
            assert closed.status == "closed"

        run(body())

    def test_close_abort_flushes_queue_with_typed_responses(self):
        async def body():
            svc = await SolverService(max_inflight=1).start()
            doc = {"tree": PARENTS, "algorithm": "svc_sleepy",
                   "options": {"seconds": 0.1}}
            futures = [
                svc.submit_nowait(parse_request(dict(doc), svc.interner))
                for _ in range(3)
            ]
            await asyncio.sleep(0.02)  # let the first reach the executor
            await svc.close(drain=False)
            statuses = [f.result().status for f in futures]
            assert statuses[0] == "ok"  # already executing: runs out
            assert statuses[1:] == ["closed", "closed"]
            assert svc.stats.drained == 2

        run(body())

    def test_solver_failure_is_a_typed_response(self):
        async def body():
            async with SolverService() as svc:
                response = await svc.handle(
                    {"tree": PARENTS, "algorithm": "svc_sleepy",
                     "options": {"seconds": "not-a-number"}}
                )
                assert response.status == "solver_error"
                assert response.error.cause_type
                assert svc.stats.solver_errors == 1

        run(body())

    def test_engine_backed_service_matches_serial_and_shuts_down(self):
        async def body():
            svc = SolverService(workers=2)
            async with svc:
                assert svc._engine is not None
                responses = await asyncio.gather(*(
                    svc.handle({"tree": PARENTS, "algorithm": name})
                    for name in ("minmem", "liu", "postorder")
                ))
                assert all(r.ok for r in responses)
                reports = {r.algorithm: r.report for r in responses}
            # drained close released the workers and the shared segments
            assert svc._engine.pool.executor is None
            return reports

        reports = run(body())
        from repro.core.tree import Tree

        tree = Tree.from_parents(PARENTS["parents"], f=PARENTS["f"], n=PARENTS["n"])
        for name, report in reports.items():
            assert report == solve(tree, name)

    def test_stats_snapshot_shape(self):
        async def body():
            async with SolverService() as svc:
                await svc.handle({"tree": PARENTS})
                return svc.snapshot()

        snap = run(body())
        for key in ("accepted", "completed", "rejected", "deadline_misses",
                    "latency_seconds", "pending", "max_pending", "pool",
                    "accepting"):
            assert key in snap
        assert snap["latency_seconds"]["p99"] >= snap["latency_seconds"]["p50"] >= 0


# ----------------------------------------------------------------------
# front ends
# ----------------------------------------------------------------------
class TestStdioFrontEnd:
    def _drive(self, lines, **options):
        """Feed lines to serve_stdio; (response docs, final snapshot).

        ``options`` go to the :class:`SolverService` the lines are fed to.
        """
        async def body():
            feed = asyncio.Queue()
            for line in lines:
                await feed.put(line)
            await feed.put(None)  # EOF
            out = []

            async def read_line():
                return await feed.get()

            def write_line(text):
                out.append(json.loads(text))

            async with SolverService(**options) as svc:
                snapshot = await serve_stdio(svc, read_line, write_line)
            return out, snapshot

        return run(body())

    def test_requests_stats_and_garbage(self):
        out, snapshot = self._drive([
            json.dumps({"id": "a", "tree": PARENTS, "algorithm": "minmem"}),
            "",                      # blank lines are ignored
            "{not json",
            json.dumps({"op": "stats"}),
            json.dumps({"id": "b", "tree": {"token": tree_payload_token(PARENTS)},
                        "algorithm": "liu"}),
        ])
        by_id = {doc.get("id"): doc for doc in out if "op" not in doc}
        assert by_id["a"]["status"] == "ok"
        assert by_id["b"]["status"] == "ok"
        garbage = [d for d in out if d.get("status") == "bad_request"]
        assert len(garbage) == 1 and "JSON" in garbage[0]["error"]["message"]
        stats_docs = [d for d in out if d.get("op") == "stats"]
        assert len(stats_docs) == 1
        assert snapshot["completed"] == 2
        assert snapshot["bad_requests"] == 1

    def test_requests_are_admitted_in_line_order(self):
        # every line is already read when the loop first looks: a stats
        # line still counts each request above it as accepted
        lines = [json.dumps({"id": f"r{i}", "tree": PARENTS}) for i in range(5)]
        out, snapshot = self._drive(lines + [json.dumps({"op": "stats"})] + lines[:1])
        (stats,) = [doc["stats"] for doc in out if doc.get("op") == "stats"]
        assert stats["accepted"] == 5
        assert snapshot["accepted"] == snapshot["completed"] == 6

    def test_intake_is_paced_by_the_admission_bound(self):
        # a stdio client cannot back off: past max_pending the next line
        # waits for an answer instead of being refused as queue-full
        doc = {"tree": PARENTS, "algorithm": "svc_sleepy",
               "options": {"seconds": 0.01}}
        lines = [json.dumps(dict(doc, id=f"p{i}")) for i in range(8)]
        out, snapshot = self._drive(
            lines + [json.dumps({"op": "stats"})], max_pending=2, max_inflight=1
        )
        by_id = {d["id"]: d for d in out if "op" not in d}
        assert sorted(by_id) == sorted(f"p{i}" for i in range(8))
        assert all(d["status"] == "ok" for d in by_id.values())
        (stats,) = [d["stats"] for d in out if d.get("op") == "stats"]
        assert stats["accepted"] == 8
        assert snapshot["rejected"] == 0
        assert snapshot["max_queue_depth"] <= 2

    def test_write_line_must_be_a_plain_callable(self):
        async def body():
            async def read_line():
                return None

            async def write_line(text):
                pass

            async with SolverService() as svc:
                with pytest.raises(TypeError, match="write_line"):
                    await serve_stdio(svc, read_line, write_line)

        run(body())

    def test_shutdown_op_stops_reading(self):
        out, snapshot = self._drive([
            json.dumps({"id": "a", "tree": PARENTS}),
            json.dumps({"op": "shutdown"}),
            json.dumps({"id": "never", "tree": PARENTS}),
        ])
        ids = {doc.get("id") for doc in out}
        assert "a" in ids and "never" not in ids
        assert snapshot["accepted"] == 1

    def test_overlong_line_is_refused_and_serving_continues(self, monkeypatch):
        import io

        from repro.service import run_stdio_server

        request = json.dumps({"id": "a", "tree": PARENTS})
        cap = len(request) + 10
        monkeypatch.setattr("repro.service.stdio.MAX_BODY_BYTES", cap)
        stdin = "".join([
            "x" * (3 * cap) + "\n",  # drained over several reads
            request.ljust(cap) + "\n",  # exactly at the cap: served
            "y" * (cap + 1),  # over the cap at EOF, no newline
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        stdout = io.StringIO()
        monkeypatch.setattr("sys.stdout", stdout)

        async def body():
            async with SolverService() as svc:
                return await run_stdio_server(svc)

        snapshot = run(body())
        docs = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert len(docs) == 3
        refused = [doc for doc in docs if doc["status"] == "bad_request"]
        assert len(refused) == 2
        for doc in refused:
            assert f"exceeds {cap} characters" in doc["error"]["message"]
        (served,) = [doc for doc in docs if doc.get("id") == "a"]
        assert served["status"] == "ok"
        assert (snapshot["bad_requests"], snapshot["completed"]) == (2, 1)


class TestHttpFrontEnd:
    @staticmethod
    async def _request(host, port, method, path, body=None):
        reader, writer = await asyncio.open_connection(host, port)
        payload = b"" if body is None else json.dumps(body).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nContent-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode() + payload
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = (await reader.readline()).decode().strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        doc = json.loads(await reader.readexactly(int(headers["content-length"])))
        writer.close()
        return status, doc

    def test_routes_and_status_mapping(self):
        async def body():
            async with SolverService() as svc:
                server = await start_http_server(svc, port=0)
                host, port = server.sockets[0].getsockname()[:2]
                results = {}
                results["ok"] = await self._request(
                    host, port, "POST", "/solve",
                    {"id": "h1", "tree": PARENTS, "algorithm": "minmem"})
                results["bad"] = await self._request(
                    host, port, "POST", "/solve", {"tree": {"parents": []}})
                results["health"] = await self._request(host, port, "GET", "/healthz")
                results["stats"] = await self._request(host, port, "GET", "/stats")
                results["missing"] = await self._request(host, port, "GET", "/nope")
                results["method"] = await self._request(host, port, "GET", "/solve")
                server.close()
                await server.wait_closed()
                return results

        results = run(body())
        status, doc = results["ok"]
        assert (status, doc["status"], doc["id"]) == (200, "ok", "h1")
        assert results["bad"][0] == 400
        assert results["health"] == (200, {"status": "ok", "accepting": True})
        assert results["stats"][0] == 200
        assert results["stats"][1]["completed"] == 1
        assert results["missing"][0] == 404
        assert results["method"][0] == 405

    def test_keep_alive_serves_sequential_requests(self):
        async def body():
            async with SolverService() as svc:
                server = await start_http_server(svc, port=0)
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(host, port)
                for i in range(2):  # two requests, one connection
                    payload = json.dumps(
                        {"id": f"k{i}", "tree": PARENTS}).encode()
                    writer.write(
                        f"POST /solve HTTP/1.1\r\n"
                        f"Content-Length: {len(payload)}\r\n\r\n".encode()
                        + payload
                    )
                    await writer.drain()
                    status = int((await reader.readline()).split()[1])
                    assert status == 200
                    headers = {}
                    while True:
                        line = (await reader.readline()).decode().strip()
                        if not line:
                            break
                        name, _, value = line.partition(":")
                        headers[name.lower()] = value.strip()
                    doc = json.loads(await reader.readexactly(
                        int(headers["content-length"])))
                    assert doc["id"] == f"k{i}"
                writer.close()
                server.close()
                await server.wait_closed()

        run(body())


# ----------------------------------------------------------------------
# observability: streaming latencies, spans, /metrics
# ----------------------------------------------------------------------
class TestObservability:
    def test_latency_percentiles_move_past_any_sample_volume(self):
        # regression: the old list-backed stats capped recording at 200k
        # samples, freezing p50/p95/p99 for the rest of the daemon's life
        from repro.service.daemon import ServiceStats

        stats = ServiceStats()
        for _ in range(210_000):
            stats.record_latency(0.001)
        frozen = stats.latency_percentiles()
        for _ in range(60_000):
            stats.record_latency(2.0)
        moved = stats.latency_percentiles()
        assert moved["p99"] > frozen["p99"] * 100
        assert moved["p95"] > frozen["p95"] * 100
        assert stats.latency.count == 270_000

    def test_response_carries_stage_breakdown(self):
        from repro.obs import REQUEST_STAGES

        async def body():
            async with SolverService() as svc:
                return await svc.handle({"id": "t1", "tree": PARENTS})

        response = run(body())
        doc = response.to_dict()
        stages = doc["timing"]["stages"]
        assert set(stages) == set(REQUEST_STAGES)
        assert all(value >= 0.0 for value in stages.values())
        # the daemon-side stages nest inside the reported total
        daemon_side = stages["queued"] + stages["dispatch"] + stages["solve"]
        assert daemon_side <= doc["timing"]["total_seconds"] * 1.5 + 1e-6

    def test_deadline_response_still_reports_stages(self):
        async def body():
            async with SolverService() as svc:
                return await svc.handle({
                    "id": "d1", "tree": PARENTS, "algorithm": "svc_sleepy",
                    "deadline": 0.05, "options": {"seconds": 0.5},
                })

        response = run(body())
        assert response.status == "deadline"
        stages = response.stages
        assert stages is not None and "queued" in stages

    def test_render_metrics_matches_stats(self):
        from repro.obs import parse_exposition

        async def body():
            async with SolverService() as svc:
                await svc.handle({"id": "m1", "tree": PARENTS})
                await svc.handle({"id": "m2", "tree": {"parents": []}})
                return svc.render_metrics(), svc.snapshot()

        text, snap = run(body())
        families = parse_exposition(text)
        assert families["repro_service_latency_seconds"]["type"] == "histogram"
        samples = families["repro_service_requests_total"]["samples"]
        by_outcome = {
            labels.get("outcome"): value for _, labels, value in samples
        }
        assert by_outcome["completed"] == snap["completed"] == 1
        assert by_outcome["bad_request"] == snap["bad_requests"] == 1
        assert "repro_build_info" in families
        assert "repro_service_stage_seconds" in families

    def test_engine_backed_metrics_include_engine_families(self):
        from repro.obs import parse_exposition

        async def body():
            svc = SolverService(workers=2)
            async with svc:
                await svc.handle({"id": "e1", "tree": PARENTS})
                return svc.render_metrics(), svc.snapshot()

        text, snap = run(body())
        families = parse_exposition(text)
        assert "repro_engine_submits_total" in families
        assert "repro_engine_arena_exports_total" in families
        assert "engine" in snap and snap["engine"]["submits"] >= 1

    def test_http_metrics_endpoint(self):
        from repro.obs import parse_exposition

        async def body():
            async with SolverService() as svc:
                server = await start_http_server(svc, port=0)
                host, port = server.sockets[0].getsockname()[:2]
                await self._post_solve(host, port)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                headers = {}
                while True:
                    line = (await reader.readline()).decode().strip()
                    if not line:
                        break
                    name, _, value = line.partition(":")
                    headers[name.lower()] = value.strip()
                body_bytes = await reader.readexactly(
                    int(headers["content-length"])
                )
                writer.close()
                server.close()
                await server.wait_closed()
                return status, headers, body_bytes.decode()

        status, headers, text = run(body())
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "version=0.0.4" in headers["content-type"]
        families = parse_exposition(text)
        assert "repro_service_latency_seconds" in families

    @staticmethod
    async def _post_solve(host, port):
        payload = json.dumps({"id": "warm", "tree": PARENTS}).encode()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"POST /solve HTTP/1.1\r\nContent-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode() + payload
        )
        await writer.drain()
        await reader.read()
        writer.close()

    def test_stdio_metrics_op(self):
        async def body():
            feed = asyncio.Queue()
            await feed.put(json.dumps({"id": "a", "tree": PARENTS}))
            await feed.put(json.dumps({"op": "metrics"}))
            await feed.put(None)
            out = []

            async def read_line():
                return await feed.get()

            def write_line(text):
                out.append(json.loads(text))

            async with SolverService() as svc:
                await serve_stdio(svc, read_line, write_line)
            return out

        out = run(body())
        metrics_docs = [d for d in out if d.get("op") == "metrics"]
        assert len(metrics_docs) == 1
        doc = metrics_docs[0]
        assert doc["content_type"].startswith("text/plain")
        from repro.obs import parse_exposition

        assert "repro_service_accepted_total" in parse_exposition(doc["body"])

    def test_serve_logs_bound_port(self):
        # `serve --port 0`: the structured http_listening event names the
        # actually-bound ephemeral port
        import logging
        from io import StringIO

        from repro.obs import configure_logging

        stream = StringIO()
        configure_logging("info", stream=stream)
        try:
            async def body():
                async with SolverService() as svc:
                    server = await start_http_server(svc, port=0)
                    port = server.sockets[0].getsockname()[1]
                    server.close()
                    await server.wait_closed()
                    return port

            port = run(body())
            logged = stream.getvalue()
            assert "http_listening" in logged
            assert f"port={port}" in logged
            assert port != 0
        finally:
            root = logging.getLogger("repro")
            for handler in list(root.handlers):
                if getattr(handler, "_repro_obs_handler", False):
                    root.removeHandler(handler)


# ----------------------------------------------------------------------
# resilience: circuit breaker, degradation ladder, abort-close hygiene
# ----------------------------------------------------------------------
class TestResilience:
    def _chaos_service(self, *, threshold=2, cooldown=10.0, faults=2, **kw):
        """A process-engine service whose first ``faults`` cells hit an
        injected BrokenProcessPool, driving a stepped-clock breaker."""
        from repro.faults import CircuitBreaker, FaultPlan, FaultSpec

        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=threshold, cooldown=cooldown,
            clock=lambda: clock[0],
        )
        plan = FaultPlan(
            [FaultSpec("broken_pool", i) for i in range(faults)]
        )
        svc = SolverService(workers=2, breaker=breaker, fault_plan=plan, **kw)
        return svc, breaker, clock

    def test_breaker_opens_rejects_and_recovers_end_to_end(self):
        from repro.service import CircuitOpenError

        async def body():
            svc, breaker, clock = self._chaos_service()
            async with svc:
                # two consecutive engine infrastructure failures (the
                # requests still answer, one rung down the ladder) ...
                for i in range(2):
                    response = await svc.handle({"tree": PARENTS, "id": f"r{i}"})
                    assert response.ok
                assert breaker.state == "open"
                # ... open the circuit: admission now refuses with the
                # typed 503, both as an exception and as a wire response
                with pytest.raises(CircuitOpenError) as excinfo:
                    svc.submit_nowait(
                        parse_request({"tree": PARENTS}, svc.interner)
                    )
                assert excinfo.value.http_status == 503
                rejected = await svc.handle({"tree": PARENTS, "id": "r2"})
                assert rejected.status == "circuit_open"
                # past the cooldown the half-open probe goes through,
                # succeeds, and closes the circuit again
                clock[0] = 10.0
                probe = await svc.handle({"tree": PARENTS, "id": "r3"})
                assert probe.ok
                assert breaker.state == "closed"
                text = svc.render_metrics()
                snap = svc.snapshot()
            assert 'repro_circuit_state 0' in text
            for transition in ("closed->open", "open->half_open",
                              "half_open->closed"):
                assert (f'repro_circuit_transitions_total'
                        f'{{transition="{transition}"}} 1') in text
            assert "repro_circuit_rejections_total 2" in text  # both refusals
            assert ('repro_retry_attempts_total'
                    '{fault="broken_pool",layer="service"}') in text
            assert 'repro_fault_injections_total{kind="broken_pool"}' in text
            assert snap["breaker"]["transitions"] == {
                "closed->open": 1, "open->half_open": 1,
                "half_open->closed": 1,
            }

        run(body())

    def test_responses_record_the_degradation_ladder(self):
        async def body():
            svc = SolverService()
            async with svc:
                first = await svc.handle({"tree": PARENTS, "id": "a"})
                second = await svc.handle({"tree": PARENTS, "id": "b"})
            # without an engine (workers <= 1) every request answers from
            # the bottom rung, which is the configured tier: not degraded
            assert first.extras == {"tier": "serial"}
            assert second.extras == {"tier": "serial"}
            # the wire form carries the extras block
            assert first.to_dict()["extras"] == {"tier": "serial"}

        run(body())

    @pytest.mark.skipif(not can_spawn_workers(),
                        reason="platform cannot spawn worker processes")
    def test_degraded_flag_set_below_the_engine_tier(self):
        async def body():
            svc, _, _ = self._chaos_service(threshold=10, faults=1)
            async with svc:
                degraded = await svc.handle({"tree": PARENTS, "id": "a"})
                healthy = await svc.handle({"tree": PARENTS, "id": "b"})
            # the broken-pool request answered from the thread fallback,
            # one rung below the engine; the next one from the engine again
            assert degraded.extras == {"tier": "threads", "degraded": True}
            assert healthy.extras == {"tier": "persistent"}
            # the wire form carries the extras block
            assert degraded.to_dict()["extras"] == degraded.extras

        run(body())

    def test_abort_close_settles_executing_requests_and_their_timers(self):
        # the watchdog-leak regression: an abort-close used to cancel the
        # executing tasks' coroutines without settling their futures or
        # cancelling their deadline timers
        async def body():
            svc = await SolverService(max_inflight=4).start()
            doc = {"tree": PARENTS, "algorithm": "svc_sleepy",
                   "options": {"seconds": 5.0}, "deadline": 30.0}
            futures = [
                svc.submit_nowait(parse_request(dict(doc), svc.interner))
                for _ in range(3)
            ]
            await asyncio.sleep(0.05)  # all three are executing, timers armed
            assert svc.live_timers == 3
            await svc.close(drain=False)
            assert all(f.done() for f in futures)
            statuses = [f.result().status for f in futures]
            assert statuses == ["closed", "closed", "closed"]
            assert svc.live_timers == 0
            assert svc.pending == 0
            assert svc.stats.drained == 3

        run(body())

    def test_graceful_close_also_leaves_no_timers(self):
        async def body():
            async with SolverService() as svc:
                doc = {"tree": PARENTS, "deadline": 30.0}
                response = await svc.handle(doc)
                assert response.ok
                assert svc.live_timers == 0
            assert svc.live_timers == 0

        run(body())
