"""Unit tests for the command-line interface."""

import json
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.core.serialize import save_tree
from repro.generators.harpoon import harpoon_tree


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    save_tree(harpoon_tree(3, memory=10.0, epsilon=1.0), path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        assert parser.parse_args(["minmem", "x.json"]).command == "minmem"
        assert parser.parse_args(["experiment", "fig5"]).which == "fig5"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "x.json"],
            ["pipeline", "--grid2d", "3"],
            ["bench", "--list"],
            ["serve", "--stdio"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_engine_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--engine", "kernel"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["solve", "x.json"], ["bench", "--list"], ["serve", "--stdio"]],
        ids=lambda argv: argv[0],
    )
    def test_pool_flag_is_gone(self, argv, capsys):
        # --workers picks the executor; the old --pool flag is refused
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--pool", "serial"])
        assert exc.value.code == 2
        assert "--pool" in capsys.readouterr().err


class TestMinMemCommand:
    def test_prints_all_algorithms(self, tree_file, capsys):
        assert main(["minmem", str(tree_file)]) == 0
        out = capsys.readouterr().out
        assert "PostOrder memory" in out
        assert "Liu (optimal) memory" in out
        assert "MinMem (optimal)" in out

    def test_postorder_ratio_reported(self, tree_file, capsys):
        main(["minmem", str(tree_file)])
        out = capsys.readouterr().out
        assert "PostOrder / optimal" in out


class TestMinIOCommand:
    def test_default_memory(self, tree_file, capsys):
        assert main(["minio", str(tree_file)]) == 0
        out = capsys.readouterr().out
        for name in ("lsnf", "first_fit", "best_fit", "first_fill", "best_fill"):
            assert name in out

    def test_explicit_memory(self, tree_file, capsys):
        assert main(["minio", str(tree_file), "--memory", "100", "--algorithm", "PostOrder"]) == 0
        assert "IO volume" in capsys.readouterr().out

    def test_too_small_memory_fails(self, tree_file, capsys):
        assert main(["minio", str(tree_file), "--memory", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestDatasetCommand:
    def test_writes_trees(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        assert main(["dataset", "--scale", "tiny", "--output", str(out_dir), "--kind", "assembly"]) == 0
        files = list(out_dir.glob("*.json"))
        assert files, "dataset files should have been written"
        data = json.loads(files[0].read_text())
        assert "nodes" in data


class TestExperimentCommand:
    def test_harpoon_experiment(self, capsys):
        assert main(["experiment", "harpoon"]) == 0
        out = capsys.readouterr().out
        assert "levels" in out
        assert "ratio" in out


class TestPipelineCommand:
    def test_grid2d_end_to_end(self, capsys):
        assert main(["pipeline", "--grid2d", "12", "--ordering", "rcm",
                     "--relaxed", "2"]) == 0
        out = capsys.readouterr().out
        for stage in ("symmetrize", "ordering", "etree", "counts", "amalgamate"):
            assert stage in out
        assert "supernodes" in out
        assert "minmem" in out

    def test_json_output_both_engines_agree(self, capsys):
        # the CLI pipeline against the per-entry / per-node oracles
        import _oracles
        from repro.sparse.matrices import grid_laplacian_2d

        assert main(["pipeline", "--grid2d", "9", "--json"]) == 0
        kernel = json.loads(capsys.readouterr().out)
        reference = _oracles.sparse.build_assembly_tree(
            grid_laplacian_2d(9), ordering="rcm", relaxed=1
        )
        assert kernel["nnz_l"] == reference.symbolic.nnz_l
        assert kernel["supernodes"] == reference.tree.size
        peaks = [
            _oracles.solve(reference.tree, name).peak_memory
            for name in ("postorder", "liu", "minmem")
        ]
        assert [r["peak_memory"] for r in kernel["reports"]] == peaks

    def test_mtx_source_and_algorithm_selection(self, tmp_path, capsys):
        from repro.sparse.matrices import grid_laplacian_2d
        from repro.sparse.mmio import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(grid_laplacian_2d(5), path, symmetric=True)
        assert main(["pipeline", "--mtx", str(path), "-a", "liu"]) == 0
        out = capsys.readouterr().out
        assert "liu" in out and "postorder" not in out

    def test_unknown_ordering_rejected(self, capsys):
        assert main(["pipeline", "--grid2d", "4", "--ordering", "amd"]) == 2
        assert "unknown ordering" in capsys.readouterr().err

    def test_unreadable_mtx_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix\n")
        assert main(["pipeline", "--mtx", str(bad)]) == 1
        assert "error" in capsys.readouterr().err
        # a bad entry names the file and the line
        bad.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        assert main(["pipeline", "--mtx", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.mtx" in err and "ine 3" in err

    def test_rectangular_mtx_reports_error(self, tmp_path, capsys):
        rect = tmp_path / "rect.mtx"
        rect.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"
        )
        assert main(["pipeline", "--mtx", str(rect)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "square" in err


_TREE = {"parents": [-1, 0, 0], "f": [0, 16, 9], "n": [10, 20, 12]}


class _StdioDaemon:
    """A ``serve --stdio`` subprocess behind real pipes; stdin stays open.

    ``cap`` runs the daemon with that stdio line cap in place of
    ``MAX_BODY_BYTES``.
    """

    def __init__(self, *args: str, cap: int = 0) -> None:
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        command = [sys.executable, "-m", "repro.cli"]
        if cap:
            command = [sys.executable, "-c", (
                "import sys; import repro.service.stdio as stdio; "
                f"stdio.MAX_BODY_BYTES = {cap}; "
                "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
            )]
        self.proc = subprocess.Popen(
            command + ["serve", "--stdio", "--log-level", "warning", *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,  # one group: the daemon and its workers
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        self.trailing = b""

    def send(self, *docs) -> None:
        """Write each document (or raw string) as one line, in one write."""
        self.proc.stdin.write(b"".join(
            (doc if isinstance(doc, str) else json.dumps(doc)).encode() + b"\n"
            for doc in docs
        ))
        self.proc.stdin.flush()

    def read_response(self, timeout: float = 20.0) -> dict:
        deadline = time.monotonic() + timeout
        while b"\n" not in self.trailing:
            remaining = deadline - time.monotonic()
            assert remaining > 0 and self._selector.select(remaining), (
                f"no response within {timeout} s while stdin stayed open"
            )
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            assert chunk, "the daemon closed its stdout"
            self.trailing += chunk
        line, self.trailing = self.trailing.split(b"\n", 1)
        return json.loads(line)

    def finish(self, timeout: float):
        """Close stdin (EOF) and wait for the exit; (stdout rest, stderr)."""
        self._selector.close()
        out, err = self.proc.communicate(timeout=timeout)
        self.trailing += out
        return out, err

    def kill(self) -> None:
        self._selector.close()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            try:
                stream.close()
            except BrokenPipeError:
                pass


class TestServeCommand:
    def test_requires_a_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_stdio_and_port_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--stdio", "--port", "0"])

    def test_bad_max_pending_rejected(self, capsys):
        assert main(["serve", "--stdio", "--max-pending", "0"]) == 2
        assert "max-pending" in capsys.readouterr().err

    def test_stdio_serves_ndjson_requests(self, monkeypatch, capsys):
        import io

        lines = "\n".join([
            json.dumps({"id": "a",
                        "tree": {"parents": [-1, 0, 0], "f": [0, 2, 3]},
                        "algorithm": "minmem"}),
            json.dumps({"op": "stats"}),
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--stdio"]) == 0
        captured = capsys.readouterr()
        docs = [json.loads(line) for line in captured.out.strip().splitlines()]
        by_kind = {("stats" if "op" in d else d.get("id")): d for d in docs}
        assert by_kind["a"]["status"] == "ok"
        assert by_kind["stats"]["stats"]["accepted"] == 1
        assert "served 1 requests" in captured.err

    def test_stdio_refuses_the_fault_hook_and_keeps_serving(
        self, monkeypatch, capsys
    ):
        import io

        tree = {"parents": [-1, 0, 0], "f": [0, 2, 3]}
        fault = {"kind": "transient", "at": 0, "delay": 0.0}
        lines = "".join(json.dumps(doc) + "\n" for doc in (
            {"id": "f", "tree": tree, "options": {"_fault": fault}},
            # an option minio does not take is refused, not dropped
            {"id": "h", "tree": tree, "algorithm": "minio", "memory": 45,
             "options": {"heurstic": "best_fit"}},
            {"id": "b", "tree": tree},
        ))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--stdio"]) == 0
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        by_id = {doc["id"]: doc for doc in docs}
        assert by_id["f"]["status"] == "bad_request"
        assert "_fault" in by_id["f"]["error"]["message"]
        assert by_id["h"]["status"] == "bad_request"
        assert "heurstic" in by_id["h"]["error"]["message"]
        assert by_id["b"]["status"] == "ok"

    def test_fault_plan_needs_workers(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", "--stdio", "--faults", "broken_pool@0"]) == 2
        assert "workers > 1" in capsys.readouterr().err

    def test_stdio_daemon_with_workers_answers_while_stdin_is_open(self):
        # the pool forks its workers on the first request, while the reader
        # thread is blocked on stdin; each forked worker closes the
        # inherited sys.stdin as it starts, so the reader must not hold
        # that stream's lock
        daemon = _StdioDaemon("--workers", "2")
        try:
            for request_id in ("w1", "w2"):
                daemon.send({"id": request_id, "tree": _TREE, "algorithm": "minmem"})
                response = daemon.read_response()
                assert (response["id"], response["status"]) == (request_id, "ok")
                assert response["report"]["peak_memory"] == 37.0
            # closing stdin (EOF) must stop the daemon and its workers
            _, err = daemon.finish(timeout=30)
            assert daemon.proc.returncode == 0, err.decode()
            assert b"leaked shared_memory" not in err, err.decode()
        finally:
            daemon.kill()

    def test_shutdown_line_ends_the_daemon_while_stdin_stays_open(self):
        # the reader thread is blocked on the open stdin when the shutdown
        # line is served; the daemon must exit without waiting for EOF
        daemon = _StdioDaemon()
        try:
            daemon.send(
                {"id": "s1", "tree": _TREE, "algorithm": "minmem"}, {"op": "shutdown"}
            )
            response = daemon.read_response()
            assert (response["id"], response["status"]) == ("s1", "ok")
            assert daemon.proc.wait(timeout=5) == 0
        finally:
            daemon.kill()

    def test_a_burst_of_requests_gets_one_whole_line_each(self):
        import random

        from repro.core.tree import Tree
        from repro.solvers import solve

        rng = random.Random(24)
        docs = []
        for i in range(200):
            size = rng.randint(1, 30)
            tree = {
                "parents": [-1] + [rng.randrange(k) for k in range(1, size)],
                "f": [rng.randint(1, 20) for _ in range(size)],
                "n": [rng.randint(0, 5) for _ in range(size)],
            }
            algorithm = ("postorder", "liu", "minmem")[i % 3]
            docs.append({"id": f"b{i}", "tree": tree, "algorithm": algorithm})
        # more lines than the default --max-pending (128): intake waits for
        # answers past the bound, so none of them is refused as queue-full
        daemon = _StdioDaemon()
        try:
            daemon.send(*docs)
            responses = [daemon.read_response() for _ in docs]
            _, err = daemon.finish(timeout=30)
            assert daemon.proc.returncode == 0, err.decode()
        finally:
            daemon.kill()
        assert daemon.trailing == b""
        by_id = {response["id"]: response for response in responses}
        assert sorted(by_id) == sorted(doc["id"] for doc in docs)
        for doc in docs:
            response = by_id[doc["id"]]
            assert response["status"] == "ok", response
            payload = doc["tree"]
            tree = Tree.from_parents(payload["parents"], payload["f"], payload["n"])
            expected = solve(tree, doc["algorithm"]).peak_memory
            assert response["report"]["peak_memory"] == expected, doc["id"]

    def test_a_line_over_the_cap_through_a_pipe_is_refused(self):
        # the daemon runs with a small cap so the pipe carries a few
        # kilobytes, not the 64 MiB of the real one
        cap = 1000
        daemon = _StdioDaemon(cap=cap)
        try:
            daemon.send("x" * (5 * cap))  # drained over several reads
            refused = daemon.read_response()
            assert refused["status"] == "bad_request"
            assert f"exceeds {cap} characters" in refused["error"]["message"]
            daemon.send({"id": "after", "tree": _TREE, "algorithm": "minmem"})
            served = daemon.read_response()
            assert (served["id"], served["status"]) == ("after", "ok")
            assert served["report"]["peak_memory"] == 37.0
            _, err = daemon.finish(timeout=30)
            assert daemon.proc.returncode == 0, err.decode()
        finally:
            daemon.kill()

    def test_stdio_answers_bad_weights_with_bad_request(self, monkeypatch, capsys):
        import io

        tree = '{"parents":[-1,0,0],"f":[0,NaN,9],"n":[10,20,12]}'
        lines = "".join(
            f'{{"id":"{name}","tree":{tree},"algorithm":"{name}"}}\n'
            for name in ("postorder", "liu", "auto", "minmem")
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--stdio"]) == 0
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(docs) == 4
        for doc in docs:
            assert doc["status"] == "bad_request", doc
            assert "non-finite" in doc["error"]["message"]


    def test_stdio_responses_are_strict_json(self, monkeypatch, capsys):
        import io

        def reject(token):
            raise ValueError(f"non-JSON constant {token} on the wire")

        tree = {"parents": [-1, 0, 0], "f": [0, 16, 9], "n": [10, 20, 12]}
        requests = [
            # below the root's MemReq (30): nothing runs, resident is infinite
            {"id": "starved", "tree": tree, "algorithm": "explore", "memory": 5},
            # enough for everything: the next peak is infinite
            {"id": "full", "tree": tree, "algorithm": "explore", "memory": 100},
            {"id": "minmem", "tree": tree, "algorithm": "minmem"},
            {"op": "stats"},
        ]
        lines = "".join(json.dumps(doc) + "\n" for doc in requests)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--stdio"]) == 0
        out = capsys.readouterr().out.splitlines()
        docs = [json.loads(line, parse_constant=reject) for line in out]
        assert len(docs) == len(requests)
        by_id = {d.get("id", "stats"): d for d in docs}
        starved = by_id["starved"]["report"]["extras"]
        assert starved["resident"] == "inf"
        assert starved["completed"] is False
        assert by_id["full"]["report"]["extras"]["next_peak"] == "inf"


class TestTrafficBenchCommand:
    def test_list_traffic_scenarios(self, capsys):
        assert main(["bench", "--traffic", "--list"]) == 0
        out = capsys.readouterr().out
        assert "service_open_smoke" in out and "service_burst_open" in out

    def test_unmatched_filter_fails(self, capsys):
        assert main(["bench", "--traffic", "--filter", "zzz"]) == 2
        assert "no traffic scenario" in capsys.readouterr().err

    def test_fault_plan_rejected(self, capsys):
        # traffic runs never pass a plan on; it must not be dropped silently
        assert main(["bench", "--traffic", "--smoke",
                     "--faults", "kill@0,transient@1"]) == 2
        assert "--faults" in capsys.readouterr().err

    def test_smoke_traffic_run_and_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_traffic.json"
        assert main(["bench", "--traffic", "--smoke",
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario/cell" in out
        assert "service_open_smoke/poisson-r25" in out
        document = json.loads(out_path.read_text())
        (record,) = document["records"]
        assert record["extras"]["rejected"] == 0
        assert record["extras"]["deadline_missed"] == 0
        assert record["extras"]["latency_p99"] > 0


class TestReportCommand:
    @staticmethod
    def _artifact(path, *, family="synthetic", created="2026-08-08T10:00:00Z"):
        path.write_text(json.dumps({
            "schema": "repro-bench-v1",
            "kind": "campaign",
            "created_utc": created,
            "version": "1.7.0",
            "platform": {"python": "3.11"},
            "run": {"scale": "smoke"},
            "records": [{
                "family": family,
                "name": f"{family}/t0",
                "algorithm": "minmem",
                "best_time": 0.01,
                "extras": {},
            }],
        }))
        return path

    def test_renders_dashboard_from_paths(self, tmp_path, capsys):
        art = self._artifact(tmp_path / "BENCH_a.json")
        out = tmp_path / "dash.html"
        assert main(["report", str(art), "--output", str(out)]) == 0
        assert "wrote dashboard over 1 artifact(s)" in capsys.readouterr().out
        html = out.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "BENCH_a.json" in html

    def test_globs_cwd_when_no_paths(self, tmp_path, capsys, monkeypatch):
        self._artifact(tmp_path / "BENCH_x.json")
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 0
        assert (tmp_path / "report.html").is_file()

    def test_no_artifacts_found_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 2
        assert "no BENCH_*.json artifacts" in capsys.readouterr().err

    def test_missing_path_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "BENCH_gone.json")]) == 2
        assert "artifact not found" in capsys.readouterr().err

    def test_malformed_artifact_fails(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad),
                     "--output", str(tmp_path / "out.html")]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeLoggingFlags:
    def test_parser_accepts_log_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--stdio", "--log-level", "debug", "--log-json"])
        assert args.log_level == "debug"
        assert args.log_json is True

    def test_log_level_defaults_to_info(self):
        args = build_parser().parse_args(["serve", "--stdio"])
        assert args.log_level == "info"
        assert args.log_json is False

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--stdio",
                                       "--log-level", "loud"])
