"""BENCH JSON artifacts, the regression compare mode, and the bench CLI."""

import json

import pytest

from repro import __version__
from repro.bench import (
    BENCH_SCHEMA_VERSION,
    ArtifactError,
    compare_artifacts,
    load_artifact,
    run_to_dict,
    write_artifact,
)
from repro.bench.runner import run_scenarios
from repro.bench.scenario import Scenario
from repro.cli import main
from repro.core.builders import chain_tree, star_tree


@pytest.fixture(scope="module")
def small_run():
    scenario = Scenario(
        name="unit",
        family="synthetic",
        builder=lambda seed: [
            ("chain-8", chain_tree(8, f=2.0, n=1.0)),
            ("star-6", star_tree(6, leaf_f=3.0, n=1.0)),
        ],
        algorithms=("postorder", "minmem", "minio_first_fit"),
        budget_fractions=(0.5,),
    )
    return run_scenarios([scenario], seed=0, repeat=1)


class TestArtifact:
    def test_document_header(self, small_run):
        doc = run_to_dict(small_run)
        assert doc["schema"] == BENCH_SCHEMA_VERSION
        assert doc["kind"] == "bench"
        assert doc["version"] == __version__
        assert doc["platform"]["python"]
        assert doc["run"]["seed"] == 0
        assert doc["run"]["scenarios"] == ["unit"]
        assert doc["created_utc"].endswith("Z")

    def test_records_shape(self, small_run):
        doc = run_to_dict(small_run)
        assert len(doc["records"]) == len(small_run.records)
        record = doc["records"][0]
        for field in (
            "key", "scenario", "family", "instance", "algorithm", "nodes",
            "peak_memory", "io_volume", "best_time", "mean_time", "repeats",
            "optimality_ratio", "memory_limit", "budget_fraction",
            "replay_ok", "replay_error", "extras",
        ):
            assert field in record
        keys = [r["key"] for r in doc["records"]]
        assert len(keys) == len(set(keys)), "record keys must be unique"

    def test_write_load_roundtrip(self, small_run, tmp_path):
        path = write_artifact(small_run, root=tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        doc = load_artifact(path)
        assert doc == run_to_dict(small_run, created_utc=doc["created_utc"])

    def test_explicit_path(self, small_run, tmp_path):
        path = write_artifact(small_run, tmp_path / "custom.json")
        assert path == tmp_path / "custom.json"
        assert load_artifact(path)["records"]

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ArtifactError):
            load_artifact(bad)
        bad.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ArtifactError):
            load_artifact(bad)
        bad.write_text(json.dumps({"kind": "bench", "schema": 999, "records": []}))
        with pytest.raises(ArtifactError, match="schema"):
            load_artifact(bad)


class TestCompare:
    def test_identical_is_ok(self, small_run):
        doc = run_to_dict(small_run)
        comparison = compare_artifacts(doc, doc)
        assert comparison.ok
        assert comparison.compared == len(small_run.records)
        assert not comparison.regressions and not comparison.improvements

    def test_peak_regression_flagged(self, small_run):
        old = run_to_dict(small_run)
        new = json.loads(json.dumps(old))
        new["records"][0]["peak_memory"] *= 1.01
        comparison = compare_artifacts(old, new)
        assert not comparison.ok
        (delta,) = comparison.regressions
        assert delta.metric == "peak_memory"
        assert "REGRESSION" in comparison.format_report()

    def test_io_improvement_flagged(self, small_run):
        old = run_to_dict(small_run)
        old["records"][0]["io_volume"] = 4.0
        new = json.loads(json.dumps(old))
        new["records"][0]["io_volume"] = 2.0
        comparison = compare_artifacts(old, new)
        assert comparison.ok
        assert [d.metric for d in comparison.improvements] == ["io_volume"]

    def test_timing_changes_are_not_judged(self, small_run):
        old = run_to_dict(small_run)
        new = json.loads(json.dumps(old))
        for record in new["records"]:
            record["best_time"] *= 1.5
        comparison = compare_artifacts(old, new)
        assert comparison.ok
        assert not comparison.regressions and not comparison.improvements

    def test_missing_record_is_a_regression(self, small_run):
        old = run_to_dict(small_run)
        new = json.loads(json.dumps(old))
        dropped = new["records"].pop()
        comparison = compare_artifacts(old, new)
        assert not comparison.ok
        assert comparison.missing == (dropped["key"],)

    def test_mismatched_seeds_not_comparable(self, small_run):
        old = run_to_dict(small_run)
        new = json.loads(json.dumps(old))
        new["run"]["seed"] = 1  # same keys, but different seeded instances
        with pytest.raises(ArtifactError, match="seed"):
            compare_artifacts(old, new)

    def test_malformed_record_raises_artifact_error(self, small_run):
        old = run_to_dict(small_run)
        new = json.loads(json.dumps(old))
        del new["records"][0]["peak_memory"]
        with pytest.raises(ArtifactError, match="peak_memory"):
            compare_artifacts(old, new)

    def test_broken_replay_is_a_regression(self, small_run):
        old = run_to_dict(small_run)
        new = json.loads(json.dumps(old))
        new["records"][0]["replay_ok"] = False
        comparison = compare_artifacts(old, new)
        assert [d.metric for d in comparison.regressions] == ["replay"]


class TestBenchCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("synthetic", "random", "harpoon", "assembly", "etree"):
            assert name in out

    def test_no_match_filter(self, capsys):
        assert main(["bench", "--filter", "zzz-no-match"]) == 2
        assert "no scenario matches" in capsys.readouterr().err

    def test_invalid_repeat_warmup(self, capsys):
        assert main(["bench", "--repeat", "0"]) == 2
        assert "--repeat" in capsys.readouterr().err
        assert main(["bench", "--warmup", "-1"]) == 2
        assert "--warmup" in capsys.readouterr().err

    def test_run_writes_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--filter", "harpoon", "--json"]) == 0
        out = capsys.readouterr().out
        assert "harpoon/" in out
        (path,) = tmp_path.glob("BENCH_*.json")
        doc = load_artifact(path)
        algorithms = {r["algorithm"] for r in doc["records"]}
        assert algorithms == {"postorder", "liu", "minmem", "auto"}
        assert all(r["replay_ok"] for r in doc["records"])

    def test_smoke_covers_families_and_algorithms(self, tmp_path, capsys):
        target = tmp_path / "smoke.json"
        assert main(["bench", "--smoke", "--output", str(target)]) == 0
        capsys.readouterr()
        doc = load_artifact(target)
        families = {r["family"] for r in doc["records"]}
        algorithms = {r["algorithm"] for r in doc["records"]}
        assert len(families) >= 4
        assert len(algorithms) >= 3
        assert all(r["replay_ok"] for r in doc["records"])

    def test_compare_exit_codes(self, tmp_path, capsys, small_run):
        old = run_to_dict(small_run)
        new = json.loads(json.dumps(old))
        new["records"][0]["peak_memory"] *= 2.0  # injected regression
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        path_a.write_text(json.dumps(old))
        path_b.write_text(json.dumps(new))
        assert main(["bench", "--compare", str(path_a), str(path_a)]) == 0
        assert main(["bench", "--compare", str(path_a), str(path_b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert main(["bench", "--compare", str(path_a), "/no/such/file.json"]) == 2
