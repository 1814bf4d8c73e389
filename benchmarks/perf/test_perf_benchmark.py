"""Self-test of the benchmark: each workload function on tiny inputs, and
the verdicts of ``perf_compare.py``.

The inputs are passed as keyword arguments, so the real workload code runs
end to end (the serve workload starts a real daemon) in a few seconds.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

import perf_compare as compare
import perf_workloads as workloads

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)
SEED = 3
SECONDS = 0.05


def _tiny_suite(seed):
    from repro.sparse import grid_laplacian_2d, random_spd

    return [
        ("grid2d-12-rcm", functools.partial(grid_laplacian_2d, 12), "rcm"),
        ("random-60-md", functools.partial(random_spd, 60, 0.05, seed), "minimum_degree"),
    ]


def _tiny_trees(seed):
    from repro.core.builders import chain_tree
    from repro.generators.harpoon import iterated_harpoon_tree
    from repro.generators.random_trees import (
        random_binary_tree,
        random_recent_attachment_tree,
        reweight_random,
    )

    in_core = [
        ("chain-300", chain_tree(300, f=2.0, n=1.0)),
        ("harpoon-b3-l3", iterated_harpoon_tree(3, levels=3, memory=27.0, epsilon=0.5)),
        ("deep-200", random_recent_attachment_tree(200, seed=seed + 1, window=8)),
    ]
    out_of_core = [
        ("binary-100", reweight_random(random_binary_tree(100, seed=seed), seed=seed + 1)),
        ("harpoon-b3-l3", iterated_harpoon_tree(3, levels=3, memory=1.0, epsilon=0.01)),
    ]
    return in_core, out_of_core


TINY = {
    "sparse_plan": lambda: {"suite": _tiny_suite(SEED)},
    "large_trees": lambda: {"tree_sets": _tiny_trees},
    "campaign": lambda: {"scenarios": ("harpoon", "synthetic")},
    "serve": lambda: {"tree_count": 6, "rate": 150.0, "seconds": 0.6},
}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Two untraced runs and one traced run of every workload, made lazily."""
    cache = {}

    def get(name: str, trace: bool, run: int = 0):
        key = (name, trace, run)
        if key not in cache:
            options = {"seconds": SECONDS, **TINY[name]()}
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}-{run}")
            cache[key] = workloads.WORKLOADS[name](
                SEED, trace=trace, work=str(work), **options
            )
        return cache[key]

    return get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(results, name):
    assert name in {w["name"] for w in SPEC["workloads"]}
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result = results(name, trace)
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1
        emitted = result["metrics"]
        assert sorted(emitted) == sorted(m["name"] for m in declared)
        for metric in declared:
            assert emitted[metric["name"]]["unit"] == metric["unit"], metric["name"]
    for metric in SPEC["end_to_end"]:
        assert results(name, False)["metrics"][metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deterministic_metrics_repeat_exactly(results, name):
    first, second = results(name, False, 0), results(name, False, 1)
    assert first["digests"] and first["digests"] == second["digests"]
    assert first["quality"] == second["quality"]
    traced = results(name, True)["metrics"]
    for metric in SPEC["per_layer"]:
        # work counts of the solvers; scheduling counts (work units, queue
        # depth) legitimately depend on timing
        if metric["unit"] == "count" and metric["name"].startswith("core."):
            doc = traced[metric["name"]]
            assert doc["q1"] == doc["q3"] == doc["value"], metric["name"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_accounts_for_the_measured_time(results, name):
    coverage = results(name, True)["metrics"]["trace.coverage"]["value"]
    assert 0.95 <= coverage <= 1.05


# ----------------------------------------------------------------------
# perf_compare.py
# ----------------------------------------------------------------------
NOISY = [1.0, 1.5, 0.8, 1.3, 1.0, 0.9, 1.4, 1.1, 0.85, 1.2]


def test_a_large_regression_on_a_noisy_base_is_worse():
    assert compare.verdict(NOISY, NOISY, "lower", 0.25)[0] == "unresolved"
    assert compare.verdict(NOISY, [v * 1.4 for v in NOISY], "lower", 0.25)[0] == "worse"
    assert compare.verdict(NOISY, [v * 0.5 for v in NOISY], "lower", 0.25)[0] == "improved"


def _run_file(tmp_path, side: str, seed: int, scale: float = 1.0, workload="campaign", **result):
    metrics = {m["name"]: {"value": scale * (1.0 + seed % 3 / 100), "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    doc = {"seed": seed, "seconds": SPEC["run_seconds"], "trace": 0, "workloads": {workload: {
        "metrics": metrics, "failed": 0, "digests": {"input_crc32": seed}, "notes": [],
        "quality": {"solvers.peak_ratio": 1.25}, **result,
    }}}
    path = tmp_path / f"{side}-{seed}-{workload}-{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _compare(base, change):
    return compare.main(["--base", *base, "--change", *change])


def test_compare_verdicts_and_exit_status(tmp_path, capsys):
    base = [_run_file(tmp_path, "a", seed) for seed in range(10)]
    same = [_run_file(tmp_path, "b", seed) for seed in reversed(range(10))]
    assert _compare(base, same) == 0
    assert "worse" not in capsys.readouterr().out

    slower = [_run_file(tmp_path, "c", seed, scale=1.4) for seed in range(10)]
    assert _compare(base, slower) == 1

    # runs pair by seed: a change run of another seed, or of another
    # workload, pairs with nothing and shifts nothing
    extra = [
        _run_file(tmp_path, "d", 99, scale=9.0),
        _run_file(tmp_path, "d", 0, scale=9.0, workload="serve"),
    ]
    assert _compare(base, same + extra) == 0


@pytest.mark.parametrize("result", [
    {"quality": {"solvers.peak_ratio": 1.3}},
    {"failed": 1},
    {"digests": {"input_crc32": -1}},
])
def test_compare_requires_exact_figures_to_repeat(tmp_path, capsys, result):
    base = [_run_file(tmp_path, "a", seed) for seed in range(4)]
    change = [_run_file(tmp_path, "b", seed, **(result if seed == 2 else {})) for seed in range(4)]
    assert _compare(base, change) == 1
    assert "equal in 3 of 4 pairs" in capsys.readouterr().out


def test_compare_refuses_an_invalid_run(tmp_path):
    base = [_run_file(tmp_path, "a", seed) for seed in range(3)]
    change = [_run_file(tmp_path, "b", seed, notes=["INVALID: late"]) for seed in range(3)]
    assert _compare(base, change) == 2
