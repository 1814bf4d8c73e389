"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/perf/perf_compare.py --base A1.json A2.json ... \\
                                       --change B1.json B2.json ...

Each file is the ``--json`` output of one untraced ``run.py`` run (one
workload or all four).  A base run and a change run pair up when they ran
the same seed: the k-th base run of a seed with the k-th change run of it.
Run the two sides alternately, on the same seeds.  A run that ``serve``
marked ``INVALID`` (its load generator ran late) is refused.

For every (end-to-end metric, workload) the report gives each side's median
and quartiles over the paired runs, the share of pairs the change won (ties
count for neither side) and a verdict, by the rule of the choosing-metrics
guide (section 8) and the bounds declared in ``BENCHMARK.json``:

``improved``
    the change won at least nine tenths of the pairs and its median is
    better than the base median by more than the base's quartile spread;
``worse``
    the change's median is worse than the base's by more than the bound;
``unresolved``
    neither, but the base's own quartile spread, as a share of its median,
    is wider than the bound, and not every change run beats every base run;
``unchanged``
    none of the above.

Some figures must repeat exactly for a seed: the inputs' crc32 digests, the
number of failed operations and the output quality (``solvers.peak_ratio``,
``core.minio.io_volume``).  Any pair in which they differ makes that row
``worse``, or ``improved`` when the change is better in every differing pair.

The exit status is 1 when any verdict is ``worse``, and 2 when the files
cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: share of pairs the change must win before a gain may be claimed
WIN_SHARE = 0.9


class CompareError(ValueError):
    """The result files cannot be compared."""


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, share of pairs won by the change)``; run i of each side is a pair."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(old: float, new: float) -> float:
        return (old - new) * sign

    share = sum(gain(b, c) > 0 for b, c in zip(base, change)) / len(base)
    mid_base, mid_change = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    if share >= WIN_SHARE and gain(mid_base, mid_change) > q3 - q1:
        return "improved", share
    if -gain(mid_base, mid_change) > bound * abs(mid_base):
        return "worse", share
    every_run_better = all(gain(b, c) > 0 for b in base for c in change)
    if mid_base and (q3 - q1) / abs(mid_base) > bound and not every_run_better:
        return "unresolved", share
    return "unchanged", share


def exact_verdict(pairs: Sequence[Tuple[Any, Any]], better: Optional[str]) -> str:
    """Verdict on a figure that must repeat exactly for a seed.

    With ``better`` None (input digests) any difference is ``worse``, and so
    is a figure that only one side of a pair reports.
    """
    differing = [(b, c) for b, c in pairs if b != c]
    if not differing:
        return "unchanged"
    if better is None or any(b is None or c is None for b, c in differing):
        return "worse"
    sign = 1.0 if better == "lower" else -1.0
    return "improved" if all((b - c) * sign > 0 for b, c in differing) else "worse"


def load_runs(paths: Sequence[str]) -> Dict[Tuple[int, int], Dict[str, Any]]:
    """``{(seed, k): {workload: result}}``, k counting earlier runs of the seed."""
    runs: Dict[Tuple[int, int], Dict[str, Any]] = {}
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if doc["trace"]:
            raise CompareError(f"{path}: a traced run has no end-to-end metrics")
        for name, result in doc["workloads"].items():
            invalid = [note for note in result["notes"] if note.startswith("INVALID")]
            if invalid:
                raise CompareError(f"{path}: {name}: {invalid[0]}")
        k = sum(seed == doc["seed"] for seed, _ in runs)
        runs[(doc["seed"], k)] = doc["workloads"]
    return runs


def paired(base, change, workload: str) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """The (base, change) results of ``workload`` from runs of the same seed."""
    return [
        (base[key][workload], change[key][workload])
        for key in sorted(base)
        if key in change and workload in base[key] and workload in change[key]
    ]


def report(spec: Dict[str, Any], base, change) -> List[Tuple[str, str, str]]:
    """Print the comparison; returns ``(workload, row, verdict)`` per row."""
    print(
        f"{'workload':<12} {'metric':<22} {'base median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'delta':>8} {'won':>5}  verdict"
    )
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = paired(base, change, workload)
        if not pairs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [b["metrics"][name]["value"] for b, _ in pairs]
            b = [c["metrics"][name]["value"] for _, c in pairs]
            result, share = verdict(a, b, metric["better"], metric["bound"])
            (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / ma if ma else 0.0
            print(
                f"{workload:<12} {name:<22} "
                f"{ma:>12.6g} [{a1:>9.6g}, {a3:>9.6g}] {mb:>12.6g} [{b1:>9.6g}, {b3:>9.6g}] "
                f"{delta:>+8.2%} {share:>5.0%}  {result}"
            )
            rows.append((workload, name, result))
        figures = [(exact_figures(b), exact_figures(c)) for b, c in pairs]
        for name in sorted({name for fb, fc in figures for name in (*fb, *fc)}):
            values = [(fb.get(name), fc.get(name)) for fb, fc in figures]
            result = exact_verdict(values, better.get(name, "lower") if name != "digests" else None)
            same = sum(x == y for x, y in values)
            print(f"{workload:<12} {name:<22} {f'equal in {same} of {len(values)} pairs':>88}  {result}")
            rows.append((workload, name, result))
    return rows


def exact_figures(result: Dict[str, Any]) -> Dict[str, Any]:
    """The figures of one workload result that repeat exactly for a seed."""
    return {"digests": result["digests"], "failed": result["failed"], **result["quality"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of run.py --json results.")
    parser.add_argument("--base", nargs="+", required=True, help="results of the parent commit")
    parser.add_argument("--change", nargs="+", required=True, help="results of the change")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        base, change = load_runs(args.base), load_runs(args.change)
    except CompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = report(spec, base, change)
    if not rows:
        print("error: no base and change runs share a seed and a workload", file=sys.stderr)
        return 2
    return 1 if any(result == "worse" for _, _, result in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
