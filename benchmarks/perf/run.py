"""Run the repository benchmark and print every metric.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--trace 0|1]
                                   [--json PATH]

Each workload runs in a fresh Python process (``perf_workloads.py``), so
set-up is a cold start and no engine pool or collector state leaks from one
workload into the next.  Without ``--trace 1`` two more processes only set
up, and ``setup_s`` is the median of the three cold starts.  The metrics,
and the measured seconds per workload (``run_seconds``), are declared in
``BENCHMARK.json`` at the repository root and described in ``README.md``
next to this file.  ``--seconds`` is accepted only with that same value, so
two runs cannot differ in length.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
non-zero when a check failed or a workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from perf_workloads import summary

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
#: inputs, logs and span dumps; listed in the repository's .gitignore
WORK = ROOT / ".perf_work"
WORKLOADS = ("sparse_plan", "large_trees", "campaign", "serve")
COLD_STARTS = 3
#: a workload, with its cold starts, must finish within this many seconds
DEADLINE_S = 170.0


class WorkloadError(RuntimeError):
    """A workload process failed or overran the deadline."""


def _spawn(
    name: str, seed: int, seconds: float, trace: int, work: Path, deadline: float,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run one workload process and return its result document."""
    out = work / ("setup.json" if setup_only else "result.json")
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(PERF_DIR / "perf_workloads.py"),
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--work", str(work), "--out", str(out), "--t0", repr(t0),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # the daemon or pool workers of a crashed or killed workload
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise WorkloadError(f"{name}: still running after {DEADLINE_S:g} s")
    if code != 0 or not out.exists():
        raise WorkloadError(f"{name}: workload process exited with status {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One workload: the measuring process, then the extra cold starts."""
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        result = _spawn(name, seed, seconds, trace, work, deadline)
        if not trace:
            setups = [result["setup_s"]] + [
                _spawn(name, seed, seconds, trace, work, deadline, setup_only=True)["setup_s"]
                for _ in range(COLD_STARTS - 1)
            ]
            result["metrics"]["setup_s"] = {**summary(setups), "unit": "s"}
        if result.get("spans"):
            kept = WORK / f"spans-{name}-{seed}.json"
            shutil.move(result["spans"], kept)
            result["spans"] = str(kept)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def _format(name: str, result: Dict[str, Any], seed: int, trace: int) -> str:
    lines = [f"== {name}  seed {seed}  {'traced' if trace else 'untraced'} =="]
    lines.append(f"{'metric':<34} {'unit':<6} {'value':>14} {'n':>6} {'q1':>14} {'q3':>14}")
    for metric, doc in {**result["metrics"], **result["seconds"]}.items():
        lines.append(
            f"{metric:<34} {doc['unit']:<6} {doc['value']:>14.6g} {doc['n']:>6} "
            f"{doc['q1']:>14.6g} {doc['q3']:>14.6g}"
        )
    digests = ", ".join(f"{k}={v:#010x}" for k, v in result["digests"].items())
    lines.append(f"input digests (crc32): {digests}")
    if result["quality"]:
        lines.append("quality: " + ", ".join(f"{k}={v:.12g}" for k, v in result["quality"].items()))
    lines.extend(result["notes"])
    lines.append(f"checks: {result['attempted']} operations, {result['failed']} failed")
    lines.extend(f"  FAILED {message}" for message in result["failures"])
    if result.get("spans"):
        lines.append(f"spans: {result['spans']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds in BENCHMARK.json, which sets the run length")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: report the per-layer metrics of a traced run instead")
    parser.add_argument("--json", metavar="PATH", help="also write the full results here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} does not hold the repro package; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {seconds:g} "
              "in BENCHMARK.json", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)

    results: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, args.trace)
            print(_format(name, results[name], args.seed, args.trace), flush=True)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        doc = {"seed": args.seed, "seconds": seconds, "trace": args.trace, "workloads": results}
        Path(args.json).write_text(json.dumps(doc, indent=1), encoding="utf-8")

    def key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}.{metric}"

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key(name, metric): {"value": doc["value"], "unit": doc["unit"]}
            for name, result in results.items()
            for metric, doc in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
