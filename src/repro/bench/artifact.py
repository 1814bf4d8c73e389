"""Persistence and comparison of benchmark artifacts (``BENCH_*.json``).

Every benchmark campaign is persisted as one schema-versioned JSON document
so that performance trajectories are machine-comparable across commits and
machines.  The document layout (schema version 1):

.. code-block:: none

    {
      "schema": 1,                     # bump on incompatible layout changes
      "kind": "bench",
      "created_utc": "2026-07-30T12:34:56Z",
      "version": "1.2.0",              # repro.__version__
      "platform": {                    # machine identity for comparability
        "python": "3.11.7", "implementation": "CPython",
        "system": "Linux", "machine": "x86_64", "processor": "..."
      },
      "run": {                         # campaign parameters
        "seed": 0, "repeat": 3, "warmup": 1, "workers": null,
        "pool": null,                  # executor mode (null = persistent engine)
        "campaign_seconds": 12.3,      # end-to-end campaign wall time
        "scenarios": ["assembly", ...],
        "extras": {                    # run-level execution metadata
          "backend": "persistent",     # resolved executor backend name
          "work_units": 12,            # futures submitted by the planner
          "straggler_resplits": 0      # work units split and resubmitted
        }
      },
      "records": [ {                   # one object per benchmark cell
        "key": "random/binary-48/minmem",
        "scenario": ..., "family": ..., "instance": ..., "algorithm": ...,
        "nodes": 95,
        "peak_memory": 123.0,          # tree-weight units (peak resident)
        "io_volume": 0.0,              # tree-weight units written to disk
        "best_time": 0.0021,           # seconds (min over repeats)
        "mean_time": 0.0023,           # seconds (mean over repeats)
        "repeats": 3,
        "optimality_ratio": 1.0,       # peak / MinMem peak (in-core only)
        "memory_limit": null,          # budgeted runs: the memory bound
        "budget_fraction": null,       # budgeted runs: bound as a fraction
        "replay_ok": true,             # schedule replay validated
        "replay_error": null,
        "extras": {...}                # solver-specific scalars
      }, ... ]
    }

:func:`compare_artifacts` diffs two documents record by record (matching on
``key``) and flags deterministic regressions (peak memory or I/O volume
increased, replay broke); the CLI's ``repro bench --compare A B`` exits
non-zero when any regression is found.  Timings are recorded but never
judged here: a timing claim needs repeated, paired runs, which is what
``benchmarks/perf/perf_compare.py`` does.
"""

from __future__ import annotations

import json
import platform
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .runner import BenchRun

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "ArtifactError",
    "RecordDelta",
    "ArtifactComparison",
    "run_to_dict",
    "write_artifact",
    "load_artifact",
    "compare_artifacts",
]

BENCH_SCHEMA_VERSION = 1

#: deterministic metrics (peak, I/O) tolerate only float noise
_METRIC_RTOL = 1e-9


class ArtifactError(ValueError):
    """Raised for malformed or incompatible benchmark artifacts."""


def _platform_metadata() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def run_to_dict(run: BenchRun, *, created_utc: Optional[str] = None) -> Dict[str, Any]:
    """Convert a :class:`BenchRun` into the schema-1 artifact document."""
    from .. import __version__

    if created_utc is None:
        created_utc = (
            datetime.now(timezone.utc).replace(microsecond=0).isoformat()
        ).replace("+00:00", "Z")
    records = []
    for record in run.records:
        doc = asdict(record)
        doc["key"] = record.key
        records.append(doc)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "bench",
        "created_utc": created_utc,
        "version": __version__,
        "platform": _platform_metadata(),
        "run": {
            "seed": run.seed,
            "repeat": run.repeat,
            "warmup": run.warmup,
            "workers": run.workers,
            "pool": run.pool,
            # end-to-end wall time of the campaign (dispatch overhead
            # included), unlike the per-solver wall_time stamps
            "campaign_seconds": run.campaign_seconds,
            "scenarios": list(run.scenarios),
            # run-level execution metadata: the resolved backend name and
            # the planner's work-splitting counters
            "extras": dict(run.extras),
        },
        "records": records,
    }


def write_artifact(
    run: BenchRun,
    path: Optional[Union[str, Path]] = None,
    *,
    root: Union[str, Path] = ".",
) -> Path:
    """Write the artifact; default name ``BENCH_<UTC timestamp>.json``.

    Returns the path written.  With ``path=None`` the file lands in ``root``
    (the repository root by convention) under a timestamped name, so
    successive runs never overwrite each other.
    """
    document = run_to_dict(run)
    if path is None:
        stamp = document["created_utc"].replace("-", "").replace(":", "")
        path = Path(root) / f"BENCH_{stamp}.json"
    path = Path(path)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


def load_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and schema-check a benchmark artifact."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(document, dict) or document.get("kind") != "bench":
        raise ArtifactError(f"{path}: not a benchmark artifact")
    if document.get("schema") != BENCH_SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: unsupported schema {document.get('schema')!r} "
            f"(this build reads schema {BENCH_SCHEMA_VERSION})"
        )
    if not isinstance(document.get("records"), list):
        raise ArtifactError(f"{path}: missing records array")
    return document


# ----------------------------------------------------------------------
# artifact comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecordDelta:
    """One flagged difference between two artifacts."""

    key: str
    metric: str  # "peak_memory" | "io_volume" | "replay"
    before: float
    after: float

    @property
    def relative(self) -> float:
        if self.before == 0:
            return float("inf") if self.after else 0.0
        return self.after / self.before - 1.0

    def describe(self) -> str:
        if self.metric == "replay":
            return f"{self.key}: replay validation broke"
        return (
            f"{self.key}: {self.metric} {self.before:.6g} -> {self.after:.6g} "
            f"({self.relative:+.1%})"
        )


@dataclass(frozen=True)
class ArtifactComparison:
    """Outcome of diffing two benchmark artifacts."""

    regressions: Tuple[RecordDelta, ...]
    improvements: Tuple[RecordDelta, ...]
    missing: Tuple[str, ...]  # keys of the old artifact absent from the new
    added: Tuple[str, ...]  # keys new to the second artifact
    compared: int

    @property
    def ok(self) -> bool:
        """True when no regression (including lost coverage) was found."""
        return not self.regressions and not self.missing

    def format_report(self) -> str:
        lines = [
            f"compared {self.compared} records: "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{len(self.missing)} missing, {len(self.added)} added"
        ]
        for delta in self.regressions:
            lines.append(f"  REGRESSION  {delta.describe()}")
        for key in self.missing:
            lines.append(f"  MISSING     {key}: record dropped from the new artifact")
        for delta in self.improvements:
            lines.append(f"  improvement {delta.describe()}")
        return "\n".join(lines)


def _index(document: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    out = {}
    for record in document["records"]:
        if not isinstance(record, dict) or not isinstance(record.get("key"), str):
            raise ArtifactError(f"record without a string key: {record!r}")
        out[record["key"]] = record
    return out


def _metric(record: Dict[str, Any], name: str) -> float:
    try:
        return float(record[name])
    except (KeyError, TypeError, ValueError):
        raise ArtifactError(
            f"record {record.get('key')!r} has no numeric {name!r} field"
        ) from None


def compare_artifacts(old: Dict[str, Any], new: Dict[str, Any]) -> ArtifactComparison:
    """Diff two loaded artifacts and classify every changed record.

    Deterministic metrics (``peak_memory``, ``io_volume``) regress on *any*
    increase beyond float noise and improve on any decrease.  A record whose
    replay validation flipped from ok to failing is always a regression.
    Timings (``best_time``, ``mean_time``) are not compared: one run per
    side cannot separate a slowdown from machine noise.

    The two runs must share the same ``seed``: record keys would still match
    across seeds, but the seeded scenario builders would have produced
    different trees, so every diff would be noise.  A mismatch raises
    :class:`ArtifactError` (version and repeat skew are fine -- comparing
    across versions is the point of the artifact trail).
    """
    old_seed = (old.get("run") or {}).get("seed")
    new_seed = (new.get("run") or {}).get("seed")
    if old_seed != new_seed:
        raise ArtifactError(
            f"artifacts are not comparable: run seeds differ "
            f"({old_seed!r} vs {new_seed!r}), so the benchmarked instances "
            "are different trees"
        )
    old_index = _index(old)
    new_index = _index(new)
    regressions: List[RecordDelta] = []
    improvements: List[RecordDelta] = []
    compared = 0
    for key, old_record in old_index.items():
        new_record = new_index.get(key)
        if new_record is None:
            continue
        compared += 1
        if bool(old_record.get("replay_ok", True)) and not bool(
            new_record.get("replay_ok", True)
        ):
            regressions.append(RecordDelta(key, "replay", 1.0, 0.0))
        for metric in ("peak_memory", "io_volume"):
            before = _metric(old_record, metric)
            after = _metric(new_record, metric)
            if after > before * (1.0 + _METRIC_RTOL) + 1e-12:
                regressions.append(RecordDelta(key, metric, before, after))
            elif after < before * (1.0 - _METRIC_RTOL) - 1e-12:
                improvements.append(RecordDelta(key, metric, before, after))
    missing = tuple(sorted(set(old_index) - set(new_index)))
    added = tuple(sorted(set(new_index) - set(old_index)))
    return ArtifactComparison(
        regressions=tuple(regressions),
        improvements=tuple(improvements),
        missing=missing,
        added=added,
        compared=compared,
    )
