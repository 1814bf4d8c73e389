"""Campaign checkpoint journal: crash-safe record of completed cells.

A multi-minute campaign killed at 90% used to restart from zero.  The
:class:`CampaignJournal` is an append-only JSONL sidecar the runner writes
as it goes (``bench --checkpoint PATH``) and reads back on ``bench
--resume PATH``: completed cells are skipped, their reports rehydrated
from the journal, and the resulting artifact is bit-identical (modulo
timings) to an uninterrupted run -- the solvers being deterministic, a
cell's report does not depend on *when* it was solved.

File schema (one JSON document per line):

* line 1 -- the header::

      {"kind": "header", "version": 1, "params": {"seed": ..., "repeat": ...,
       "warmup": ..., "scenarios": [...], "validate": ...}}

  ``params`` holds every knob that shapes cell *results*; resuming with a
  different value raises (a journal from another campaign cannot be
  silently mixed in).  The execution knob that cannot change results
  (``workers``) rides in the header as ``context`` for humans but is not
  validated, so a campaign may resume on different plumbing.

* cell lines -- one per completed timed cell::

      {"kind": "cell", "scenario": "...", "stage": 1, "index": 7,
       "times": [...], "report": {<solve_report_to_dict form>}}

  ``stage`` is the runner's grid number (1 = plain algorithms, 2 =
  budgeted sweeps) and ``index`` the cell's position in that stage's flat
  grid -- together with the scenario name they address a cell uniquely
  and in a resume-stable way.

The file is flushed after every line, so a ``kill -9`` loses at most the
cell being written; a torn final line is detected and ignored on load.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from ..core.serialize import solve_report_from_dict, solve_report_to_dict

__all__ = ["CampaignJournal", "JournalError"]

JOURNAL_VERSION = 1

#: the result-shaping parameters a resumed run must repeat exactly
_VALIDATED_PARAMS = ("seed", "repeat", "warmup", "scenarios", "validate")


class JournalError(ValueError):
    """A checkpoint journal cannot be used: corrupt, or parameter mismatch."""


class CampaignJournal:
    """Append-only record of completed campaign cells (see module docstring).

    Construct with :meth:`fresh` (start a new journal, truncating any old
    file at the path) or :meth:`resume` (load completed cells, validate
    the header, continue appending to the same file).
    """

    def __init__(
        self,
        path: str,
        params: Dict[str, Any],
        context: Dict[str, Any],
        *,
        _cached: Optional[Dict[Tuple[str, int], Dict[int, Any]]] = None,
    ) -> None:
        self.path = path
        self.params = params
        self.context = context
        self._cached = _cached or {}
        self.cells_written = 0
        self.cells_resumed = 0
        mode = "a" if _cached is not None else "w"
        self._fh = open(path, mode, encoding="utf-8")
        if mode == "w":
            self._write_line(
                {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "params": params,
                    "context": context,
                }
            )

    # ------------------------------------------------------------------
    @classmethod
    def fresh(
        cls, path: str, params: Dict[str, Any], context: Dict[str, Any]
    ) -> "CampaignJournal":
        return cls(path, params, context)

    @classmethod
    def resume(
        cls, path: str, params: Dict[str, Any], context: Dict[str, Any]
    ) -> "CampaignJournal":
        """Load ``path``, validate its header against ``params``, continue.

        Raises :class:`JournalError` when the file is missing, its header
        is unreadable, or any result-shaping parameter differs from the
        resuming run's.
        """
        if not os.path.exists(path):
            raise JournalError(f"no checkpoint journal at {path!r}")
        cached: Dict[Tuple[str, int], Dict[int, Any]] = {}
        header = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    if lineno == 1:
                        raise JournalError(
                            f"checkpoint journal {path!r} has no readable header"
                        ) from None
                    break  # torn tail from a kill mid-write: ignore the rest
                if lineno == 1:
                    if doc.get("kind") != "header":
                        raise JournalError(
                            f"checkpoint journal {path!r} does not start with "
                            "a header line"
                        )
                    if doc.get("version") != JOURNAL_VERSION:
                        raise JournalError(
                            f"checkpoint journal {path!r} has version "
                            f"{doc.get('version')!r}; this build writes "
                            f"version {JOURNAL_VERSION}"
                        )
                    header = doc
                    continue
                if doc.get("kind") != "cell":
                    continue
                key = (str(doc["scenario"]), int(doc["stage"]))
                cached.setdefault(key, {})[int(doc["index"])] = doc
        if header is None:
            raise JournalError(f"checkpoint journal {path!r} is empty")
        old = header.get("params", {})
        for name in _VALIDATED_PARAMS:
            theirs, ours = old.get(name), params.get(name)
            if isinstance(theirs, list):
                theirs = tuple(theirs)
            if isinstance(ours, list):
                ours = tuple(ours)
            if theirs != ours:
                raise JournalError(
                    f"cannot resume from {path!r}: parameter {name!r} was "
                    f"{theirs!r} there but is {ours!r} now"
                )
        return cls(path, params, context, _cached=cached)

    # ------------------------------------------------------------------
    def _write_line(self, doc: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def cached(self, scenario: str, stage: int) -> Dict[int, Any]:
        """``index -> SolveReport`` for the completed cells of one stage."""
        docs = self._cached.get((scenario, stage), {})
        return {
            index: solve_report_from_dict(doc["report"])
            for index, doc in docs.items()
        }

    def cached_times(self, scenario: str, stage: int) -> Dict[int, List[float]]:
        docs = self._cached.get((scenario, stage), {})
        return {
            index: [float(t) for t in doc.get("times", [])]
            for index, doc in docs.items()
        }

    def record(
        self,
        scenario: str,
        stage: int,
        index: int,
        report: Any,
        times: Optional[List[float]] = None,
    ) -> None:
        """Journal one completed timed cell (flushed immediately)."""
        from ..faults.stats import global_fault_stats

        self._write_line(
            {
                "kind": "cell",
                "scenario": scenario,
                "stage": stage,
                "index": index,
                "times": list(times or []),
                "report": solve_report_to_dict(report),
            }
        )
        self.cells_written += 1
        global_fault_stats.record_checkpoint_cells(1)

    def count_resumed(self, n: int) -> None:
        self.cells_resumed += n

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
