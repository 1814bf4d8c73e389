"""In-memory span tracing for the benchmark's ``--trace`` runs.

A traced call installs wrappers around the public functions each layer
exposes, at the module attribute its caller actually reaches (for example
``repro.sparse.assembly.elimination_tree``, not ``repro.sparse.etree``), and
removes them when the call ends, so untraced calls run the unmodified
program.  Nothing under ``src/`` changes.

Every span records a name, start, end, parent span and operation id.  Spans
stay in memory and are written to JSON once the run ends.  A span's self
time is its duration minus the time its child spans cover; a layer is
*busy* for the duration of its outermost spans.

Only the process and thread that created the :class:`Tracer` record spans:
engine workers forked while wrappers are installed inherit them, and there
the wrappers call straight through.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import threading
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "layer_times"]

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.record = [name, 0.0, 0.0, parent, tracer.op]

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[2] = perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Span recorder plus the attribute patches of the traced calls."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, op id]`` per span, in start order
        self.spans: List[list] = []
        #: ``(start, end)`` of every garbage-collector pause seen while active
        self.gc_pauses: List[Tuple[float, float]] = []
        self.op: Any = None
        self.active = False
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, Any, Any]] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._gc_start = 0.0

    def _owner(self) -> bool:
        return (
            self.active
            and threading.get_ident() == self._thread
            and os.getpid() == self._pid
        )

    def span(self, name: str):
        """Context manager recording one span (a no-op while inactive)."""
        return _Span(self, name) if self._owner() else _NULL

    # ------------------------------------------------------------------
    def wrap(self, owner: Any, key: Any, name: str) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) by a spanned call."""
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            if not tracer._owner():
                return original(*args, **kwargs)
            with _Span(tracer, name):
                return original(*args, **kwargs)

        self.patch(owner, key, spanned)

    def patch(self, owner: Any, key: Any, value: Any) -> None:
        """Set ``owner.key`` to ``value`` until :meth:`stop` restores it."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def start(self, install: Callable[["Tracer"], None]) -> None:
        """Begin a traced call: ``install(self)`` adds the wrappers."""
        install(self)
        gc.callbacks.append(self._on_gc)
        self.active = True

    def stop(self) -> None:
        """End the traced call and restore every patched attribute."""
        self.active = False
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pauses.append((self._gc_start, perf_counter()))

    def gc_seconds(self, start: float, end: float) -> float:
        """Collector pause time that began inside ``[start, end]``."""
        return sum(b - a for a, b in self.gc_pauses if start <= a <= end)

    def dump(self, path: str) -> None:
        """Write every span as JSON (offsets in seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "op": op,
            }
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def layer_times(spans: Sequence[list], first: int = 0) -> Dict[str, Any]:
    """Per-name busy and self seconds of ``spans[first:]``, plus top-level time.

    Returns ``{"busy": {name: s}, "self": {name: s}, "top": s}``.  ``top`` is
    the summed duration of spans with no parent inside the slice, which is
    the time the trace accounts for.
    """
    child = [0.0] * (len(spans) - first)
    for i in range(first, len(spans)):
        parent = spans[i][3]
        if parent is not None and parent >= first:
            child[parent - first] += spans[i][2] - spans[i][1]
    busy: Dict[str, float] = {}
    own: Dict[str, float] = {}
    top = 0.0
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        duration = end - start
        own[name] = own.get(name, 0.0) + duration - child[i - first]
        if parent is None or parent < first:
            top += duration
        if not _has_ancestor(spans, parent, name, first):
            busy[name] = busy.get(name, 0.0) + duration
    return {"busy": busy, "self": own, "top": top}


def _has_ancestor(spans: Sequence[list], index: Optional[int], name: str, first: int) -> bool:
    while index is not None and index >= first:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
