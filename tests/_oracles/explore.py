"""The ``Explore`` algorithm (paper Algorithm 3).

``Explore`` performs a top-down exploration of a (sub)tree with a prescribed
amount of available memory.  Starting from a node whose communication file is
resident, it greedily descends: a node of the current *cut* (the frontier of
input files still resident in memory) is expanded whenever the available
memory allows, and the expansion replaces the node's file by the files of its
own best cut whenever this shrinks the resident size (``M_j <= f_j``).  When
no further progress is possible the algorithm returns

* ``M_i`` -- the smallest resident-memory state reachable in the subtree,
* ``L_i`` -- the corresponding cut (set of input files still resident),
* ``Tr_i`` -- a partial traversal reaching that state, and
* ``M_peak_i`` -- the smallest amount of available memory that would allow
  one more node of the subtree to be visited.

The :class:`ExploreSolver` keeps per-node *resume states* so that a later
exploration of the same node with more memory continues from where the
previous one stopped instead of starting from scratch -- this is the
``L_init`` / ``Tr_init`` mechanism of the paper, generalised to every node,
and it is what makes MinMem fast in practice.  A node executed again
(a call that cannot afford the traversal it saved) forgets every state
below it, so its subtree is explored afresh.
Setting ``reuse_states=False`` reproduces the literal pseudocode: between two
top-level calls only the entry node's reached state (``L_init`` /
``Tr_init``) survives, and everything below it is re-explored.

The recursion of Algorithm 3 is replaced by a generator-based trampoline so
that arbitrarily deep trees (long chains) do not hit the interpreter recursion
limit.

This is the per-node reference the tests compare
:class:`repro.core.kernel.KernelExploreSolver` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.tree import Tree

__all__ = ["ExploreResult", "ExploreSolver"]

NodeId = Hashable

#: absolute tolerance for memory comparisons; file sizes are user-scale
#: quantities (bytes, matrix entries), so accumulated rounding noise is many
#: orders of magnitude below this threshold while genuine differences are not.
_EPS = 1e-9


@dataclass(frozen=True)
class ExploreResult:
    """Outcome of one ``Explore`` call.

    Attributes
    ----------
    resident:
        ``M_i`` -- total size of the files in the returned cut, i.e. the
        minimum resident memory reachable in the subtree with the given
        available memory (``inf`` when the subtree root itself cannot run).
    cut:
        ``L_i`` -- the frontier nodes whose input files are still resident.
    traversal_chunks:
        Nested chunks (lists) of node identifiers; flatten with
        :func:`_oracles.flatten_nodes` to get the partial traversal.
    peak:
        ``M_peak_i`` -- minimum available memory needed to visit one more node
        of the subtree (``inf`` when the subtree is completely processed).
    required:
        Peak memory actually used by the returned partial traversal, assuming
        only the subtree root's file was resident initially.  Replaying the
        traversal needs exactly this much available memory.
    """

    resident: float
    cut: Tuple[NodeId, ...]
    traversal_chunks: list
    peak: float
    required: float


@dataclass
class _ResumeState:
    """Best state reached so far for one subtree (resume information)."""

    cut: List[NodeId] = field(default_factory=list)
    chunks: List = field(default_factory=list)
    required: float = 0.0


class ExploreSolver:
    """Stateful driver for repeated ``Explore`` calls on the same tree."""

    def __init__(self, tree: Tree, *, reuse_states: bool = True) -> None:
        tree.validate()
        self.tree = tree
        self.reuse_states = reuse_states
        # Minimum memory needed to visit one more node in the subtree of v,
        # given that f_v is resident.  For a never-expanded node this is
        # exactly MemReq(v), because v itself must be visited first.
        self._peak_of: Dict[NodeId, float] = {
            v: tree.mem_req(v) for v in tree.nodes()
        }
        self._states: Dict[NodeId, _ResumeState] = {}
        self.explore_calls = 0
        self.nodes_visited = 0
        # state changes so far: executions, merges and new peak_of values
        self._changes = 0

    # ------------------------------------------------------------------
    def peak_of(self, node: NodeId) -> float:
        """Current estimate of the memory needed to progress below ``node``."""
        return self._peak_of[node]

    def explore(self, node: NodeId, m_avail: float) -> ExploreResult:
        """Run ``Explore`` from ``node`` with ``m_avail`` available memory."""
        if not self.reuse_states:
            # Faithful Algorithm 4: only the entry node resumes from the state
            # reached by the previous top-level call (the L_init / Tr_init
            # arguments); every other node is re-explored from scratch, so the
            # refined peak estimates of previous calls are discarded as well.
            kept = self._states.get(node)
            self._states = {} if kept is None else {node: kept}
            self._peak_of = {v: self.tree.mem_req(v) for v in self.tree.nodes()}
        stack = [self._explore_gen(node, m_avail)]
        result: Optional[ExploreResult] = None
        while stack:
            gen = stack[-1]
            try:
                request = gen.send(result)
            except StopIteration as stop:  # generator returned its result
                result = stop.value
                stack.pop()
                continue
            child, child_avail = request
            stack.append(self._explore_gen(child, child_avail))
            result = None
        assert result is not None
        return result

    # ------------------------------------------------------------------
    # Algorithm 3, written as a generator yielding (child, avail) requests
    # ------------------------------------------------------------------
    def _explore_gen(self, node: NodeId, m_avail: float):
        tree = self.tree
        f = tree.f
        peak_of = self._peak_of
        self.explore_calls += 1
        mem_req = tree.mem_req(node)

        state = self._states.get(node)
        resumable = state is not None and state.required <= m_avail + _EPS

        if not resumable and mem_req > m_avail + _EPS:
            # The node itself cannot be executed (paper lines 3-5).
            return ExploreResult(math.inf, (), [], mem_req, 0.0)

        if resumable:
            cut: List[NodeId] = list(state.cut)
            chunks: List = list(state.chunks)
            required = state.required
        else:
            # Execute the node itself (paper lines 10-11).
            cut = list(tree.children(node))
            if state is not None:
                # executed again: the node drops the traversal it had
                # reached, and with it every state below it
                below = list(cut)
                while below:
                    j = below.pop()
                    self._states.pop(j, None)
                    peak_of[j] = tree.mem_req(j)
                    below.extend(tree.children(j))
            chunks = [node]
            required = mem_req
            self.nodes_visited += 1
            self._changes += 1

        while cut:
            total = sum(f(j) for j in cut)
            candidates = [
                j for j in cut if m_avail - (total - f(j)) >= peak_of[j] - _EPS
            ]
            if not candidates:
                break
            changes = self._changes
            for j in candidates:
                rest = sum(f(k) for k in cut) - f(j)
                sub: ExploreResult = yield (j, m_avail - rest)
                if peak_of[j] != sub.peak:
                    peak_of[j] = sub.peak
                    self._changes += 1
                if sub.resident <= f(j) + _EPS:
                    # Merge the child's cut in place of the child (lines 16-18).
                    idx = cut.index(j)
                    cut[idx : idx + 1] = list(sub.cut)
                    chunks.append(sub.traversal_chunks)
                    required = max(required, rest + sub.required)
                    self._changes += 1
            if self._changes == changes:
                # nothing changed, so the next pass would repeat this one
                break

        resident = sum(f(j) for j in cut)
        if cut:
            peak = min(peak_of[j] + (resident - f(j)) for j in cut)
        else:
            peak = math.inf
        self._states[node] = _ResumeState(
            cut=list(cut), chunks=list(chunks), required=required
        )
        return ExploreResult(resident, tuple(cut), list(chunks), peak, required)
