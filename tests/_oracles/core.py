"""Per-node reference implementations of the MinMemory and MinIO solvers.

These are the original implementations written against the dict-based
:class:`~repro.core.tree.Tree` accessors only: Liu's postorder rule, Liu's
hill--valley segment merge, MinMem (Algorithm 4) over the per-node
:class:`ExploreSolver`, and the MinIO eviction simulator.  The library runs
the array-backed versions of :mod:`repro.core.kernel`; the tests compare
the two.  Results reuse the library's result types, so both sides compare
field by field.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Tuple, Union

from repro.core.liu import LiuResult, Segment
from repro.core.minio.heuristics import Selector, get_heuristic
from repro.core.minio.scheduler import OutOfCoreResult
from repro.core.minmem import MinMemResult
from repro.core.postorder import POSTORDER_RULES, PostOrderResult
from repro.core.traversal import (
    BOTTOMUP,
    TOPDOWN,
    OutOfCoreSchedule,
    Traversal,
    TraversalError,
    is_topological,
)
from repro.core.tree import Tree

from .explore import ExploreSolver

__all__ = [
    "flatten_nodes",
    "postorder_with_rule",
    "liu_optimal_traversal",
    "min_mem",
    "run_out_of_core",
]

NodeId = Hashable

#: the MinIO simulator's feasibility tolerance
_EPS = 1e-12


def flatten_nodes(nested: list) -> List[NodeId]:
    """Flatten nested traversal chunks in execution order.

    The oracles keep a traversal as a list whose items are node ids and
    nested chunks, which are lists too.  Node ids are hashable, so no id is
    a list, and an id that is a tuple stays whole.
    """
    out: List[NodeId] = []
    stack: list = [nested]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack.extend(reversed(item))
        else:
            out.append(item)
    return out


def postorder_with_rule(tree: Tree, rule: str = "liu") -> PostOrderResult:
    """Postorder with a child-ordering rule, one node at a time."""
    if rule not in POSTORDER_RULES:
        raise ValueError(
            f"unknown postorder rule {rule!r}; expected one of {POSTORDER_RULES}"
        )
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    peak: Dict[NodeId, float] = {}
    child_order: Dict[NodeId, Tuple[NodeId, ...]] = {}

    for node in tree.bottom_up_order():
        children = tree.children(node)
        if not children:
            peak[node] = tree.f(node) + tree.n(node)
            child_order[node] = ()
            continue
        if rule == "liu":
            ordered = sorted(children, key=lambda c: peak[c] - tree.f(c), reverse=True)
        elif rule == "subtree_memory":
            ordered = sorted(children, key=lambda c: peak[c])
        else:  # natural
            ordered = list(children)
        child_order[node] = tuple(ordered)

        completed = 0.0
        best = 0.0
        for child in ordered:
            best = max(best, completed + peak[child])
            completed += tree.f(child)
        best = max(best, completed + tree.n(node) + tree.f(node))
        peak[node] = best

    order = _postorder_sequence(tree, child_order)
    traversal = Traversal(tuple(order), BOTTOMUP)
    return PostOrderResult(
        memory=peak[tree.root],
        traversal=traversal,
        subtree_peak=peak,
        child_order=child_order,
    )


def _postorder_sequence(
    tree: Tree, child_order: Dict[NodeId, Tuple[NodeId, ...]]
) -> List[NodeId]:
    """Bottom-up DFS sequence following ``child_order`` (iterative)."""
    order: List[NodeId] = []
    stack: List[Tuple[NodeId, bool]] = [(tree.root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        stack.append((node, True))
        for child in reversed(child_order[node]):
            stack.append((child, False))
    return order


def liu_optimal_traversal(tree: Tree) -> LiuResult:
    """Liu's exact algorithm, merging ``Segment`` lists node by node."""
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    segments_of: Dict[NodeId, List[Segment]] = {}
    subtree_peak: Dict[NodeId, float] = {}

    for node in tree.bottom_up_order():
        children = tree.children(node)
        events: List[Tuple[float, float, list]] = []

        if children:
            # Convert every child's canonical (absolute) segments into
            # relative increments and merge them in decreasing (hill - valley)
            # order, preserving per-child order for equal keys.
            keyed: List[Tuple[float, int, int, float, float, list]] = []
            for child_idx, child in enumerate(children):
                prev_valley = 0.0
                for seg_idx, seg in enumerate(segments_of[child]):
                    rel_hill = seg.hill - prev_valley
                    rel_valley = seg.valley - prev_valley
                    keyed.append(
                        (
                            -(seg.hill - seg.valley),
                            child_idx,
                            seg_idx,
                            rel_hill,
                            rel_valley,
                            seg.nodes,
                        )
                    )
                    prev_valley = seg.valley
                # children segment lists are no longer needed once merged
                del segments_of[child]
            keyed.sort(key=lambda item: (item[0], item[1], item[2]))

            base = 0.0
            for _, _, _, rel_hill, rel_valley, nodes in keyed:
                events.append((base + rel_hill, base + rel_valley, nodes))
                base += rel_valley
        else:
            base = 0.0

        # The node itself: children files resident, allocate n_i + f_i,
        # release the children files, keep f_i.
        own_peak = base + tree.n(node) + tree.f(node)
        events.append((own_peak, tree.f(node), [node]))

        segments_of[node] = _canonical_segments(events)
        subtree_peak[node] = max(seg.hill for seg in segments_of[node])

    root_segments = tuple(segments_of[tree.root])
    order: List[NodeId] = []
    for seg in root_segments:
        order.extend(flatten_nodes(seg.nodes))
    traversal = Traversal(tuple(order), BOTTOMUP)
    return LiuResult(
        memory=subtree_peak[tree.root],
        traversal=traversal,
        segments=root_segments,
        subtree_peak=subtree_peak,
    )


def _canonical_segments(events: List[Tuple[float, float, list]]) -> List[Segment]:
    """Cut an event profile into its canonical hill--valley representation.

    ``events`` is a list of ``(peak_during, level_after, nodes)`` triples in
    execution order.  Each segment starts where the previous one ended, peaks
    at the maximum remaining peak and is cut at the *last* position achieving
    the minimum residual level reached at or after that peak.  This yields
    non-increasing hills and non-decreasing valleys, and packs runs of events
    with identical residual levels into a single segment (interrupting such a
    run cannot help a parent, since the memory level at the intermediate cut
    points equals the level at the end of the run).

    The construction is a single backward sweep plus a single forward sweep,
    i.e. linear in the number of events.
    """
    n_events = len(events)
    if n_events == 0:
        return []
    # suffix maxima of the peaks (with first position achieving them) and
    # suffix minima of the residual levels (with last position achieving them)
    first_max = [0] * n_events
    last_min = [0] * n_events
    suffix_max = [0.0] * n_events
    suffix_min = [0.0] * n_events
    suffix_max[-1] = events[-1][0]
    suffix_min[-1] = events[-1][1]
    first_max[-1] = last_min[-1] = n_events - 1
    for t in range(n_events - 2, -1, -1):
        peak, level = events[t][0], events[t][1]
        if peak >= suffix_max[t + 1]:
            suffix_max[t] = peak
            first_max[t] = t
        else:
            suffix_max[t] = suffix_max[t + 1]
            first_max[t] = first_max[t + 1]
        if level < suffix_min[t + 1]:
            suffix_min[t] = level
            last_min[t] = t
        else:
            suffix_min[t] = suffix_min[t + 1]
            last_min[t] = last_min[t + 1]

    segments: List[Segment] = []
    start = 0
    while start < n_events:
        hill_pos = first_max[start]
        valley_pos = last_min[hill_pos]
        chunk = [events[t][2] for t in range(start, valley_pos + 1)]
        segments.append(
            Segment(hill=suffix_max[start], valley=events[valley_pos][1], nodes=chunk)
        )
        start = valley_pos + 1
    return segments


def min_mem(tree: Tree, *, reuse_states: bool = True) -> MinMemResult:
    """MinMem (Algorithm 4) driving the per-node :class:`ExploreSolver`."""
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    solver = ExploreSolver(tree, reuse_states=reuse_states)
    root = tree.root

    m_peak = tree.max_mem_req()
    m_avail = 0.0
    iterations = 0
    chunks: list = []

    # Root-level resume (the L_init / Tr_init arguments of Algorithm 4) is
    # always provided by the solver; with reuse_states=True the states of
    # every other node are retained across sweeps as well, which only makes
    # the search faster.
    while m_peak != math.inf:
        m_avail = m_peak
        result = solver.explore(root, m_avail)
        chunks = result.traversal_chunks
        m_peak = result.peak
        iterations += 1
        if m_peak is not math.inf and m_peak <= m_avail:
            # Exploration must always report a strictly larger requirement
            # when it cannot finish; guard against floating-point stalls.
            raise RuntimeError(
                "MinMem made no progress (floating-point stall); "
                f"memory={m_avail}, reported peak={m_peak}"
            )

    order = flatten_nodes(chunks)
    traversal = Traversal(tuple(order), TOPDOWN)
    return MinMemResult(
        memory=m_avail,
        traversal=traversal,
        iterations=iterations,
        explore_calls=solver.explore_calls,
    )


def run_out_of_core(
    tree: Tree,
    memory: float,
    traversal: Traversal,
    heuristic: Union[str, Selector] = "first_fit",
) -> OutOfCoreResult:
    """The MinIO simulator, re-summing the resident files at every step."""
    selector = get_heuristic(heuristic) if isinstance(heuristic, str) else heuristic
    traversal = traversal.as_convention(TOPDOWN)
    if not isinstance(tree, Tree):
        tree = tree.to_tree()
    if not is_topological(tree, traversal):
        raise TraversalError("traversal violates precedence constraints")
    if memory < tree.max_mem_req() - _EPS:
        raise ValueError(
            f"memory {memory} is below the largest node requirement "
            f"{tree.max_mem_req()}; no execution exists"
        )

    pos = traversal.position()
    resident: Dict[NodeId, float] = {tree.root: tree.f(tree.root)}
    on_disk: set = set()
    evictions: Dict[NodeId, int] = {}
    io_total = 0.0
    peak_resident = tree.f(tree.root)

    for step, node in enumerate(traversal.order):
        # 1. read the input file back if it was unloaded
        if node in on_disk:
            on_disk.discard(node)
            resident[node] = tree.f(node)

        # 2. determine how much must be freed to execute the node
        extra = tree.mem_req(node) - tree.f(node)
        m_avail = memory - sum(resident.values())
        io_req = extra - m_avail
        if io_req > _EPS:
            candidates = _candidates(tree, resident, pos, node)
            victims = selector(candidates, io_req)
            freed = 0.0
            for victim in victims:
                freed += resident.pop(victim)
                on_disk.add(victim)
                evictions[victim] = step
                io_total += tree.f(victim)
            if freed + _EPS < io_req:
                # The heuristic did not free enough; finish with LSNF order so
                # the execution always proceeds (possible since M >= MemReq).
                for victim, size in _candidates(tree, resident, pos, node):
                    if freed >= io_req - _EPS:
                        break
                    freed += resident.pop(victim)
                    on_disk.add(victim)
                    evictions[victim] = step
                    io_total += size
            if freed + _EPS < io_req:
                raise ValueError(
                    "infeasible eviction: not enough resident files to free"
                )

        # 3. execute the node
        peak_resident = max(
            peak_resident, sum(resident.values()) + extra
        )
        resident.pop(node, None)
        for child in tree.children(node):
            resident[child] = tree.f(child)

    schedule = OutOfCoreSchedule(traversal=traversal, evictions=evictions)
    return OutOfCoreResult(
        schedule=schedule,
        io_volume=io_total,
        io_operations=len(evictions),
        peak_resident=peak_resident,
    )


def _candidates(
    tree: Tree,
    resident: Dict[NodeId, float],
    pos: Dict[NodeId, int],
    current: NodeId,
) -> List[Tuple[NodeId, float]]:
    """Evictable files ordered latest-scheduled-first (the paper's set ``S``)."""
    nodes = [v for v in resident if v != current]
    nodes.sort(key=lambda v: pos[v], reverse=True)
    return [(v, resident[v]) for v in nodes]
