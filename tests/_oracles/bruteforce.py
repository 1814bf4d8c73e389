"""Exhaustive reference solvers used as test oracles.

These solvers enumerate the state space of the traversal problems and are
therefore restricted to small trees (roughly up to 15 nodes for MinMemory and
10 nodes for MinIO).  They provide ground truth against which the polynomial
algorithms (:mod:`repro.core.liu`, :mod:`repro.core.minmem`,
:mod:`repro.core.postorder`) and the MinIO heuristics are validated.

All solvers use the top-down (out-tree) reading; by the reversal argument of
Section III-C their optimal values also hold for the bottom-up reading.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.tree import Tree

__all__ = [
    "optimal_min_memory",
    "optimal_postorder_memory",
    "optimal_min_io",
    "enumerate_topological_orders",
]

NodeId = Hashable

_MAX_BRUTE_NODES = 22


def optimal_min_memory(tree: Tree) -> float:
    """Exact MinMemory value by dynamic programming over cuts.

    The state is the set of *ready* nodes (files produced but not executed).
    From a state, executing any ready node ``i`` costs a transient peak of
    ``resident + n_i + sum_children f`` and leads to the state where ``i`` is
    replaced by its children.  The optimal value is the min-max over all
    execution orders, computed by memoisation over states.
    """
    tree.validate()
    if tree.size > _MAX_BRUTE_NODES:
        raise ValueError(
            f"brute force limited to {_MAX_BRUTE_NODES} nodes, got {tree.size}"
        )
    f = {v: tree.f(v) for v in tree.nodes()}
    n = {v: tree.n(v) for v in tree.nodes()}
    children = {v: tree.children(v) for v in tree.nodes()}

    @lru_cache(maxsize=None)
    def best(state: FrozenSet[NodeId]) -> float:
        if not state:
            return 0.0
        resident = sum(f[v] for v in state)
        value = math.inf
        for node in state:
            peak = resident + n[node] + sum(f[c] for c in children[node])
            nxt = frozenset(state - {node} | set(children[node]))
            value = min(value, max(peak, best(nxt)))
        return value

    return best(frozenset({tree.root}))


def optimal_postorder_memory(tree: Tree) -> float:
    """Exact MinMemory-PostOrder value by enumerating child permutations.

    The peak of a postorder traversal only depends on the order chosen for the
    children of every node, so the optimum is found by brute force over those
    permutations, combined bottom-up.
    """
    tree.validate()

    peaks: Dict[NodeId, float] = {}
    for node in tree.bottom_up_order():
        children = tree.children(node)
        if not children:
            peaks[node] = tree.f(node) + tree.n(node)
            continue
        if len(children) > 8:
            raise ValueError("brute force limited to nodes with at most 8 children")
        best = math.inf
        for perm in itertools.permutations(children):
            completed = 0.0
            peak = 0.0
            for child in perm:
                peak = max(peak, completed + peaks[child])
                completed += tree.f(child)
            peak = max(peak, completed + tree.n(node) + tree.f(node))
            best = min(best, peak)
        peaks[node] = best
    return peaks[tree.root]


def enumerate_topological_orders(tree: Tree) -> List[Tuple[NodeId, ...]]:
    """All top-down topological orders of the tree (exponential; small trees)."""
    tree.validate()
    if tree.size > 10:
        raise ValueError("enumeration limited to 10 nodes")
    orders: List[Tuple[NodeId, ...]] = []

    def recurse(ready: Tuple[NodeId, ...], acc: Tuple[NodeId, ...]) -> None:
        if not ready:
            orders.append(acc)
            return
        for idx, node in enumerate(ready):
            nxt = ready[:idx] + ready[idx + 1 :] + tuple(tree.children(node))
            recurse(nxt, acc + (node,))

    recurse((tree.root,), ())
    return orders


def optimal_min_io(tree: Tree, memory: float) -> float:
    """Exact MinIO value by dynamic programming over (ready set, on-disk set).

    Evictions are, without loss of generality, performed immediately before
    the execution that needs the space, and only files that are currently
    resident and not needed by that execution may be written out.  The state
    space is exponential; the solver is intended for trees of at most ~16
    nodes (the NP-hardness constructions of Theorem 2 use such trees).

    Returns ``inf`` when the tree cannot be processed at all with ``memory``
    (i.e. ``memory < max_i MemReq(i)``).
    """
    tree.validate()
    if tree.size > 16:
        raise ValueError("brute force MinIO limited to 16 nodes")
    f = {v: tree.f(v) for v in tree.nodes()}
    n = {v: tree.n(v) for v in tree.nodes()}
    children = {v: tree.children(v) for v in tree.nodes()}

    @lru_cache(maxsize=None)
    def best(ready: FrozenSet[NodeId], on_disk: FrozenSet[NodeId]) -> float:
        if not ready:
            return 0.0
        value = math.inf
        for node in ready:
            need = n[node] + sum(f[c] for c in children[node]) + f[node]
            # files that could be evicted before executing `node`
            in_memory = [v for v in ready if v not in on_disk and v != node]
            resident_others = sum(f[v] for v in in_memory)
            for r in range(len(in_memory) + 1):
                for combo in itertools.combinations(in_memory, r):
                    freed = sum(f[v] for v in combo)
                    if resident_others - freed + need > memory + 1e-12:
                        continue
                    nxt_ready = frozenset(ready - {node} | set(children[node]))
                    nxt_disk = frozenset((set(on_disk) | set(combo)) & nxt_ready)
                    value = min(value, freed + best(nxt_ready, nxt_disk))
        return value

    return best(frozenset({tree.root}), frozenset())
