"""Node amalgamation: from elimination trees to assembly trees.

The elimination tree has one vertex per matrix column, which gives frontal
matrices of order one -- too small for efficient dense kernels.  Sparse
solvers therefore *amalgamate* (merge) tree vertices into supernodes, building
the assembly tree.  Following Section VI-B of the paper, two mechanisms are
implemented:

* **perfect amalgamation** -- a vertex that is the only child of its parent
  and whose column has exactly one more nonzero than the parent's column is
  merged with it (no fill is created);
* **relaxed amalgamation** -- every supernode may additionally absorb up to
  ``relaxed`` of its densest children (possibly creating logical zeros), the
  knob the paper sets to 1, 2, 4 and 16 to enlarge its data set.

The resulting supernodes are weighted exactly as in the paper: a supernode
that amalgamates ``eta`` columns and whose topmost column has ``mu`` nonzeros
in ``L`` gets an execution weight ``eta**2 + 2*eta*(mu - 1)`` (the frontal
matrix minus its contribution block) and an edge weight ``(mu - 1)**2`` (the
contribution block sent to its parent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .etree import _children_csr

__all__ = ["Supernode", "AmalgamatedTree", "amalgamate"]


@dataclass(frozen=True)
class Supernode:
    """One assembly-tree node.

    Attributes
    ----------
    index:
        Identifier of the supernode in the amalgamated tree.
    members:
        Original elimination-tree columns merged into this supernode.
    representative:
        The topmost member (the one closest to the root of the elimination
        tree); its column count is the ``mu`` of the paper's weights.
    eta:
        Number of amalgamated columns (``len(members)``).
    mu:
        Column count of the representative column.
    """

    index: int
    members: Tuple[int, ...]
    representative: int
    eta: int
    mu: int

    @property
    def node_weight(self) -> float:
        """Execution-file weight ``eta^2 + 2 eta (mu - 1)``."""
        return float(self.eta**2 + 2 * self.eta * (self.mu - 1))

    @property
    def edge_weight(self) -> float:
        """Contribution-block weight ``(mu - 1)^2`` sent to the parent."""
        return float((self.mu - 1) ** 2)

    @property
    def front_order(self) -> int:
        """Order of the frontal matrix, ``eta + (mu - 1)``."""
        return self.eta + self.mu - 1


@dataclass(frozen=True)
class AmalgamatedTree:
    """Assembly tree produced by :func:`amalgamate`.

    ``parent[s]`` is the parent supernode of ``s`` (or ``-1``), and
    ``column_to_supernode[j]`` maps every original column to its supernode.
    """

    supernodes: Tuple[Supernode, ...]
    parent: np.ndarray
    column_to_supernode: np.ndarray

    @property
    def size(self) -> int:
        return len(self.supernodes)

    def children(self) -> List[List[int]]:
        """Children lists of the assembly tree."""
        out: List[List[int]] = [[] for _ in range(self.size)]
        for s, p in enumerate(self.parent.tolist()):
            if p >= 0:
                out[p].append(s)
        return out


def _perfect_leaders(
    parent: np.ndarray, counts: np.ndarray, perfect: bool
) -> np.ndarray:
    """Vectorized perfect-amalgamation chains via pointer doubling.

    A column merges with its parent exactly when it is the parent's only
    child and the parent's count is one smaller (no fill).  Those merges form
    parent-chains, so the set representative of ``v`` is the topmost vertex
    reachable through consecutively mergeable edges -- resolved by doubling
    the merge-edge pointer, no per-column union-find.
    """
    n = parent.size
    leader = np.arange(n, dtype=np.int64)
    if not perfect or n == 0:
        return leader
    safe_parent = np.clip(parent, 0, None)
    child_count = np.bincount(parent[parent >= 0], minlength=n)
    merge_up = (
        (parent >= 0)
        & (child_count[safe_parent] == 1)
        & (counts[safe_parent] == counts - 1)
    )
    leader = np.where(merge_up, safe_parent, leader)
    while True:
        nxt = leader[leader]
        if np.array_equal(nxt, leader):
            return leader
        leader = nxt


def amalgamate(
    parent: Sequence[int],
    counts: Sequence[int],
    *,
    relaxed: int = 1,
    perfect: bool = True,
) -> AmalgamatedTree:
    """Amalgamate an elimination tree into an assembly tree.

    Parameters
    ----------
    parent:
        Elimination-tree parent array: every entry is ``-1`` (a root) or
        satisfies ``j < parent[j] < n``, as :func:`elimination_tree
        <repro.sparse.etree.elimination_tree>` always produces.
    counts:
        Column counts ``mu_j`` of the Cholesky factor (diagonal included).
    relaxed:
        Maximum number of relaxed (non-perfect) child absorptions per
        supernode; ``0`` disables relaxed amalgamation.
    perfect:
        Whether to perform perfect amalgamation first (the paper always
        does).

    Returns
    -------
    AmalgamatedTree
        Supernodes with paper-compatible weights and the quotient tree.

    Raises
    ------
    ValueError
        If the lengths differ or ``parent`` is not labelled like an
        elimination tree.
    """
    parent = np.asarray(parent, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size != parent.size:
        raise ValueError("parent and counts must have the same length")
    n = parent.size
    bad = np.flatnonzero(
        (parent != -1) & ((parent <= np.arange(n)) | (parent >= n))
    )
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"parent[{j}] = {int(parent[j])}: an elimination-tree parent is "
            f"-1 or lies strictly between {j} and {n}"
        )
    leader = _perfect_leaders(parent, counts, perfect)
    return _supernodes(parent, counts, leader, relaxed)


def _supernodes(
    parent: np.ndarray, counts: np.ndarray, leader: np.ndarray, relaxed: int
) -> AmalgamatedTree:
    """Quotient tree of the perfect-amalgamation ``leader`` of every column,
    relaxed by up to ``relaxed`` child absorptions per supernode.

    Every group is named by its top, its largest member: parents are larger
    than their children, so the top of a perfect chain is its leader and an
    absorbed group lies below its absorber.  Groups are addressed by the
    position of their top in ``tops``; the relaxed sweep visits positions
    from the largest down, which is top-down, and records in ``owner`` the
    group that absorbed each one.
    """
    n = parent.size
    tops = np.flatnonzero(leader == np.arange(n))
    m = tops.size
    # quotient (perfectly amalgamated) tree over group positions
    qparent = np.full(m, -1, dtype=np.int64)
    above = parent[tops]
    has_parent = above >= 0
    qparent[has_parent] = np.searchsorted(tops, leader[above[has_parent]])

    owner = np.arange(m)
    if relaxed > 0 and m:
        owner = np.asarray(_relax(qparent, counts[tops], relaxed), dtype=np.int64)

    # materialise supernodes with the paper's weights: supernode i is the
    # i-th surviving group in increasing order of its top
    keep = np.flatnonzero(owner == np.arange(m))
    sn_tops = tops[keep]
    size = sn_tops.size
    group = owner[np.searchsorted(tops, leader)]  # of every column
    column_to_supernode = np.searchsorted(sn_tops, tops[group])
    sn_parent = np.full(size, -1, dtype=np.int64)
    up = qparent[keep]
    has_parent = up >= 0
    sn_parent[has_parent] = np.searchsorted(sn_tops, tops[owner[up[has_parent]]])

    # members ascending within each supernode, sliced out of one list
    members = np.argsort(column_to_supernode, kind="stable").tolist()
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(column_to_supernode, minlength=size)))
    ).tolist()
    top_list = sn_tops.tolist()
    mu = counts[sn_tops].tolist()
    supernodes = tuple(
        Supernode(i, tuple(members[bounds[i] : bounds[i + 1]]), top_list[i],
                  bounds[i + 1] - bounds[i], mu[i])
        for i in range(size)
    )
    return AmalgamatedTree(
        supernodes=supernodes,
        parent=sn_parent,
        column_to_supernode=column_to_supernode,
    )


def _relax(qparent: np.ndarray, top_counts: np.ndarray, relaxed: int) -> List[int]:
    """Top-down relaxed sweep over the quotient tree; the absorber of every
    group position (itself for a surviving group).

    A surviving group absorbs, up to ``relaxed`` times, the densest group of
    its frontier: its children, plus the children of every group it has
    absorbed.  Density orders by the top's column count, then by the top.
    """
    m = qparent.size
    child_ptr_a, kids_a, _ = _children_csr(qparent)
    child_ptr, kids = child_ptr_a.tolist(), kids_a.tolist()
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(top_counts, kind="stable")] = np.arange(m)
    density = rank.tolist().__getitem__

    owner = list(range(m))
    for group in range(m - 1, -1, -1):
        if owner[group] != group:
            continue
        frontier = kids[child_ptr[group] : child_ptr[group + 1]]
        budget = relaxed
        while budget and frontier:
            if len(frontier) == 1:
                densest = frontier.pop()
            else:
                densest = max(frontier, key=density)
                frontier.remove(densest)
            owner[densest] = group
            frontier.extend(kids[child_ptr[densest] : child_ptr[densest + 1]])
            budget -= 1
    return owner
