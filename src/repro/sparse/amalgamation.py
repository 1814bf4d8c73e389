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
from typing import Dict, List, Sequence, Tuple

import numpy as np

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
        for s, p in enumerate(self.parent):
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
        Elimination-tree parent array (``-1`` for roots).
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
    """
    parent = np.asarray(parent, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size != parent.size:
        raise ValueError("parent and counts must have the same length")
    leader = _perfect_leaders(parent, counts, perfect)
    return _supernodes(parent, counts, leader, relaxed)


def _supernodes(
    parent: np.ndarray, counts: np.ndarray, leader: np.ndarray, relaxed: int
) -> AmalgamatedTree:
    """Quotient tree of the perfect-amalgamation ``leader`` of every column,
    relaxed by up to ``relaxed`` child absorptions per supernode."""
    n = parent.size
    # ------------------------------------------------------------------
    # build the quotient (perfectly amalgamated) tree
    # ------------------------------------------------------------------
    groups: Dict[int, List[int]] = {}
    for v, rep in enumerate(leader.tolist()):
        groups.setdefault(rep, []).append(v)

    def quotient_parent(rep: int) -> int:
        top = max(groups[rep])  # topmost member: largest column index
        p = int(parent[top])
        return -1 if p < 0 else int(leader[p])

    # ------------------------------------------------------------------
    # relaxed amalgamation on the quotient tree (top-down, densest child)
    # ------------------------------------------------------------------
    if relaxed > 0:
        qparent: Dict[int, int] = {rep: quotient_parent(rep) for rep in groups}
        qchildren: Dict[int, List[int]] = {rep: [] for rep in groups}
        for rep, qp in qparent.items():
            if qp >= 0:
                qchildren[qp].append(rep)
        roots = [rep for rep, qp in qparent.items() if qp < 0]
        # top-down sweep: absorb densest children while the budget allows
        stack = list(roots)
        budget = {rep: relaxed for rep in groups}
        while stack:
            rep = stack.pop()
            while budget[rep] > 0 and qchildren[rep]:
                densest = max(
                    qchildren[rep], key=lambda c: (int(counts[max(groups[c])]), c)
                )
                qchildren[rep].remove(densest)
                # merge `densest` into `rep`
                groups[rep].extend(groups[densest])
                for grandchild in qchildren.pop(densest):
                    qparent[grandchild] = rep
                    qchildren[rep].append(grandchild)
                del groups[densest]
                del qparent[densest]
                budget[rep] -= 1
            stack.extend(qchildren[rep])
        final_groups = groups
        final_parent_of = qparent
    else:
        final_groups = groups
        final_parent_of = {rep: quotient_parent(rep) for rep in groups}

    # ------------------------------------------------------------------
    # materialise supernodes with the paper's weights
    # ------------------------------------------------------------------
    reps = sorted(final_groups)
    index_of = {rep: i for i, rep in enumerate(reps)}
    supernodes: List[Supernode] = []
    column_to_supernode = np.empty(n, dtype=np.int64)
    for rep in reps:
        members = tuple(sorted(final_groups[rep]))
        top = members[-1]
        sn = Supernode(
            index=index_of[rep],
            members=members,
            representative=int(top),
            eta=len(members),
            mu=int(counts[top]),
        )
        supernodes.append(sn)
        for m in members:
            column_to_supernode[m] = sn.index

    sn_parent = np.full(len(reps), -1, dtype=np.int64)
    for rep in reps:
        qp = final_parent_of[rep]
        if qp >= 0:
            sn_parent[index_of[rep]] = index_of[qp]

    return AmalgamatedTree(
        supernodes=tuple(supernodes),
        parent=sn_parent,
        column_to_supernode=column_to_supernode,
    )
