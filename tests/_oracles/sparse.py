"""Per-entry reference implementations of the sparse symbolic layer.

The original loops behind :mod:`repro.sparse`: Liu's elimination-tree
construction one nonzero at a time, row-subtree climbs for the column
counts, Python-set merges for the column patterns and a union-find for the
perfect-amalgamation chains.  The library runs the vectorized versions; the
tests require bit-identical results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.sparse.amalgamation import AmalgamatedTree, _supernodes
from repro.sparse.assembly import AssemblyTreeResult, assembly_tree_from_etree
from repro.sparse.etree import etree_children, etree_postorder
from repro.sparse.graph import symmetrized_pattern
from repro.sparse.ordering import ORDERINGS, apply_ordering
from repro.sparse.symbolic import SymbolicStats
from repro.sparse.symbolic import symbolic_stats as _stats_from_counts

__all__ = [
    "elimination_tree",
    "column_counts",
    "column_patterns",
    "symbolic_stats",
    "amalgamate",
    "build_assembly_tree",
]


def elimination_tree(matrix: sp.spmatrix, *, symmetrize: bool = True) -> np.ndarray:
    """Parent array of the elimination tree, one nonzero at a time."""
    pattern = symmetrized_pattern(matrix) if symmetrize else sp.csr_matrix(matrix)
    return _reference_elimination_tree(pattern)


def _reference_elimination_tree(pattern: sp.csr_matrix) -> np.ndarray:
    """Per-nonzero Liu construction (the test oracle)."""
    n = pattern.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    indptr, indices = pattern.indptr, pattern.indices

    for j in range(n):
        for k in indices[indptr[j] : indptr[j + 1]]:
            if k >= j:
                continue
            # climb from k to the current root of its subtree
            v = int(k)
            while ancestor[v] != -1 and ancestor[v] != j:
                nxt = int(ancestor[v])
                ancestor[v] = j  # path compression
                v = nxt
            if ancestor[v] == -1:
                ancestor[v] = j
                parent[v] = j
    return parent


def column_counts(
    matrix: sp.spmatrix,
    parent: Optional[Sequence[int]] = None,
    *,
    symmetrize: bool = True,
) -> np.ndarray:
    """Column counts of ``L`` by climbing every row subtree."""
    pattern = symmetrized_pattern(matrix) if symmetrize else sp.csr_matrix(matrix)
    if parent is None:
        parent = elimination_tree(pattern, symmetrize=False)
    return _reference_column_counts(pattern, np.asarray(parent, dtype=np.int64))


def _reference_column_counts(
    pattern: sp.csr_matrix, parent: np.ndarray
) -> np.ndarray:
    """Per-entry row-subtree climb (the test oracle)."""
    n = pattern.shape[0]
    counts = np.ones(n, dtype=np.int64)  # the diagonal entries
    marker = np.full(n, -1, dtype=np.int64)
    indptr, indices = pattern.indptr, pattern.indices

    for i in range(n):
        marker[i] = i
        for k in indices[indptr[i] : indptr[i + 1]]:
            k = int(k)
            if k >= i:
                continue
            # climb the row subtree of i
            j = k
            while marker[j] != i:
                counts[j] += 1
                marker[j] = i
                j = int(parent[j])
                if j < 0:
                    break
    return counts


def column_patterns(
    matrix: sp.spmatrix,
    parent: Optional[Sequence[int]] = None,
    *,
    symmetrize: bool = True,
) -> List[np.ndarray]:
    """Row patterns of the columns of ``L`` by bottom-up set merging."""
    pattern = symmetrized_pattern(matrix) if symmetrize else sp.csr_matrix(matrix)
    if parent is None:
        parent = elimination_tree(pattern, symmetrize=False)
    return _reference_column_patterns(pattern, np.asarray(parent, dtype=np.int64))


def _reference_column_patterns(
    pattern: sp.csr_matrix, parent: np.ndarray
) -> List[np.ndarray]:
    """Bottom-up Python set merging (the test oracle)."""
    n = pattern.shape[0]
    children = etree_children(parent)
    csc = sp.csc_matrix(pattern)
    patterns: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * n

    for j in etree_postorder(parent):
        j = int(j)
        rows = csc.indices[csc.indptr[j] : csc.indptr[j + 1]]
        below = set(int(r) for r in rows if r > j)
        for child in children[j]:
            below.update(int(r) for r in patterns[child] if r > j)
        patterns[j] = np.asarray(sorted(below), dtype=np.int64)
    return patterns


def symbolic_stats(matrix: sp.spmatrix) -> SymbolicStats:
    """The library's statistics over the reference column counts."""
    return _stats_from_counts(matrix, counts=column_counts(matrix))


def amalgamate(
    parent: Sequence[int],
    counts: Sequence[int],
    *,
    relaxed: int = 1,
    perfect: bool = True,
) -> AmalgamatedTree:
    """Supernodes from union-find perfect chains (the relaxed phase is the
    library's, which is shared and order-independent)."""
    parent = np.asarray(parent, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size != parent.size:
        raise ValueError("parent and counts must have the same length")
    leader = _reference_perfect_leaders(parent, counts, perfect)
    return _supernodes(parent, counts, leader, relaxed)


def _reference_perfect_leaders(
    parent: np.ndarray, counts: np.ndarray, perfect: bool
) -> np.ndarray:
    """Topmost column of every perfect-amalgamation chain (union-find oracle)."""
    n = parent.size
    children = etree_children(parent)

    # union-find over columns; the set representative is the topmost column
    leader = np.arange(n, dtype=np.int64)

    def find(v: int) -> int:
        root = v
        while leader[root] != root:
            root = leader[root]
        while leader[v] != root:
            leader[v], v = root, int(leader[v])
        return int(root)

    if perfect:
        for v in range(n):
            p = int(parent[v])
            if p < 0:
                continue
            if len(children[p]) == 1 and counts[p] == counts[v] - 1:
                leader[find(v)] = find(p)
    return np.asarray([find(v) for v in range(n)], dtype=np.int64)


def build_assembly_tree(
    matrix: sp.spmatrix,
    *,
    ordering: Union[str, Sequence[int]] = "nested_dissection",
    relaxed: int = 1,
    perfect: bool = True,
) -> AssemblyTreeResult:
    """The matrix -> assembly-tree pipeline over the reference stages."""
    pattern = symmetrized_pattern(matrix)
    if isinstance(ordering, str):
        perm = ORDERINGS[ordering](pattern)
        ordering_name = ordering
    else:
        perm = np.asarray(ordering, dtype=np.int64)
        ordering_name = "custom"
    permuted = apply_ordering(pattern, perm)
    parent = elimination_tree(permuted, symmetrize=False)
    counts = column_counts(permuted, parent, symmetrize=False)
    amalgamated = amalgamate(parent, counts, relaxed=relaxed, perfect=perfect)
    return AssemblyTreeResult(
        tree=assembly_tree_from_etree(amalgamated),
        permutation=perm,
        etree_parent=parent,
        counts=counts,
        amalgamated=amalgamated,
        symbolic=_stats_from_counts(
            permuted, parent, counts=counts, symmetrize=False
        ),
        ordering=ordering_name,
        relaxed=relaxed,
    )
