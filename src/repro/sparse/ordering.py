"""Fill-reducing orderings.

The paper orders its matrices with MeTiS (nested dissection) and ``amd``
(approximate minimum degree) before building elimination trees.  Neither tool
is available offline, so this module implements the orderings from scratch on
top of the symmetrized pattern:

* :func:`natural_ordering` -- the identity permutation (baseline);
* :func:`rcm_ordering` -- reverse Cuthill--McKee (band-reducing, deep trees);
* :func:`minimum_degree_ordering` -- greedy (exact external) minimum degree
  with an elimination graph, the classical fill-reducing heuristic, which
  eliminates a pivot's followers with it (mass elimination);
* :func:`nested_dissection_ordering` -- recursive vertex separators obtained
  from BFS level structures rooted at pseudo-peripheral vertices (bushy,
  well-balanced trees, the MeTiS stand-in).

Every function returns a permutation array ``perm`` such that the matrix to
factor is ``A[perm][:, perm]`` -- i.e. ``perm[k]`` is the original index of
the ``k``-th pivot.  Each takes ``symmetrize=False`` for a pattern that is
already structurally symmetric (the pipeline's symmetrized pattern), the
convention of :func:`~repro.sparse.etree.elimination_tree`.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Set

import numpy as np
import scipy.sparse as sp

from .graph import (
    VertexMarks,
    _levels,
    _pseudo_peripheral,
    adjacency_lists,
    connected_components,
    symmetrized_pattern,
)

__all__ = [
    "natural_ordering",
    "rcm_ordering",
    "minimum_degree_ordering",
    "nested_dissection_ordering",
    "ORDERINGS",
    "apply_ordering",
    "permutation_matrix",
]


def natural_ordering(matrix: sp.spmatrix, *, symmetrize: bool = True) -> np.ndarray:
    """Identity permutation (``symmetrize`` is accepted and unused)."""
    return np.arange(matrix.shape[0], dtype=np.int64)


def _pattern(matrix: sp.spmatrix, symmetrize: bool) -> sp.csr_matrix:
    return symmetrized_pattern(matrix) if symmetrize else matrix


def rcm_ordering(matrix: sp.spmatrix, *, symmetrize: bool = True) -> np.ndarray:
    """Reverse Cuthill--McKee ordering of the symmetrized pattern."""
    pattern = _pattern(matrix, symmetrize)
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(sp.csr_matrix(pattern), symmetric_mode=True)
    return np.asarray(perm, dtype=np.int64)


def minimum_degree_ordering(
    matrix: sp.spmatrix, *, symmetrize: bool = True
) -> np.ndarray:
    """Greedy minimum-degree ordering with an explicit elimination graph.

    At every step the live vertex of least (current degree, index) is
    eliminated and its neighbourhood is turned into a clique; this is an
    exact-degree variant of AMD.  The pivot's *followers*, the clique
    members whose closed neighbourhood is now exactly the clique, are the
    next pivots by that same rule, so they are eliminated with it in one
    step (George and Liu's mass elimination); see :func:`_minimum_degree`.

    >>> from repro.sparse.matrices import grid_laplacian_2d
    >>> minimum_degree_ordering(grid_laplacian_2d(3)).tolist()
    [0, 2, 6, 8, 1, 3, 4, 5, 7]
    """
    pattern = _pattern(matrix, symmetrize)
    neighbours = [set(row) for row in adjacency_lists(pattern)]
    return np.asarray(_minimum_degree(neighbours), dtype=np.int64)


def _minimum_degree(neighbours: List[Set[int]]) -> List[int]:
    """Elimination order of the graph ``neighbours`` (updated in place).

    The order is the one of the one-pivot-at-a-time rule: eliminate the live
    vertex of least (current degree, index).  The priority queue holds, for
    every live vertex, an entry at its current degree, pushed when that
    degree last changed; any other entry is stale and is dropped when popped.

    When pivot ``v`` of degree ``d`` goes, its neighbourhood ``C`` becomes a
    clique.  A vertex outside ``C`` keeps its degree, at least ``d``; a member
    ``w`` of ``C`` gains ``C - {w}``, so its degree is ``d - 1`` exactly when
    its closed neighbourhood is ``C``: then ``w`` is a *follower*.  The
    followers are the next pivots, in index order: each one adds no edge (its
    neighbourhood is already a clique) and only leaves the other members of
    ``C``, so every other follower stays at the least degree and every other
    member, which had at least ``d``, stays above them.  The loop therefore
    eliminates them right after ``v``, removes them from the other members
    in one pass and pushes each of those members' final degree once (the
    entry pushed for ``v``'s update is then stale), instead of forming
    ``|C| - 1`` cliques that are already formed.
    """
    heap = [(len(nbrs), v) for v, nbrs in enumerate(neighbours)]
    heapq.heapify(heap)
    eliminated = [False] * len(neighbours)
    order: List[int] = []
    followers: List[int] = []
    while heap:
        degree, v = heapq.heappop(heap)
        clique = neighbours[v]
        if eliminated[v] or degree != len(clique):
            continue
        eliminated[v] = True
        order.append(v)
        for w in clique:
            nbrs = neighbours[w]
            before = len(nbrs)
            nbrs.discard(v)
            nbrs |= clique
            nbrs.discard(w)
            after = len(nbrs)
            if after < degree:
                followers.append(w)
            elif after != before:
                heapq.heappush(heap, (after, w))
        if not followers:
            continue
        followers.sort()
        order.extend(followers)
        for y in followers:
            eliminated[y] = True
        gone = set(followers)
        for w in clique:
            if not eliminated[w]:
                nbrs = neighbours[w]
                nbrs -= gone
                heapq.heappush(heap, (len(nbrs), w))
        followers.clear()
    return order


def nested_dissection_ordering(
    matrix: sp.spmatrix, *, leaf_size: int = 32, symmetrize: bool = True
) -> np.ndarray:
    """Recursive nested dissection with BFS level-structure separators.

    Subgraphs of at most ``leaf_size`` vertices are ordered with minimum
    degree.  The separator of a larger subgraph is the median BFS level of a
    level structure rooted at a pseudo-peripheral vertex: the two halves are
    ordered recursively, then the separator vertices are numbered last, which
    yields the characteristic bushy assembly trees of graph-partitioning
    orderings.

    The pseudo-peripheral search's first BFS, from the subgraph's first
    vertex, is also its connectivity test: it reaches every vertex exactly
    when the subgraph is connected.  Only a subgraph it does not cover is
    split into its connected components, which are ordered in turn; the
    search goes on only on a connected one.

    >>> from repro.sparse.matrices import grid_laplacian_2d
    >>> nested_dissection_ordering(grid_laplacian_2d(4), leaf_size=4).tolist()
    [14, 13, 7, 11, 4, 8, 2, 1, 0, 5, 10, 15, 3, 6, 9, 12]
    """
    pattern = _pattern(matrix, symmetrize)
    n = pattern.shape[0]
    adjacency = adjacency_lists(pattern)
    marks = VertexMarks(n)
    order: List[int] = []

    def order_small(vertices: List[int]) -> List[int]:
        local = {v: i for i, v in enumerate(vertices)}
        neighbours = [
            {local[w] for w in adjacency[v] if w in local} for v in vertices
        ]
        return [vertices[i] for i in _minimum_degree(neighbours)]

    # explicit stack of vertex sets; the separators are numbered after every
    # leaf, in the reverse of the order they were found, so each one follows
    # both of its halves
    stack: List[List[int]] = [list(range(n))]
    pending: List[List[int]] = []
    while stack:
        vertices = stack.pop()
        if len(vertices) <= leaf_size:
            order.extend(order_small(vertices))
            continue
        marks.select(vertices)
        start = vertices[0]
        levels = _levels(adjacency, start, marks)
        if sum(map(len, levels)) < len(vertices):
            marks.select(vertices)
            stack.extend(connected_components(adjacency, vertices, marks))
            continue
        _, levels = _pseudo_peripheral(adjacency, start, levels, marks)
        if len(levels) < 3:
            order.extend(order_small(vertices))
            continue
        mid = len(levels) // 2
        pending.append(levels[mid])
        stack.append([v for lev in levels[:mid] for v in lev])
        stack.append([v for lev in levels[mid + 1 :] for v in lev])
    for separator in reversed(pending):
        order.extend(order_small(separator))
    return np.asarray(order, dtype=np.int64)


ORDERINGS = {
    "natural": natural_ordering,
    "rcm": rcm_ordering,
    "minimum_degree": minimum_degree_ordering,
    "nested_dissection": nested_dissection_ordering,
}


def apply_ordering(matrix: sp.spmatrix, perm: Sequence[int]) -> sp.csc_matrix:
    """Symmetric permutation ``A[perm][:, perm]`` as CSC."""
    perm = np.asarray(perm, dtype=np.int64)
    csc = sp.csc_matrix(matrix)
    return sp.csc_matrix(csc[perm][:, perm])


def permutation_matrix(perm: Sequence[int]) -> sp.csr_matrix:
    """Sparse permutation matrix ``P`` with ``P A Pᵀ = A[perm][:, perm]``."""
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    return sp.csr_matrix(
        (np.ones(n), (np.arange(n), perm)), shape=(n, n)
    )
