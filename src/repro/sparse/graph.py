"""Graph utilities over sparse matrix patterns.

The orderings and elimination-tree routines work on the *symmetrized pattern*
of the input matrix, ``|A| + |A|ᵀ + I`` (the paper, Section VI-B).  This
module provides that symmetrization plus the small amount of graph machinery
the orderings need: adjacency lists, connectivity, BFS level structures and
pseudo-peripheral vertices.

The traversals run on plain-int adjacency lists and are restricted to a
vertex subset by :class:`VertexMarks`, so nested dissection searches its
thousands of subgraphs without building an ``n``-long mask for each search.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "symmetrized_pattern",
    "adjacency_lists",
    "VertexMarks",
    "connected_components",
    "bfs_levels",
    "pseudo_peripheral_vertex",
]


def symmetrized_pattern(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Structural symmetrization ``|A| + |A|ᵀ + I`` (pattern only, values 1).

    The returned CSR matrix has a full diagonal and a symmetric pattern; the
    numerical values are all 1 since only the structure matters for orderings
    and symbolic factorization.
    """
    n = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    # Build the pattern from the *stored* structure (coo.row/coo.col), not
    # from matrix.nonzero(): the latter drops explicitly stored zeros, whose
    # coordinates then disagree with matrix.nnz and crash the constructor.
    # Matrices loaded from Matrix Market files routinely carry such entries.
    coo = sp.coo_matrix(matrix)
    pattern = sp.csr_matrix(
        (np.ones(coo.row.size), (coo.row, coo.col)), shape=matrix.shape
    )
    sym = pattern + pattern.T + sp.identity(n, format="csr")
    sym.data[:] = 1.0
    sym.sum_duplicates()
    return sp.csr_matrix(sym)


def adjacency_lists(pattern: sp.spmatrix) -> List[List[int]]:
    """Adjacency lists (excluding self loops) of a symmetric pattern.

    Each list holds plain ints in CSR order: the traversals index them in
    their inner loops, where a numpy scalar costs several Python ints.
    """
    csr = sp.csr_matrix(pattern)
    n = csr.shape[0]
    indptr, indices = csr.indptr, csr.indices
    keep = indices != np.repeat(np.arange(n), np.diff(indptr))
    ptr = np.concatenate(([0], np.cumsum(keep)))[indptr].tolist()
    flat = indices[keep].tolist()
    return [flat[ptr[v] : ptr[v + 1]] for v in range(n)]


class VertexMarks:
    """The vertex subset a traversal may enter, as stamped per-vertex marks.

    The subset is the vertices whose mark equals :attr:`stamp`.  A traversal
    enters only those and re-marks every vertex it reaches with the next
    stamp, which becomes current: a traversal of a connected subset leaves
    the subset unchanged, so all searches of one subgraph share a single
    :meth:`select`.  Stamps only grow, so a mark left by an earlier subset
    never matches, and neither a selection nor a traversal touches an
    ``n``-long array.
    """

    __slots__ = ("mark", "stamp")

    def __init__(self, n: int) -> None:
        self.mark = [0] * n
        self.stamp = 0

    def select(self, vertices: Iterable[int]) -> None:
        """Make ``vertices`` the current subset."""
        self.stamp += 1
        stamp, mark = self.stamp, self.mark
        for v in vertices:
            mark[v] = stamp


def connected_components(
    adjacency: Sequence[Sequence[int]],
    vertices: Optional[Sequence[int]] = None,
    marks: Optional[VertexMarks] = None,
) -> List[List[int]]:
    """Connected components of the subgraph induced by ``vertices``.

    All vertices by default.  Components come in the order of their first
    vertex in ``vertices``, each in depth-first discovery order (a stack,
    neighbours in adjacency order).  ``marks`` must have ``vertices``
    selected; a fresh selection is made when it is omitted.
    """
    if vertices is None:
        vertices = range(len(adjacency))
    if marks is None:
        marks = VertexMarks(len(adjacency))
        marks.select(vertices)
    mark, inside = marks.mark, marks.stamp
    marks.stamp = seen = inside + 1
    components: List[List[int]] = []
    for start in vertices:
        if mark[start] != inside:
            continue
        mark[start] = seen
        comp = [start]
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if mark[w] == inside:
                    mark[w] = seen
                    comp.append(w)
                    stack.append(w)
        components.append(comp)
    return components


def bfs_levels(
    adjacency: Sequence[Sequence[int]],
    start: int,
    allowed: Optional[np.ndarray] = None,
) -> List[List[int]]:
    """BFS level structure rooted at ``start``.

    ``allowed`` is an optional boolean mask restricting the traversal to a
    vertex subset.  Each level lists its vertices in discovery order: the
    previous level's order, each vertex's neighbours in adjacency order.
    """
    n = len(adjacency)
    marks = VertexMarks(n)
    marks.select(range(n) if allowed is None else np.flatnonzero(allowed).tolist())
    return _levels(adjacency, start, marks)


def _levels(
    adjacency: Sequence[Sequence[int]], start: int, marks: VertexMarks
) -> List[List[int]]:
    """BFS levels from ``start`` over the current subset of ``marks``."""
    mark, inside = marks.mark, marks.stamp
    marks.stamp = seen = inside + 1
    mark[start] = seen
    frontier = [start]
    levels = [frontier]
    while True:
        nxt: List[int] = []
        for v in frontier:
            for w in adjacency[v]:
                if mark[w] == inside:
                    mark[w] = seen
                    nxt.append(w)
        if not nxt:
            return levels
        levels.append(nxt)
        frontier = nxt


def pseudo_peripheral_vertex(
    adjacency: Sequence[Sequence[int]],
    vertices: Sequence[int],
    marks: Optional[VertexMarks] = None,
) -> Tuple[int, List[List[int]]]:
    """A pseudo-peripheral vertex of the (sub)graph and its level structure.

    Implements the George--Liu heuristic: start from ``vertices[0]`` and
    move to the first vertex of least degree (in the whole graph) of the
    last BFS level until the eccentricity stops growing.  On a disconnected
    subset the search stays in the component of ``vertices[0]``, whose
    vertices are then the subset of ``marks``.  The nested-dissection
    separator runs the same search in two steps, the first BFS and then
    :func:`_pseudo_peripheral`, so that the first BFS also tests the
    subset's connectivity.  ``marks`` must have ``vertices`` selected; a
    fresh selection is made when it is omitted.
    """
    if len(vertices) == 0:
        raise ValueError("empty vertex set")
    if marks is None:
        marks = VertexMarks(len(adjacency))
        marks.select(vertices)
    start = vertices[0]
    return _pseudo_peripheral(adjacency, start, _levels(adjacency, start, marks), marks)


def _pseudo_peripheral(
    adjacency: Sequence[Sequence[int]],
    current: int,
    levels: List[List[int]],
    marks: VertexMarks,
) -> Tuple[int, List[List[int]]]:
    """The George--Liu search continued from ``current`` and its ``levels``."""
    while True:
        candidate = min(levels[-1], key=lambda v: len(adjacency[v]))
        new_levels = _levels(adjacency, candidate, marks)
        if len(new_levels) <= len(levels):
            return current, levels
        current, levels = candidate, new_levels
