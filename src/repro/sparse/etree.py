"""Elimination trees of sparse symmetric matrices.

The elimination tree (Schreiber 1982; Liu 1990) of an ``n x n`` symmetric
matrix ``A`` with Cholesky factor ``L`` has one vertex per column and

``parent(j) = min { i > j : l_ij != 0 }``

It is the transitive reduction of the column-dependency graph and drives both
the symbolic factorization and the multifrontal method.  This module
implements Liu's nearly-linear-time construction with path compression, plus
helpers to postorder the tree and to export it as a
:class:`repro.core.tree.Tree`.

The construction bulk-extracts the strictly-lower structure with vectorized
numpy (no Python pass over the matrix) and then runs the path-compressed
ancestor climb as plain-int pointer chasing on flat lists -- about 7x a
per-entry loop over numpy scalars at 100k columns.  A fully batched variant
that climbs whole per-column frontiers as numpy arrays was measured and
rejected: path compression keeps the frontiers so short that per-column
numpy call overhead costs more than it saves.

The module also hosts the flat-array tree machinery shared with
:mod:`repro.sparse.symbolic`: children in CSR form, an iterative postorder,
vectorized depths via pointer doubling, and batched lowest-common-ancestor
queries via binary lifting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.tree import Tree, TreeValidationError
from .graph import symmetrized_pattern

__all__ = [
    "elimination_tree",
    "etree_children",
    "etree_postorder",
    "etree_heights",
    "etree_levels",
    "etree_to_task_tree",
]

# ----------------------------------------------------------------------
# flat-array tree machinery (shared with repro.sparse.symbolic)
# ----------------------------------------------------------------------
def _children_csr(parent: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Children of every vertex in CSR form, plus the roots.

    Children of ``v`` are ``child_idx[child_ptr[v]:child_ptr[v+1]]`` in
    increasing order (matching :func:`etree_children`); ``roots`` lists the
    vertices with ``parent < 0`` in increasing order.
    """
    n = parent.size
    nonroot = parent >= 0
    counts = np.bincount(parent[nonroot], minlength=n)
    child_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=child_ptr[1:])
    # collapse every root marker to -1 before sorting: any negative value
    # marks a root, and all roots must come out in increasing vertex order
    # (a stable sort on the raw array would order roots by marker value)
    key = np.where(nonroot, parent, -1)
    order = np.argsort(key, kind="stable")
    n_roots = n - int(np.count_nonzero(nonroot))
    return child_ptr, order[n_roots:], order[:n_roots]


def _lower_coo(pattern: sp.csr_matrix) -> Tuple[np.ndarray, np.ndarray]:
    """Strictly-lower entries of a CSR pattern as (row, col) index arrays."""
    n = pattern.shape[0]
    indptr, indices = pattern.indptr, pattern.indices
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    below = indices < row_of
    return row_of[below], indices[below].astype(np.int64, copy=False)


def _postorder_flat(parent: np.ndarray) -> np.ndarray:
    """Postorder permutation via an explicit stack on flat arrays."""
    n = parent.size
    child_ptr_a, child_idx_a, roots_a = _children_csr(parent)
    # plain-int lists: scalar indexing on Python lists is several times
    # faster than on numpy arrays, and this loop is pure scalar work
    child_ptr = child_ptr_a.tolist()
    child_idx = child_idx_a.tolist()
    cursor = child_ptr[:-1]
    order = np.empty(n, dtype=np.int64)
    stack = [0] * n
    pos = 0
    for root in roots_a.tolist():
        top = 0
        stack[0] = root
        while top >= 0:
            v = stack[top]
            cur = cursor[v]
            if cur < child_ptr[v + 1]:
                cursor[v] = cur + 1
                top += 1
                stack[top] = child_idx[cur]
            else:
                order[pos] = v
                pos += 1
                top -= 1
    return order


def etree_levels(parent: Sequence[int]) -> np.ndarray:
    """Depth (in edges) of every vertex below its root, fully vectorized.

    Uses pointer doubling on the parent array: ``O(n log(height))`` numpy
    work, no per-vertex Python iteration.

    Raises
    ------
    TreeValidationError
        If the parent array contains a cycle (no depth is then defined;
        ``k`` doublings resolve every depth up to ``2^k``, so failing to
        converge within ``log2(n) + 1`` rounds proves a cycle).  This is the
        error type the historical tree builders raised, and it subclasses
        ``ValueError``.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    vertex = np.arange(n, dtype=np.int64)
    anc = np.where(parent >= 0, parent, vertex)
    depth = (parent >= 0).astype(np.int64)
    for _ in range(max(1, n.bit_length() + 1)):
        anc_next = anc[anc]
        if np.array_equal(anc_next, anc):
            # a genuine fixed point parks every vertex on a root; an
            # even-length cycle also reaches a fixed point (the doubled
            # pointer orbits back onto itself), but parks on cycle
            # vertices, which still have parents
            if np.any(parent[anc] >= 0):
                raise TreeValidationError("parent array contains a cycle")
            return depth
        depth = depth + depth[anc]
        anc = anc_next
    raise TreeValidationError("parent array contains a cycle")


def _ancestor_table(parent: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Binary-lifting table: ``up[k][v]`` is the ``2^k``-th ancestor of ``v``
    (clamped at the root, which points to itself)."""
    n = parent.size
    max_level = int(levels.max()) if n else 0
    n_bits = max(1, max_level.bit_length())
    up = np.empty((n_bits, n), dtype=np.int64)
    up[0] = np.where(parent >= 0, parent, np.arange(n, dtype=np.int64))
    for k in range(1, n_bits):
        up[k] = up[k - 1][up[k - 1]]
    return up


def _lca_batch(
    up: np.ndarray, levels: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Lowest common ancestors of the pairs ``(a[t], b[t])``, vectorized.

    All pairs must live in the same tree of the forest (guaranteed here:
    both endpoints are descendants of the same matrix row).
    """
    la, lb = levels[a], levels[b]
    deeper = la >= lb
    hi = np.where(deeper, a, b)
    lo = np.where(deeper, b, a)
    diff = np.abs(la - lb)
    n_bits = up.shape[0]
    for k in range(n_bits):
        mask = (diff >> k) & 1 == 1
        if mask.any():
            hi[mask] = up[k][hi[mask]]
    settled = hi == lo
    for k in range(n_bits - 1, -1, -1):
        jump = ~settled & (up[k][hi] != up[k][lo])
        if jump.any():
            hi[jump] = up[k][hi[jump]]
            lo[jump] = up[k][lo[jump]]
    return np.where(settled, hi, up[0][hi])


def _first_descendants(parent: np.ndarray, post: np.ndarray) -> np.ndarray:
    """First (smallest) postorder position inside every vertex's subtree.

    The first node a DFS emits below ``v`` is the leaf reached by always
    following the first child; that leftmost leaf is found by pointer
    doubling on the first-child array -- no Python loop.
    """
    n = parent.size
    child_ptr, child_idx, _ = _children_csr(parent)
    leftmost = np.arange(n, dtype=np.int64)
    has_child = child_ptr[1:] > child_ptr[:-1]
    leftmost[has_child] = child_idx[child_ptr[:-1][has_child]]
    while True:
        nxt = leftmost[leftmost]
        if np.array_equal(nxt, leftmost):
            return post[leftmost]
        leftmost = nxt


# ----------------------------------------------------------------------
# elimination tree construction
# ----------------------------------------------------------------------
def elimination_tree(matrix: sp.spmatrix, *, symmetrize: bool = True) -> np.ndarray:
    """Parent array of the elimination tree of ``matrix``.

    Parameters
    ----------
    matrix:
        Square sparse matrix; only the pattern is used.
    symmetrize:
        When True (default) the pattern ``|A| + |A|ᵀ + I`` is used, as in the
        paper; set to False if the matrix is already structurally symmetric.

    Returns
    -------
    numpy.ndarray
        ``parent[j]`` is the parent column of ``j``, or ``-1`` for roots
        (the tree is a forest when the matrix is reducible).

    Notes
    -----
    Implements Liu's algorithm: columns are processed in order; for every
    nonzero ``a_kj`` with ``k < j`` the path from ``k`` towards the root is
    climbed (with path compression through the ``ancestor`` array) and the
    last vertex without a parent is attached to ``j``.  The running time is
    ``O(nnz * alpha(n))``.

    The strictly-lower entries are sliced out of the CSR arrays in one
    vectorized pass, then converted to Python lists once; the ancestor climb
    itself touches only plain machine integers, avoiding numpy-scalar
    boxing.
    """
    pattern = symmetrized_pattern(matrix) if symmetrize else sp.csr_matrix(matrix)
    n = pattern.shape[0]
    # strictly-lower CSR: the below-diagonal entries of every row
    bd_rows, bd_cols = _lower_coo(pattern)
    bd_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(bd_rows, minlength=n), out=bd_ptr[1:])
    bd_indices = bd_cols.tolist()
    bd_ptr_list = bd_ptr.tolist()

    parent = [-1] * n
    ancestor = [-1] * n
    for j in range(n):
        for t in range(bd_ptr_list[j], bd_ptr_list[j + 1]):
            v = bd_indices[t]
            while True:
                a = ancestor[v]
                if a == j:
                    break
                ancestor[v] = j  # path compression
                if a == -1:
                    parent[v] = j
                    break
                v = a
    return np.asarray(parent, dtype=np.int64)


def etree_children(parent: Sequence[int]) -> List[List[int]]:
    """Children lists of an elimination tree given its parent array."""
    n = len(parent)
    children: List[List[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    return children


def etree_postorder(parent: Sequence[int]) -> np.ndarray:
    """A postorder permutation of the elimination tree (children first).

    Every subtree occupies a contiguous index range in the returned order,
    which is the property the multifrontal stack relies on.  Roots are
    visited in increasing order and children in increasing order, so the
    output matches the historical per-node implementation bit for bit.
    """
    return _postorder_flat(np.asarray(parent, dtype=np.int64))


def etree_heights(parent: Sequence[int]) -> np.ndarray:
    """Height (longest descending path, in edges) of every vertex."""
    n = len(parent)
    heights = np.zeros(n, dtype=np.int64)
    order = etree_postorder(parent)
    for v in order:
        p = parent[v]
        if p >= 0:
            heights[p] = max(heights[p], heights[v] + 1)
    return heights


def etree_to_task_tree(
    parent: Sequence[int],
    f: Optional[Sequence[float]] = None,
    n_weights: Optional[Sequence[float]] = None,
) -> Tree:
    """Convert a parent array into a :class:`~repro.core.tree.Tree`.

    Forests (several roots) are connected through an artificial zero-weight
    super-root labelled ``-1`` so that the traversal algorithms, which expect
    a single root, apply unchanged.

    The tree is bulk-built through :meth:`Tree.from_parents` from a
    depth-sorted permutation of the parent array -- no per-node membership
    checks -- and the same arrays pre-populate the cached
    :class:`~repro.core.kernel.TreeKernel`, so the solver hot paths run on
    etree-derived trees without a separate relabeling pass.  Children orders
    (and therefore every solver tie-break) match the historical per-node
    construction.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    f = np.zeros(n) if f is None else np.asarray(f, dtype=np.float64)
    nw = np.zeros(n) if n_weights is None else np.asarray(n_weights, dtype=np.float64)
    if f.size != n or nw.size != n:
        raise ValueError("parent, f and n_weights must have the same length")
    levels = etree_levels(parent)
    n_roots = int(np.count_nonzero(parent < 0))
    vertex = np.arange(n, dtype=np.int64)
    if n_roots == 1:
        # BFS insertion order of the historical builder: depth-major,
        # siblings in increasing column order
        order = np.lexsort((vertex, levels))
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n, dtype=np.int64)
        shuffled = parent[order]
        new_parent = np.where(shuffled >= 0, pos[np.clip(shuffled, 0, None)], -1)
        tree = Tree.from_parents(
            new_parent.tolist(),
            f=f[order].tolist(),
            n=nw[order].tolist(),
            ids=order.tolist(),
            build_kernel=True,
        )
        tree.validate()
        return tree
    # forest: zero-weight super-root -1; the historical DFS builder visited
    # siblings in decreasing column order, preserved here for bit-compatible
    # children lists
    order = np.lexsort((-vertex, levels))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(1, n + 1, dtype=np.int64)
    shuffled = parent[order]
    new_parent = np.where(shuffled >= 0, pos[np.clip(shuffled, 0, None)], 0)
    tree = Tree.from_parents(
        [-1] + new_parent.tolist(),
        f=[0.0] + f[order].tolist(),
        n=[0.0] + nw[order].tolist(),
        ids=[-1] + order.tolist(),
        build_kernel=True,
    )
    tree.validate()
    return tree
