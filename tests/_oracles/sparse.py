"""Per-entry reference implementations of the sparse layer.

The original loops behind :mod:`repro.sparse`: a line-by-line Matrix Market
parser, Liu's elimination-tree construction one nonzero at a time,
row-subtree climbs for the column counts, Python-set merges for the column
patterns, a union-find for the perfect-amalgamation chains, a dict of
member lists for the relaxed amalgamation, a per-node ``add_node`` build of
the assembly tree, and the fill-reducing orderings over numpy-scalar
adjacency (minimum degree re-pushing stale heap entries, nested dissection
ordering every leaf and separator through a scipy subgraph).  The library
runs SciPy's compiled reader and the vectorized and plain-int versions; the
tests require identical results.  The two reference orderings share
nothing with the code under test but
:func:`~repro.sparse.graph.symmetrized_pattern`.
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.tree import Tree
from repro.sparse.amalgamation import AmalgamatedTree, Supernode
from repro.sparse.assembly import AssemblyTreeResult
from repro.sparse.etree import etree_children, etree_postorder
from repro.sparse.graph import symmetrized_pattern
from repro.sparse.ordering import apply_ordering, natural_ordering, rcm_ordering
from repro.sparse.symbolic import SymbolicStats
from repro.sparse.symbolic import symbolic_stats as _stats_from_counts

__all__ = [
    "read_matrix_market",
    "adjacency_lists",
    "bfs_levels",
    "pseudo_peripheral_vertex",
    "minimum_degree_ordering",
    "nested_dissection_ordering",
    "ORDERINGS",
    "elimination_tree",
    "column_counts",
    "column_patterns",
    "symbolic_stats",
    "amalgamate",
    "assembly_tree_from_etree",
    "build_assembly_tree",
]


def read_matrix_market(path: Union[str, Path]) -> sp.csc_matrix:
    """Line-by-line Matrix Market coordinate parser.

    Lower-cases the header, skips blank and ``%`` lines anywhere, and
    mirrors (skew-)symmetric files by a sparse addition, which drops the
    stored zeros of such files.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = handle.readline().strip().lower().split()
        if len(header) < 5 or header[0] != "%%matrixmarket" or header[1] != "matrix":
            raise ValueError(f"{path}: not a Matrix Market matrix file")
        fmt, field, symmetry = header[2], header[3], header[4]
        if fmt != "coordinate":
            raise ValueError(f"{path}: only coordinate format is supported")
        if field not in ("real", "integer", "pattern"):
            raise ValueError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")

        line = handle.readline()
        while line.startswith("%") or not line.strip():
            if not line:  # end of file
                raise ValueError(f"{path}: no size line")
            line = handle.readline()
        n_rows, n_cols, nnz = (int(tok) for tok in line.split())

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        count = 0
        for line in handle:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            if count >= nnz:
                raise ValueError(
                    f"{path}: more entries than the declared {nnz}"
                )
            parts = line.split()
            rows[count] = int(parts[0]) - 1
            cols[count] = int(parts[1]) - 1
            vals[count] = 1.0 if field == "pattern" else float(parts[2])
            count += 1
        if count != nnz:
            raise ValueError(f"{path}: expected {nnz} entries, found {count}")

    if symmetry == "skew-symmetric":
        bad = (rows == cols) & (vals != 0.0)
        if np.any(bad):
            raise ValueError(
                f"{path}: skew-symmetric file stores {int(bad.sum())} nonzero "
                f"diagonal entries (a_ii = -a_ii forces a zero diagonal)"
            )
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    if symmetry in ("symmetric", "skew-symmetric"):
        off_diag = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        mirror = sp.coo_matrix(
            (sign * vals[off_diag], (cols[off_diag], rows[off_diag])),
            shape=(n_rows, n_cols),
        )
        matrix = matrix + mirror
    return sp.csc_matrix(matrix)


def adjacency_lists(pattern: sp.spmatrix) -> List[np.ndarray]:
    """Adjacency lists (excluding self loops) of a symmetric pattern."""
    csr = sp.csr_matrix(pattern)
    n = csr.shape[0]
    out: List[np.ndarray] = []
    indptr, indices = csr.indptr, csr.indices
    for v in range(n):
        nbrs = indices[indptr[v] : indptr[v + 1]]
        out.append(nbrs[nbrs != v].copy())
    return out


def bfs_levels(
    adjacency: Sequence[np.ndarray], start: int, allowed: Optional[np.ndarray] = None
) -> List[List[int]]:
    """BFS level structure rooted at ``start``.

    ``allowed`` is an optional boolean mask restricting the traversal to a
    vertex subset (used by nested dissection on sub-graphs).
    """
    n = len(adjacency)
    if allowed is None:
        allowed = np.ones(n, dtype=bool)
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    levels: List[List[int]] = [[start]]
    frontier = [start]
    while frontier:
        nxt: List[int] = []
        for v in frontier:
            for w in adjacency[v]:
                if allowed[w] and not seen[w]:
                    seen[w] = True
                    nxt.append(int(w))
        if nxt:
            levels.append(nxt)
        frontier = nxt
    return levels


def pseudo_peripheral_vertex(
    adjacency: Sequence[np.ndarray],
    vertices: Sequence[int],
    allowed: Optional[np.ndarray] = None,
) -> Tuple[int, List[List[int]]]:
    """A pseudo-peripheral vertex of the (sub)graph and its level structure.

    Implements the George--Liu heuristic: start from an arbitrary vertex,
    repeatedly move to a vertex of the last BFS level until the eccentricity
    stops growing.  Used both by RCM and by the nested-dissection separator.
    """
    vertices = list(vertices)
    if not vertices:
        raise ValueError("empty vertex set")
    if allowed is None:
        allowed = np.zeros(len(adjacency), dtype=bool)
        allowed[np.asarray(vertices, dtype=int)] = True
    current = vertices[0]
    levels = bfs_levels(adjacency, current, allowed)
    while True:
        last_level = levels[-1]
        candidate = min(last_level, key=lambda v: len(adjacency[v]))
        new_levels = bfs_levels(adjacency, candidate, allowed)
        if len(new_levels) > len(levels):
            current, levels = candidate, new_levels
        else:
            return current, levels


def minimum_degree_ordering(matrix: sp.spmatrix) -> np.ndarray:
    """Greedy minimum-degree ordering with an explicit elimination graph.

    At every step the vertex of smallest current degree is eliminated and its
    neighbourhood is turned into a clique.  A lazy priority queue keeps the
    complexity acceptable for the matrix sizes used in the experiments
    (up to a few thousand rows); this is an exact-degree variant of AMD.
    """
    pattern = symmetrized_pattern(matrix)
    n = pattern.shape[0]
    neighbours: List[set] = [set(map(int, row)) for row in adjacency_lists(pattern)]
    eliminated = np.zeros(n, dtype=bool)
    heap = [(len(neighbours[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order: List[int] = []

    while heap:
        degree, v = heapq.heappop(heap)
        if eliminated[v]:
            continue
        if degree != len(neighbours[v]):
            heapq.heappush(heap, (len(neighbours[v]), v))
            continue
        eliminated[v] = True
        order.append(v)
        nbrs = [w for w in neighbours[v] if not eliminated[w]]
        # connect the neighbourhood into a clique
        for i, w in enumerate(nbrs):
            neighbours[w].discard(v)
            for u in nbrs[i + 1 :]:
                if u not in neighbours[w]:
                    neighbours[w].add(u)
                    neighbours[u].add(w)
        for w in nbrs:
            heapq.heappush(heap, (len(neighbours[w]), w))
        neighbours[v] = set()
    return np.asarray(order, dtype=np.int64)


def nested_dissection_ordering(
    matrix: sp.spmatrix, *, leaf_size: int = 32
) -> np.ndarray:
    """Recursive nested dissection with BFS level-structure separators.

    Subgraphs of at most ``leaf_size`` vertices are ordered with minimum
    degree.  The separator of a larger subgraph is the median BFS level of a
    level structure rooted at a pseudo-peripheral vertex: the two halves are
    ordered recursively, then the separator vertices are numbered last, which
    yields the characteristic bushy assembly trees of graph-partitioning
    orderings.
    """
    pattern = symmetrized_pattern(matrix)
    n = pattern.shape[0]
    adjacency = adjacency_lists(pattern)
    order: List[int] = []

    def order_small(vertices: List[int]) -> List[int]:
        if len(vertices) <= 1:
            return list(vertices)
        sub = _subgraph(pattern, vertices)
        local = minimum_degree_ordering(sub)
        return [vertices[i] for i in local]

    # explicit stack of (vertices, phase); results appended postorder so that
    # separators come after their two halves
    stack: List[List[int]] = [list(range(n))]
    pending: List[List[int]] = []
    while stack:
        vertices = stack.pop()
        if len(vertices) <= leaf_size:
            order.extend(order_small(vertices))
            continue
        allowed = np.zeros(n, dtype=bool)
        allowed[np.asarray(vertices, dtype=int)] = True
        components = _restricted_components(adjacency, vertices, allowed)
        if len(components) > 1:
            stack.extend(components)
            continue
        _, levels = pseudo_peripheral_vertex(adjacency, vertices, allowed)
        if len(levels) < 3:
            order.extend(order_small(vertices))
            continue
        mid = len(levels) // 2
        separator = list(levels[mid])
        half_a = [v for lev in levels[:mid] for v in lev]
        half_b = [v for lev in levels[mid + 1 :] for v in lev]
        if not half_a or not half_b:
            order.extend(order_small(vertices))
            continue
        pending.append(separator)
        stack.append(half_a)
        stack.append(half_b)
    for separator in reversed(pending):
        order.extend(order_small(separator))
    return np.asarray(order, dtype=np.int64)


def _subgraph(pattern: sp.csr_matrix, vertices: List[int]) -> sp.csr_matrix:
    idx = np.asarray(vertices, dtype=np.int64)
    return sp.csr_matrix(pattern[idx][:, idx])


def _restricted_components(
    adjacency: Sequence[np.ndarray], vertices: List[int], allowed: np.ndarray
) -> List[List[int]]:
    """Connected components of the subgraph induced by ``vertices``."""
    seen: Dict[int, bool] = {v: False for v in vertices}
    components: List[List[int]] = []
    for start in vertices:
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                w = int(w)
                if allowed[w] and not seen.get(w, True):
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        components.append(comp)
    return components


ORDERINGS = {
    "natural": natural_ordering,
    "rcm": rcm_ordering,
    "minimum_degree": minimum_degree_ordering,
    "nested_dissection": nested_dissection_ordering,
}


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
    """Supernodes from union-find perfect chains and a dict-of-lists relaxed
    sweep."""
    parent = np.asarray(parent, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size != parent.size:
        raise ValueError("parent and counts must have the same length")
    leader = _reference_perfect_leaders(parent, counts, perfect)
    return _reference_supernodes(parent, counts, leader, relaxed)


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


def _reference_supernodes(
    parent: np.ndarray, counts: np.ndarray, leader: np.ndarray, relaxed: int
) -> AmalgamatedTree:
    """Quotient tree over dicts of member lists, relaxed top-down from the
    roots, one densest-child absorption at a time."""
    n = parent.size
    groups: Dict[int, List[int]] = {}
    for v, rep in enumerate(leader.tolist()):
        groups.setdefault(rep, []).append(v)

    def quotient_parent(rep: int) -> int:
        top = max(groups[rep])  # topmost member: largest column index
        p = int(parent[top])
        return -1 if p < 0 else int(leader[p])

    if relaxed > 0:
        qparent: Dict[int, int] = {rep: quotient_parent(rep) for rep in groups}
        qchildren: Dict[int, List[int]] = {rep: [] for rep in groups}
        for rep, qp in qparent.items():
            if qp >= 0:
                qchildren[qp].append(rep)
        roots = [rep for rep, qp in qparent.items() if qp < 0]
        stack = list(roots)
        budget = {rep: relaxed for rep in groups}
        while stack:
            rep = stack.pop()
            while budget[rep] > 0 and qchildren[rep]:
                densest = max(
                    qchildren[rep], key=lambda c: (int(counts[max(groups[c])]), c)
                )
                qchildren[rep].remove(densest)
                groups[rep].extend(groups[densest])
                for grandchild in qchildren.pop(densest):
                    qparent[grandchild] = rep
                    qchildren[rep].append(grandchild)
                del groups[densest]
                del qparent[densest]
                budget[rep] -= 1
            stack.extend(qchildren[rep])
        final_parent_of = qparent
    else:
        final_parent_of = {rep: quotient_parent(rep) for rep in groups}

    reps = sorted(groups)
    index_of = {rep: i for i, rep in enumerate(reps)}
    supernodes: List[Supernode] = []
    column_to_supernode = np.empty(n, dtype=np.int64)
    for rep in reps:
        members = tuple(sorted(groups[rep]))
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


def assembly_tree_from_etree(amalgamated: AmalgamatedTree) -> Tree:
    """The weighted assembly tree, one ``add_node`` per supernode in
    depth-first order (largest child first), then ``validate()``."""
    parent = amalgamated.parent
    roots = [s for s in range(amalgamated.size) if parent[s] < 0]
    tree = Tree()
    single_root = len(roots) == 1

    def weights(index: int, is_root: bool):
        sn = amalgamated.supernodes[index]
        f = 0.0 if is_root else sn.edge_weight
        return f, sn.node_weight

    children = amalgamated.children()
    if single_root:
        root = roots[0]
        f, nw = weights(root, True)
        tree.add_node(root, f=f, n=nw)
        stack = [(c, root) for c in children[root]]
    else:
        tree.add_node(-1, f=0.0, n=0.0)
        stack = [(r, -1) for r in roots]
    while stack:
        node, par = stack.pop()
        is_forest_root = par == -1 and not single_root
        f, nw = weights(node, is_forest_root)
        tree.add_node(node, parent=par, f=f, n=nw)
        stack.extend((c, node) for c in children[node])
    tree.validate()
    return tree


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
