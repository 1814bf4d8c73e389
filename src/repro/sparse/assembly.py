"""End-to-end construction of weighted assembly trees from sparse matrices.

This is the pipeline of Section VI-B of the paper:

1. symmetrize the pattern (``|A| + |A|ᵀ + I``);
2. apply a fill-reducing ordering (nested dissection, minimum degree, RCM or
   natural);
3. build the elimination tree and the column counts of ``L``;
4. amalgamate (perfect + relaxed) into an assembly tree;
5. weight every supernode with ``n = eta^2 + 2 eta (mu - 1)`` and every edge
   with ``f = (mu - 1)^2``.

The result is a :class:`repro.core.tree.Tree` ready to be fed to the
MinMemory / MinIO algorithms, together with all the intermediate artefacts
for inspection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from ..core.tree import Tree
from .amalgamation import AmalgamatedTree, amalgamate
from .etree import elimination_tree
from .graph import symmetrized_pattern
from .ordering import ORDERINGS, apply_ordering
from .symbolic import column_counts, symbolic_stats, SymbolicStats

__all__ = ["AssemblyTreeResult", "build_assembly_tree", "assembly_tree_from_etree"]


@dataclass(frozen=True)
class AssemblyTreeResult:
    """All artefacts of the matrix -> assembly-tree pipeline.

    Attributes
    ----------
    tree:
        The weighted assembly tree (node ids are supernode indices; the root
        of a forest is an artificial node ``-1`` with zero weights).
    permutation:
        Fill-reducing permutation applied to the matrix.
    etree_parent:
        Elimination-tree parent array of the permuted matrix.
    counts:
        Column counts of ``L`` for the permuted matrix.
    amalgamated:
        Supernode structure (members, ``eta``, ``mu``, quotient tree).
    symbolic:
        Aggregate symbolic-factorization statistics.
    ordering:
        Name of the ordering used.
    relaxed:
        Relaxed-amalgamation budget used.
    """

    tree: Tree
    permutation: np.ndarray
    etree_parent: np.ndarray
    counts: np.ndarray
    amalgamated: AmalgamatedTree
    symbolic: SymbolicStats
    ordering: str
    relaxed: int


def build_assembly_tree(
    matrix: sp.spmatrix,
    *,
    ordering: Union[str, Sequence[int]] = "nested_dissection",
    relaxed: int = 1,
    perfect: bool = True,
    stage_seconds: Optional[Dict[str, float]] = None,
) -> AssemblyTreeResult:
    """Build a weighted assembly tree from a sparse symmetric matrix.

    Parameters
    ----------
    matrix:
        Square sparse matrix (its pattern is symmetrized internally).
    ordering:
        Name of a fill-reducing ordering (``"natural"``, ``"rcm"``,
        ``"minimum_degree"``, ``"nested_dissection"``) or an explicit
        permutation array.
    relaxed:
        Relaxed-amalgamation budget per supernode (the paper uses 1, 2, 4
        and 16).
    perfect:
        Whether perfect amalgamation is applied first (default True).
    stage_seconds:
        Optional dict the pipeline fills with per-stage wall times (keys
        ``symmetrize``, ``ordering``, ``permute``, ``etree``, ``counts``,
        ``amalgamate``, ``tree``), so callers like the CLI ``pipeline``
        subcommand report timings without re-implementing the stage
        sequence.
    """
    if stage_seconds is None:
        def staged(name, fn):
            return fn()
    else:
        def staged(name, fn):
            start = time.perf_counter()
            result = fn()
            stage_seconds[name] = time.perf_counter() - start
            return result

    pattern = staged("symmetrize", lambda: symmetrized_pattern(matrix))
    if isinstance(ordering, str):
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected one of {sorted(ORDERINGS)}"
            )
        perm = staged("ordering", lambda: ORDERINGS[ordering](pattern))
        ordering_name = ordering
    else:
        perm = np.asarray(ordering, dtype=np.int64)
        ordering_name = "custom"
    permuted = staged("permute", lambda: apply_ordering(pattern, perm))

    # `permuted` is the symmetrized pattern under a symmetric permutation, so
    # every downstream stage can skip its own re-symmetrization pass
    parent = staged(
        "etree", lambda: elimination_tree(permuted, symmetrize=False)
    )
    counts = staged(
        "counts", lambda: column_counts(permuted, parent, symmetrize=False)
    )
    stats = symbolic_stats(permuted, parent, counts=counts, symmetrize=False)
    amalgamated = staged(
        "amalgamate",
        lambda: amalgamate(parent, counts, relaxed=relaxed, perfect=perfect),
    )
    tree = staged("tree", lambda: assembly_tree_from_etree(amalgamated))
    return AssemblyTreeResult(
        tree=tree,
        permutation=perm,
        etree_parent=parent,
        counts=counts,
        amalgamated=amalgamated,
        symbolic=stats,
        ordering=ordering_name,
        relaxed=relaxed,
    )


def assembly_tree_from_etree(amalgamated: AmalgamatedTree) -> Tree:
    """Convert an :class:`AmalgamatedTree` into a weighted task tree.

    Node ``s`` receives ``n = eta^2 + 2 eta (mu - 1)`` and
    ``f = (mu - 1)^2``; roots of the forest are attached to an artificial
    zero-weight super-root ``-1`` and keep ``f = 0`` (the factor columns of a
    root are written directly to secondary storage, outside the I/O model).
    """
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
