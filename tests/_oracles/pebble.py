"""Pebble-game corner cases of the MinMemory / MinIO problems.

Section II-B of the paper relates the tree-traversal problems to classical
pebble games:

* With ``f_i = 1`` and ``n_i = 0`` under the *replacement* rule, MinMemory is
  the register-allocation problem of Sethi & Ullman (1970): the minimum
  number of registers needed to evaluate an expression tree equals the
  Sethi--Ullman label of its root, and an optimal order is a postorder.
* With unit-size files, MinIO becomes the I/O pebble game of Hong & Kung
  (1981).  For a *fixed* traversal with unit files, the optimal eviction rule
  is Belady's furthest-in-future rule, which coincides with the paper's LSNF
  heuristic; MinIO with arbitrary file sizes is NP-hard (Theorem 2).

These special cases are used as analytically-known ground truth in the test
suite.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.core.builders import from_replacement_model, uniform_weights
from repro.core.traversal import TOPDOWN, Traversal, TraversalError, is_topological
from repro.core.tree import Tree

__all__ = [
    "sethi_ullman_labels",
    "sethi_ullman_number",
    "unit_replacement_tree",
    "belady_io_volume",
]

NodeId = Hashable


def sethi_ullman_labels(tree: Tree) -> Dict[NodeId, int]:
    """Sethi--Ullman register labels of every node.

    The classical definition applies to expression trees where every internal
    node has at most two children: a leaf gets label 1; an internal node with
    children labels ``l1 >= l2`` gets ``l1`` if ``l1 > l2`` and ``l1 + 1`` if
    ``l1 == l2``.  For nodes of higher arity we use the standard
    generalisation ``max_k (l_k + k - 1)`` over children sorted by decreasing
    label, which reduces to the binary rule when the arity is at most two.
    """
    labels: Dict[NodeId, int] = {}
    for node in tree.bottom_up_order():
        children = tree.children(node)
        if not children:
            labels[node] = 1
            continue
        child_labels = sorted((labels[c] for c in children), reverse=True)
        labels[node] = max(lab + k for k, lab in enumerate(child_labels))
    return labels


def sethi_ullman_number(tree: Tree) -> int:
    """Sethi--Ullman label of the root: minimum registers for the tree."""
    return sethi_ullman_labels(tree)[tree.root]


def unit_replacement_tree(tree: Tree) -> Tree:
    """Unit-weight replacement-model instance with the shape of ``tree``.

    Every node gets ``f = 1``; the replacement rule
    (``MemReq = max(f_i, sum_j f_j)``) is encoded through the negative-``n``
    reduction of Figure 1.  The MinMemory value of the returned tree equals
    the classical pebble number of the tree shape, e.g. the Sethi--Ullman
    number for binary trees.
    """
    return from_replacement_model(uniform_weights(tree, f=1.0, n=0.0))


def belady_io_volume(tree: Tree, memory: float, traversal: Traversal) -> float:
    """I/O volume of Belady's eviction rule for unit-size files.

    The traversal is fixed; whenever memory overflows, the resident file whose
    owner executes furthest in the future is written out.  For unit-size files
    this rule minimises the number of evictions (Belady, 1966), hence the I/O
    volume; it coincides with the LSNF heuristic of Section V-B.

    Parameters
    ----------
    tree:
        Task tree; every ``f`` must equal 1 and every ``n`` equal 0 for the
        optimality claim to hold (the function itself works for any weights).
    memory:
        Main memory size; must be at least ``max_i MemReq(i)``.
    traversal:
        A topological traversal (either convention; bottom-up is reversed).

    Returns
    -------
    float
        Total size written to secondary memory.
    """
    traversal = traversal.as_convention(TOPDOWN)
    if not is_topological(tree, traversal):
        raise TraversalError("traversal violates precedence constraints")
    if memory < tree.max_mem_req():
        raise ValueError("memory is below the largest single-node requirement")

    pos = traversal.position()
    resident: Dict[NodeId, float] = {tree.root: tree.f(tree.root)}
    on_disk: set = set()
    io = 0.0
    for node in traversal.order:
        if node in on_disk:
            on_disk.discard(node)
            resident[node] = tree.f(node)
        need = tree.n(node) + sum(tree.f(c) for c in tree.children(node))
        # evict until the execution fits, furthest-future-use first
        while sum(resident.values()) + need > memory + 1e-12:
            victims = [v for v in resident if v != node]
            if not victims:
                raise ValueError("infeasible: cannot free enough memory")
            victim = max(victims, key=lambda v: pos[v])
            io += resident.pop(victim)
            on_disk.add(victim)
        resident.pop(node, None)
        for child in tree.children(node):
            resident[child] = tree.f(child)
    return io
