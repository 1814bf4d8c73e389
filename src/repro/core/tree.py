"""Task-tree model of the paper.

A :class:`Tree` is a rooted tree whose nodes are tasks.  Following the paper
(Section III-A), each node ``i`` carries two weights:

* ``f(i)`` -- the size of the *communication file* exchanged with its parent.
  In the top-down (out-tree) reading this is the input file received from the
  parent; in the bottom-up (in-tree) reading -- the natural one for assembly
  trees of the multifrontal method -- it is the output file (contribution
  block) sent to the parent.
* ``n(i)`` -- the size of the *execution file* (the frontal matrix / program
  data) which only lives in memory while the task executes.

The memory requirement of node ``i`` is

``MemReq(i) = f(i) + n(i) + sum(f(j) for j in children(i))``

which is the amount of main memory that must be simultaneously available while
``i`` executes (Equation (1) of the paper).

Node identifiers are arbitrary hashable objects (integers in practice).  The
structure is mutable while being built and is expected to be treated as frozen
once handed to the traversal algorithms.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Tree", "TreeValidationError"]

NodeId = Hashable


def _as_float_list(values, p: int) -> list:
    """Per-node weights as a plain list of floats (bulk-converting numpy)."""
    if values is None:
        return [0.0] * p
    if hasattr(values, "astype"):  # numpy fast path: one vectorized cast
        return values.astype(float, copy=False).tolist()
    return [float(x) for x in values]


class TreeValidationError(ValueError):
    """Raised when a :class:`Tree` violates a structural invariant."""


class Tree:
    """A rooted task tree with file sizes ``f`` and execution sizes ``n``.

    Parameters
    ----------
    root_file:
        Size of the communication file of the root.  For assembly trees the
        root has no parent; the multifrontal method writes its factor columns
        straight to secondary storage, so the natural value is ``0``.

    Examples
    --------
    >>> t = Tree()
    >>> t.add_node(0, f=1.0, n=0.0)          # root (returns the id, chainable)
    0
    >>> t.add_node(1, parent=0, f=2.0, n=1.0)
    1
    >>> t.add_node(2, parent=0, f=3.0, n=0.5)
    2
    >>> t.mem_req(0)
    6.0
    """

    __slots__ = (
        "_parent",
        "_children",
        "_f",
        "_n",
        "_root",
        "_kernel",
    )

    def __init__(self) -> None:
        self._parent: Dict[NodeId, Optional[NodeId]] = {}
        self._children: Dict[NodeId, List[NodeId]] = {}
        self._f: Dict[NodeId, float] = {}
        self._n: Dict[NodeId, float] = {}
        self._root: Optional[NodeId] = None
        self._kernel = None  # cached TreeKernel; invalidated on mutation

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node: NodeId,
        *,
        parent: Optional[NodeId] = None,
        f: float = 0.0,
        n: float = 0.0,
    ) -> NodeId:
        """Add a node to the tree.

        The first node added without a parent becomes the root.  A parent, if
        given, must already be part of the tree.

        Parameters
        ----------
        node:
            Identifier of the new node.
        parent:
            Identifier of the parent node, or ``None`` for the root.
        f:
            Size of the communication file exchanged with the parent.
        n:
            Size of the execution file.

        Returns
        -------
        The identifier of the node just added (for chaining convenience).
        """
        if node in self._parent:
            raise TreeValidationError(f"node {node!r} already present")
        if parent is None:
            if self._root is not None:
                raise TreeValidationError(
                    f"tree already has a root ({self._root!r}); "
                    f"node {node!r} must specify a parent"
                )
            self._root = node
        else:
            if parent not in self._parent:
                raise TreeValidationError(f"parent {parent!r} not in tree")
            self._children[parent].append(node)
        self._parent[node] = parent
        self._children[node] = []
        self._f[node] = float(f)
        self._n[node] = float(n)
        self._kernel = None
        return node

    @classmethod
    def from_parents(
        cls,
        parents: Sequence[int],
        f: Optional[Sequence[float]] = None,
        n: Optional[Sequence[float]] = None,
        *,
        ids: Optional[Sequence[NodeId]] = None,
        build_kernel: bool = False,
    ) -> "Tree":
        """Bulk-build a tree from a topologically-ordered parent array.

        This is the fast path the generators and the kernel use: one pass of
        direct dictionary fills instead of a per-node :meth:`add_node` call
        with its membership checks.

        Parameters
        ----------
        parents : sequence of int
            ``parents[i]`` is the index of the parent of node ``i`` and must
            be smaller than ``i``; entry ``0`` must be ``-1`` (or ``None``),
            marking the root.  For unordered parent arrays use
            :func:`repro.core.builders.from_parent_list`, which topologically
            sorts and fully validates its input.
        f, n : sequence of float, optional
            Per-node weights (default ``0.0``).
        ids : sequence, optional
            Node identifiers (default ``0 .. p-1``); must be unique.
        build_kernel : bool, optional
            When True, also build the :class:`~repro.core.kernel.TreeKernel`
            straight from the same arrays and cache it on the tree.  The
            input is already a topological labeling -- exactly what the
            kernel constructor wants -- so this skips the BFS relabeling pass
            a later :meth:`kernel` call would pay.  Children orders are
            identical either way.

        Returns
        -------
        Tree
            A tree whose node-insertion order is ``ids`` (top-down).

        Examples
        --------
        >>> t = Tree.from_parents([-1, 0, 0, 1], f=[0.0, 2.0, 3.0, 1.0])
        >>> t.root, t.children(0)
        (0, (1, 2))
        """
        p = len(parents)
        if p == 0:
            raise TreeValidationError("parents must not be empty")
        if hasattr(parents, "tolist"):  # numpy fast path: one bulk conversion
            parents = parents.tolist()
        fvals = _as_float_list(f, p)
        nvals = _as_float_list(n, p)
        if len(fvals) != p or len(nvals) != p:
            raise TreeValidationError("parents, f and n must have the same length")
        labels: Sequence[NodeId] = range(p) if ids is None else ids
        if len(labels) != p:
            raise TreeValidationError("ids must have the same length as parents")
        tree = cls()
        parent_map = tree._parent
        children_map = tree._children
        f_map = tree._f
        n_map = tree._n
        for i in range(p):
            node = labels[i]
            par = parents[i]
            if par is None or par == -1:
                if tree._root is not None:
                    raise TreeValidationError("parent array has multiple roots")
                tree._root = node
                parent_map[node] = None
            else:
                par = int(par)
                if not 0 <= par < i:
                    raise TreeValidationError(
                        f"parents[{i}] = {par} breaks the topological ordering"
                    )
                parent_id = labels[par]
                parent_map[node] = parent_id
                children_map[parent_id].append(node)
            children_map[node] = []
            f_map[node] = fvals[i]
            n_map[node] = nvals[i]
        if len(parent_map) != p:
            raise TreeValidationError("ids contains duplicates")
        if tree._root is None:
            raise TreeValidationError("parent array has no root entry")
        if build_kernel:
            from .kernel import TreeKernel

            normalized = [-1 if x is None else int(x) for x in parents]
            tree._kernel = TreeKernel(normalized, fvals, nvals, ids=list(labels))
        return tree

    def set_f(self, node: NodeId, value: float) -> None:
        """Set the communication-file size of ``node``."""
        self._require(node)
        self._f[node] = float(value)
        self._kernel = None

    def set_n(self, node: NodeId, value: float) -> None:
        """Set the execution-file size of ``node``."""
        self._require(node)
        self._n[node] = float(value)
        self._kernel = None

    def kernel(self):
        """The cached :class:`~repro.core.kernel.TreeKernel` of this tree.

        The flat array-backed form every solver hot path runs on.  Built on
        first access and cached; any mutation (:meth:`add_node`,
        :meth:`set_f`, :meth:`set_n`) drops the cache, and the next call
        rebuilds the kernel with :meth:`TreeKernel.from_tree
        <repro.core.kernel.TreeKernel.from_tree>`, so the kernel always
        reflects the current tree.

        Returns
        -------
        TreeKernel
            Contiguous parent/children-CSR arrays plus precomputed
            ``mem_req`` / children-file sums (see :mod:`repro.core.kernel`).
        """
        if self._kernel is None:
            from .kernel import TreeKernel

            self._kernel = TreeKernel.from_tree(self)
        return self._kernel

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> NodeId:
        """Identifier of the root node."""
        if self._root is None:
            raise TreeValidationError("empty tree has no root")
        return self._root

    @property
    def size(self) -> int:
        """Number of nodes (``p`` in the paper)."""
        return len(self._parent)

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._parent

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._parent)

    def nodes(self) -> List[NodeId]:
        """All node identifiers, in insertion order."""
        return list(self._parent)

    def parent(self, node: NodeId) -> Optional[NodeId]:
        """Parent of ``node`` (``None`` for the root)."""
        self._require(node)
        return self._parent[node]

    def children(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Children of ``node`` in insertion order."""
        self._require(node)
        return tuple(self._children[node])

    def f(self, node: NodeId) -> float:
        """Communication-file size of ``node``."""
        self._require(node)
        return self._f[node]

    def n(self, node: NodeId) -> float:
        """Execution-file size of ``node``."""
        self._require(node)
        return self._n[node]

    def is_leaf(self, node: NodeId) -> bool:
        """True when ``node`` has no children."""
        self._require(node)
        return not self._children[node]

    def leaves(self) -> List[NodeId]:
        """All leaves, in insertion order."""
        return [v for v in self._parent if not self._children[v]]

    def mem_req(self, node: NodeId) -> float:
        """Memory requirement ``MemReq`` of ``node`` (Equation (1))."""
        self._require(node)
        return (
            self._f[node]
            + self._n[node]
            + sum(self._f[c] for c in self._children[node])
        )

    def max_mem_req(self) -> float:
        """``max_i MemReq(i)``, the trivial lower bound on main memory."""
        return max(self.mem_req(v) for v in self._parent)

    def total_file_size(self) -> float:
        """Sum of all communication-file sizes (upper bound on I/O volume)."""
        return sum(self._f.values())

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def ancestors(self, node: NodeId) -> List[NodeId]:
        """Proper ancestors of ``node`` from parent up to the root."""
        self._require(node)
        out: List[NodeId] = []
        cur = self._parent[node]
        while cur is not None:
            out.append(cur)
            cur = self._parent[cur]
        return out

    def depth(self, node: NodeId) -> int:
        """Number of edges between ``node`` and the root."""
        self._require(node)
        count = 0
        cur = self._parent[node]
        while cur is not None:
            count += 1
            cur = self._parent[cur]
        return count

    def depths(self) -> Dict[NodeId, int]:
        """Depth of every node, computed in a single top-down pass.

        Prefer this over per-node :meth:`depth` calls when several depths are
        needed: one parent-chain walk per node is quadratic on the deep chain
        trees of the paper's Section VI workloads.
        """
        if self._root is None:
            return {}
        depth: Dict[NodeId, int] = {self._root: 0}
        for node in self.topological_order():
            below = depth[node] + 1
            for child in self._children[node]:
                depth[child] = below
        return depth

    def height(self) -> int:
        """Length (in edges) of the longest root-to-leaf path."""
        if self._root is None:
            return 0
        return max(self.depths().values())

    def subtree_nodes(self, node: NodeId) -> List[NodeId]:
        """Nodes of the subtree rooted at ``node`` in BFS order."""
        self._require(node)
        out: List[NodeId] = []
        queue: deque = deque([node])
        while queue:
            v = queue.popleft()
            out.append(v)
            queue.extend(self._children[v])
        return out

    def subtree_size(self, node: NodeId) -> int:
        """Number of nodes of the subtree rooted at ``node``."""
        return len(self.subtree_nodes(node))

    def topological_order(self) -> List[NodeId]:
        """Nodes in a top-down order (every parent before its children)."""
        return self.subtree_nodes(self.root)

    def bottom_up_order(self) -> List[NodeId]:
        """Nodes in a bottom-up order (every child before its parent)."""
        return list(reversed(self.topological_order()))

    def postorder_dfs(self, child_order: Optional[Dict[NodeId, Sequence[NodeId]]] = None) -> List[NodeId]:
        """Bottom-up depth-first (postorder) node sequence.

        Parameters
        ----------
        child_order:
            Optional mapping from node to the sequence of its children in the
            order their subtrees should be processed.  Missing nodes fall
            back to insertion order.
        """
        order: List[NodeId] = []
        # iterative DFS to avoid recursion limits on deep trees (chains)
        stack: List[Tuple[NodeId, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            stack.append((node, True))
            children = (
                child_order[node]
                if child_order is not None and node in child_order
                else self._children[node]
            )
            for child in reversed(list(children)):
                stack.append((child, False))
        return order

    # ------------------------------------------------------------------
    # copies and transformations
    # ------------------------------------------------------------------
    def copy(self) -> "Tree":
        """Deep copy of the tree structure and weights."""
        other = Tree()
        for node in self.topological_order():
            other.add_node(
                node,
                parent=self._parent[node],
                f=self._f[node],
                n=self._n[node],
            )
        return other

    def relabeled(self) -> Tuple["Tree", Dict[NodeId, int]]:
        """Return a copy with nodes relabeled ``0..p-1`` in top-down order.

        Returns the relabeled tree and the mapping ``old id -> new id``.
        """
        mapping: Dict[NodeId, int] = {}
        for idx, node in enumerate(self.topological_order()):
            mapping[node] = idx
        other = Tree()
        for node in self.topological_order():
            parent = self._parent[node]
            other.add_node(
                mapping[node],
                parent=None if parent is None else mapping[parent],
                f=self._f[node],
                n=self._n[node],
            )
        return other, mapping

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` with edges parent -> child.

        Node attributes ``f`` and ``n`` carry the weights.
        """
        import networkx as nx

        g = nx.DiGraph()
        for node in self.topological_order():
            g.add_node(node, f=self._f[node], n=self._n[node])
        for node in self.topological_order():
            for child in self._children[node]:
                g.add_edge(node, child)
        return g

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`TreeValidationError`.

        Verified invariants: a single root exists, every non-root node has a
        parent inside the tree, the parent/children maps are mutually
        consistent, the tree is connected and acyclic, and all file sizes are
        finite with ``f >= 0`` (``n`` may be negative: the replacement-model
        reduction of Figure 1 uses negative execution files).
        """
        if self._root is None:
            raise TreeValidationError("tree is empty")
        seen = set(self.subtree_nodes(self._root))
        if len(seen) != len(self._parent):
            raise TreeValidationError("tree is not connected (unreachable nodes)")
        for node, parent in self._parent.items():
            if parent is None:
                if node != self._root:
                    raise TreeValidationError(f"non-root node {node!r} has no parent")
            else:
                if node not in self._children[parent]:
                    raise TreeValidationError(
                        f"parent/children maps disagree for {node!r}"
                    )
        for node in self._parent:
            fval, nval = self._f[node], self._n[node]
            if not (fval == fval and abs(fval) != float("inf")):
                raise TreeValidationError(f"non-finite f for node {node!r}")
            if fval < 0:
                raise TreeValidationError(f"negative file size for node {node!r}")
            if not (nval == nval and abs(nval) != float("inf")):
                raise TreeValidationError(f"non-finite n for node {node!r}")
            if self.mem_req(node) < 0:
                raise TreeValidationError(
                    f"negative memory requirement for node {node!r}"
                )

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tree(p={self.size}, root={self._root!r})"

    def _require(self, node: NodeId) -> None:
        if node not in self._parent:
            raise TreeValidationError(f"unknown node {node!r}")

    # ------------------------------------------------------------------
    # equality (structure + weights)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self._root == other._root
            and self._parent == other._parent
            and {k: list(v) for k, v in self._children.items()}
            == {k: list(v) for k, v in other._children.items()}
            and self._f == other._f
            and self._n == other._n
        )

    def __hash__(self) -> int:  # Trees are mutable; keep them unhashable.
        raise TypeError("Tree objects are mutable and unhashable")

    # ------------------------------------------------------------------
    # iteration over edges
    # ------------------------------------------------------------------
    def edges(self) -> Iterable[Tuple[NodeId, NodeId]]:
        """Iterate over (parent, child) edges in top-down order."""
        for node in self.topological_order():
            for child in self._children[node]:
                yield node, child
