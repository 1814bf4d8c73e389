"""Array-backed tree kernel: the library's iterative O(n) hot paths.

The dict-based :class:`~repro.core.tree.Tree` is convenient to build and
mutate, but every traversal algorithm pays for it at solve time: each node
visit goes through bound-method calls (``tree.f(v)``, ``tree.children(v)``),
per-call membership checks, and hash lookups keyed by arbitrary node
identifiers.  :class:`TreeKernel` is the flat counterpart the solvers
actually run on:

* nodes are relabeled ``0 .. p-1`` in a top-down topological order (index
  ``0`` is the root, ``range(p-1, -1, -1)`` is a valid bottom-up order);
* the structure lives in contiguous arrays -- a ``parent`` index array and a
  children CSR (``child_ptr`` / ``child_idx``, insertion order preserved);
* the weights (``f``, ``n``) and the derived per-node quantities the hot
  loops need (``mem_req``, ``child_f_sum``) are precomputed float arrays.

On top of the representation this module implements the explicit-stack,
array-based versions of every hot path:

* :func:`kernel_postorder` -- Liu's optimal postorder (and the two naive
  child-ordering rules) by a single bottom-up sweep; the chosen child
  order is one flat copy of ``child_idx``, sorted slice by slice;
* :func:`kernel_liu` -- Liu's exact hill--valley algorithm; node sequences
  are linked lists over node indices, each segment, named by its first
  node, is a set of entries in flat per-node lists, and a one-child node
  re-cuts its child's segments in place;
* :class:`KernelExploreSolver` / :func:`kernel_min_mem` -- the paper's
  Explore/MinMem pair as one loop over an explicit stack of frames, entered
  at the root.  A leaf runs in place, a freshly executed one-child node
  keeps no frame, and a merge overwrites its slot in the cut; partial
  traversals are linked lists over node indices and one-entry cuts are
  tuples;
* :func:`kernel_replay_traversal` / :func:`kernel_replay_schedule` -- the
  replay engine's peak-memory/IO recomputation on index arrays;
* :func:`kernel_out_of_core` -- the MinIO eviction simulator with an
  incrementally-maintained resident size.

Nothing here recurses: every sweep is an explicit loop or an explicit stack,
so 100k-node chains are as safe as balanced trees.  The original per-node,
dict-based implementations live on in the test suite as oracles.

No in-core kernel keeps a container per node through a solve.  A list kept
per node survives every young collection and is promoted, so on a
100k-node tree it would set off several full collections per solve, each
walking all of those lists.

A kernel is built once per tree -- :meth:`Tree.kernel()
<repro.core.tree.Tree.kernel>` caches it and invalidates the cache on
mutation -- so repeated solves (benchmark rounds, algorithm comparisons,
budget sweeps) share a single conversion.

Examples
--------
>>> from repro.core.builders import chain_tree
>>> kern = chain_tree(4, f=1.0, n=1.0).kernel()
>>> kern.size, kern.ids[0]
(4, 0)
>>> kernel_postorder(kern)[0]
3.0
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "TreeKernel",
    "KernelExploreSolver",
    "kernel_postorder",
    "kernel_liu",
    "kernel_min_mem",
    "kernel_replay_traversal",
    "kernel_replay_schedule",
    "kernel_out_of_core",
]


NodeId = Hashable

#: absolute tolerance for memory comparisons; file sizes are user-scale
#: quantities (bytes, matrix entries), so accumulated rounding noise is many
#: orders of magnitude below this threshold while genuine differences are not.
_EPS = 1e-9


class TreeKernel:
    """Flat, array-backed snapshot of a task tree.

    Instances are immutable by convention: they are built in one pass from a
    :class:`~repro.core.tree.Tree` (or directly from a parent array) and
    shared by every solver run on the same tree.

    Attributes
    ----------
    size : int
        Number of nodes ``p``.
    ids : list
        ``ids[i]`` is the original node identifier of index ``i``.  Indices
        are assigned in a top-down topological order: ``ids[0]`` is the root
        and every parent index is smaller than its children's indices.
    index : dict
        Inverse mapping ``original id -> index``.
    parent : list of int
        ``parent[i]`` is the parent index of node ``i`` (``-1`` for the root).
    child_ptr, child_idx : list of int
        Children in CSR form: the children of node ``i`` are
        ``child_idx[child_ptr[i]:child_ptr[i + 1]]``, in insertion order
        (the same order :meth:`Tree.children` reports).
    f, n : list of float
        Communication-file and execution-file sizes by index.
    mem_req : list of float
        ``MemReq(i) = f[i] + n[i] + sum(f[j] for j children of i)``
        (Equation (1) of the paper), precomputed.
    child_f_sum : list of float
        ``sum(f[j] for j children of i)``, precomputed.
    """

    __slots__ = (
        "size",
        "ids",
        "index",
        "parent",
        "child_ptr",
        "child_idx",
        "f",
        "n",
        "mem_req",
        "child_f_sum",
        # weak-referenceable so the engine arena (repro.solvers.engine) can
        # key its shared-memory exports by kernel and release the segment
        # when the kernel is garbage collected
        "__weakref__",
    )

    def __init__(
        self,
        parent: Sequence[int],
        f: Sequence[float],
        n: Sequence[float],
        *,
        ids: Optional[Sequence[NodeId]] = None,
    ) -> None:
        """Build a kernel from a topologically-ordered parent array.

        Parameters
        ----------
        parent : sequence of int
            ``parent[i]`` must be ``< i`` for every non-root node and ``-1``
            exactly for node ``0`` (top-down topological labeling).
        f, n : sequence of float
            Per-node weights, same length as ``parent``.
        ids : sequence, optional
            Original node identifiers (defaults to ``0 .. p-1``).

        Raises
        ------
        ValueError
            If the parent array is not topologically ordered, the lengths
            disagree, or a weight breaks :meth:`validate_weights` -- the one
            check every solver's input passes through.
        """
        p = len(parent)
        if len(f) != p or len(n) != p:
            raise ValueError("parent, f and n must have the same length")
        if p == 0:
            raise ValueError("cannot build a kernel for an empty tree")
        if parent[0] != -1:
            raise ValueError("node 0 must be the root (parent[0] == -1)")
        self.size = p
        self.parent = [int(x) for x in parent]
        self.f = [float(x) for x in f]
        self.n = [float(x) for x in n]
        if ids is None:
            self.ids = list(range(p))
            self.index = {i: i for i in range(p)}
        else:
            if len(ids) != p:
                raise ValueError("ids must have the same length as parent")
            self.ids = list(ids)
            self.index = {v: i for i, v in enumerate(self.ids)}
            if len(self.index) != p:
                raise ValueError("ids contains duplicates")

        counts = [0] * p
        for i in range(1, p):
            par = self.parent[i]
            if not 0 <= par < i:
                raise ValueError(
                    f"parent[{i}] = {par} breaks the topological labeling"
                )
            counts[par] += 1
        ptr = [0] * (p + 1)
        for i in range(p):
            ptr[i + 1] = ptr[i] + counts[i]
        self.child_ptr = ptr
        fill = list(ptr)
        child_idx = [0] * (p - 1)
        for i in range(1, p):
            par = self.parent[i]
            child_idx[fill[par]] = i
            fill[par] += 1
        self.child_idx = child_idx

        fvals = self.f
        cfs = [0.0] * p
        for i in range(1, p):
            cfs[self.parent[i]] += fvals[i]
        self.child_f_sum = cfs
        nvals = self.n
        self.mem_req = [fvals[i] + nvals[i] + cfs[i] for i in range(p)]
        self.validate_weights()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree) -> "TreeKernel":
        """Build a kernel from a :class:`~repro.core.tree.Tree`.

        One BFS pass relabels the nodes top-down; children keep their
        insertion order, so every tie-breaking rule of the solvers behaves
        exactly as on the original tree.  Prefer :meth:`Tree.kernel`, which
        caches the result on the tree.
        """
        order = tree.topological_order()
        index = {v: i for i, v in enumerate(order)}
        # accessing the internal maps directly: this is the package-private
        # bulk path, one dict lookup per node instead of three method calls
        parent_map = tree._parent
        f_map = tree._f
        n_map = tree._n
        parent = [-1] * len(order)
        for i, v in enumerate(order):
            par = parent_map[v]
            if par is not None:
                parent[i] = index[par]
        return cls(
            parent,
            [f_map[v] for v in order],
            [n_map[v] for v in order],
            ids=order,
        )

    def to_tree(self):
        """Materialise a :class:`~repro.core.tree.Tree` (original ids)."""
        from .tree import Tree

        return Tree.from_parents(self.parent, self.f, self.n, ids=self.ids)

    # ------------------------------------------------------------------
    # flat-buffer export / attach (the engine arena's transport format)
    # ------------------------------------------------------------------
    def has_trivial_ids(self) -> bool:
        """True when the original identifiers are exactly ``0 .. p-1``.

        Kernels built by the bulk generators and the sparse pipeline carry
        trivial ids; exporters can then skip shipping the id list entirely.
        """
        ids = self.ids
        return ids[0] == 0 and ids[-1] == self.size - 1 and ids == list(range(self.size))

    def to_flat_arrays(self):
        """Export the defining arrays as three contiguous numpy arrays.

        Returns
        -------
        (parent, f, n) : numpy arrays
            ``int64`` parent indices and ``float64`` weights.  Together with
            :attr:`ids` these reproduce the kernel exactly via
            :meth:`from_flat_arrays`; the derived arrays (children CSR,
            ``mem_req``, ``child_f_sum``) are recomputed on attach, so the
            export is three buffers instead of ten.
        """
        import numpy as np

        return (
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.f, dtype=np.float64),
            np.asarray(self.n, dtype=np.float64),
        )

    @classmethod
    def from_flat_arrays(cls, parent, f, n, *, ids=None) -> "TreeKernel":
        """Rebuild a kernel from :meth:`to_flat_arrays` output.

        A vectorized counterpart of ``__init__``: the topological check, the
        children CSR and the derived weight arrays are all computed with
        numpy primitives instead of per-node Python loops, so attaching a
        shipped kernel in a worker process costs a handful of array passes.
        The result is bit-identical to the ``__init__`` path -- in particular
        ``child_f_sum`` accumulates in the same index order (``np.bincount``
        sums its input sequentially) and children keep insertion order
        (stable argsort).

        Raises
        ------
        ValueError
            Same contract as the constructor: mismatched lengths, an empty
            tree, a non-root first node, or a parent array that breaks the
            topological labeling.
        """
        import numpy as np

        parent = np.ascontiguousarray(parent, dtype=np.int64)
        f = np.ascontiguousarray(f, dtype=np.float64)
        n = np.ascontiguousarray(n, dtype=np.float64)
        p = int(parent.shape[0])
        if f.shape[0] != p or n.shape[0] != p:
            raise ValueError("parent, f and n must have the same length")
        if p == 0:
            raise ValueError("cannot build a kernel for an empty tree")
        if parent[0] != -1:
            raise ValueError("node 0 must be the root (parent[0] == -1)")
        tail = parent[1:]
        if p > 1:
            bad = (tail < 0) | (tail >= np.arange(1, p, dtype=np.int64))
            if bad.any():
                i = int(np.argmax(bad)) + 1
                raise ValueError(
                    f"parent[{i}] = {int(parent[i])} breaks the topological labeling"
                )

        kern = object.__new__(cls)
        kern.size = p
        kern.parent = parent.tolist()
        kern.f = f.tolist()
        kern.n = n.tolist()
        if ids is None:
            kern.ids = list(range(p))
            kern.index = {i: i for i in range(p)}
        else:
            if len(ids) != p:
                raise ValueError("ids must have the same length as parent")
            kern.ids = list(ids)
            kern.index = {v: i for i, v in enumerate(kern.ids)}
            if len(kern.index) != p:
                raise ValueError("ids contains duplicates")

        counts = np.bincount(tail, minlength=p)
        ptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        kern.child_ptr = ptr.tolist()
        # stable sort groups children by parent while preserving their
        # relative (insertion) order -- the same CSR __init__ builds
        kern.child_idx = (np.argsort(tail, kind="stable") + 1).tolist()
        cfs = np.bincount(tail, weights=f[1:], minlength=p)
        kern.child_f_sum = cfs.tolist()
        kern.mem_req = (f + n + cfs).tolist()
        return kern

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def children(self, i: int) -> List[int]:
        """Child indices of node ``i`` in insertion order."""
        return self.child_idx[self.child_ptr[i] : self.child_ptr[i + 1]]

    def max_mem_req(self) -> float:
        """``max_i MemReq(i)``, the trivial lower bound on main memory."""
        return max(self.mem_req)

    def total_file_size(self) -> float:
        """Sum of all communication-file sizes (I/O volume upper bound)."""
        return math.fsum(self.f)

    def validate_weights(self) -> None:
        """Check the weight invariants (mirrors :meth:`Tree.validate`).

        Raises ``ValueError`` on non-finite weights, negative file sizes or
        negative memory requirements.  The structural invariants (single
        root, acyclicity, connectivity) hold by construction.  The
        constructor runs this check, so every solver input has passed it.
        """
        # builtin sums and minima first: a finite sum rules out NaN and
        # infinite terms, and only an input that fails pays for the per-node
        # loop that names the offending node (5x cheaper on valid trees)
        if (
            math.isfinite(sum(self.f))
            and math.isfinite(sum(self.n))
            and min(self.f) >= 0
            and min(self.mem_req) >= 0
        ):
            return
        for i in range(self.size):
            fv, nv, mr = self.f[i], self.n[i], self.mem_req[i]
            if fv != fv or abs(fv) == math.inf:
                raise ValueError(f"non-finite f for node {self.ids[i]!r}")
            if fv < 0:
                raise ValueError(f"negative file size for node {self.ids[i]!r}")
            if nv != nv or abs(nv) == math.inf:
                raise ValueError(f"non-finite n for node {self.ids[i]!r}")
            if mr < 0:
                raise ValueError(
                    f"negative memory requirement for node {self.ids[i]!r}"
                )

    def order_to_ids(self, order: Sequence[int]) -> Tuple[NodeId, ...]:
        """Map a sequence of node indices back to original identifiers."""
        ids = self.ids
        return tuple(ids[i] for i in order)

    def order_to_indices(self, order: Sequence[NodeId]) -> List[int]:
        """Map original identifiers to node indices (raises ``KeyError``)."""
        index = self.index
        return [index[v] for v in order]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TreeKernel(p={self.size}, root={self.ids[0]!r})"


# ----------------------------------------------------------------------
# PostOrder: one bottom-up sweep over the index range
# ----------------------------------------------------------------------
def kernel_postorder(
    kern: TreeKernel, rule: str = "liu"
) -> Tuple[float, List[int], List[float], List[int]]:
    """Memory-optimal (or ablation-rule) postorder on the kernel.

    Parameters
    ----------
    kern : TreeKernel
        The flat tree.
    rule : str
        ``"liu"`` (children by decreasing ``P_j - f_j``, optimal),
        ``"subtree_memory"`` (increasing subtree peak) or ``"natural"``
        (insertion order).

    Returns
    -------
    (memory, order, subtree_peak, child_order)
        Peak memory, the bottom-up node order (indices), the per-node
        subtree peaks, and the chosen child order in the kernel's CSR
        layout: the children of node ``i``, in processing order, are
        ``child_order[child_ptr[i]:child_ptr[i + 1]]``.
    """
    p = kern.size
    f = kern.f
    n = kern.n
    child_ptr = kern.child_ptr
    peak = [0.0] * p
    # one flat copy of child_idx, sorted slice by slice: no list per node
    kids = list(kern.child_idx)

    for v in range(p - 1, -1, -1):
        lo, hi = child_ptr[v], child_ptr[v + 1]
        if lo == hi:
            peak[v] = f[v] + n[v]
            continue
        children = kids[lo:hi]  # a temporary, dropped at the next node
        if hi - lo > 1:  # singleton child lists need no ordering rule
            if rule == "liu":
                children.sort(key=lambda c: peak[c] - f[c], reverse=True)
                kids[lo:hi] = children
            elif rule == "subtree_memory":
                children.sort(key=lambda c: peak[c])
                kids[lo:hi] = children
        completed = 0.0
        best = 0.0
        for c in children:
            cand = completed + peak[c]
            if cand > best:
                best = cand
            completed += f[c]
        cand = completed + n[v] + f[v]
        peak[v] = cand if cand > best else best

    return peak[0], _emit_postorder(child_ptr, kids), peak, kids


def _emit_postorder(child_ptr: List[int], kids: List[int]) -> List[int]:
    """Bottom-up DFS following the CSR child order ``kids`` (explicit stack)."""
    order: List[int] = []
    append = order.append
    stack: List[int] = [0]
    # encode "expanded" by pushing ~v (bitwise complement is a distinct int)
    while stack:
        v = stack.pop()
        if v < 0:
            append(~v)
            continue
        stack.append(~v)
        lo, hi = child_ptr[v], child_ptr[v + 1]
        if hi - lo == 1:
            stack.append(kids[lo])
        elif hi > lo:
            stack.extend(reversed(kids[lo:hi]))
    return order


# ----------------------------------------------------------------------
# Liu's exact algorithm: hill--valley segment merge on linked index lists
# ----------------------------------------------------------------------
def kernel_liu(
    kern: TreeKernel,
) -> Tuple[float, List[int], List[float], List[Tuple[float, float, List[int]]]]:
    """Liu's exact MinMemory algorithm on the kernel.

    A faithful port of the per-node algorithm the tests keep as an oracle:
    per subtree the canonical hill--valley representation is kept, children
    segments are interleaved in decreasing ``hill - valley`` order (stable
    on ties), and the profile is re-cut by one backward plus one forward
    sweep.

    The sweep keeps no container per node, only entries of flat lists:

    * node sequences are singly linked lists over node indices (``nxt``),
      as in MinMem's traversals, so joining two sequences is O(1);
    * a segment is named by its first node.  Its hill, valley, last node
      and the following segment of the same subtree are the entries of
      ``hill``, ``valley``, ``last`` and ``seg_next`` at that name, and
      ``head[v]`` names the first segment of a finished subtree ``v``.

    A node with one child re-cuts in place.  The child's segments are
    canonical (hills do not increase, valleys increase, the last valley is
    the child's ``f``), so appending ``v`` keeps the prefix of segments
    whose hill reaches ``v``'s own peak and whose valley stays below
    ``f_v``, and merges the rest with ``v`` into one segment with hill
    ``max(first merged hill, own peak)`` and valley ``f_v`` -- what the
    re-cut of the whole event list gives.  Only a node with two or more
    children builds its events, in temporary lists made for that node.

    Returns
    -------
    (memory, order, subtree_peak, root_segments)
        The optimal memory, an optimal bottom-up order (indices), the
        optimal peak of every subtree, and the root's canonical segments as
        ``(hill, valley, nodes)`` tuples, ``nodes`` a flat list of node
        indices.
    """
    p = kern.size
    f = kern.f
    n = kern.n
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    nxt = [-1] * p
    hill = [0.0] * p
    valley = [0.0] * p
    last = [0] * p
    seg_next = [-1] * p
    head = [0] * p
    subtree_peak = [0.0] * p

    for v in range(p - 1, -1, -1):
        lo, hi = child_ptr[v], child_ptr[v + 1]
        fv = f[v]
        last[v] = v
        if lo == hi:
            # leaf: a single segment, no merge and no re-cut needed
            peak0 = fv + n[v]
            hill[v] = peak0
            valley[v] = fv
            head[v] = v
            subtree_peak[v] = peak0
            continue
        if hi - lo == 1:
            # one child: its canonical segments are already in merge order,
            # hills not increasing and valleys increasing, and the last
            # valley is the child's f, so appending v re-cuts only the tail
            s = head[child_idx[lo]]
            if seg_next[s] < 0 and valley[s] >= fv:
                # one segment ending no lower than fv: v extends it (chains)
                own_peak = valley[s] + n[v] + fv
                h = hill[s]
                if own_peak > h:
                    h = own_peak
                nxt[last[s]] = v
                hill[s] = h
                valley[s] = fv
                last[s] = v
                head[v] = s
                subtree_peak[v] = h
                continue
            c = child_idx[lo]
            own_peak = f[c] + n[v] + fv
            # keep the segments whose hill reaches v's peak and whose valley
            # stays below fv; v absorbs the rest into one segment
            kept = -1
            while s >= 0 and hill[s] >= own_peak and valley[s] < fv:
                kept = s
                s = seg_next[s]
            if s < 0:
                hill[v] = own_peak
                valley[v] = fv
                seg_next[v] = -1
                seg_next[kept] = v
                nxt[last[kept]] = v
            else:
                h = hill[s]
                if own_peak > h:
                    h = own_peak
                t = s
                while seg_next[t] >= 0:
                    t = seg_next[t]
                nxt[last[t]] = v
                hill[s] = h
                valley[s] = fv
                last[s] = v
                seg_next[s] = -1
            s = head[v] = head[c]
            subtree_peak[v] = hill[s]
            continue
        keys: List[float] = []
        rel_hill: List[float] = []
        rel_valley: List[float] = []
        names: List[int] = []
        for child_pos in range(lo, hi):
            s = head[child_idx[child_pos]]
            prev_valley = 0.0
            while s >= 0:
                h = hill[s]
                w = valley[s]
                keys.append(w - h)  # == -(hill - valley)
                rel_hill.append(h - prev_valley)
                rel_valley.append(w - prev_valley)
                names.append(s)
                prev_valley = w
                s = seg_next[s]
        # a stable sort on the key alone keeps ties in (child, segment)
        # order
        peaks: List[float] = []
        levels: List[float] = []
        firsts: List[int] = []
        base = 0.0
        for t in sorted(range(len(keys)), key=keys.__getitem__):
            peaks.append(base + rel_hill[t])
            levels.append(base + rel_valley[t])
            firsts.append(names[t])
            base += rel_valley[t]
        own_peak = base + n[v] + fv
        peaks.append(own_peak)
        levels.append(fv)
        firsts.append(v)
        # join the events' node sequences in execution order
        for t in range(1, len(firsts)):
            nxt[last[firsts[t - 1]]] = firsts[t]
        # The profile collapses into a single segment whenever the final
        # residual fv is the minimum over all events (the suffix-minimum cut
        # lands on the last event); that covers most assembly nodes, and
        # skips the O(events) array bookkeeping of _canonical.
        max_hill = own_peak
        single = True
        for h, w in zip(peaks, levels):
            if w < fv:
                single = False
                break
            if h > max_hill:
                max_hill = h
        if single:
            s = firsts[0]
            hill[s] = max_hill
            valley[s] = fv
            last[s] = v
            seg_next[s] = -1
            head[v] = s
            subtree_peak[v] = max_hill
            continue
        ends, hills = _canonical(peaks, levels)
        # segment k spans events start..ends[k]; read each segment's last
        # node before its name's entries are overwritten
        start = 0
        for k, end in enumerate(ends):
            s = firsts[start]
            last[s] = last[firsts[end]]
            hill[s] = hills[k]
            valley[s] = levels[end]
            seg_next[s] = firsts[end + 1] if end + 1 < len(firsts) else -1
            start = end + 1
        head[v] = firsts[0]
        subtree_peak[v] = hills[0]  # canonical hills are non-increasing

    order: List[int] = []
    root_segments: List[Tuple[float, float, List[int]]] = []
    s = head[0]
    while s >= 0:
        start = len(order)
        v = s
        end = last[s]
        order.append(v)
        while v != end:
            v = nxt[v]
            order.append(v)
        root_segments.append((hill[s], valley[s], order[start:]))
        s = seg_next[s]
    return subtree_peak[0], order, subtree_peak, root_segments


def _canonical(
    peaks: List[float], levels: List[float]
) -> Tuple[List[int], List[float]]:
    """Cut an event profile into its canonical hill--valley representation.

    Event ``t`` peaks at ``peaks[t]`` and leaves ``levels[t]`` resident,
    events in execution order.  Each segment starts where the previous one
    ended, peaks at the maximum remaining peak and is cut at the *last*
    position achieving the minimum residual level reached at or after that
    peak.  This yields non-increasing hills and non-decreasing valleys, and
    packs runs of events with identical residual levels into a single
    segment (interrupting such a run cannot help a parent).  One backward
    sweep computes the suffix maxima/minima, one forward sweep the cuts.

    Returns
    -------
    (ends, hills)
        The last event of every segment and the segment's hill; its valley
        is ``levels[end]``.
    """
    n_events = len(levels)
    first_max = [0] * n_events
    last_min = [0] * n_events
    suffix_max = [0.0] * n_events
    suffix_min = [0.0] * n_events
    suffix_max[-1] = peaks[-1]
    suffix_min[-1] = levels[-1]
    first_max[-1] = last_min[-1] = n_events - 1
    for t in range(n_events - 2, -1, -1):
        peak, level = peaks[t], levels[t]
        if peak >= suffix_max[t + 1]:
            suffix_max[t] = peak
            first_max[t] = t
        else:
            suffix_max[t] = suffix_max[t + 1]
            first_max[t] = first_max[t + 1]
        if level < suffix_min[t + 1]:
            suffix_min[t] = level
            last_min[t] = t
        else:
            suffix_min[t] = suffix_min[t + 1]
            last_min[t] = last_min[t + 1]

    ends: List[int] = []
    hills: List[float] = []
    start = 0
    while start < n_events:
        end = last_min[first_max[start]]
        ends.append(end)
        hills.append(suffix_max[start])
        start = end + 1
    return ends, hills


# ----------------------------------------------------------------------
# Explore / MinMem: the paper's Algorithms 3 and 4 on index arrays
# ----------------------------------------------------------------------
#: the saved cut of every fully explored node (shared, never mutated)
_DONE: tuple = ()


class KernelExploreSolver:
    """Stateful solver for repeated ``Explore`` calls from the root (Algorithm 3).

    ``Explore`` descends top-down from the root: a node of the current *cut*
    (the frontier of resident input files) is expanded whenever the
    available memory allows, and the expansion replaces the node's file by
    its own best cut whenever that shrinks the resident size.  Every node
    keeps its reached state, so a later call with more memory resumes where
    the previous one stopped -- the ``L_init`` / ``Tr_init`` mechanism of
    the paper, generalised to every node.

    A solve makes at least one nested ``Explore`` call per node, so a call
    costs only the work of the algorithm, and the solver keeps per node
    nothing the garbage collector has to walk but one list for each node
    whose cut has two or more entries:

    * the recursion is one loop over an explicit stack of frame tuples --
      no generator or frame object per call.  A freshly executed node
      takes its cut total from ``child_f_sum``, the same left-to-right sum
      as re-adding its children's files.  Two kinds of call push no frame.
      A leaf candidate runs in place: its result is fixed (resident 0, peak
      ``inf``, required ``mem_req``).  A freshly executed node with one
      child runs its first pass inline, and while that child is executed
      afresh it keeps no frame: its suspended state is always (cut
      ``(c,)``, pos 0, total ``child_f_sum``, required ``mem_req``, its
      child's available memory), so it is rebuilt from the node on return.
      A run of such nodes, a chain, is descended in one tight loop and
      unwound in one while each child comes back fully explored;
    * the partial traversal of node ``v`` is a singly linked list over node
      indices: it starts at ``v``, follows ``_next`` and ends at
      ``_tail[v]``.  Executing ``v`` sets ``_tail[v] = v``; merging child
      ``j`` appends ``j``'s list to ``v``'s in O(1), without copying;
    * a cut with one entry is a 1-tuple, and a fully explored node (a leaf
      among them) saves the shared empty :data:`_DONE`.  CPython stops
      tracking a tuple that holds only ints at its first young collection,
      and never stops tracking a list, so a chain's cuts are never
      promoted.  A cut with two or more entries is a list that belongs to
      the node's saved state and is updated in place.  A merge into a
      1-tuple cut replaces that cut and writes the new one back to the
      saved state: a tuple sub-cut is kept as it is, a list sub-cut is
      copied, since it stays the child's saved state.  A merge into a list
      is linear: an empty sub-cut leaves a hole (``-1``) and a one-entry
      sub-cut overwrites the child's slot, and the holes are dropped once,
      at the end of the pass (a cut of holes only becomes :data:`_DONE`);
      only a sub-cut of two or more entries is spliced in.

    A pass that tried candidates but changed nothing -- no node executed or
    restarted, no merge, no ``peak_of`` value changed -- ends its node as if
    it had found no candidate: the next pass would repeat it forever.  Such
    a pass needs two roundings to disagree: the admission test
    ``headroom + f_j`` and the child's budget ``avail - (total - f_j)``,
    at file sizes where :data:`_EPS` is below the float spacing.  Every
    other run is unchanged by the rule; MinMem then either finds the
    optimum or raises its floating-point stall error.

    A merged child's list is shared by reference, so re-exploring that
    child would rewrite its ancestor's traversal.  The solver is therefore
    entered only at the root: a node is explored again only after every
    ancestor that merged it has restarted and dropped that traversal.  A
    node restarts -- is executed again -- when a call cannot afford the
    traversal it saved, and it forgets every state below it: the states
    there described the dropped traversal (a child explored to the end has
    ``peak_of = inf``; a merged child's cut entries moved on without it),
    so its subtree is explored afresh.  In MinMem the budget only rises
    and a cut's total only shrinks, so no node restarts there.

    Parameters
    ----------
    kern : TreeKernel
        The flat tree.
    """

    def __init__(self, kern: TreeKernel) -> None:
        self.kern = kern
        self._peak_of = list(kern.mem_req)
        p = kern.size
        self._state_cut: List[Optional[Sequence[int]]] = [None] * p
        self._state_required = [0.0] * p
        self._next = [0] * p
        self._tail = [0] * p
        self.explore_calls = 0

    def peak_of(self, i: int) -> float:
        """Current estimate of the memory needed to progress below ``i``."""
        return self._peak_of[i]

    def explore(self, m_avail: float):
        """Run ``Explore`` from the root with ``m_avail`` memory.

        Returns
        -------
        (resident, cut, order, peak, required)
            ``M_root``, the frontier (tuple of indices), the partial
            traversal (list of indices, top-down), ``M_peak_root``, and the
            peak memory actually used by that traversal.
        """
        resident, peak, required = self._sweep(m_avail)
        if resident == math.inf:
            return resident, (), [], peak, required
        return resident, tuple(self._state_cut[0]), self._order(), peak, required

    def _order(self) -> List[int]:
        # walk the root's linked traversal
        nxt = self._next
        last = self._tail[0]
        v = 0
        order = [0]
        while v != last:
            v = nxt[v]
            order.append(v)
        return order

    def _forget_below(self, lo: int, hi: int) -> None:
        # a restarted node forgets every state below its children
        # child_idx[lo:hi] (see the class docstring).  A node without a
        # state has none below it and peak_of at mem_req: the walk stops
        # there, so it costs what the forgotten exploration had reached.
        child_ptr = self.kern.child_ptr
        child_idx = self.kern.child_idx
        mem_req = self.kern.mem_req
        peak_of = self._peak_of
        state_cut = self._state_cut
        stack = child_idx[lo:hi]
        while stack:
            k = stack.pop()
            if state_cut[k] is not None:
                state_cut[k] = None
                peak_of[k] = mem_req[k]
                stack += child_idx[child_ptr[k] : child_ptr[k + 1]]

    def _sweep(self, m_avail: float) -> Tuple[float, float, float]:
        # one root Explore call: (resident, peak, required), resident = inf
        # when the root itself cannot be executed
        kern = self.kern
        f = kern.f
        mem_req = kern.mem_req
        child_f_sum = kern.child_f_sum
        parent = kern.parent
        child_ptr = kern.child_ptr
        child_idx = kern.child_idx
        peak_of = self._peak_of
        state_cut = self._state_cut
        state_required = self._state_required
        nxt = self._next
        tail = self._tail
        inf = math.inf

        self.explore_calls += 1
        node = 0
        avail = m_avail
        cut = state_cut[0]
        required = state_required[0]
        # state changes so far (executions, merges, new peak_of values), and
        # their count when the current pass started
        changes = mark = 0
        one = False
        if cut is None or required > avail + _EPS:
            if mem_req[0] > avail + _EPS:
                # the root itself cannot be executed (paper lines 3-5)
                return inf, mem_req[0], 0.0
            # execute the root (paper lines 10-11)
            hi = child_ptr[1]  # the root's children start at 0
            if cut is not None:
                self._forget_below(0, hi)
            one = hi == 1
            if hi > 1:
                cut = state_cut[0] = child_idx[:hi]
            elif not hi:
                cut = state_cut[0] = _DONE
            tail[0] = 0
            required = mem_req[0]
            total = child_f_sum[0]
        else:
            total = 0.0
            for j in cut:
                total += f[j]
        headroom = avail - total
        pos = 0
        holes = 0  # entries of a list cut this pass merged away
        # the highest node of the run of frameless one-child nodes that the
        # current node returns into, or -1 when it returns into a frame
        top = -1
        stack: List[tuple] = []
        calls = 0
        while True:
            if one:
                # `node` was just executed and has one child: its first pass
                # has one candidate and runs here.  While that child is
                # executed afresh, `node` keeps no frame; its suspended state
                # (cut (c,), pos 0, total child_f_sum, required mem_req, the
                # child's avail) is rebuilt from it on return.
                one = False
                scan = False  # whether `node` goes on with a pass of its own
                while True:
                    total = child_f_sum[node]
                    c = child_idx[child_ptr[node]]
                    fc = f[c]
                    if (avail - total) + fc < peak_of[c] - _EPS:
                        # no candidate: `node` is finished
                        cut = state_cut[node] = (c,)
                        tail[node] = node
                        required = mem_req[node]
                        resident = total
                        peak = peak_of[c] + (total - fc)
                        break
                    ccut = state_cut[c]
                    if (
                        ccut is not None and state_required[c] <= avail + _EPS
                    ) or mem_req[c] > avail + _EPS:
                        # c is resumed or cannot run: `node` makes a
                        # generic pass, with a frame of its own
                        cut = state_cut[node] = (c,)
                        tail[node] = node
                        required = mem_req[node]
                        scan = True
                        break
                    calls += 1
                    changes += 1
                    lo = child_ptr[c]
                    hi = child_ptr[c + 1]
                    if ccut is not None:
                        self._forget_below(lo, hi)
                    if lo == hi:
                        # a leaf runs in place and `node` merges its empty cut
                        peak_of[c] = inf
                        state_cut[c] = _DONE
                        state_required[c] = mem_req[c]
                        tail[c] = c
                        resident = total - fc
                        req = resident + mem_req[c]
                        required = mem_req[node]
                        if req > required:
                            required = req
                        nxt[node] = c
                        tail[node] = c
                        cut = state_cut[node] = _DONE
                        peak = inf
                        break
                    if top < 0:
                        top = node
                    node = c
                    if hi - lo > 1:
                        cut = state_cut[c] = child_idx[lo:hi]
                        tail[c] = c
                        required = mem_req[c]
                        total = child_f_sum[c]
                        scan = True
                        break
                if scan:
                    headroom = avail - total
                    pos = 0
                    mark = changes
                    holes = 0
                    continue
                state_required[node] = required
            else:
                # scan the cut of `node` for this pass's next candidate; a
                # pass tests every node against the headroom it started with
                n_cut = len(cut)
                while pos < n_cut:
                    j = cut[pos]
                    fj = f[j]
                    if headroom + fj < peak_of[j] - _EPS:
                        pos += 1
                        continue
                    child_avail = avail - (total - fj)
                    calls += 1
                    jcut = state_cut[j]
                    if jcut is not None and state_required[j] <= child_avail + _EPS:
                        # resume j (the recursive call of line 15)
                        stack.append(
                            (node, pos, mark, holes, avail, headroom, total,
                             required, top)
                        )
                        top = -1
                        node = j
                        avail = child_avail
                        cut = jcut
                        required = state_required[j]
                        total = 0.0
                        for k in cut:
                            total += f[k]
                        headroom = avail - total
                        pos = 0
                        mark = changes
                        holes = 0
                        n_cut = len(cut)
                        continue
                    if mem_req[j] > child_avail + _EPS:
                        # j itself cannot be executed (lines 3-5)
                        if peak_of[j] != mem_req[j]:
                            peak_of[j] = mem_req[j]
                            changes += 1
                        pos += 1
                        continue
                    # execute j (lines 10-11)
                    changes += 1
                    lo = child_ptr[j]
                    hi = child_ptr[j + 1]
                    if jcut is not None:
                        self._forget_below(lo, hi)
                    if lo == hi:
                        # a leaf runs in place: resident 0, peak inf, and its
                        # empty cut is merged in place of it (lines 16-18)
                        peak_of[j] = inf
                        state_cut[j] = _DONE
                        state_required[j] = mem_req[j]
                        tail[j] = j
                        if type(cut) is tuple:
                            cut = state_cut[node] = _DONE
                            n_cut = 0
                        else:
                            cut[pos] = -1
                            holes += 1
                            pos += 1
                        total -= fj
                        req = total + mem_req[j]
                        if req > required:
                            required = req
                        nxt[tail[node]] = j
                        tail[node] = j
                        continue
                    stack.append(
                        (node, pos, mark, holes, avail, headroom, total,
                         required, top)
                    )
                    top = -1
                    node = j
                    avail = child_avail
                    if hi - lo == 1:
                        one = True
                        break
                    cut = state_cut[j] = child_idx[lo:hi]
                    tail[j] = j
                    required = mem_req[j]
                    total = child_f_sum[j]
                    headroom = avail - total
                    pos = 0
                    mark = changes
                    holes = 0
                    n_cut = len(cut)
                if one:
                    continue
                if holes:
                    if holes == len(cut):  # every entry merged away
                        cut = state_cut[node] = _DONE
                    else:
                        cut = state_cut[node] = [k for k in cut if k >= 0]
                    holes = 0
                if changes != mark and cut:
                    # the cut changed: start a new pass with the new headroom
                    headroom = avail - total
                    pos = 0
                    mark = changes
                    continue
                # `node` is finished: no candidate, or a pass that changed
                # nothing and would repeat forever.  M_i, M_peak_i, saved state
                resident = total
                peak = inf
                for j in cut:
                    cand = peak_of[j] + (resident - f[j])
                    if cand < peak:
                        peak = cand
                if not cut:
                    state_cut[node] = _DONE
                state_required[node] = required
            j = node
            if top >= 0 and not cut:
                # j came back fully explored: its frameless parent merges the
                # empty cut and is finished too, and so on up the run
                jtail = tail[j]
                while resident <= f[j] + _EPS:
                    fj = f[j]
                    peak_of[j] = inf
                    node = parent[j]
                    total = child_f_sum[node]
                    rest = total - fj
                    resident = total + (resident - fj)
                    req = rest + required
                    required = mem_req[node]
                    if req > required:
                        required = req
                    nxt[node] = j
                    tail[node] = jtail
                    state_cut[node] = _DONE
                    state_required[node] = required
                    j = node
                    if node == top:
                        top = -1
                        break
            sub_required = required
            if top >= 0:
                # return into a rebuilt frame; its pass executed j
                node = parent[j]
                if node == top:
                    top = -1
                cut = state_cut[node] = (j,)
                tail[node] = node
                total = child_f_sum[node]
                headroom = avail - total
                required = mem_req[node]
                pos = 0
                mark = -1
                holes = 0
            elif stack:
                # return into the suspended caller
                node, pos, mark, holes, avail, headroom, total, required, top = (
                    stack.pop()
                )
                cut = state_cut[node]
            else:
                break
            if peak_of[j] != peak:
                peak_of[j] = peak
                changes += 1
            fj = f[j]
            if resident <= fj + _EPS:
                # merge the child's cut in place of the child (16-18): an
                # empty sub-cut leaves a hole, one entry overwrites the slot
                changes += 1
                sub_cut = state_cut[j]
                if type(cut) is tuple:
                    # a one-entry cut is replaced: a tuple sub-cut is shared
                    # as is, a list one copied, since it stays j's state
                    cut = state_cut[node] = (
                        sub_cut if type(sub_cut) is tuple else list(sub_cut)
                    )
                    pos += len(sub_cut)
                elif not sub_cut:
                    cut[pos] = -1
                    holes += 1
                    pos += 1
                elif len(sub_cut) == 1:
                    cut[pos] = sub_cut[0]
                    pos += 1
                else:
                    cut[pos : pos + 1] = sub_cut
                    pos += len(sub_cut)
                rest = total - fj
                total += resident - fj
                req = rest + sub_required
                if req > required:
                    required = req
                nxt[tail[node]] = j
                tail[node] = tail[j]
            else:
                pos += 1
        self.explore_calls += calls
        return resident, peak, sub_required


def kernel_min_mem(kern: TreeKernel) -> Tuple[float, List[int], int, int]:
    """The ``MinMem`` algorithm (paper Algorithm 4) on the kernel.

    Returns
    -------
    (memory, order, iterations, explore_calls)
        The optimal memory, an optimal top-down order (indices), the number
        of root sweeps and the total number of ``Explore`` invocations.
    """
    solver = KernelExploreSolver(kern)
    m_peak = max(kern.mem_req)
    m_avail = 0.0
    iterations = 0
    while m_peak != math.inf:
        m_avail = m_peak
        _, m_peak, _ = solver._sweep(m_avail)
        iterations += 1
        if m_peak != math.inf and m_peak <= m_avail:
            raise RuntimeError(
                "MinMem made no progress (floating-point stall); "
                f"memory={m_avail}, reported peak={m_peak}"
            )
    return m_avail, solver._order(), iterations, solver.explore_calls


# ----------------------------------------------------------------------
# replay: independent peak-memory / IO recomputation on index arrays
# ----------------------------------------------------------------------
def kernel_replay_traversal(
    kern: TreeKernel,
    order: Sequence[int],
    *,
    topdown: bool,
    partial: bool = False,
) -> Tuple[float, int, bool]:
    """Re-execute a traversal (given as indices) and recompute its peak.

    Enforces the same constraints as :func:`repro.bench.replay
    .replay_traversal`: no duplicates, precedence respected, completeness
    unless ``partial`` (top-down only).

    Returns
    -------
    (peak_memory, steps, complete)

    Raises
    ------
    ValueError
        On any violated constraint (callers re-wrap into ``ReplayError``).
    """
    p = kern.size
    f = kern.f
    n = kern.n
    parent = kern.parent
    cfs = kern.child_f_sum
    executed = [-1] * p
    for step, i in enumerate(order):
        if executed[i] != -1:
            raise ValueError(f"step {step}: node {kern.ids[i]!r} executed twice")
        executed[i] = step
    complete = len(order) == p
    if not complete and (not partial or not topdown):
        raise ValueError(
            f"order covers {len(order)} of {p} nodes; "
            "only top-down replays may be partial"
        )

    if topdown:
        if order and order[0] != 0:
            raise ValueError("top-down execution must start at the root")
        resident = f[0] if order else 0.0
        peak = resident
        for step, i in enumerate(order):
            par = parent[i]
            if par >= 0:
                par_step = executed[par]
                if par_step < 0 or par_step >= step:
                    raise ValueError(
                        f"step {step}: node {kern.ids[i]!r} executed "
                        "before its parent"
                    )
            during = resident + n[i] + cfs[i]
            if during > peak:
                peak = during
            resident += cfs[i] - f[i]
        return peak, len(order), complete

    # bottom-up: every child strictly before its parent, full permutation
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    resident = 0.0
    peak = 0.0
    for step, i in enumerate(order):
        for pos in range(child_ptr[i], child_ptr[i + 1]):
            if executed[child_idx[pos]] >= step:
                raise ValueError(
                    f"step {step}: node {kern.ids[i]!r} executed before "
                    f"child {kern.ids[child_idx[pos]]!r}"
                )
        during = resident + n[i] + f[i]
        if during > peak:
            peak = during
        resident += f[i] - cfs[i]
    return peak, len(order), True


def kernel_replay_schedule(
    kern: TreeKernel,
    order: Sequence[int],
    evictions: Dict[int, int],
    *,
    memory: Optional[float] = None,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-9,
) -> Tuple[float, float, int]:
    """Re-execute an out-of-core schedule given as indices.

    ``order`` must be a full top-down permutation; ``evictions`` maps node
    index to the step before which its file is written out.  Enforces every
    constraint of the paper's Algorithm 2 (production before eviction,
    eviction strictly before execution, no double writes, optional memory
    bound) and recomputes peak resident memory and I/O volume.

    Returns
    -------
    (peak_memory, io_volume, evictions_count)

    Raises
    ------
    ValueError
        On any violated constraint (callers re-wrap into ``ReplayError``).
    """
    p = kern.size
    f = kern.f
    n = kern.n
    cfs = kern.child_f_sum
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx
    if len(order) != p:
        raise ValueError("schedule order is not a permutation of the tree nodes")
    position = [-1] * p
    for step, i in enumerate(order):
        if position[i] != -1:
            raise ValueError("schedule order is not a permutation of the tree nodes")
        position[i] = step

    evict_at: Dict[int, List[int]] = {}
    for victim, step in evictions.items():
        if not 0 <= step < p:
            raise ValueError(
                f"eviction step {step} of {kern.ids[victim]!r} out of range"
            )
        if position[victim] <= step:
            raise ValueError(
                f"node {kern.ids[victim]!r} evicted at step {step} but "
                f"executes at step {position[victim]}; files must be "
                "evicted strictly before their owner runs"
            )
        evict_at.setdefault(step, []).append(victim)

    # resident state: 0 = absent, 1 = resident, 2 = on disk
    state = [0] * p
    state[0] = 1
    resident_size = f[0]
    peak = resident_size
    io_total = 0.0
    bound = None
    if memory is not None:
        bound = memory * (1.0 + rel_tol) + abs_tol

    for step, i in enumerate(order):
        victims = evict_at.get(step)
        if victims:
            for victim in victims:
                if state[victim] != 1:
                    raise ValueError(
                        f"step {step}: evicted file {kern.ids[victim]!r} is "
                        "not resident (not produced yet, or already written out)"
                    )
                state[victim] = 2
                resident_size -= f[victim]
                io_total += f[victim]
        if state[i] == 2:  # read the input file back from secondary memory
            state[i] = 1
            resident_size += f[i]
        if state[i] != 1:
            raise ValueError(
                f"step {step}: input file of {kern.ids[i]!r} is not "
                "resident; the parent has not executed"
            )
        step_peak = resident_size + n[i] + cfs[i]
        if bound is not None and step_peak > bound:
            raise ValueError(
                f"step {step}: executing {kern.ids[i]!r} needs "
                f"{step_peak:.6g} but the memory bound is {memory:.6g}"
            )
        if step_peak > peak:
            peak = step_peak
        state[i] = 0
        resident_size += cfs[i] - f[i]
        for pos in range(child_ptr[i], child_ptr[i + 1]):
            state[child_idx[pos]] = 1

    for i in range(p):
        if state[i] == 2:
            raise ValueError(
                f"files never read back: [{kern.ids[i]!r}]"
            )
    return peak, io_total, len(evictions)


# ----------------------------------------------------------------------
# MinIO: the eviction simulator with incremental resident accounting
# ----------------------------------------------------------------------
def kernel_out_of_core(
    kern: TreeKernel,
    memory: float,
    order: Sequence[int],
    selector,
    *,
    eps: float = 1e-12,
) -> Tuple[Dict[int, int], float, float]:
    """Out-of-core simulation of a top-down ``order`` (indices) on the kernel.

    The hot loop of :func:`repro.core.minio.scheduler.run_out_of_core`:
    whenever the next node does not fit, the evictable resident files
    (latest-scheduled-first) are offered to ``selector``; any shortfall is
    topped up in LSNF order.  The resident size is maintained incrementally
    (re-summing the resident set per step would be quadratic).

    Parameters
    ----------
    kern, memory, order:
        Instance, memory bound (``>= max MemReq``), full top-down order.
    selector:
        ``(candidates, io_req) -> victims`` over ``(original id, size)``
        pairs, exactly as the public heuristics expect.

    Returns
    -------
    (evictions, io_volume, peak_resident)
        Eviction step per evicted node *index*, total written volume, and
        the peak resident memory.
    """
    p = kern.size
    f = kern.f
    ids = kern.ids
    index = kern.index
    mem_req = kern.mem_req
    child_ptr = kern.child_ptr
    child_idx = kern.child_idx

    position = [0] * p
    for step, i in enumerate(order):
        position[i] = step

    resident: Dict[int, float] = {0: f[0]}
    resident_size = f[0]
    on_disk = set()
    evictions: Dict[int, int] = {}
    io_total = 0.0
    peak_resident = resident_size

    for step, i in enumerate(order):
        # 1. read the input file back if it was unloaded
        if i in on_disk:
            on_disk.discard(i)
            resident[i] = f[i]
            resident_size += f[i]

        # 2. free memory if the node does not fit
        extra = mem_req[i] - f[i]
        io_req = extra - (memory - resident_size)
        if io_req > eps:
            # evictable files, latest-scheduled-first (the paper's set S),
            # exposed to the selector under their original identifiers
            cand_idx = sorted(
                (j for j in resident if j != i),
                key=lambda j: position[j],
                reverse=True,
            )
            candidates = [(ids[j], resident[j]) for j in cand_idx]
            freed = 0.0
            for victim_id in selector(candidates, io_req):
                j = index[victim_id]
                size = resident.pop(j)
                resident_size -= size
                freed += size
                on_disk.add(j)
                evictions[j] = step
                io_total += f[j]
            if freed + eps < io_req:
                # top up in LSNF order so execution always proceeds
                for j in cand_idx:
                    if freed >= io_req - eps:
                        break
                    if j not in resident:
                        continue
                    size = resident.pop(j)
                    resident_size -= size
                    freed += size
                    on_disk.add(j)
                    evictions[j] = step
                    io_total += f[j]
            if freed + eps < io_req:
                raise ValueError(
                    "infeasible eviction: not enough resident files to free"
                )

        # 3. execute the node
        during = resident_size + extra
        if during > peak_resident:
            peak_resident = during
        size = resident.pop(i, None)
        if size is not None:
            resident_size -= size
        for pos in range(child_ptr[i], child_ptr[i + 1]):
            c = child_idx[pos]
            resident[c] = f[c]
            resident_size += f[c]

    return evictions, io_total, peak_resident
