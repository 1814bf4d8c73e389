"""The ``MinMem`` exact MinMemory algorithm (paper Algorithm 4).

``MinMem`` solves the MinMemory problem exactly: it computes the minimum
amount of main memory that allows a fully in-core traversal of the task tree,
together with such a traversal.  It repeatedly calls ``Explore``
(:class:`~repro.core.kernel.KernelExploreSolver`):

1. start with the trivial lower bound ``max_i MemReq(i)``;
2. explore the tree with that much memory, reusing the state reached by the
   previous exploration;
3. if the whole tree could not be processed, the exploration reports the
   smallest memory ``M_peak`` that would allow one more node to be visited;
   set the available memory to ``M_peak`` and repeat.

The memory of the final iteration is optimal, and the recorded traversal is a
witness.  Worst-case complexity is ``O(p^2)`` like Liu's exact algorithm, but
the systematic reuse of reached states makes it considerably faster on
assembly trees (Section VI-C of the paper).

Every sweep enters the solver at the root.  The solver keeps each node's
partial traversal as a linked list over node indices rather than as nested
containers, and a cut with one entry as a tuple, which CPython stops
tracking at its first young collection.  What outlives a sweep for the
garbage collector to walk is one list per node whose cut has two or more
entries, and none on a chain.  The optimal traversal is read off the
root's linked list once, after the last sweep.

Each ``Explore`` call costs only the work of the algorithm: a leaf runs in
place, a freshly executed one-child node keeps no frame (a chain is one
tight loop down and one back up), and merging a child into a cut
overwrites the child's slot, leaving a hole when the child's cut is empty,
so a star's sweep is linear in its leaves.  A pass that tried candidates
but changed nothing ends its node instead of repeating forever; at file
sizes of about ``10**7`` and more, where the solver's absolute tolerance
is below the float spacing, MinMem then either reaches the optimum or
raises its floating-point stall ``RuntimeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .kernel import TreeKernel, kernel_min_mem
from .traversal import TOPDOWN, Traversal
from .tree import Tree

__all__ = ["MinMemResult", "min_mem", "min_memory"]

NodeId = Hashable


@dataclass(frozen=True)
class MinMemResult:
    """Result of the ``MinMem`` algorithm.

    Attributes
    ----------
    memory:
        The optimal (minimum) main memory over all traversals.
    traversal:
        An optimal traversal, in top-down convention (the paper's default);
        call ``traversal.reversed()`` for the bottom-up reading.
    iterations:
        Number of ``Explore`` sweeps from the root.
    explore_calls:
        Total number of ``Explore`` invocations (all nodes).
    """

    memory: float
    traversal: Traversal
    iterations: int
    explore_calls: int


def min_memory(tree: Tree) -> float:
    """Minimum memory over all traversals (value only)."""
    return min_mem(tree).memory


def min_mem(tree: Tree) -> MinMemResult:
    """Run the ``MinMem`` algorithm (Algorithm 4 of the paper).

    Every node keeps the exploration state it reached across sweeps and
    resumes from it, which is what makes the algorithm fast in practice.
    The paper's pseudocode keeps only the root's state (the ``L_init`` /
    ``Tr_init`` arguments of Algorithm 4); that literal mode, which returns
    the same optimum more slowly, lives on as the test suite's oracle.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The task tree (a flat :class:`~repro.core.kernel.TreeKernel` is
        accepted directly).

    Returns
    -------
    MinMemResult
        Optimal memory and a witness traversal.
    """
    kern = tree if isinstance(tree, TreeKernel) else tree.kernel()
    memory, order_idx, iterations, explore_calls = kernel_min_mem(kern)
    return MinMemResult(
        memory=memory,
        traversal=Traversal(kern.order_to_ids(order_idx), TOPDOWN),
        iterations=iterations,
        explore_calls=explore_calls,
    )
