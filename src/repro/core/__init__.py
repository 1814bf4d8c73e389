"""Core algorithms of the reproduction: trees, traversals, MinMemory, MinIO.

This package is self-contained (it does not depend on the sparse-matrix
substrate) and implements every algorithm of the paper:

* the task-tree model and its variants (:mod:`repro.core.tree`,
  :mod:`repro.core.builders`);
* feasibility checkers and the memory simulator
  (:mod:`repro.core.traversal`);
* the three MinMemory solvers -- ``PostOrder`` (:mod:`repro.core.postorder`),
  ``Liu`` (:mod:`repro.core.liu`) and ``MinMem`` (:mod:`repro.core.minmem`);
* the MinIO out-of-core scheduler and its six eviction heuristics
  (:mod:`repro.core.minio`);
* the array-backed tree kernel every solver runs on, including the
  ``Explore`` solver of Algorithm 3 (:mod:`repro.core.kernel`).

Each algorithm has one implementation, on the kernel; the test suite keeps
the original per-node versions, the exhaustive ground truth and the
pebble-game special cases as oracles.
"""

from .builders import (
    chain_tree,
    from_edges,
    from_liu_model,
    from_networkx,
    from_parent_list,
    from_replacement_model,
    star_tree,
    uniform_weights,
)
from .kernel import KernelExploreSolver, TreeKernel
from .liu import LiuResult, Segment, liu_min_memory, liu_optimal_traversal
from .minmem import MinMemResult, min_mem, min_memory
from .postorder import POSTORDER_RULES, PostOrderResult, best_postorder, postorder_with_rule
from .serialize import (
    load_tree,
    save_tree,
    solve_report_from_dict,
    solve_report_to_dict,
    traversal_from_dict,
    traversal_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from .traversal import (
    BOTTOMUP,
    TOPDOWN,
    MemoryProfile,
    OutOfCoreSchedule,
    StepRecord,
    Traversal,
    TraversalError,
    check_in_core,
    check_out_of_core,
    is_postorder,
    is_topological,
    memory_profile,
    peak_memory,
)
from .tree import Tree, TreeValidationError

__all__ = [
    # tree
    "Tree",
    "TreeValidationError",
    # kernel
    "TreeKernel",
    "KernelExploreSolver",
    # builders
    "from_parent_list",
    "from_edges",
    "from_networkx",
    "from_replacement_model",
    "from_liu_model",
    "chain_tree",
    "star_tree",
    "uniform_weights",
    # traversal
    "Traversal",
    "TraversalError",
    "OutOfCoreSchedule",
    "MemoryProfile",
    "StepRecord",
    "TOPDOWN",
    "BOTTOMUP",
    "memory_profile",
    "peak_memory",
    "check_in_core",
    "check_out_of_core",
    "is_topological",
    "is_postorder",
    # postorder
    "PostOrderResult",
    "best_postorder",
    "postorder_with_rule",
    "POSTORDER_RULES",
    # liu
    "LiuResult",
    "Segment",
    "liu_optimal_traversal",
    "liu_min_memory",
    # minmem
    "MinMemResult",
    "min_mem",
    "min_memory",
    # serialize
    "save_tree",
    "load_tree",
    "tree_to_dict",
    "tree_from_dict",
    "traversal_to_dict",
    "traversal_from_dict",
    "solve_report_to_dict",
    "solve_report_from_dict",
]
