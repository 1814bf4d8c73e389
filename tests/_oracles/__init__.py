"""Per-node reference implementations: the oracles of the test suite.

Every algorithm in ``src/`` has one implementation, on the flat
:class:`~repro.core.kernel.TreeKernel` arrays (and, in the sparse layer, on
vectorized numpy).  The original implementations -- written node by node
against the dict-based :class:`~repro.core.tree.Tree` accessors, and entry
by entry in the sparse layer -- live here unchanged, so tests can require
both to agree on every input.  Next to them sit the exhaustive ground
truth for tiny trees (:mod:`.bruteforce`) and the pebble-game special
cases with known answers (:mod:`.pebble`).  Import them the way
``_helpers`` is imported::

    from _oracles import solve, replay_report
    from _oracles.explore import ExploreSolver
    from _oracles.bruteforce import optimal_min_memory
    from _oracles import sparse
"""

from . import sparse
from .core import (
    flatten_nodes,
    liu_optimal_traversal,
    min_mem,
    postorder_with_rule,
    run_out_of_core,
)
from .explore import ExploreResult, ExploreSolver
from .replay import replay_report, replay_schedule, replay_traversal
from .solvers import solve

__all__ = [
    "ExploreResult",
    "ExploreSolver",
    "flatten_nodes",
    "liu_optimal_traversal",
    "min_mem",
    "postorder_with_rule",
    "replay_report",
    "replay_schedule",
    "replay_traversal",
    "run_out_of_core",
    "solve",
    "sparse",
]
