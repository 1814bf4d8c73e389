"""The ``"auto"`` portfolio solver: route cheaply, race when it matters.

No single MinMemory algorithm dominates across the benchmark families:
``postorder`` is the fastest sweep and optimal on chains and assembly
trees, but its peak can be arbitrarily worse than optimal on harpoon
shapes (the paper's Figure 2 construction), where Liu's hill--valley
algorithm is exact.  This module adds a portfolio entry that makes the
choice automatically:

* :func:`tree_features` extracts O(p) structural features from the flat
  :class:`~repro.core.kernel.TreeKernel`;
* :data:`ROUTING_TABLE` -- a plain-data decision list fitted offline from
  the committed ``BENCH`` optimality ratios by ``tools/fit_portfolio.py``
  -- maps those features to the predicted-best in-core algorithm;
* above :data:`RACE_NODE_THRESHOLD` nodes, where a wrong pick is most
  expensive and the sweeps are slow enough to amortise process overhead,
  ``auto`` instead *races* :data:`RACE_CANDIDATES` through the persistent
  shared-memory engine (:mod:`repro.solvers.engine`) and keeps the winner
  by ``(peak_memory, io_volume, candidate order)`` -- never wall time, so
  the result is deterministic whichever candidate finishes first.

The table is deliberately conservative: every rule routes to an *exact*
algorithm (``liu``, ``minmem``) except the pure-chain rule, whose
traversal is forced and therefore optimal by construction -- so routing
never gives up peak quality, only picks the cheapest sweep that keeps
it.  ``tests/differential`` asserts the acceptance criterion: on every
bench family (and on adversarially drawn trees), ``auto``'s peak is
within :data:`TOLERANCE` of the best single in-core algorithm.
"""

from __future__ import annotations

import math
import multiprocessing
import operator
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.kernel import TreeKernel
from ..core.tree import Tree
from .registry import register_solver
from .report import SolveReport

__all__ = [
    "ROUTING_TABLE",
    "RACE_CANDIDATES",
    "RACE_NODE_THRESHOLD",
    "TOLERANCE",
    "tree_features",
    "route",
]

#: acceptance bound: auto's peak vs the best single in-core algorithm
TOLERANCE = 1.05

#: node count above which ``auto`` races instead of routing
RACE_NODE_THRESHOLD = 20_000

#: the algorithms raced above the threshold (postorder: fastest sweep,
#: optimal on most shapes; liu: exact everywhere, covers postorder's
#: worst cases).  Order is the deterministic tie-break.
RACE_CANDIDATES = ("postorder", "liu")

#: Decision list fitted from the committed BENCH optimality ratios (see
#: ``tools/fit_portfolio.py``, which re-derives and validates it).  Rules
#: are tried top to bottom; the first whose conditions all hold routes.
#: Order matters: flat harpoons have ``chain_frac == 1.0``, so the
#: harpoon rule must fire before the chain rule.
ROUTING_TABLE: Tuple[Dict[str, Any], ...] = (
    {
        # harpoon-shaped trees: heavy leaves feeding long chains are the
        # postorder worst case (ratios 1.23-2.67 in BENCH); Liu is exact
        "rule": "harpoon-like",
        "when": (("leaf_f_ratio", ">=", 2.0),),
        "algorithm": "liu",
    },
    {
        # pure chains: every internal node has one child, so the
        # bottom-up order is forced and the cheapest sweep is optimal by
        # construction -- the one route that skips an exact algorithm
        "rule": "chain-dominated",
        "when": (("chain_frac", ">=", 1.0),),
        "algorithm": "postorder",
    },
    {
        # assembly-like trees (elimination trees, multifrontal
        # pipelines): large execution files relative to outputs; minmem
        # is exact and is the paper's fast algorithm on exactly this shape
        "rule": "assembly-like",
        "when": (("n_share", ">=", 0.3),),
        "algorithm": "minmem",
    },
    {
        # everything else (mixed random shapes reach postorder ratios up
        # to 1.21): pay for the exact hill--valley algorithm
        "rule": "default",
        "when": (),
        "algorithm": "liu",
    },
)

_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
}


def tree_features(kern: TreeKernel) -> Dict[str, float]:
    """Cheap structural features of a task tree, for portfolio routing.

    All features are computed in two O(p) passes over the flat arrays of
    ``kern`` -- negligible next to any solver sweep -- and every value is
    a plain float so the dict serialises into report extras unchanged.

    Parameters
    ----------
    kern : TreeKernel
        The flat form of the tree (:meth:`Tree.kernel
        <repro.core.tree.Tree.kernel>`).

    Returns
    -------
    dict of str to float
        ``nodes``
            Node count ``p``.
        ``depth``
            Height of the tree (root-leaf edge count, 0 for a single
            node).
        ``max_fanout``
            Largest child count of any node.
        ``leaf_frac``
            Fraction of nodes that are leaves.
        ``chain_frac``
            Fraction of *internal* nodes with exactly one child (1.0 for
            a pure chain or a single node).
        ``n_share``
            Share of execution-file volume in the total weight,
            ``sum(n) / (sum(f) + sum(n))`` -- high on assembly trees,
            near zero in the pebble-game model where ``n == 0``.
        ``mem_spread``
            ``max(mem_req) / mean(mem_req)``: how much the heaviest
            node's requirement stands out.
        ``leaf_f_ratio``
            Mean leaf output size over mean output size -- the
            "harpoon-ness" signal; heavy leaves are what break
            postorder's optimality.

    Examples
    --------
    >>> from repro.core.builders import chain_tree
    >>> feats = tree_features(chain_tree(5, f=1.0, n=0.0).kernel())
    >>> feats["chain_frac"]
    1.0
    """
    p = kern.size
    parent, f, n = kern.parent, kern.f, kern.n
    child_ptr, mem_req = kern.child_ptr, kern.mem_req

    height = 0
    depth = [0] * p
    for i in range(1, p):  # parent[i] < i: one forward pass suffices
        d = depth[parent[i]] + 1
        depth[i] = d
        if d > height:
            height = d

    leaves = 0
    chains = 0
    max_fanout = 0
    leaf_f_total = 0.0
    for i in range(p):
        degree = child_ptr[i + 1] - child_ptr[i]
        if degree == 0:
            leaves += 1
            leaf_f_total += f[i]
        elif degree == 1:
            chains += 1
        if degree > max_fanout:
            max_fanout = degree

    total_f = math.fsum(f)
    total_n = math.fsum(n)
    total_weight = total_f + total_n
    internal = p - leaves
    mean_f = total_f / p
    mean_mem = math.fsum(mem_req) / p
    mean_leaf_f = leaf_f_total / leaves if leaves else 0.0
    return {
        "nodes": float(p),
        "depth": float(height),
        "max_fanout": float(max_fanout),
        "leaf_frac": leaves / p,
        "chain_frac": (chains / internal) if internal else 1.0,
        "n_share": (total_n / total_weight) if total_weight else 0.0,
        "mem_spread": (max(mem_req) / mean_mem) if mean_mem else 1.0,
        "leaf_f_ratio": (mean_leaf_f / mean_f) if mean_f else 1.0,
    }


def route(features: Dict[str, float]) -> Tuple[str, str]:
    """Apply :data:`ROUTING_TABLE` to ``features``; ``(rule, algorithm)``."""
    for entry in ROUTING_TABLE:
        if all(
            _OPS[op](features[key], threshold)
            for key, op, threshold in entry["when"]
        ):
            return entry["rule"], entry["algorithm"]
    raise AssertionError("ROUTING_TABLE must end with a catch-all rule")


def _race(tree, kern: TreeKernel) -> List[SolveReport]:
    """One report per :data:`RACE_CANDIDATES`, racing via the persistent
    engine in the main process and sequentially inside worker processes
    (nesting pools inside an engine worker would deadlock the arena)."""
    from .facade import _dispatch, solve_many

    if multiprocessing.parent_process() is None:
        (by_name,) = solve_many([kern], RACE_CANDIDATES, workers=len(RACE_CANDIDATES))
        return [by_name[name] for name in RACE_CANDIDATES]
    return [_dispatch(tree, name, None, {}, strict=False) for name in RACE_CANDIDATES]


@register_solver(
    "auto",
    family="portfolio",
    summary="portfolio: route on tree features, race the sweeps when large",
    aliases=("portfolio",),
)
def _solve_auto(
    tree: Tree,
    *,
    race_threshold: Optional[float] = None,
    **_ignored: Any,
) -> SolveReport:
    """Pick the in-core algorithm automatically; see the module docstring."""
    kern = tree if isinstance(tree, TreeKernel) else tree.kernel()
    features = tree_features(kern)
    threshold = RACE_NODE_THRESHOLD if race_threshold is None else race_threshold

    if kern.size >= threshold:
        reports = _race(tree, kern)
        # deterministic winner: quality, then candidate order -- never time
        winner = min(
            range(len(reports)),
            key=lambda i: (reports[i].peak_memory, reports[i].io_volume, i),
        )
        inner = reports[winner]
        info: Dict[str, Any] = {
            "algorithm": inner.algorithm,
            "mode": "race",
            "candidates": list(RACE_CANDIDATES),
        }
    else:
        from .facade import _dispatch

        rule, chosen = route(features)
        inner = _dispatch(tree, chosen, None, {}, strict=False)
        info = {"algorithm": inner.algorithm, "mode": "route", "rule": rule}

    info["features"] = features
    extras = dict(inner.extras)
    extras["portfolio"] = info
    return replace(inner, extras=extras)
