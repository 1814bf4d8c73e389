"""Incremental re-solve: ``solve(tree, ..., reuse=report)``.

The postorder and Liu solvers are bottom-up sweeps whose per-node state
(postorder: the subtree peak and chosen child permutation; Liu: the
canonical hill--valley segments) only depends on the node's subtree.  After
a tree mutation (:meth:`Tree.add_node <repro.core.tree.Tree.add_node>`,
``set_f``, ``set_n``) only the mutated nodes' root paths can change, so a
re-solve needs to revisit exactly those nodes -- everything else is reused
verbatim from the previous run.

The plumbing works in three layers:

* :class:`~repro.core.tree.Tree` journals mutations and patches its cached
  kernel (:meth:`TreeKernel.patched <repro.core.kernel.TreeKernel.patched>`),
  tagging the new kernel with its base and the dirty root-path set;
* this module keeps a small process-wide LRU of per-solve state, referenced
  from reports by an opaque token in ``extras["incremental_token"]`` (the
  state itself is not JSON, so reports stay serialisable);
* :func:`solve_incremental` -- reached through ``solve(..., reuse=...)`` --
  resolves the token, and runs :func:`~repro.core.kernel.kernel_postorder_patch`
  / :func:`~repro.core.kernel.kernel_liu_patch` when the previous state's
  kernel is exactly the base of the current one.  On any mismatch (state
  evicted, different algorithm, unrelated tree, journal overflow) it falls
  back to the full sweep, which doubles as the differential-testing oracle:
  both paths are bit-identical, as ``tests/differential`` asserts on
  thousands of generated mutation sequences.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import count
from time import perf_counter
from typing import Any, Dict, Optional, Union

from ..core.kernel import (
    TreeKernel,
    kernel_liu_patch,
    kernel_liu_state,
    kernel_postorder,
    kernel_postorder_patch,
)
from ..core.traversal import BOTTOMUP, Traversal
from ..core.tree import Tree
from .registry import get_solver
from .report import SolveReport

__all__ = [
    "INCREMENTAL_ALGORITHMS",
    "solve_incremental",
    "clear_state_cache",
    "state_cache_size",
]

#: registry names supporting ``reuse=``, mapped to their postorder
#: child-ordering rule (``None`` marks Liu's hill--valley algorithm)
INCREMENTAL_ALGORITHMS: Dict[str, Optional[str]] = {
    "postorder": "liu",
    "postorder_natural": "natural",
    "postorder_subtree_memory": "subtree_memory",
    "liu": None,
}

#: retained per-solve states; each holds one kernel plus O(p) solver state
STATE_CACHE_CAPACITY = 32


@dataclass
class _SolveState:
    """One retained solve: the kernel it ran on and the per-node arrays."""

    kernel: TreeKernel
    key: str  # canonical algorithm name + rule, e.g. "postorder:liu"
    payload: tuple  # the solver's full result tuple


_states: "OrderedDict[str, _SolveState]" = OrderedDict()
_tokens = count(1)


def _remember(state: _SolveState) -> str:
    token = f"inc-{next(_tokens):x}"
    _states[token] = state
    while len(_states) > STATE_CACHE_CAPACITY:
        _states.popitem(last=False)
    return token


def _lookup(token: Optional[str]) -> Optional[_SolveState]:
    if not isinstance(token, str):
        return None
    state = _states.get(token)
    if state is not None:
        _states.move_to_end(token)
    return state


def clear_state_cache() -> None:
    """Drop every retained solve state (mainly for tests)."""
    _states.clear()


def state_cache_size() -> int:
    """Number of currently retained solve states."""
    return len(_states)


def solve_incremental(
    tree: Union[Tree, TreeKernel],
    algorithm: str = "postorder",
    *,
    memory: Optional[float] = None,
    reuse: Union[bool, str, SolveReport] = True,
    **options: Any,
) -> SolveReport:
    """Solve ``tree``, reusing a previous report's per-node state if possible.

    This is the implementation behind ``solve(..., reuse=...)``.

    Parameters
    ----------
    tree : Tree or TreeKernel
        The (possibly mutated) task tree.
    algorithm : str
        One of :data:`INCREMENTAL_ALGORITHMS` (the postorder variants and
        ``liu``); other registry names raise :class:`TypeError` -- their
        sweeps carry no reusable per-node state.
    memory : float, optional
        Accepted for facade symmetry; the in-core solvers ignore it.
    reuse : True, token string, or SolveReport
        ``True`` solves from scratch but retains state for later reuse; a
        report (or its ``extras["incremental_token"]``) resumes from that
        solve when its kernel is exactly the base of the current one.
    options
        ``rule=`` (for ``postorder``) only.

    Returns
    -------
    SolveReport
        Bit-identical (peak, traversal, I/O) to the from-scratch report.
        ``extras["incremental"]`` records which path ran -- ``"patched"``,
        ``"full"``, or ``"cached"`` (tree unchanged since the reused
        report) -- and ``extras["incremental_token"]`` references the
        retained state for the next ``reuse=`` call.
    """
    spec = get_solver(algorithm)
    name = spec.name
    if name not in INCREMENTAL_ALGORITHMS:
        raise TypeError(
            f"solver {name!r} does not support reuse=; incremental re-solve "
            f"is available for {sorted(INCREMENTAL_ALGORITHMS)}"
        )
    opts = dict(options)
    rule = INCREMENTAL_ALGORITHMS[name]
    if name == "postorder":
        rule = opts.pop("rule", rule)
    if opts:
        raise TypeError(
            f"solver {name!r} got unexpected option(s) {sorted(opts)} "
            "with reuse="
        )
    key = f"{name}:{rule}"

    kern = tree if isinstance(tree, TreeKernel) else tree.kernel()
    if reuse is True:
        prev = None
    elif isinstance(reuse, SolveReport):
        prev = _lookup(reuse.extras.get("incremental_token"))
    else:
        prev = _lookup(reuse)
    if prev is not None and prev.key != key:
        prev = None

    start = perf_counter()
    if prev is not None and prev.kernel is kern:
        mode = "cached"
        payload = prev.payload
    elif (
        prev is not None
        and kern._dirty is not None
        and kern.base_kernel() is prev.kernel
    ):
        mode = "patched"
        if rule is None:
            payload = kernel_liu_patch(kern, prev.payload[2], prev.payload[3])
        else:
            payload = kernel_postorder_patch(
                kern, prev.payload[2], prev.payload[3], rule
            )
    else:
        mode = "full"
        if rule is None:
            payload = kernel_liu_state(kern)
        else:
            payload = kernel_postorder(kern, rule)
    elapsed = perf_counter() - start

    token = _remember(_SolveState(kernel=kern, key=key, payload=payload))
    peak, order_idx = payload[0], payload[1]
    extras: Dict[str, Any] = {}
    if rule is None:
        extras["segments"] = len(payload[3][0])  # root's canonical segments
    else:
        extras["rule"] = rule
    extras["incremental"] = mode
    extras["incremental_token"] = token
    if mode == "patched":
        extras["dirty_nodes"] = len(kern._dirty)
    return SolveReport(
        algorithm=name,
        peak_memory=peak,
        traversal=Traversal(kern.order_to_ids(order_idx), BOTTOMUP),
        wall_time=elapsed,
        extras=extras,
    )
