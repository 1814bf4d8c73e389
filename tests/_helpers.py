"""Plain-module test helpers, importable from any test file.

Pytest runs this suite in ``prepend`` import mode without ``__init__.py``
files, so test modules are top-level modules and ``from .conftest import ...``
relative imports fail at collection.  Helpers shared across test files
therefore live here and are imported absolutely::

    from _helpers import make_random_tree, can_spawn_workers
"""

from __future__ import annotations

import functools
import random

from repro.core.tree import Tree
from repro.solvers.engine.pool import PersistentPool

__all__ = ["can_spawn_workers", "make_random_tree"]


@functools.lru_cache(maxsize=None)
def can_spawn_workers() -> bool:
    """Whether this platform can start the engine's worker processes."""
    pool = PersistentPool()
    try:
        return pool.ensure(2) is not None
    finally:
        pool.shutdown()


def make_random_tree(
    n_nodes: int,
    rng: random.Random,
    *,
    max_f: int = 10,
    max_n: int = 5,
    min_f: int = 0,
    window: int | None = None,
) -> Tree:
    """Random tree used across many tests (uniform or windowed attachment)."""
    tree = Tree()
    tree.add_node(0, f=rng.randint(min_f, max_f), n=rng.randint(0, max_n))
    for i in range(1, n_nodes):
        low = 0 if window is None else max(0, i - window)
        parent = rng.randint(low, i - 1)
        tree.add_node(
            i,
            parent=parent,
            f=rng.randint(max(min_f, 1), max_f),
            n=rng.randint(0, max_n),
        )
    return tree
