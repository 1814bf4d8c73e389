"""Hypothesis strategies shared by the differential-testing suite.

Trees are built with integer node ids ``0..p-1`` in insertion order and
exact (small-integer-valued) float weights, so every solver comparison in
this suite can assert *bit identity* -- ``==`` on peaks and traversals,
no tolerances.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.tree import Tree

#: exact float weights: integers survive every fsum/merge unchanged
f_weights = st.integers(min_value=0, max_value=12).map(float)
n_weights = st.integers(min_value=0, max_value=6).map(float)


@st.composite
def task_trees(draw, min_nodes: int = 1, max_nodes: int = 40) -> Tree:
    """Random parent-attachment trees with integer ids and exact weights."""
    size = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    tree = Tree()
    tree.add_node(0, f=draw(f_weights), n=draw(n_weights))
    for i in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        tree.add_node(i, parent=parent, f=draw(f_weights), n=draw(n_weights))
    return tree
