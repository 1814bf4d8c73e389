"""Differential gate: the fill-reducing orderings against their oracles.

``minimum_degree_ordering`` and ``nested_dissection_ordering`` must return
the oracle's int64 permutation on every input, tie-breaks included: drawn
symmetric patterns (forests and isolated vertices among them), drawn graphs
rich in minimum-degree followers (cliques, complete bipartite blocks and
twin vertices), every labelled graph on at most five vertices, and the
data-set matrix suites.
The two oracles (``tests/_oracles/sparse.py``) share nothing with the
code under test but ``symmetrized_pattern``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import sparse as oracle
from repro.analysis.datasets import matrix_suite
from repro.sparse.ordering import minimum_degree_ordering, nested_dissection_ordering


def pattern(n, edges):
    """Symmetric 0/1 pattern of an undirected edge list on ``n`` vertices."""
    rows = [i for i, j in edges] + [j for i, j in edges]
    cols = [j for i, j in edges] + [i for i, j in edges]
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def assert_identical(matrix, leaf_sizes):
    got, expected = minimum_degree_ordering(matrix), oracle.minimum_degree_ordering(matrix)
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    for leaf_size in leaf_sizes:
        got = nested_dissection_ordering(matrix, leaf_size=leaf_size)
        expected = oracle.nested_dissection_ordering(matrix, leaf_size=leaf_size)
        assert got.dtype == np.int64 and np.array_equal(got, expected), leaf_size


@st.composite
def symmetric_patterns(draw, max_vertices: int = 60):
    """Random graphs and forests (new roots leave isolated vertices), with
    their vertices relabelled by a drawn permutation."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertex = st.integers(min_value=0, max_value=n - 1)
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    else:
        parents = [draw(st.integers(min_value=-1, max_value=v - 1)) for v in range(1, n)]
        edges = [(v, p) for v, p in enumerate(parents, start=1) if p >= 0]
    label = draw(st.permutations(range(n)))
    return pattern(n, [(label[i], label[j]) for i, j in edges])


@settings(max_examples=150)
@given(matrix=symmetric_patterns(), leaf_size=st.sampled_from((1, 2, 3, 4, 8, 32)))
def test_drawn_patterns(matrix, leaf_size):
    assert_identical(matrix, (leaf_size,))


@st.composite
def follower_rich_patterns(draw, max_base: int = 24, max_twins: int = 16):
    """Graphs whose minimum-degree pivots have followers: cliques and
    complete bipartite blocks over drawn vertex sets, then twins (a new
    vertex copies an earlier vertex's open or closed neighbourhood), with
    the vertices relabelled by a drawn permutation."""
    n = draw(st.integers(min_value=1, max_value=max_base))
    neighbours = [set() for _ in range(n)]

    def join(a, b):
        if a != b:
            neighbours[a].add(b)
            neighbours[b].add(a)

    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        members = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8, unique=True))
        if draw(st.booleans()):
            for a, b in combinations(members, 2):
                join(a, b)
        else:
            cut = draw(st.integers(min_value=0, max_value=len(members)))
            for a in members[:cut]:
                for b in members[cut:]:
                    join(a, b)
    for _ in range(draw(st.integers(min_value=0, max_value=max_twins))):
        original = draw(st.integers(min_value=0, max_value=len(neighbours) - 1))
        copied = set(neighbours[original])
        if draw(st.booleans()):
            copied.add(original)
        neighbours.append(set())
        for w in copied:
            join(len(neighbours) - 1, w)
    edges = [(v, w) for v, nbrs in enumerate(neighbours) for w in nbrs if v < w]
    label = draw(st.permutations(range(len(neighbours))))
    return pattern(len(neighbours), [(label[i], label[j]) for i, j in edges])


@settings(max_examples=150)
@given(matrix=follower_rich_patterns())
def test_drawn_follower_rich_graphs(matrix):
    assert_identical(matrix, (1, 2, 4, 32))


@pytest.mark.parametrize("n", range(1, 6))
def test_every_labelled_graph(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pair for k, pair in enumerate(pairs) if bits >> k & 1]
        assert_identical(pattern(n, edges), (1, 2, 32))


@pytest.mark.parametrize(
    "matrix",
    [pytest.param(matrix, id=name) for name, matrix in matrix_suite("tiny") + matrix_suite("small")],
)
def test_matrix_suites(matrix):
    assert_identical(matrix, (8, 32))
