"""Differential gate: the Matrix Market reader and the amalgamation against
their oracles.

``read_matrix_market`` (SciPy's compiled reader behind the library's header
and numeral checks) must return the oracle's CSC matrix -- ``data``,
``indices``, ``indptr`` and their dtypes -- on drawn well-formed files:
general, symmetric and skew-symmetric storage, real, integer and pattern
fields, comment headers, blank lines, duplicate entries, ``+`` and ``-``
signs, exponent and dot forms in real and integer fields, and integers
beyond int64.  The oracle drops the stored zeros of a (skew-)symmetric
file and the reader keeps them, so those files hold no zero value and no
duplicates that cancel.  On drawn malformed general files, the reader must
return the oracle's matrix or raise a ``ValueError`` naming the file: it
refuses some numerals the oracle reads, but never reads a matrix the oracle
does not.

``amalgamate`` (index arrays and plain-int lists) must return the oracle's
supernodes, quotient tree and column map (dict-of-lists relaxed sweep) on
drawn elimination-tree parent arrays, forests included, and
``assembly_tree_from_etree`` the oracle's ``add_node``-built tree, node
order and children orders included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import sparse as oracle
from repro.sparse.amalgamation import amalgamate
from repro.sparse.assembly import assembly_tree_from_etree
from repro.sparse.mmio import read_matrix_market


def assert_same_csc(got, expected):
    assert type(got) is type(expected) and got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        # duplicates +inf and -inf sum to nan in both readers
        assert np.array_equal(a, b, equal_nan=True), name


@st.composite
def mtx_documents(draw):
    """The text of a drawn coordinate file."""
    symmetry = draw(st.sampled_from(("general", "symmetric", "skew-symmetric")))
    field = draw(st.sampled_from(("real", "integer", "pattern")))
    rows = draw(st.integers(min_value=1, max_value=12))
    if symmetry == "general":
        cols = draw(st.integers(min_value=1, max_value=12))
        pairs = [(i, j) for i in range(rows) for j in range(cols)]
    else:  # the lower triangle, strictly for skew-symmetric storage
        cols = rows
        diagonal = symmetry == "symmetric"
        pairs = [(i, j) for i in range(rows) for j in range(i + diagonal)]
    positions = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    if positions:  # duplicate entries, anywhere in the body
        positions += draw(st.lists(st.sampled_from(positions), max_size=10))
        positions = draw(st.permutations(positions))

    digits = st.one_of(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=2**80),
    ).map(str)
    decimal = st.one_of(
        st.floats(min_value=0.0, max_value=1e300).map(repr),
        st.builds("{}{}{}{}".format, digits, st.sampled_from(("", ".")),
                  st.sampled_from(("", "5", "25")), exponents()),
        st.builds(".{}{}".format, digits, exponents()),
    )
    # an integer field is read as Python's float reads it, so it takes the
    # real field's forms too
    magnitude = digits if draw(st.booleans()) else st.one_of(digits, decimal)
    signs = {}
    lines = []
    for i, j in positions:
        text = f"{draw(plus())}{i + 1} {draw(plus())}{j + 1}"
        if field != "pattern":
            value = draw(magnitude)
            if symmetry == "general":
                sign = draw(st.sampled_from(("", "-", "+")))
            else:
                # no stored zero and one sign per position: duplicates
                # never cancel to one
                if float(value) == 0.0:
                    value = "1"
                sign = signs.setdefault((i, j), draw(st.sampled_from(("", "-", "+"))))
            text += f" {sign}{value}"
        lines.append(text)
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            lines.append("")
    comments = draw(st.lists(st.sampled_from(("%", "% a comment", "%%not a banner", "")), max_size=3))
    trailing = [""] * draw(st.integers(min_value=0, max_value=2))
    header = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", *comments,
              f"{rows} {draw(plus())}{cols} {len(positions)}"]
    return "\n".join(header + lines + trailing) + "\n"


def plus():
    return st.sampled_from(("", "", "+"))


def exponents():
    return st.one_of(
        st.just(""),
        st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(("", "+", "-")),
                  st.integers(min_value=0, max_value=400)),
    )


@settings(max_examples=200)
@given(text=mtx_documents())
def test_reader_matches_the_oracle(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn.mtx"
    path.write_text(text)
    assert_same_csc(read_matrix_market(path), oracle.read_matrix_market(path))


# index and value numerals, and broken tokens that replace one or are glued
# to it; separators are mostly spaces and tabs, sometimes a vertical tab or a
# no-break space, which Python's ``str.split`` takes for whitespace and the
# reader does not
_INDICES = ("1", "2", "3", "+2", "03")
_VALUES = ("1", "-7", "+2", "1.5", "-.5", "5.", "1e3", "2E-1", "+4e+1", "0", "-0.0")
_BROKEN = ("1_0", "0x10", "d3", ".2.3", "e", "-2", "e5", ".", "-", "+", "nan", "inf",
           "\u0661", "%", "abc", ".0")
_SEPARATORS = (" ",) * 6 + ("\t", "  ", "\x0b", "\xa0")


@st.composite
def malformed_documents(draw):
    """The text of a drawn general coordinate file whose entry tokens are
    mostly numerals, some of them broken."""

    def token(numerals):
        good = draw(st.sampled_from(numerals))
        how = draw(st.sampled_from(("keep",) * 5 + ("replace", "glue")))
        if how == "keep":
            return good
        bad = draw(st.sampled_from(_BROKEN))
        return bad if how == "replace" else good + bad

    field = draw(st.sampled_from(("real", "integer", "pattern")))
    count = draw(st.integers(min_value=0, max_value=4))
    lines = []
    for _ in range(count):
        tokens = [token(_INDICES), token(_INDICES)]
        if field != "pattern":
            tokens.append(token(_VALUES))
        # tokens after the numerals are ignored
        tokens += draw(st.lists(st.sampled_from(_VALUES + _BROKEN), max_size=2))
        lines.append(draw(st.sampled_from(("", " "))) + "".join(
            text + draw(st.sampled_from(_SEPARATORS)) for text in tokens))
    declared = count + draw(st.sampled_from((0, 0, 0, 1, -1)))
    return "\n".join([f"%%MatrixMarket matrix coordinate {field} general",
                      f"3 3 {max(declared, 0)}", *lines]) + "\n"


@settings(max_examples=300)
@given(text=malformed_documents())
def test_reader_reads_the_oracle_matrix_or_refuses(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "malformed.mtx"
    path.write_bytes(text.encode("utf-8"))
    try:
        got = read_matrix_market(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert_same_csc(got, oracle.read_matrix_market(path))


@st.composite
def etree_instances(draw, max_columns: int = 60):
    """An elimination-tree parent array (``-1`` or ``j < parent[j] < n``)
    and column counts, some of them chains of one-smaller counts so that
    perfect amalgamation has something to merge."""
    n = draw(st.integers(min_value=0, max_value=max_columns))
    parent = [
        draw(st.one_of(st.just(-1), st.integers(min_value=j + 1, max_value=n - 1)))
        if j < n - 1 else -1
        for j in range(n)
    ]
    counts = [0] * n
    for j in range(n - 1, -1, -1):  # parents first
        p = parent[j]
        if p >= 0 and draw(st.booleans()):
            counts[j] = counts[p] + 1
        else:
            counts[j] = draw(st.integers(min_value=1, max_value=n + 1))
    return np.asarray(parent, dtype=np.int64), np.asarray(counts, dtype=np.int64)


@settings(max_examples=300)
@given(
    instance=etree_instances(),
    relaxed=st.integers(min_value=0, max_value=16),
    perfect=st.booleans(),
)
def test_amalgamation_matches_the_oracle(instance, relaxed, perfect):
    parent, counts = instance
    got = amalgamate(parent, counts, relaxed=relaxed, perfect=perfect)
    expected = oracle.amalgamate(parent, counts, relaxed=relaxed, perfect=perfect)
    assert got.supernodes == expected.supernodes
    for name in ("parent", "column_to_supernode"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name

    tree, reference = assembly_tree_from_etree(got), oracle.assembly_tree_from_etree(expected)
    assert tree == reference
    assert list(tree) == list(reference)
    assert all(tree.children(v) == reference.children(v) for v in reference)
