"""Matrix Market (coordinate format) reader and writer.

The University of Florida collection distributes matrices in the Matrix
Market exchange format.  :func:`read_matrix_market` loads the subset the
planner needs (real / integer / pattern fields; general, symmetric or
skew-symmetric coordinate files): it checks the header and every entry's
numerals itself and hands the file to ``scipy.io.mmread``, SciPy's compiled
(fast_matrix_market) reader.  :func:`write_matrix_market` writes matrices
back.

SciPy's reader takes each field as the longest numeral prefix of its token
and skips the rest of the line, so on its own it reads ``1.5d3`` as 1.5 and
the line ``1 2.5 7`` as column 2 holding 0.5; it also refuses a leading
``+`` and reads an ``integer`` field as int64, truncating ``1e3`` to 1.
The reader therefore refuses an entry line unless its first two tokens are
integers ``[+-]?D+`` and, in a real or integer file, its third is a decimal
``[+-]?(D+.?D*|.D+)([eE][+-]?D+)?`` (``D`` a run of ASCII digits; later
tokens are ignored).  SciPy then reads the stored entries -- the file
relabelled ``general``, an ``integer`` field ``real``, its ``+`` signs
dropped -- and (skew-)symmetric files are mirrored here, so every accepted
file reads to the values Python's ``int`` and ``float`` give its tokens.
Beyond that, and unlike a line-by-line reader on ``int`` and ``float``:

* explicitly stored zeros are kept, in symmetric and skew-symmetric files
  as in general ones;
* the banner must be spelled ``%%MatrixMarket``, case included, as in
  SciPy's reader and the reference ``mmio.c``;
* a ``%`` comment line in the body (after the size line) is refused: the
  format allows comments only before the size line;
* numerals outside the grammar above are refused, although ``int`` and
  ``float`` read them: ``1_0``, ``nan``, ``inf``, non-ASCII digits, and a
  numeral glued to any byte but a space, a tab or a line end;
* a carriage return not followed by a line feed is refused.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Union

import numpy as np
import scipy.sparse as sp

__all__ = ["read_matrix_market", "write_matrix_market"]

# Byte classes of the entry lines; every byte outside the numeral alphabet
# is _OTHER.  The order matters: ``codes >= _DIGIT`` marks the bytes of a
# token, ``<= _NEWLINE`` whitespace.
_SPACE, _NEWLINE, _DIGIT, _SIGN, _DOT, _EXP, _OTHER = range(7)
_SIZE_TOKEN = re.compile(rb"\+?[0-9]+")
# the entry lines are checked in line-aligned chunks of about this many
# bytes, which bounds the check's temporary arrays
_CHUNK = 1 << 20


def _byte_classes() -> bytes:
    table = np.full(256, _OTHER, dtype=np.uint8)
    for chars, code in (
        (b" \t\r", _SPACE),
        (b"\n", _NEWLINE),
        (b"0123456789", _DIGIT),
        (b"+-", _SIGN),
        (b".", _DOT),
        (b"eE", _EXP),
    ):
        table[list(chars)] = code
    return table.tobytes()


_CLASSES = _byte_classes()


def _first_malformed(codes: np.ndarray, numerals: int) -> int:
    """Position in ``codes`` of the first byte of a malformed numeral, or -1.

    ``codes`` holds the byte classes of whole entry lines, from a line feed
    to a line feed.  The first ``numerals`` tokens of each line are checked:
    the first two as integers, a third as a decimal.  A numeral is well
    formed when every sign, dot and exponent letter in it has admissible
    neighbours, an integer holds no dot or exponent letter, and a decimal at
    most one of each, dot first.
    """
    # token starts and line feeds in file order: a token is the r-th of its
    # line (from 0) when the r items before it are tokens
    word = codes >= _DIGIT
    items = np.flatnonzero((word[1:] > word[:-1]) | (codes[1:] == _NEWLINE))
    items += 1
    is_token = word[items]
    behind = np.ones_like(is_token)
    for r in range(1, numerals + 1):
        behind[r:] &= is_token[:-r]
        behind[:r] = False
        if r == 2:
            integer = is_token & ~behind
    numeral = is_token & ~behind

    special = np.flatnonzero(codes >= _SIGN)
    kind, before, after = codes[special], codes[special - 1], codes[special + 1]
    digit_before, digit_after = before == _DIGIT, after == _DIGIT
    sign, dot, exp = kind == _SIGN, kind == _DOT, kind == _EXP
    wrong = kind == _OTHER
    # a sign opens a numeral or its exponent and precedes a digit or a dot
    wrong |= sign & ~(
        ((before <= _NEWLINE) | (before == _EXP)) & (digit_after | (after == _DOT))
    )
    # a dot sits after a sign, a digit or nothing, before a digit, an
    # exponent letter or nothing, and next to a digit
    wrong |= dot & ~(
        (before <= _SIGN)
        & ((after <= _DIGIT) | (after == _EXP))
        & (digit_before | digit_after)
    )
    # an exponent letter follows the mantissa and precedes a digit or a sign
    wrong |= exp & ~(
        (digit_before | (before == _DOT)) & (digit_after | (after == _SIGN))
    )
    marks = np.flatnonzero(dot | exp)
    owner = np.searchsorted(items, special[marks], side="right") - 1
    wrong[marks] |= integer[owner]
    wrong[marks[1:]] |= (owner[1:] == owner[:-1]) & ~(dot[marks[:-1]] & exp[marks[1:]])

    hits = special[wrong]
    hits = hits[numeral[np.searchsorted(items, hits, side="right") - 1]]
    return int(hits[0]) if hits.size else -1


def read_matrix_market(path: Union[str, Path]) -> sp.csc_matrix:
    """Read a Matrix Market coordinate file into a float64 CSC matrix.

    Supports the ``matrix coordinate`` object with ``real``, ``integer`` or
    ``pattern`` fields and ``general``, ``symmetric`` or
    ``skew-symmetric`` symmetries.  Pattern entries get value 1, and the
    mirrored half of a (skew-)symmetric file is filled in.

    The header, the numerals of the entries (see the module docstring) and
    the skew-symmetric diagonal are checked here, with numpy passes over the
    file's bytes; the entries are parsed by the public ``scipy.io.mmread``
    with SciPy's default thread count (one per CPU).  Its private
    ``PARALLELISM`` control would buy nothing: on a 2-vCPU host, the five
    files of the ``sparse_plan`` benchmark suite (grid2d-320 the largest,
    102,400 rows) parse in 0.08 s with one thread and 0.085 s with the
    default, best of 3.  ``mmread`` leaves no thread running after it
    returns (the process's thread count is unchanged), so a process pool
    forked later inherits none.  ``scipy.io`` is imported here and not at
    module level, so that importing this module (the CLI does at start-up)
    does not pay for it.

    Raises
    ------
    ValueError
        Naming ``path``: for an unsupported header, a malformed size line or
        numeral (with its line), a nonzero diagonal entry in a
        skew-symmetric file, or any parse error of ``mmread`` (SciPy's
        message gives the line).
    """
    import scipy.io

    path = Path(path)
    data = path.read_bytes()
    if not data.endswith(b"\n"):
        data += b"\n"
    end = data.index(b"\n")
    header = data[:end].decode("latin-1").split()
    if len(header) < 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise ValueError(f"{path}: not a Matrix Market matrix file")
    fmt, field, symmetry = (token.lower() for token in header[2:5])
    if fmt != "coordinate":
        raise ValueError(f"{path}: only coordinate format is supported")
    if field not in ("real", "integer", "pattern"):
        raise ValueError(f"{path}: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")
    bare = re.search(rb"\r(?!\n)", data) if b"\r" in data else None
    if bare:
        line = data.count(b"\n", 0, bare.start()) + 1
        raise ValueError(f"{path}: line {line}: carriage return without a line feed")

    # comment and blank lines precede the size line
    banner_end, line = end, 1
    while True:
        start, line = end + 1, line + 1
        if start == len(data):
            raise ValueError(f"{path}: no size line")
        end = data.index(b"\n", start)
        text = data[start:end]
        if text.strip() and not text.startswith(b"%"):
            break
    size = text.split()
    if len(size) != 3 or not all(_SIZE_TOKEN.fullmatch(token) for token in size):
        raise ValueError(f"{path}: line {line}: malformed size line {text!r}")
    numerals = 2 if field == "pattern" else 3
    start = end
    while start < len(data) - 1:
        stop = data.find(b"\n", start + _CHUNK)
        stop = len(data) - 1 if stop < 0 else stop
        codes = np.frombuffer(data[start : stop + 1].translate(_CLASSES), dtype=np.uint8)
        bad = _first_malformed(codes, numerals)
        if bad >= 0:
            offset = start + bad
            line += data.count(b"\n", end, offset)
            text = data[data.rindex(b"\n", 0, offset) + 1 : data.index(b"\n", offset)]
            raise ValueError(f"{path}: line {line}: malformed entry {text.strip()!r}")
        start = stop

    # SciPy reads the stored entries: the file relabelled general, an
    # integer field real
    kind = "pattern" if field == "pattern" else "real"
    text = f"%%MatrixMarket matrix coordinate {kind} general".encode() + data[banner_end:]
    del data
    try:
        coo = scipy.io.mmread(io.BytesIO(text.replace(b"+", b"")))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    del text
    row, col, values = coo.row, coo.col, coo.data.astype(np.float64, copy=False)
    if symmetry == "skew-symmetric":
        bad = (row == col) & (values != 0)
        if np.any(bad):
            raise ValueError(
                f"{path}: skew-symmetric file stores {int(bad.sum())} nonzero "
                f"diagonal entries (a_ii = -a_ii forces a zero diagonal)"
            )
    if symmetry != "general":
        # each half's duplicates are summed by its own CSR conversion, as in
        # a sparse addition of the stored and the mirrored entries; the
        # addition itself would drop stored zeros, so the halves are joined
        # as triplets (a position in both halves sums two terms, which gives
        # the same in either order)
        off = row != col
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        halves = [
            sp.csr_matrix((values, (row, col)), shape=coo.shape).tocoo(),
            sp.csr_matrix((sign * values[off], (col[off], row[off])), shape=coo.shape).tocoo(),
        ]
        row, col, values = (np.concatenate([getattr(h, a) for h in halves])
                            for a in ("row", "col", "data"))
    # duplicates are summed by the CSC conversion
    return sp.csc_matrix((values, (row, col)), shape=coo.shape)


def write_matrix_market(
    matrix: sp.spmatrix, path: Union[str, Path], *, symmetric: bool = False
) -> None:
    """Write a sparse matrix as a Matrix Market coordinate file.

    When ``symmetric`` is True only the lower triangle is stored and the
    header declares ``symmetric`` symmetry.
    """
    path = Path(path)
    coo = sp.coo_matrix(matrix)
    if symmetric:
        keep = coo.row >= coo.col
        coo = sp.coo_matrix(
            (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape
        )
    symmetry = "symmetric" if symmetric else "general"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n")
        handle.write("% written by repro.sparse.mmio\n")
        handle.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            handle.write(f"{int(r) + 1} {int(c) + 1} {float(v)!r}\n")
