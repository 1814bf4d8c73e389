"""Unit tests for the Matrix Market reader/writer."""

import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from repro.sparse.matrices import grid_laplacian_2d, random_spd
from repro.sparse.mmio import read_matrix_market, write_matrix_market


class TestRoundTrip:
    def test_general_roundtrip(self, tmp_path):
        a = random_spd(25, density=0.1, seed=3)
        path = tmp_path / "m.mtx"
        write_matrix_market(a, path)
        b = read_matrix_market(path)
        assert np.allclose(a.toarray(), b.toarray())

    def test_symmetric_roundtrip(self, tmp_path):
        a = grid_laplacian_2d(5)
        path = tmp_path / "sym.mtx"
        write_matrix_market(a, path, symmetric=True)
        b = read_matrix_market(path)
        assert np.allclose(a.toarray(), b.toarray())

    def test_matches_scipy_reader(self, tmp_path):
        a = random_spd(20, density=0.15, seed=9)
        path = tmp_path / "cmp.mtx"
        write_matrix_market(a, path, symmetric=True)
        ours = read_matrix_market(path)
        scipys = sp.csc_matrix(scipy.io.mmread(str(path)))
        assert np.allclose(ours.toarray(), scipys.toarray())

    def test_reads_scipy_output(self, tmp_path):
        a = random_spd(20, density=0.15, seed=10)
        path = tmp_path / "scipy.mtx"
        scipy.io.mmwrite(str(path), sp.coo_matrix(a))
        ours = read_matrix_market(path)
        assert np.allclose(ours.toarray(), a.toarray())


class TestFormats:
    def test_pattern_field(self, tmp_path):
        path = tmp_path / "pattern.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 4\n"
            "1 1\n2 2\n3 3\n3 1\n"
        )
        a = read_matrix_market(path)
        assert a[0, 0] == 1.0
        assert a[2, 0] == 1.0 and a[0, 2] == 1.0

    def test_integer_field_and_comments(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "% a comment line\n"
            "2 2 3\n"
            "1 1 4\n2 2 5\n2 1 -1\n"
        )
        a = read_matrix_market(path)
        assert a[1, 0] == -1.0
        assert a[0, 0] == 4.0
        # comments may only precede the size line
        body = tmp_path / "bodycomment.mtx"
        body.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 2\n"
            "1 1 4\n% a comment between entries\n2 2 5\n"
        )
        with pytest.raises(ValueError, match=r"bodycomment\.mtx"):
            read_matrix_market(body)

    def test_skew_symmetric(self, tmp_path):
        path = tmp_path / "skew.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n"
            "2 1 3.0\n"
        )
        a = read_matrix_market(path)
        assert a[1, 0] == 3.0 and a[0, 1] == -3.0

    def test_rejects_bad_header(self, tmp_path):
        # the banner is case-sensitive, as in scipy.io.mmread and the
        # reference mmio.c
        for name, banner in (
            ("bad.mtx", "not a matrix market file"),
            ("lowercase.mtx", "%%matrixmarket matrix coordinate real general"),
        ):
            path = tmp_path / name
            path.write_text(f"{banner}\n1 1 1\n1 1 1\n")
            with pytest.raises(ValueError, match=re.escape(name)):
                read_matrix_market(path)

    def test_rejects_array_format(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_rejects_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_rejects_too_many_entries(self, tmp_path):
        # used to escape as a raw IndexError from the preallocated arrays
        path = tmp_path / "overlong.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 1 1.0\n2 2 2.0\n2 1 3.0\n"
        )
        with pytest.raises(ValueError, match="overlong.mtx"):
            read_matrix_market(path)
        # an out-of-range row index names the file and the line
        path = tmp_path / "outofrange.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "3 1 1.0\n"
        )
        with pytest.raises(ValueError, match=r"outofrange\.mtx: .*[Ll]ine 3"):
            read_matrix_market(path)

    @pytest.mark.parametrize(
        "field, entry",
        [
            ("real", "+1 +1 +1.5"),
            ("real", "1 1 1e+2"),
            ("real", "1 1 -.5E-1"),
            ("real", "1 1 5."),
            ("real", "1 1 1e400"),
            ("real", "1 1 1.5 % tokens after the value are ignored"),
            ("integer", "1 1 1e3"),
            ("integer", "1 1 1.5"),
            ("integer", "1 1 +7"),
            ("integer", "1 1 -123456789012345678901234567890"),
        ],
    )
    def test_reads_numerals_as_python_float_does(self, tmp_path, field, entry):
        # SciPy's reader alone refuses a leading "+", truncates an integer
        # field's "1e3" and "1.5" to 1 and refuses integers beyond int64
        path = tmp_path / "numeral.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate {field} general\n+1 1 +1\n{entry}\n")
        a = read_matrix_market(path)
        assert a.shape == (1, 1) and a.nnz == 1
        assert a.data[0] == float(entry.split()[2])

    @pytest.mark.parametrize(
        "field, entry",
        [
            # refused by int and float as well; SciPy's reader alone takes
            # the longest numeral prefix and reads 0, 1.5, 1.5, 1.2, 1 and 1
            ("real", "1 1 0x10"),
            ("real", "1 1 1.5d3"),
            ("real", "1 1 1.5abc"),
            ("real", "1 1 1.2.3"),
            ("real", "1 1 1e"),
            ("real", "1 1 1-2"),
            # a column glued to a value: SciPy alone reads column 1 holding 0.0
            ("real", "1 1.0 7"),
            ("pattern", "1 1.5"),
            # read by int and float, refused here
            ("real", "1 1 1_0"),
            ("real", "1 1 nan"),
            ("real", "1 1 -inf"),
            ("real", "\u0661 1 1.5"),
            ("real", "1\x0b1 1.5"),
            ("real", "1 1 1.5\xa0"),
        ],
    )
    def test_rejects_malformed_numerals(self, tmp_path, field, entry):
        path = tmp_path / "malformed.mtx"
        path.write_bytes(
            f"%%MatrixMarket matrix coordinate {field} general\n2 2 1\n{entry}\n".encode()
        )
        with pytest.raises(ValueError, match=r"malformed\.mtx: line 3"):
            read_matrix_market(path)

    def test_rejects_malformed_size_line_and_bare_carriage_return(self, tmp_path):
        for name, text in (
            ("size.mtx", "++2 2 1\n1 1 1.0\n"),
            ("bare_cr.mtx", "2 2 2\n1 1 1.0\r2 2 2.0\n"),
        ):
            path = tmp_path / name
            path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n" + text.encode())
            with pytest.raises(ValueError, match=re.escape(name) + ": line [23]"):
                read_matrix_market(path)

    def test_rejects_nonzero_skew_diagonal(self, tmp_path):
        # a_ii = -a_ii forces a zero diagonal; nonzero entries were silently kept
        path = tmp_path / "skewdiag.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 2\n"
            "2 1 3.0\n1 1 5.0\n"
        )
        with pytest.raises(ValueError, match="skewdiag.mtx"):
            read_matrix_market(path)

    def test_accepts_explicit_zero_skew_diagonal(self, tmp_path):
        path = tmp_path / "skewzero.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 2\n"
            "2 1 3.0\n1 1 0.0\n"
        )
        a = read_matrix_market(path)
        assert a[1, 0] == 3.0 and a[0, 1] == -3.0 and a[0, 0] == 0.0

    def test_reads_explicit_zero_fixture(self):
        from pathlib import Path

        data = Path(__file__).parent / "data"
        general = read_matrix_market(data / "explicit_zero.mtx")
        for name in ("explicit_zero.mtx", "explicit_zero_symmetric.mtx"):
            a = read_matrix_market(data / name)
            assert a.shape == (4, 4)
            # the explicitly stored zero at (4, 2) survives the round trip,
            # and the symmetric twin mirrors it to (2, 4) like any entry
            assert a.nnz > np.count_nonzero(a.toarray()), name
            assert np.array_equal(a.indptr, general.indptr), name
            assert np.array_equal(a.indices, general.indices), name
            assert np.array_equal(a.data, general.data), name
