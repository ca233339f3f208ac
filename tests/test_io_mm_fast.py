"""The gated fast read: scipy's mmread tokenizes plain coordinate bodies, and
every other body goes to the Python parser with its messages and lines."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from amgforge import io_mm, problems, sparse

GENERAL = "%%MatrixMarket matrix coordinate real general\n"
SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric\n"


def read(path, fast=True):
    """Read path, with or without the fast path, and report whether
    mmread's tokens were used."""
    used = []
    gated = io_mm._fast_entries

    def spy(*args):
        out = gated(*args) if fast else None
        used.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_mm, "_fast_entries", spy)
        return io_mm.read_matrix_market(path), used == [True]


def outcome(path, fast):
    try:
        a, _ = read(path, fast=fast)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return a.symmetry, a.mat.indptr.tobytes(), a.mat.indices.tobytes(), a.mat.data.tobytes()


@pytest.mark.parametrize("text, message, line_no", [
    # mmread reads the first three tokens of a line and skips the rest
    (GENERAL + "2 2 2\n1 1 1.0\n2 2 2 7\n", "entry must be 'i j value'", 4),
    # mmread reads 0x10 as 0
    (GENERAL + "2 2 2\n1 1 1.0\n2 2 0x10\n", "malformed entry", 4),
    (GENERAL + "2 2 1\n1 1 1e\n", "malformed entry", 3),
    (GENERAL + "2 2 1\n1 1 1.2.3\n", "malformed entry", 3),
    (GENERAL + "2 2 1\n1 1 +-1\n", "malformed entry", 3),
    # mmread overflows on the index
    (GENERAL + "2 2 1\n12345678901234567890123 1 1.0\n", "index out of range", 3),
    (SYMMETRIC + "2 2 2\n1 1 1.0\n1 2 1.0\n", "symmetric file stores the lower triangle only", 4),
    # a comment line inside the body still counts toward the line numbers
    (GENERAL + "2 2 2\n1 1 1.0\n% note\n2 2 x\n", "malformed entry", 5),
])
def test_divergent_bodies_keep_the_parser_error(tmp_path, text, message, line_no):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(io_mm.MatrixMarketError) as err:
        io_mm.read_matrix_market(path)
    assert str(err.value) == f"line {line_no}: {message}"
    assert err.value.line_no == line_no


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_values_keep_the_parser_error(tmp_path, value):
    path = tmp_path / "inf.mtx"
    path.write_text(GENERAL + f"2 2 2\n1 1 1.0\n2 2 {value}\n")
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        io_mm.read_matrix_market(path)
    assert outcome(path, True) == outcome(path, False)


def test_underscored_value_reads_as_python_does(tmp_path):
    # mmread would read 1_0 as 1; float() reads it as 10
    path = tmp_path / "u.mtx"
    path.write_text(GENERAL + "2 2 2\n1 1 1_0\n2 2 1.0\n")
    a, used = read(path)
    assert not used
    assert np.array_equal(a.toarray(), [[10.0, 0.0], [0.0, 1.0]])


PLAIN_LINE = re.compile(rb"[0-9]+ [0-9]+ -?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\n")
NUMBER_CHARS = "0123456789+-.eE"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.integers(1, 99).map(str) | st.text(NUMBER_CHARS, min_size=1, max_size=3),
    st.integers(1, 99).map(str) | st.text(NUMBER_CHARS, min_size=1, max_size=3),
    st.from_regex(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", fullmatch=True)
    | st.text(NUMBER_CHARS, min_size=1, max_size=7)), min_size=1, max_size=4))
def test_gate_accepts_exactly_plain_lines(entries):
    lines = [f"{i} {j} {v}\n".encode() for i, j, v in entries]
    want = all(PLAIN_LINE.fullmatch(ln) for ln in lines)
    assert io_mm._plain_lines(b"".join(lines), len(lines)) == want


def valid_files(tmp_path):
    """Every valid coordinate file of the Matrix Market tests, and a symmetric
    file whose positions hold three or more duplicates, some in a row of more
    than 16 entries."""
    paths = []
    for k, a in enumerate([problems.fd_poisson_5pt(3), problems.laplace_1d(3),
                           sparse.from_scipy(sp.coo_matrix(([1.5, -2.0], ([0, 1], [2, 0])),
                                                           shape=(2, 3))),
                           problems.fe_anisotropic(3, 0.5),
                           problems.fe_anisotropic(2, 0.5),
                           sparse.from_scipy(sp.coo_matrix(
                               ([1.5, -2.0, 1 / 3, 1e-300], ([0, 1, 1, 0], [2, 0, 2, 0])),
                               shape=(2, 3)))]):
        paths.append(tmp_path / f"w{k}.mtx")
        io_mm.write_matrix_market(paths[-1], a)
    rng = np.random.default_rng(8)
    lines = [f"{i} {j} {v!r}" for i, j, v in zip(
        rng.integers(18, 21, 60).tolist(), rng.integers(1, 19, 60).tolist(),
        rng.standard_normal(60).tolist())]
    lines += ["3 2 0.1", "3 2 0.2", "3 2 0.3", "3 2 1e16", "3 2 -1e16", "3 3 1.", "2 2 -.5",
              "3 1 1.5e-3", "1 1 4E+2", "3 2 -0"]
    paths.append(tmp_path / "dup.mtx")
    paths[-1].write_text(SYMMETRIC + f"20 20 {len(lines)}\n" + "\n".join(lines) + "\n")
    paths.append(tmp_path / "dupg.mtx")
    paths[-1].write_text(GENERAL + f"20 20 {len(lines)}\n" + "\n".join(lines) + "\n")
    return paths


def test_fast_path_equals_the_parser(tmp_path):
    for path in valid_files(tmp_path):
        fast, used = read(path)
        slow, _ = read(path, fast=False)
        assert used, path.name
        assert fast.symmetry == slow.symmetry
        for name in ("indptr", "indices", "data"):
            got, want = getattr(fast.mat, name), getattr(slow.mat, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (path.name, name)


@pytest.mark.parametrize("fast", [True, False])
def test_general_file_of_a_symmetric_matrix_reads_symmetric(tmp_path, fast):
    a = problems.fd_poisson_5pt(4)
    path = tmp_path / "g.mtx"
    io_mm.write_matrix_market(path, sparse.SparseMatrix(a.mat, sparse.GENERAL))
    back, used = read(path, fast=fast)
    assert used == fast
    assert back.symmetry == sparse.SYMMETRIC
    assert np.array_equal(back.toarray(), a.toarray())


@pytest.mark.parametrize("fast", [True, False])
def test_nonsymmetric_general_file_stays_general(tmp_path, fast):
    path = tmp_path / "n.mtx"
    path.write_text(GENERAL + "2 2 3\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n")
    back, used = read(path, fast=fast)
    assert used == fast
    assert back.symmetry == sparse.GENERAL
    path.write_text(GENERAL + "1 2 1\n1 2 1.0\n")
    assert read(path, fast=fast)[0].symmetry == sparse.GENERAL


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                         st.integers(-9, 9)), min_size=1, max_size=6))
def test_paths_agree_on_range_and_triangle(tmp_path_factory, symmetric, entries):
    # indices 0 and 4 are out of range of a 3 x 3 matrix: one range rule, read
    # by both paths, names the same first bad line
    path = tmp_path_factory.mktemp("mm") / "r.mtx"
    path.write_text((SYMMETRIC if symmetric else GENERAL) + f"3 3 {len(entries)}\n"
                    + "".join(f"{i} {j} {v}\n" for i, j, v in entries))
    assert outcome(path, True) == outcome(path, False)


def test_upper_triangle_of_a_plain_body_is_refused_on_the_fast_path(tmp_path):
    # entry k of a plain body is on line size_no + 1 + k; no Python re-parse
    path = tmp_path / "u.mtx"
    path.write_text(SYMMETRIC + "% a comment\n3 3 3\n1 1 1.0\n3 1 2.0\n2 3 1.0\n")
    parsed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_mm, "_checked_entries", lambda *args: parsed.append(args))
        with pytest.raises(io_mm.MatrixMarketError) as err:
            io_mm.read_matrix_market(path)
    assert str(err.value) == "line 6: symmetric file stores the lower triangle only"
    assert parsed == []
