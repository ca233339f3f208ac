import numpy as np
import pytest
import scipy.sparse as sp

from amgforge import io_mm, problems, sparse


def test_roundtrip_symmetric(tmp_path):
    a = problems.fd_poisson_5pt(3)
    path = tmp_path / "a.mtx"
    io_mm.write_matrix_market(path, a)
    back = io_mm.read_matrix_market(path)
    assert back.symmetry == sparse.SYMMETRIC
    assert np.array_equal(back.toarray(), a.toarray())


def test_symmetric_file_stores_lower_triangle(tmp_path):
    a = problems.laplace_1d(3)
    path = tmp_path / "t.mtx"
    io_mm.write_matrix_market(path, a)
    lines = path.read_text().splitlines()
    assert lines[0].endswith("symmetric")
    entries = [tuple(int(t) for t in ln.split()[:2]) for ln in lines[2:]]
    assert all(i >= j for i, j in entries)
    assert len(entries) == 5  # 3 diagonal + 2 sub-diagonal


def test_roundtrip_general(tmp_path):
    a = sparse.from_scipy(sp.coo_matrix(([1.5, -2.0], ([0, 1], [2, 0])), shape=(2, 3)))
    path = tmp_path / "g.mtx"
    io_mm.write_matrix_market(path, a)
    back = io_mm.read_matrix_market(path)
    assert np.array_equal(back.toarray(), a.toarray())


def test_vector_roundtrip(tmp_path):
    x = np.array([1.0, -2.5, 3.25])
    path = tmp_path / "v.mtx"
    io_mm.write_vector(path, x)
    assert np.array_equal(io_mm.read_matrix_market(path), x)


def test_array_line_with_two_values_rejected(tmp_path):
    path = tmp_path / "v2.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n3 1\n1.0 7.0\n2.0\n3.0\n")
    with pytest.raises(io_mm.MatrixMarketError, match="one value, found 2") as err:
        io_mm.read_matrix_market(path)
    assert err.value.line_no == 3


def test_bad_header_names_line(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%NotMatrixMarket\n1 1 1\n1 1 2.0\n")
    with pytest.raises(io_mm.MatrixMarketError) as err:
        io_mm.read_matrix_market(path)
    assert err.value.line_no == 1


def test_bad_entry_names_line(tmp_path):
    path = tmp_path / "bad2.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n1 two 1.0\n")
    with pytest.raises(io_mm.MatrixMarketError) as err:
        io_mm.read_matrix_market(path)
    assert err.value.line_no == 4


def test_upper_triangle_in_symmetric_file_rejected(tmp_path):
    path = tmp_path / "bad3.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 1\n1 2 1.0\n")
    with pytest.raises(io_mm.MatrixMarketError):
        io_mm.read_matrix_market(path)


def test_deterministic_bytes(tmp_path):
    a = problems.fe_anisotropic(3, 0.5)
    p1, p2 = tmp_path / "x1.mtx", tmp_path / "x2.mtx"
    io_mm.write_matrix_market(p1, a)
    io_mm.write_matrix_market(p2, a)
    assert p1.read_bytes() == p2.read_bytes()


def test_pinned_bytes(tmp_path):
    # literal expected files: any rewrite of the writers must keep these bytes
    path = tmp_path / "s.mtx"
    io_mm.write_matrix_market(path, problems.fe_anisotropic(2, 0.5))
    assert path.read_text() == (
        "%%MatrixMarket matrix coordinate real symmetric\n4 4 8\n"
        "1 1 3\n2 1 -1\n3 1 -0.5\n2 2 3\n4 2 -0.5\n3 3 3\n4 3 -1\n4 4 3\n")
    g = sparse.from_scipy(sp.coo_matrix(([1.5, -2.0, 1 / 3, 1e-300], ([0, 1, 1, 0], [2, 0, 2, 0])),
                                        shape=(2, 3)))
    io_mm.write_matrix_market(path, g)
    assert path.read_text() == (
        "%%MatrixMarket matrix coordinate real general\n2 3 4\n"
        "1 1 1e-300\n2 1 -2\n1 3 1.5\n2 3 0.33333333333333331\n")
    io_mm.write_vector(path, np.array([1.0, -2.5, 0.1, 1e20]))
    assert path.read_text() == ("%%MatrixMarket matrix array real general\n4 1\n"
                                "1\n-2.5\n0.10000000000000001\n1e+20\n")
