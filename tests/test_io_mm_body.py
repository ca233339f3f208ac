"""The coordinate body parse of a body mmread does not take: one checked
pass, line by line, whose first bad line raises the error that names it."""

import numpy as np
import pytest

from amgforge import io_mm, sparse

GENERAL = "%%MatrixMarket matrix coordinate real general\n"
SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize("text, message, line_no", [
    # a short line and a long one hold six fields between them
    (GENERAL + "2 2 2\n1 1\n2 2 1.0 7\n", "entry must be 'i j value'", 3),
    (GENERAL + "2 2 2\n% note\n\n1 1 1.0\n2 2 1.0 % trailing\n",
     "entry must be 'i j value'", 6),
    (GENERAL + "2 2 2\n1 1 1.0\n1.0 2 1.0\n", "malformed entry", 4),
    (GENERAL + "2 2 2\n1 1 1.0\n2 2 one\n", "malformed entry", 4),
    (GENERAL + "2 2 1\n99999999999999999999999 1 1.0\n", "index out of range", 3),
    (GENERAL + "2 2 2\n1 1 1.0\n0 2 1.0\n", "index out of range", 4),
    (GENERAL + "2 3 1\n1 4 1.0\n", "index out of range", 3),
    (SYMMETRIC + "3 3 3\n1 1 1.0\n\n3 1 1.0\n2 3 1.0\n",
     "symmetric file stores the lower triangle only", 6),
    # the entry count is checked before any entry
    (GENERAL + "2 2 3\n1 1\n2 2 1.0\n", "expected 3 entries, found 2", 2),
    (GENERAL + "% c\n2 2 1\n1 1 1.0\n2 2 1.0\n", "expected 1 entries, found 2", 3),
])
def test_bad_body_names_line(tmp_path, text, message, line_no):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(io_mm.MatrixMarketError) as err:
        io_mm.read_matrix_market(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def test_comments_blanks_and_duplicates(tmp_path):
    path = tmp_path / "ok.mtx"
    path.write_bytes((SYMMETRIC + "% size next\n3 3 5\r\n1 1 2.0\n\n  % mid\n"
                      "2\t1 -1.0\n3 3 +4e0 \n2 1 -0.5\n3 2 -1").encode())
    a = io_mm.read_matrix_market(path)
    assert a.symmetry == sparse.SYMMETRIC
    assert np.array_equal(a.toarray(), [[2.0, -1.5, 0.0], [-1.5, 0.0, -1.0],
                                        [0.0, -1.0, 4.0]])


@pytest.mark.parametrize("text, message", [
    (GENERAL + "2 2\n", "size line must be 'rows cols nnz'"),
    (GENERAL + "2 2 x\n", "non-integer size entry"),
    ("%%MatrixMarket matrix array real general\n% c\n2 1 1\n", "size line must be 'rows cols'"),
    ("%%MatrixMarket matrix array real general\n2 1.5\n", "non-integer size entry"),
])
def test_bad_size_line_names_it(tmp_path, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    size_no = text.count("\n")
    with pytest.raises(io_mm.MatrixMarketError) as err:
        io_mm.read_matrix_market(path)
    assert str(err.value) == f"line {size_no}: {message}"
