"""Matrix Market coordinate I/O (real, general and symmetric).

Indices are 1-based on disk and 0-based in memory.  Symmetric files store the
lower triangle only.  Dense vectors use the array format.
"""

import re

import numpy as np
import scipy.sparse as sp

from . import sparse


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content; carries the offending line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def write_matrix_market(path, a, comment=None):
    """Write a SparseMatrix; symmetric matrices keep only i >= j entries."""
    coo = a.mat.tocoo()
    symmetric = a.symmetry == sparse.SYMMETRIC
    if symmetric:
        keep = coo.row >= coo.col
        rows, cols, vals = coo.row[keep], coo.col[keep], coo.data[keep]
    else:
        rows, cols, vals = coo.row, coo.col, coo.data
    order = np.lexsort((rows, cols))
    entries = zip((rows[order] + 1).tolist(), (cols[order] + 1).tolist(),
                  vals[order].tolist())
    with open(path, "w") as f:
        kind = "symmetric" if symmetric else "general"
        f.write(f"%%MatrixMarket matrix coordinate real {kind}\n")
        if comment:
            f.write(f"%{comment}\n")
        f.write(f"{a.n_rows} {a.n_cols} {len(vals)}\n")
        f.write("".join([f"{i} {j} {v:.17g}\n" for i, j, v in entries]))


def write_vector(path, x, comment=None):
    x = np.asarray(x, dtype=float)
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix array real general\n")
        if comment:
            f.write(f"%{comment}\n")
        f.write(f"{x.size} 1\n")
        f.write("".join([f"{v:.17g}\n" for v in x.tolist()]))


def _parse_header(line, line_no):
    fields = line.strip().split()
    if len(fields) != 5 or fields[0] != "%%MatrixMarket" or fields[1].lower() != "matrix":
        raise MatrixMarketError("expected '%%MatrixMarket matrix <format> <field> <symmetry>'", line_no)
    fmt, field, symmetry = (f.lower() for f in fields[2:])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"unsupported format {fmt!r}", line_no)
    if field != "real":
        raise MatrixMarketError(f"unsupported field {field!r} (only real)", line_no)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", line_no)
    return fmt, symmetry


_COMMENT = re.compile(r"^[^\S\n]*%.*$", re.M)


def _content(lines, first_no):
    """(line number, stripped line) of every non-blank, non-comment line."""
    for no, ln in enumerate(lines, start=first_no):
        ln = ln.strip()
        if ln and not ln.startswith("%"):
            yield no, ln


def _report_bad_entry(entries, n_rows, n_cols, nnz, symmetric, size_no):
    """Raise the error that names the first bad entry line, checking the lines
    one by one in file order."""
    entries = list(entries)
    if len(entries) != nnz:
        raise MatrixMarketError(f"expected {nnz} entries, found {len(entries)}", size_no)
    for no, ln in entries:
        fields = ln.split()
        if len(fields) != 3:
            raise MatrixMarketError("entry must be 'i j value'", no)
        try:
            i, j, _ = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise MatrixMarketError("malformed entry", no) from None
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            raise MatrixMarketError("index out of range", no)
        if symmetric and j > i:
            raise MatrixMarketError("symmetric file stores the lower triangle only", no)
    raise AssertionError("the vectorized pass rejected a valid body")


def _entries(body, nnz, n_rows, n_cols, symmetric):
    """The 1-based (i, j, value) arrays in one pass over the body's fields,
    or None when any line is bad (the reporter then names it)."""
    if not set(map(len, map(str.split, body.split("\n")))) <= {0, 3}:
        return None
    fields = body.split()
    if len(fields) != 3 * nnz:
        return None
    try:
        i = np.fromiter(map(int, fields[0::3]), dtype=np.int64, count=nnz)
        j = np.fromiter(map(int, fields[1::3]), dtype=np.int64, count=nnz)
        v = np.fromiter(map(float, fields[2::3]), dtype=float, count=nnz)
    except (ValueError, OverflowError):  # overflow: an index beyond int64
        return None
    bad = (i < 1) | (i > n_rows) | (j < 1) | (j > n_cols)
    if symmetric:
        bad |= j > i
    return None if bad.any() else (i - 1, j - 1, v)


def _read_coordinate(body, sizes, size_no, symmetric):
    if len(sizes) != 3:
        raise MatrixMarketError("size line must be 'rows cols nnz'", size_no)
    try:
        n_rows, n_cols, nnz = (int(s) for s in sizes)
    except ValueError:
        raise MatrixMarketError("non-integer size entry", size_no) from None
    if "%" in body:
        body = _COMMENT.sub("", body)
    entries = _entries(body, nnz, n_rows, n_cols, symmetric)
    if entries is None:
        _report_bad_entry(_content(body.split("\n"), size_no + 1),
                          n_rows, n_cols, nnz, symmetric, size_no)
    i, j, v = entries
    if symmetric:
        # each off-diagonal entry followed by its mirror, as the file lists them
        keep = np.column_stack([np.ones(nnz, dtype=bool), i != j]).ravel()
        i, j = np.column_stack([i, j]).ravel()[keep], np.column_stack([j, i]).ravel()[keep]
        v = np.repeat(v, 2)[keep]
    coo = sp.coo_matrix((v, (i, j)), shape=(n_rows, n_cols))
    return sparse.from_scipy(coo, sparse.SYMMETRIC if symmetric else sparse.GENERAL)


def read_matrix_market(path):
    """Read a matrix; returns SparseMatrix (coordinate) or ndarray (array)."""
    with open(path) as f:
        header = f.readline()
        if not header:
            raise MatrixMarketError("empty file", 1)
        fmt, symmetry = _parse_header(header, 1)
        size_no = 1
        while True:
            line = f.readline()
            if not line:
                raise MatrixMarketError("missing size line", size_no)
            size_no += 1
            sizes = line.split()
            if sizes and not sizes[0].startswith("%"):
                break
        body = f.read()
    if fmt == "coordinate":
        return _read_coordinate(body, sizes, size_no, symmetry == "symmetric")
    # array format: dense column-major listing, used here for vectors
    if len(sizes) != 2:
        raise MatrixMarketError("size line must be 'rows cols'", size_no)
    try:
        n_rows, n_cols = (int(s) for s in sizes)
    except ValueError:
        raise MatrixMarketError("non-integer size entry", size_no) from None
    values = []
    for no, ln in _content(body.split("\n"), size_no + 1):
        try:
            values.append(float(ln.split()[0]))
        except ValueError:
            raise MatrixMarketError("malformed array value", no) from None
    if len(values) != n_rows * n_cols:
        raise MatrixMarketError(f"expected {n_rows * n_cols} values, found {len(values)}", size_no)
    return np.array(values).reshape((n_cols, n_rows)).T.squeeze()
