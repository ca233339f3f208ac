"""Matrix Market coordinate I/O (real, general and symmetric).

Indices are 1-based on disk and 0-based in memory.  Symmetric files store the
lower triangle only.  Dense vectors use the array format.  A square general
file whose matrix is bit-exactly symmetric reads as symmetric.

A coordinate body made only of plain "i j value" lines is tokenized by
scipy's ``mmread`` (fast_matrix_market, which starts its own threads); any
other body goes to the Python parser, which names the first bad line.
"""

import io

import numpy as np
import scipy.sparse as sp

from . import sparse


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content; carries the offending line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def write_matrix_market(path, a):
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
        f.write(f"{a.n_rows} {a.n_cols} {len(vals)}\n")
        f.write("".join([f"{i} {j} {v:.17g}\n" for i, j, v in entries]))


def write_vector(path, x):
    x = np.asarray(x, dtype=float)
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix array real general\n")
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


def _content(lines, first_no):
    """(line number, stripped line) of every non-blank, non-comment line."""
    for no, ln in enumerate(lines, start=first_no):
        ln = ln.strip()
        if ln and not ln.startswith("%"):
            yield no, ln


def _checked_entries(entries, nnz, size_no):
    """The (line number, line) entries parsed in file order up to the first
    malformed line: the 0-based (i, j, value) arrays, each entry's line
    number, and the malformed line's error, or None."""
    entries = list(entries)
    if len(entries) != nnz:
        raise MatrixMarketError(f"expected {nnz} entries, found {len(entries)}", size_no)
    parsed, error = [], None
    for no, ln in entries:
        fields = ln.split()
        if len(fields) != 3:
            error = MatrixMarketError("entry must be 'i j value'", no)
            break
        try:
            parsed.append((int(fields[0]), int(fields[1]), float(fields[2])))
        except ValueError:
            error = MatrixMarketError("malformed entry", no)
            break
    rows, cols, vals = zip(*parsed) if parsed else ((), (), ())
    # an index beyond int64 makes an object array, and is out of range
    return ((np.asarray(rows) - 1, np.asarray(cols) - 1, np.array(vals, dtype=float)),
            [no for no, _ in entries], error)


def _in_range(i, j, v, line_nos, n_rows, n_cols, symmetric):
    """The (i, j, value) arrays, i and j as int64; the first entry k out of range,
    or above the diagonal of a symmetric file, raises the error naming line_nos[k]."""
    out = (i < 0) | (i >= n_rows) | (j < 0) | (j >= n_cols)
    bad = out | (j > i) if symmetric else out
    if bad.any():
        k = int(np.argmax(bad))
        raise MatrixMarketError("index out of range" if out[k] else
                                "symmetric file stores the lower triangle only", line_nos[k])
    return i.astype(np.int64, copy=False), j.astype(np.int64, copy=False), v


_SPACE, _NEWLINE, _DOT, _PLUS, _MINUS, _ZERO, _NINE, _E = b" \n.+-09e"


def _plain_lines(raw, nnz):
    """Whether the ASCII body is nnz lines "i j value\n", one space apart,
    with digit-only indices and values matching -?(D+.?D*|.D+)([eE][+-]?D+)?.

    On such a body mmread and int()/float() read the same numbers.  Past it
    they part: mmread ends a token at the first character that cannot extend
    a number and skips the rest of the line unread ("1 1 2 7", "1 1 1_0" and
    "1 1 0x10" read as 2, 1 and 0)."""
    if not raw.endswith(b"\n") or raw.translate(None, b"0123456789+-.eE \n"):
        return False
    a = np.frombuffer(raw, dtype=np.uint8)
    sep = np.flatnonzero(a <= _SPACE)  # the whitelist leaves only space and newline
    if sep.size != 3 * nnz or sep[0] == 0 or np.diff(sep).min() < 2 \
            or not (a[sep].reshape(nnz, 3) == (_SPACE, _SPACE, _NEWLINE)).all():
        return False
    # every sign, dot and exponent letter, and the token that holds it
    pos = np.flatnonzero((a < _ZERO) & (a > _SPACE) | (a > _NINE))
    token = np.searchsorted(sep, pos)
    if (token % 3 != 2).any():
        return False
    c, before, after = a[pos], a[pos - 1], a[pos + 1]
    digit_before = (before >= _ZERO) & (before <= _NINE)
    digit_after = (after >= _ZERO) & (after <= _NINE)
    is_exp, exp_before, exp_after = ((x | 0x20) == _E for x in (c, before, after))
    lead = (c == _MINUS) & (before == _SPACE)
    ok = lead & (digit_after | (after == _DOT))
    ok |= ((c == _MINUS) | (c == _PLUS)) & exp_before & digit_after
    ok |= (c == _DOT) & np.where(digit_before, digit_after | exp_after | (after == _NEWLINE),
                                 ((before == _SPACE) | (before == _MINUS)) & digit_after)
    ok |= is_exp & (digit_before | (before == _DOT)) & (
        digit_after | (after == _PLUS) | (after == _MINUS))
    if not ok.all():
        return False
    # within a token: at most one of each, in the order lead sign, dot,
    # exponent letter, exponent sign
    rank = np.select([lead, c == _DOT, is_exp], [0, 1, 2], 3)
    same = token[1:] == token[:-1]
    return bool((rank[1:][same] > rank[:-1][same]).all())


def _fast_entries(body, nnz, n_rows, n_cols):
    """The 0-based (i, j, value) arrays as scipy's mmread reads them, or None
    when the body is not plain lines or mmread rejects it."""
    if not body.isascii():
        return None
    raw = body.encode()
    if not _plain_lines(raw, nnz):
        return None
    import scipy.io  # here, not at the top: importing it takes about 25 ms

    # a general header: the file's own entries only, in file order
    head = f"%%MatrixMarket matrix coordinate real general\n{n_rows} {n_cols} {nnz}\n"
    try:
        m = scipy.io.mmread(io.BytesIO(head.encode() + raw))
    except (ValueError, OverflowError):
        return None
    if m.shape != (n_rows, n_cols) or m.nnz != nnz:
        return None
    return m.row.astype(np.int64), m.col.astype(np.int64), m.data


def _size_line(sizes, size_no, form):
    """The integers of a size line laid out as ``form``, "rows cols nnz" or "rows cols"."""
    if len(sizes) != len(form.split()):
        raise MatrixMarketError(f"size line must be '{form}'", size_no)
    try:
        return [int(s) for s in sizes]
    except ValueError:
        raise MatrixMarketError("non-integer size entry", size_no) from None


def _read_coordinate(body, sizes, size_no, symmetric):
    n_rows, n_cols, nnz = _size_line(sizes, size_no, "rows cols nnz")
    entries = _fast_entries(body, nnz, n_rows, n_cols)
    # a plain body holds no blank or comment line: entry k is on line size_no + 1 + k
    line_nos, error = range(size_no + 1, size_no + 1 + nnz), None
    if entries is None:
        entries, line_nos, error = _checked_entries(_content(body.split("\n"), size_no + 1),
                                                    nnz, size_no)
    i, j, v = _in_range(*entries, line_nos, n_rows, n_cols, symmetric)
    if error is not None:  # no entry before the malformed line is out of range
        raise error
    if symmetric:
        # each off-diagonal entry followed by its mirror, as the file lists them
        keep = np.column_stack([np.ones(nnz, dtype=bool), i != j]).ravel()
        i, j = np.column_stack([i, j]).ravel()[keep], np.column_stack([j, i]).ravel()[keep]
        v = np.repeat(v, 2)[keep]
        return sparse.from_scipy(sp.coo_matrix((v, (i, j)), shape=(n_rows, n_cols)),
                                 sparse.SYMMETRIC)
    a = sparse.from_scipy(sp.coo_matrix((v, (i, j)), shape=(n_rows, n_cols)))
    if a.is_square() and (a.mat - a.mat.T).nnz == 0:
        return sparse.SparseMatrix(a.mat, sparse.SYMMETRIC)
    return a


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
    n_rows, n_cols = _size_line(sizes, size_no, "rows cols")
    values = []
    for no, ln in _content(body.split("\n"), size_no + 1):
        fields = ln.split()
        if len(fields) != 1:
            raise MatrixMarketError(f"array line must hold one value, found {len(fields)}", no)
        try:
            values.append(float(fields[0]))
        except ValueError:
            raise MatrixMarketError("malformed array value", no) from None
    if len(values) != n_rows * n_cols:
        raise MatrixMarketError(f"expected {n_rows * n_cols} values, found {len(values)}", size_no)
    return np.array(values).reshape((n_cols, n_rows)).T.squeeze()
