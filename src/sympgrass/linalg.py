"""Dense matrix algebra over GF(q).

Matrices are numpy uint8 arrays of element encodings, shape (rows, cols),
paired with the Field they live over: row reduction, rank, and the text
matrix files.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .gf import GF, Field

_SPARSE_UPDATE_ELEMS = 1 << 12  # entries above which rref updates only rows it changes


# ---------------------------------------------------------------------------
# row reduction


def rref(f: Field, m: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form.  Returns (R, rank, pivot_columns).

    Column by column: the largest entry of column c at or below row r is
    nonzero unless all of them are, so one argmax finds a pivot, and a
    column without one jumps, by one search, to the next column with one.
    One update, with the pivot row's own factor set to zero, then clears
    the rest of the pivot column.  It takes every row, or, above
    _SPARSE_UPDATE_ELEMS entries, only the rows with a nonzero factor: on a
    large matrix the rows skipped outweigh the call that finds them (the
    56 x 918400 transposed Plücker matrix of W(4,3) q=3 reduces in 1.6 s,
    against 17 s updating every row), and on the small ones behind N1 that
    call costs more than it saves (the bench's `lines` workload took a
    third longer with rows selected in every matrix).  The RREF is unique,
    so which row supplies the pivot does not change the result.
    """
    r_mat = np.array(m, dtype=np.uint8, copy=True)
    if r_mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = r_mat.shape
    sparse = r_mat.size > _SPARSE_UPDATE_ELEMS
    pivots: list[int] = []
    c = 0
    while (r := len(pivots)) < nrows and c < ncols:
        i = r + int(r_mat[r:, c].argmax())
        pv = int(r_mat[i, c])
        if pv == 0:  # jump to the next column with a nonzero entry below row r
            nonzero = np.flatnonzero(r_mat[r:, c + 1 :].any(axis=0))
            if nonzero.size == 0:
                break
            c += 1 + int(nonzero[0])
            continue
        if i != r:
            r_mat[[r, i]] = r_mat[[i, r]]
        row = f.arr_mul(r_mat[r], np.uint8(f.inv(pv))) if pv != 1 else r_mat[r]
        factors = f.arr_neg(r_mat[:, c])
        factors[r] = 0
        rows = np.flatnonzero(factors) if sparse else slice(None)
        r_mat[rows] = f.arr_add(r_mat[rows], f.arr_mul(factors[rows, None], row))
        r_mat[r] = row
        pivots.append(c)
        c += 1
    return r_mat, len(pivots), pivots


def rank(f: Field, m: np.ndarray) -> int:
    return rref(f, m)[1]


# ---------------------------------------------------------------------------
# text matrix files: one header line naming rows, cols and q in some order,
# then one row of encodings per line

MATRIX_HEADER = "rows cols q"
_DECIMAL = np.array([str(i) for i in range(256)], dtype=object)  # a uint8 entry's text


def _open(target, mode: str):
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return open(target, mode)
    return contextlib.nullcontext(target)


def write_matrix_text(dest, f: Field, m: np.ndarray, header: str = MATRIX_HEADER) -> None:
    m = np.asarray(m, dtype=np.uint8)
    values = {"rows": m.shape[0], "cols": m.shape[1], "q": f.q}
    with _open(dest, "w") as fh:
        fh.write(" ".join(str(values[name]) for name in header.split()) + "\n")
        for row in m:
            fh.write(" ".join(_DECIMAL[row].tolist()) + "\n")


def read_matrix_text(src, header: str = MATRIX_HEADER) -> tuple[Field, np.ndarray]:
    """Read a matrix file written with the same header.

    Nothing is allocated from the header before the rows are read; a short
    row, a missing row, or a non-blank line after the last row is an error.
    """
    names = header.split()
    with _open(src, "r") as fh:
        first = fh.readline().split()
        if len(first) != len(names):
            raise ValueError(f"matrix header must be '{header}'")
        values = dict(zip(names, (int(x) for x in first)))
        nrows, ncols, q = values["rows"], values["cols"], values["q"]
        f = GF(q)
        if nrows < 0 or ncols < 0:
            raise ValueError(f"negative matrix shape {nrows} x {ncols}")
        rows = []
        for i, line in enumerate(fh):
            vals = line.split()
            if i >= nrows:
                if vals:
                    raise ValueError(f"unexpected data after the {nrows} rows")
                continue
            if len(vals) != ncols:
                raise ValueError(f"row {i}: expected {ncols} entries, got {len(vals)}")
            row = np.fromiter(map(int, vals), dtype=np.int64, count=ncols)
            if np.any((row < 0) | (row >= q)):
                raise ValueError(f"row {i}: entry out of range for GF({q})")
            rows.append(row.astype(np.uint8))
    if len(rows) != nrows:
        raise ValueError(f"expected {nrows} rows, got {len(rows)}")
    return f, np.array(rows, dtype=np.uint8).reshape(nrows, ncols)
