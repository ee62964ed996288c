"""Dense matrix algebra over GF(q).

Matrices are numpy uint8 arrays of element encodings, shape (rows, cols),
paired with the Field they live over: row reduction, rank, and the text
matrix files.

One elimination loop, _pivot_steps, serves both.  rank runs it on a stack
of matrices at once: N1's q ranks of theta - lam sigma take one call
(0.09-0.11 ms against 1.2-1.4 ms for 13 calls at n = 2, q = 13).  rref
runs it on one matrix as a stack of one, plus an update of its kept rows
per pivot: the bench builds' samples (60 x 15 to 280 x 70) took 1.9-2.6x
as long as with a loop of its own, about 5 ms more over the six builds
(2-core x86, numpy 2.4, one BLAS thread).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .gf import GF, Field

# ---------------------------------------------------------------------------
# row reduction


def _pivot_steps(f: Field, work: np.ndarray):
    """Eliminate a (mats, rows, cols) stack column by column, without row
    swaps, and yield (c, pv, rows) for each column c where some matrix finds
    a pivot: pv holds each matrix's pivot (0 if it has none) and rows its
    pivot row.  The pivot is the column's largest entry (one argmax: it is
    nonzero unless all are), and one update clears the column from every
    row, the pivot row included, so a used row is zero and never picked
    again.  A zero column costs one any() and no update.  work is not
    written to.
    """
    mats = np.arange(work.shape[0])
    neg_inv = f.neg_table[f.inv_table]  # -1/v, and 0 for v = 0
    for c in range(work.shape[2]):
        col = work[:, :, c]
        if not col.any():
            continue
        pick = col.argmax(axis=1)
        pv = col[mats, pick]
        rows = work[mats, pick]
        # a matrix without a pivot has pv = 0, so its factors are 0 and it is unchanged
        factors = f.arr_mul(col, neg_inv[pv][:, None])
        work = f.arr_add(work, f.arr_mul(factors[:, :, None], rows[:, None, :]))
        yield c, pv, rows


def rref(f: Field, m: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form.  Returns (R, rank, pivot_columns).

    m runs through _pivot_steps as a stack of one, until its rows run out.
    A pivot row is zero before its pivot column; it is normalised and kept,
    and its column is cleared from the rows kept before it that have it
    (Gauss-Jordan on at most rank rows, from the pivot column on).  The RREF
    is unique, so which row supplies the pivot does not change the result.
    """
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    r_mat = np.zeros_like(m)
    pivots: list[int] = []
    for c, pv, rows in _pivot_steps(f, m[None]):
        row = f.arr_mul(rows[0, c:], f.inv_table[pv[0]])
        kept = np.flatnonzero(r_mat[: len(pivots), c])  # the kept rows to clear
        factors = f.arr_neg(r_mat[kept, c])
        r_mat[kept, c:] = f.arr_add(r_mat[kept, c:], f.arr_mul(factors[:, None], row))
        r_mat[len(pivots), c:] = row
        pivots.append(c)
        if len(pivots) == m.shape[0]:
            break
    return r_mat, len(pivots), pivots


def rank(f: Field, m: np.ndarray):
    """The rank of a matrix (a Python int), or the ranks of a (..., rows,
    cols) stack (an int array of the leading shape): each matrix's number of
    pivots in _pivot_steps."""
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim < 2:
        raise ValueError("expected a matrix or a stack of matrices")
    *lead, nrows, ncols = m.shape
    ranks = np.zeros(math.prod(lead), dtype=np.intp)  # explicit: -1 is ambiguous when empty
    for _, pv, _ in _pivot_steps(f, m.reshape(ranks.size, nrows, ncols)):
        ranks += pv != 0
    return int(ranks[0]) if not lead else ranks.reshape(lead)


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
            row = [int(x) for x in vals]  # Python ints: no entry overflows
            if not all(0 <= x < q for x in row):
                raise ValueError(f"row {i}: entry out of range for GF({q})")
            rows.append(np.array(row, dtype=np.uint8))
    if len(rows) != nrows:
        raise ValueError(f"expected {nrows} rows, got {len(rows)}")
    return f, np.array(rows, dtype=np.uint8).reshape(nrows, ncols)
