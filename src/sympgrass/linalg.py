"""Dense matrix algebra over GF(q).

Matrices are numpy uint8 arrays of element encodings, shape (rows, cols),
paired with the Field they live over: row reduction, rank, and the text
matrix files.

rref reduces one matrix and returns its pivots, and gives rank its rank;
rank eliminates a stack of matrices at once.  The stacked loop spends one
set of numpy calls per column on the whole stack, which pays on many small
matrices: N1 reads the q ranks of theta - lam sigma from one call (over
GF(13) at n = 2, 0.10-0.16 ms against 1.5-1.8 ms for 13 rref calls).  On
one matrix rref is the faster, as it swaps a pivot into place and stops at
full rank.  Its one update, of the whole matrix per pivot, was as fast as
or faster than updating only the rows with a nonzero factor above 4096
entries and jumping over zero columns, on the bench builds' row samples
(W(4,3) q=3, 224 x 56: 3.0 -> 2.1 ms; W(5,5) q=2, 1008 x 252: 14.2 -> 6.8
ms) and on 6 x 6 and 8 x 8 Gram matrices (best of 3 x 7 interleaved runs,
2-core x86, numpy 2.4, one BLAS thread).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .gf import GF, Field

# ---------------------------------------------------------------------------
# row reduction


def rref(f: Field, m: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form.  Returns (R, rank, pivot_columns).

    Column by column: the largest entry of column c at or below row r is
    nonzero unless all of them are, so one argmax finds a pivot, and a
    column without one is skipped.  The pivot row is swapped into place and
    normalised, and one update of the whole matrix, with the pivot row's own
    factor set to zero, clears the rest of the column.  The loop stops at
    full rank.  The RREF is unique, so which row supplies the pivot does not
    change the result.
    """
    r_mat = np.array(m, dtype=np.uint8, copy=True)
    if r_mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = r_mat.shape
    pivots: list[int] = []
    for c in range(ncols):
        if (r := len(pivots)) == nrows:
            break
        i = r + int(r_mat[r:, c].argmax())
        pv = int(r_mat[i, c])
        if pv == 0:
            continue
        if i != r:
            r_mat[[r, i]] = r_mat[[i, r]]
        row = f.arr_mul(r_mat[r], np.uint8(f.inv(pv))) if pv != 1 else r_mat[r]
        factors = f.arr_neg(r_mat[:, c])
        factors[r] = 0
        r_mat = f.arr_add(r_mat, f.arr_mul(factors[:, None], row))
        r_mat[r] = row
        pivots.append(c)
    return r_mat, len(pivots), pivots


def rank(f: Field, m: np.ndarray):
    """The rank of a matrix (a Python int, from rref), or the ranks of a
    (..., rows, cols) stack (an int array of the leading shape).

    Every matrix of a stack is eliminated at once, one step per column and
    without row swaps: each takes a row with a nonzero entry in the column
    (one argmax, as in rref) as pivot and clears the column from every row,
    the pivot row included, which leaves it zero.  A used row is a zero
    row, so it is never picked again, and a rank is the number of columns
    that found a pivot.  The loop ends once every matrix is zero.
    """
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim <= 2:
        return rref(f, m)[1]  # which refuses anything but a matrix
    *lead, nrows, ncols = m.shape
    work = m.reshape(math.prod(lead), nrows, ncols)  # explicit: -1 is ambiguous when empty
    mats = np.arange(work.shape[0])
    ranks = np.zeros(work.shape[0], dtype=np.intp)
    neg_inv = f.neg_table[f.inv_table]  # -1/v, and 0 for v = 0
    for c in range(ncols):
        if not work.any():
            break
        col = work[:, :, c]
        pick = col.argmax(axis=1)  # the largest entry is nonzero unless all are
        pv = col[mats, pick]
        ranks += pv != 0
        # a matrix without a pivot has pv = 0, so its factors are 0 and it is unchanged
        factors = f.arr_mul(col, neg_inv[pv][:, None])
        work = f.arr_add(work, f.arr_mul(factors[:, :, None], work[mats, pick][:, None, :]))
    return ranks.reshape(lead)


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
