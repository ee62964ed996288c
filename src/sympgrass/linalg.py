"""Dense matrix algebra over GF(q).

Matrices are numpy uint8 arrays of element encodings, shape (rows, cols),
paired with the Field they live over.  Subspaces of V(d, q) are stored by
their unique reduced-row-echelon basis, which makes equality entrywise
and enumeration duplicate-free.

Subspace enumeration walks Schubert cells: choose pivot columns, then
sweep the free entries.  Cells are generated in batches of stacked
(B, k, d) arrays so downstream consumers (isotropy filters, minors) can
stay vectorized.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .gf import GF, Field

DEFAULT_BATCH_ROWS = 1 << 18


# ---------------------------------------------------------------------------
# row reduction


def _next_pivot_col(r_mat: np.ndarray, r: int, c0: int) -> int | None:
    """Leftmost column >= c0 with a nonzero entry in rows >= r, scanned in windows."""
    ncols = r_mat.shape[1]
    pos = c0
    while pos < ncols:
        stop = min(pos + 4096, ncols)
        nz = np.nonzero(r_mat[r:, pos:stop].any(axis=0))[0]
        if nz.size:
            return pos + int(nz[0])
        pos = stop
    return None


def rref(f: Field, m: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form.  Returns (R, rank, pivot_columns)."""
    r_mat = np.array(m, dtype=np.uint8, copy=True)
    if r_mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = r_mat.shape
    pivots: list[int] = []
    r = 0
    c0 = 0
    while r < nrows and c0 < ncols:
        found = _next_pivot_col(r_mat, r, c0)
        if found is None:
            break
        c = found
        i = r + int(np.nonzero(r_mat[r:, c])[0][0])
        if i != r:
            r_mat[[r, i]] = r_mat[[i, r]]
        pv = int(r_mat[r, c])
        if pv != 1:
            r_mat[r] = f.arr_mul(r_mat[r], np.uint8(f.inv(pv)))
        others = np.nonzero(r_mat[:, c])[0]
        others = others[others != r]
        if others.size:
            factors = r_mat[others, c]
            r_mat[others] = f.arr_sub(
                r_mat[others], f.arr_mul(factors[:, None], r_mat[r][None, :])
            )
        pivots.append(c)
        r += 1
        c0 = c + 1
    return r_mat, len(pivots), pivots


def rank(f: Field, m: np.ndarray) -> int:
    return rref(f, m)[1]


def kernel(f: Field, m: np.ndarray) -> "Subspace":
    """Right kernel {x : m x^T = 0} as a Subspace of F_q^cols."""
    m = np.asarray(m, dtype=np.uint8)
    ncols = m.shape[1]
    r_mat, rk, pivots = rref(f, m)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return Subspace(f, ncols, np.zeros((0, ncols), dtype=np.uint8))
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    for t, c in enumerate(free):
        basis[t, c] = 1
        for row, pc in enumerate(pivots):
            basis[t, pc] = f.neg(int(r_mat[row, c]))
    return Subspace.from_rows(f, basis)


def inverse(f: Field, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.uint8)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    aug = np.concatenate([m, np.eye(n, dtype=np.uint8)], axis=1)
    r_mat, _, pivots = rref(f, aug)
    if len(pivots) < n or any(c >= n for c in pivots):
        raise ValueError("matrix is singular")
    return r_mat[:, n:].copy()


def normalize_projective(f: Field, v: np.ndarray) -> np.ndarray:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    v = np.asarray(v, dtype=np.uint8)
    nz = np.nonzero(v)[0]
    if nz.size == 0:
        raise ValueError("cannot normalize the zero vector")
    lead = int(v[nz[0]])
    if lead == 1:
        return v.copy()
    return f.arr_mul(v, np.uint8(f.inv(lead)))


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of V(ambient_dim, q), held as its canonical RREF basis."""

    field: Field
    ambient_dim: int
    basis: np.ndarray  # (dim, ambient_dim) in RREF, read-only

    def __post_init__(self):
        self.basis.setflags(write=False)

    @staticmethod
    def from_rows(f: Field, rows: np.ndarray) -> "Subspace":
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2:
            raise ValueError("expected a 2-d array of row vectors")
        r_mat, rk, _ = rref(f, rows)
        return Subspace(f, rows.shape[1], r_mat[:rk].copy())

    @staticmethod
    def zero(f: Field, ambient_dim: int) -> "Subspace":
        return Subspace(f, ambient_dim, np.zeros((0, ambient_dim), dtype=np.uint8))

    @staticmethod
    def full(f: Field, ambient_dim: int) -> "Subspace":
        return Subspace(f, ambient_dim, np.eye(ambient_dim, dtype=np.uint8))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains_vector(self, v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=np.uint8).copy()
        pivots = [int(np.nonzero(row)[0][0]) for row in self.basis]
        for row, c in zip(self.basis, pivots):
            if v[c]:
                v = self.field.arr_sub(v, self.field.arr_mul(row, v[c]))
        return not v.any()

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains_vector(row) for row in other.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.ambient_dim, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, q={self.field.q})"


# ---------------------------------------------------------------------------
# Schubert-cell enumeration


def _cell_free_slots(pivots: Sequence[int], ncols: int) -> list[tuple[int, int]]:
    """Free (row, col) positions of the RREF cell, row-major order."""
    pset = set(pivots)
    slots = []
    for i, c in enumerate(pivots):
        for j in range(c + 1, ncols):
            if j not in pset:
                slots.append((i, j))
    return slots


def _digit_block(start: int, stop: int, nslots: int, q: int) -> np.ndarray:
    """Base-q digits of [start, stop), little-endian, as (stop-start, nslots) uint8."""
    idx = np.arange(start, stop, dtype=np.int64)[:, None]
    powers = q ** np.arange(nslots, dtype=np.int64)[None, :]
    return ((idx // powers) % q).astype(np.uint8)


def iter_cell_batches(
    f: Field,
    pivots: Sequence[int],
    ncols: int,
    max_rows: int = DEFAULT_BATCH_ROWS,
) -> Iterator[np.ndarray]:
    """All RREF matrices with the given pivot columns, in (B, k, ncols) batches."""
    k = len(pivots)
    slots = _cell_free_slots(pivots, ncols)
    total = f.q ** len(slots)
    rows_idx = np.array([s[0] for s in slots], dtype=np.intp)
    cols_idx = np.array([s[1] for s in slots], dtype=np.intp)
    for start in range(0, total, max_rows):
        stop = min(start + max_rows, total)
        digits = _digit_block(start, stop, len(slots), f.q)
        mats = np.zeros((stop - start, k, ncols), dtype=np.uint8)
        for i, c in enumerate(pivots):
            mats[:, i, c] = 1
        if slots:
            mats[:, rows_idx, cols_idx] = digits
        yield mats


def iter_subspace_batches(
    f: Field, ambient_dim: int, k: int, max_rows: int = DEFAULT_BATCH_ROWS
) -> Iterator[np.ndarray]:
    """All k-subspaces of V(ambient_dim, q) as batches of RREF bases."""
    if not 0 <= k <= ambient_dim:
        raise ValueError(f"need 0 <= k <= ambient_dim, got k={k}, d={ambient_dim}")
    if k == 0:
        yield np.zeros((1, 0, ambient_dim), dtype=np.uint8)
        return
    for pivots in combinations(range(ambient_dim), k):
        yield from iter_cell_batches(f, pivots, ambient_dim, max_rows)


def enumerate_subspaces(ambient_dim: int, k: int, field: Field) -> Iterator[Subspace]:
    """Each k-subspace exactly once, as canonical Subspace objects."""
    for batch in iter_subspace_batches(field, ambient_dim, k):
        for mat in batch:
            yield Subspace(field, ambient_dim, mat)


def projective_points_array(f: Field, ambient_dim: int) -> np.ndarray:
    """All normalized projective points of PG(ambient_dim - 1, q), stacked.

    Row order: leading coordinate position ascending, then free digits.
    """
    chunks = [batch[:, 0, :] for batch in iter_subspace_batches(f, ambient_dim, 1)]
    return np.concatenate(chunks, axis=0)


def enumerate_projective_points(ambient_dim: int, field: Field) -> Iterator[np.ndarray]:
    """Normalized representatives (first nonzero coordinate 1), each point once."""
    for batch in iter_subspace_batches(field, ambient_dim, 1):
        yield from batch[:, 0, :]


# ---------------------------------------------------------------------------
# text matrix files: one header line naming rows, cols and q in some order,
# then one row of encodings per line

MATRIX_HEADER = "rows cols q"


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
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


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
