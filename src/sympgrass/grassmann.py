"""Totally isotropic subspace enumeration and the Plücker embedding.

Isotropic k-subspaces are generated cell by cell (fixed pivot columns),
extending partial RREF frames one row at a time and pruning extensions
that break isotropy against any earlier row.  All filtering is batched
in numpy, so the enumeration keeps up with the largest verification
sizes (about a million subspaces in seconds).

Plücker coordinates are the k x k minors over lexicographically ordered
column subsets.  For an RREF basis the minor on the pivot columns equals
1 and every lexicographically earlier minor vanishes, so projective
normalization (first nonzero coordinate = 1) is automatic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

import numpy as np

from .forms import AlternatingForm, is_totally_isotropic, perp, standard_symplectic
from .gf import GF, Field
from .linalg import (
    DEFAULT_BATCH_ROWS,
    Subspace,
    _digit_block,
    iter_subspace_batches,
    normalize_projective,
    projective_points_array,
    rref,
)

_FILTER_CHUNK_ELEMS = 8_000_000


# ---------------------------------------------------------------------------
# k-subsets and batched minors


@lru_cache(maxsize=None)
def k_subsets(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {0..d-1} in lexicographic order (coordinate indexing)."""
    return tuple(combinations(range(d), k))


def det_batch(f: Field, mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of m x m matrices, m <= 4, shape (B, m, m)."""
    m = mats.shape[-1]
    if m == 0:
        return np.ones(mats.shape[0], dtype=np.uint8)
    if m == 1:
        return mats[:, 0, 0].copy()
    if m == 2:
        return f.arr_sub(
            f.arr_mul(mats[:, 0, 0], mats[:, 1, 1]),
            f.arr_mul(mats[:, 0, 1], mats[:, 1, 0]),
        )
    if m == 3:
        a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 0, 2]
        d0, e, g = mats[:, 1, 0], mats[:, 1, 1], mats[:, 1, 2]
        h, i, j = mats[:, 2, 0], mats[:, 2, 1], mats[:, 2, 2]
        pos = f.arr_add(
            f.arr_add(f.arr_mul(a, f.arr_mul(e, j)), f.arr_mul(b, f.arr_mul(g, h))),
            f.arr_mul(c, f.arr_mul(d0, i)),
        )
        neg = f.arr_add(
            f.arr_add(f.arr_mul(c, f.arr_mul(e, h)), f.arr_mul(b, f.arr_mul(d0, j))),
            f.arr_mul(a, f.arr_mul(g, i)),
        )
        return f.arr_sub(pos, neg)
    if m == 4:
        acc = np.zeros(mats.shape[0], dtype=np.uint8)
        for col in range(4):
            rest = tuple(x for x in range(4) if x != col)
            minor = det_batch(f, mats[:, 1:, :][:, :, rest])
            term = f.arr_mul(mats[:, 0, col], minor)
            acc = f.arr_add(acc, term) if col % 2 == 0 else f.arr_sub(acc, term)
        return acc
    raise ValueError(f"determinant batches support m <= 4, got {m}")


def plucker_batch(f: Field, mats: np.ndarray) -> np.ndarray:
    """Plücker coordinate vectors for a (B, k, d) stack of RREF bases."""
    _, k, d = mats.shape
    subs = k_subsets(d, k)
    out = np.empty((mats.shape[0], len(subs)), dtype=np.uint8)
    for idx, cols in enumerate(subs):
        out[:, idx] = det_batch(f, mats[:, :, cols])
    return out


def plucker(s: Subspace) -> np.ndarray:
    """Normalized Plücker point of a subspace: its k x k minors, lex order."""
    if s.dim == 0:
        raise ValueError("the zero subspace has no Plücker point")
    coords = plucker_batch(s.field, s.basis[None, :, :])[0]
    return normalize_projective(s.field, coords)


# ---------------------------------------------------------------------------
# isotropic enumeration


def _row_candidates(f: Field, pivots: tuple[int, ...], ncols: int, i: int) -> np.ndarray:
    """All admissible RREF row-i vectors for the given pivot pattern."""
    c = pivots[i]
    pset = set(pivots)
    free = [j for j in range(c + 1, ncols) if j not in pset]
    total = f.q ** len(free)
    rows = np.zeros((total, ncols), dtype=np.uint8)
    rows[:, c] = 1
    if free:
        rows[:, np.asarray(free, dtype=np.intp)] = _digit_block(0, total, len(free), f.q)
    return rows


def _filter_extend(f: Field, surv: np.ndarray, cands: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """Extend partial frames by every candidate row orthogonal to all of them.

    Column (g, t) of duals, shape (d, forms * candidates), is G_g @ cand_t, so
    frame row x is orthogonal to cand_t under form g iff x @ duals[:, (g, t)] = 0.
    """
    n_surv, r, d = surv.shape
    n_cand = cands.shape[0]
    pieces = []
    # budget in elements of the float32 product inside f.matmul
    chunk = max(1, _FILTER_CHUNK_ELEMS // (r * duals.shape[1] * f.e))
    for s in range(0, n_surv, chunk):
        part = surv[s : s + chunk]
        vals = f.matmul(part, duals).reshape(part.shape[0], -1, n_cand)
        ib, it = np.nonzero(~np.any(vals, axis=1))
        if ib.size:
            pieces.append(np.concatenate([part[ib], cands[it][:, None, :]], axis=1))
    if not pieces:
        return np.zeros((0, r + 1, d), dtype=np.uint8)
    return np.concatenate(pieces, axis=0)


def iter_isotropic_batches(
    f: Field, grams: np.ndarray, k: int, max_rows: int = DEFAULT_BATCH_ROWS
) -> Iterator[np.ndarray]:
    """Subspaces of dimension k totally isotropic for every given alternating form.

    grams is one Gram matrix (d, d) or a stack (forms, d, d).  Yields
    canonical RREF bases stacked as (B, k, d) batches, cell by cell in
    lexicographic pivot-pattern order.
    """
    grams = np.asarray(grams, dtype=np.uint8)
    d = grams.shape[-1]
    grams = grams.reshape(-1, d, d)
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}, got k={k}")
    for pivots in combinations(range(d), k):
        surv = _row_candidates(f, pivots, d, 0)[:, None, :]
        for i in range(1, k):
            cands = _row_candidates(f, pivots, d, i)
            duals = f.matmul(grams, cands.T).transpose(1, 0, 2).reshape(d, -1)
            surv = _filter_extend(f, surv, cands, duals)
            if surv.shape[0] == 0:
                break
        if surv.shape[0] == 0:
            continue
        for s in range(0, surv.shape[0], max_rows):
            yield surv[s : s + max_rows]


def enumerate_isotropic(n: int, k: int, field: Field) -> Iterator[Subspace]:
    """Points of the symplectic Grassmannian for the standard form, each once."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    gram = standard_symplectic(n, field).gram
    for batch in iter_isotropic_batches(field, gram, k):
        for mat in batch:
            yield Subspace(field, 2 * n, mat)


def count_isotropic(n: int, k: int, field: Field) -> int:
    """Stream length of the isotropic enumeration (no stacking)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    gram = standard_symplectic(n, field).gram
    return sum(batch.shape[0] for batch in iter_isotropic_batches(field, gram, k))


@lru_cache(maxsize=32)
def _isotropic_stack_cached(n: int, k: int, q: int) -> np.ndarray:
    f = GF(q)
    gram = standard_symplectic(n, f).gram
    batches = list(iter_isotropic_batches(f, gram, k))
    arr = (
        np.concatenate(batches, axis=0)
        if batches
        else np.zeros((0, k, 2 * n), dtype=np.uint8)
    )
    arr.setflags(write=False)
    return arr


def isotropic_stack(n: int, k: int, field: Field) -> np.ndarray:
    """All isotropic k-subspace bases stacked as one (N, k, 2n) array (cached)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _isotropic_stack_cached(n, k, field.q)


# ---------------------------------------------------------------------------
# lines of the symplectic Grassmannian


@dataclass(frozen=True)
class GrassmannLine:
    """A line: subspaces X with W <= X <= T (k < n), or W <= X <= W-perp (k = n).

    For k = n there is no upper bound subspace to store; T is None and the
    q+1 members are the isotropic n-spaces over W.
    """

    W: Subspace
    T: Subspace | None


def _complement_rows(f: Field, inner: Subspace, outer: Subspace) -> np.ndarray:
    """Rows of outer's basis extending inner's basis to a basis of outer."""
    rows = []
    cur = inner.basis
    cur_rank = cur.shape[0]
    for row in outer.basis:
        cand = np.concatenate([cur, row[None, :]], axis=0)
        reduced, rk, _ = rref(f, cand)
        if rk > cur_rank:
            rows.append(row)
            cur = reduced[:rk]
            cur_rank = rk
    return np.asarray(rows, dtype=np.uint8).reshape(len(rows), inner.ambient_dim)


def line_points(line: GrassmannLine, sigma: AlternatingForm) -> list[Subspace]:
    """The q+1 member subspaces of a line, canonicalized."""
    f = line.W.field
    if line.T is not None:
        comp = _complement_rows(f, line.W, line.T)
    else:
        comp = _complement_rows(f, line.W, perp(sigma, line.W))
    if comp.shape[0] != 2:
        raise AssertionError("line complement should be 2-dimensional")
    extras = f.matmul(projective_points_array(f, 2), comp)
    return [Subspace.from_rows(f, np.vstack([line.W.basis, row])) for row in extras]


def grassmann_lines(n: int, k: int, field: Field) -> Iterator[GrassmannLine]:
    """All lines of the symplectic Grassmannian of k-subspaces."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        if n == 1:
            yield GrassmannLine(Subspace.zero(field, 2), None)
            return
        for w in enumerate_isotropic(n, n - 1, field):
            yield GrassmannLine(w, None)
        return
    for t in enumerate_isotropic(n, k + 1, field):
        for combo_batch in iter_subspace_batches(field, k + 1, k - 1):
            for w_rows in field.matmul(combo_batch, t.basis):
                yield GrassmannLine(Subspace.from_rows(field, w_rows), t)


def grassmann_lines_through(
    n: int, k: int, field: Field, x: Subspace
) -> Iterator[GrassmannLine]:
    """All lines containing the point x (an isotropic k-subspace)."""
    sigma = standard_symplectic(n, field)
    if x.dim != k or x.ambient_dim != 2 * n:
        raise ValueError("x must be a k-subspace of V(2n, q)")
    if not is_totally_isotropic(sigma, x):
        raise ValueError("x must be totally isotropic")
    if k == n:
        for w_batch in iter_subspace_batches(field, n, n - 1):
            for w_rows in field.matmul(w_batch, x.basis):
                yield GrassmannLine(Subspace.from_rows(field, w_rows), None)
        return
    comp = _complement_rows(field, x, perp(sigma, x))
    extras = field.matmul(projective_points_array(field, comp.shape[0]), comp)
    t_list = [Subspace.from_rows(field, np.vstack([x.basis, row])) for row in extras]
    for w_batch in iter_subspace_batches(field, k, k - 1):
        for w_rows in field.matmul(w_batch, x.basis):
            w = Subspace.from_rows(field, w_rows)
            for t in t_list:
                yield GrassmannLine(w, t)
