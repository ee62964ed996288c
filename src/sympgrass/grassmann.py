"""Totally isotropic subspace enumeration and the Plücker embedding.

iter_isotropic_batches is the package's one walker over RREF Schubert
cells.  Isotropic k-subspaces are generated cell by cell (fixed pivot
columns), extending partial RREF frames one row at a time and pruning
extensions that break isotropy against any earlier row.  All filtering
is batched in numpy, so the enumeration keeps up with the largest
verification sizes (about a million subspaces in seconds).

Plücker coordinates are the k x k minors over lexicographically ordered
column subsets.  For an RREF basis the minor on the pivot columns equals
1 and every lexicographically earlier minor vanishes, so projective
normalization (first nonzero coordinate = 1) is automatic.  The minors come
from a row-by-row Laplace expansion, level r holding the minors of the
first r rows on every r-subset of columns, for any k and chunk by chunk of
points.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator

import numpy as np

from .forms import standard_symplectic
from .gf import Field

_FILTER_CHUNK_ELEMS = 8_000_000
_PLUCKER_CHUNK_ELEMS = 1 << 21  # minors per chunk of points


# ---------------------------------------------------------------------------
# k-subsets and batched minors


@lru_cache(maxsize=None)
def k_subsets(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {0..d-1} in lexicographic order (coordinate indexing)."""
    return tuple(combinations(range(d), k))


@lru_cache(maxsize=None)
def _laplace_tables(d: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables for expanding every r-subset minor along its last row.

    For the t-th element j of the subset S (lex index i), idx[i, t] is the
    lex index of S minus j among the (r-1)-subsets, and col[i, t] is j when
    the cofactor sign (-1)^(r-1+t) is +1 and d + j when it is -1, so that it
    picks a row of [b; -b].
    """
    prev = {s: i for i, s in enumerate(k_subsets(d, r - 1))}
    subs = k_subsets(d, r)
    idx = np.empty((len(subs), r), dtype=np.intp)
    col = np.empty((len(subs), r), dtype=np.intp)
    for i, s in enumerate(subs):
        for t, j in enumerate(s):
            idx[i, t] = prev[s[:t] + s[t + 1 :]]
            col[i, t] = j + d * ((r - 1 + t) % 2)
    idx.setflags(write=False)
    col.setflags(write=False)
    return idx, col


def _minors_chunk(f: Field, bt: np.ndarray) -> np.ndarray:
    """All k x k minors of a (k, d, B) stack, as a (C(d,k), B) array.

    Level r holds the minors of the first r rows on every r-subset, each one
    the Laplace expansion along row r-1 of r minors of level r-1.  Over a
    prime field one level is summed in uint16 and reduced mod p once: each
    of its r terms is a product of two residues, at most (p-1)^2, so the sum
    is at most r*(p-1)^2 <= k*(p-1)^2 < 2^16 (checked in plucker_batch).
    """
    k, d, _ = bt.shape
    level = bt[0]
    for r in range(2, k + 1):
        row = bt[r - 1]
        idx, col = _laplace_tables(d, r)
        signed = np.concatenate([row, f.arr_neg(row)])
        if f.e == 1:
            signed = signed.astype(np.uint16)
            acc = np.zeros((idx.shape[0], row.shape[1]), dtype=np.uint16)
            for t in range(r):
                acc += signed[col[:, t]] * level[idx[:, t]]
            level = f.mod_p(acc).astype(np.uint8)
        else:
            acc = np.zeros((idx.shape[0], row.shape[1]), dtype=np.uint8)
            for t in range(r):
                acc = f.arr_add(acc, f.arr_mul(signed[col[:, t]], level[idx[:, t]]))
            level = acc
    return level


def plucker_batch(f: Field, mats: np.ndarray) -> np.ndarray:
    """Plücker coordinate vectors (all k x k minors, lex column subsets) of a
    (B, k, d) stack of bases, computed in chunks of points."""
    n_mats, k, d = mats.shape
    if k * (f.p - 1) ** 2 >= 1 << 16:
        raise ValueError(f"k={k} is too large for exact uint16 minor sums over GF({f.q})")
    width = len(k_subsets(d, k))
    out = np.empty((n_mats, width), dtype=np.uint8)
    chunk = max(1, _PLUCKER_CHUNK_ELEMS // width)
    for s in range(0, n_mats, chunk):
        bt = np.ascontiguousarray(mats[s : s + chunk].transpose(1, 2, 0))
        out[s : s + chunk] = _minors_chunk(f, bt).T
    return out


# ---------------------------------------------------------------------------
# isotropic enumeration


def _digit_block(count: int, nslots: int, q: int) -> np.ndarray:
    """Base-q digits of 0..count-1, little-endian, as (count, nslots) uint8,
    written a column at a time, so that the only int64 arrays are two of
    count entries."""
    out = np.empty((count, nslots), dtype=np.uint8)
    rest = np.arange(count, dtype=np.int64)
    for j in range(nslots):
        out[:, j] = rest % q
        rest //= q
    return out


@lru_cache(maxsize=256)
def _row_candidates(f: Field, pivots: tuple[int, ...], ncols: int, i: int) -> np.ndarray:
    """All admissible RREF row-i vectors for the given pivot pattern (cached
    and read-only: every enumeration over the same field and dimension, such
    as eta's k = 1 point enumeration, asks for the same tables)."""
    c = pivots[i]
    pset = set(pivots)
    free = [j for j in range(c + 1, ncols) if j not in pset]
    total = f.q ** len(free)
    rows = np.zeros((total, ncols), dtype=np.uint8)
    rows[:, c] = 1
    if free:
        rows[:, np.asarray(free, dtype=np.intp)] = _digit_block(total, len(free), f.q)
    rows.setflags(write=False)
    return rows


def _filter_extend(f: Field, surv: np.ndarray, cands: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """Extend the (B, r, d) frames surv by every candidate row orthogonal to
    all of their rows under every form of the (forms, d, d) stack grams.

    Column (g, t) of duals is G_g @ cand_t, so row x is orthogonal to cand_t
    under form g iff x @ duals[:, (g, t)] = 0.  The frames are extended chunk
    by chunk, so that a chunk's float32 product inside f.matmul holds at most
    _FILTER_CHUNK_ELEMS elements (32 MB), whatever B is; each chunk's
    products are freed when its extension returns, before the next chunk or
    the result is allocated.
    """
    n_surv, r, d = surv.shape
    n_cand = cands.shape[0]
    duals = f.matmul(grams, cands.T).transpose(1, 0, 2).reshape(d, -1)
    chunk = max(1, _FILTER_CHUNK_ELEMS // (r * duals.shape[1] * f.e))

    def extend(part):
        vals = f.matmul(part, duals).reshape(part.shape[0], -1, n_cand)
        # OR of the rows x forms slices: zero iff every value is zero
        acc = vals[:, 0]
        for j in range(1, vals.shape[1]):
            acc = acc | vals[:, j]
        ib, it = np.nonzero(acc == 0)
        return np.concatenate([part[ib], cands[it][:, None, :]], axis=1)

    pieces = [extend(surv[s : s + chunk]) for s in range(0, n_surv, chunk)]
    if not pieces:
        return np.zeros((0, r + 1, d), dtype=np.uint8)
    return np.concatenate(pieces, axis=0)


def iter_isotropic_batches(f: Field, grams: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Subspaces of dimension k totally isotropic for every given alternating form.

    grams is one Gram matrix (d, d) or a stack (forms, d, d).  Yields
    canonical RREF bases stacked as (B, k, d) arrays, one per nonempty cell,
    in lexicographic pivot-pattern order.
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
            surv = _filter_extend(f, surv, cands, grams)
            if surv.shape[0] == 0:
                break
        if surv.shape[0]:
            yield surv


@lru_cache(maxsize=32)
def isotropic_stack(n: int, k: int, field: Field) -> np.ndarray:
    """All isotropic k-subspace bases stacked as one read-only (N, k, 2n)
    array, cached per (n, k, q): a Field hashes by its order."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    gram = standard_symplectic(n, field).gram
    batches = list(iter_isotropic_batches(field, gram, k))
    arr = (
        np.concatenate(batches, axis=0)
        if batches
        else np.zeros((0, k, 2 * n), dtype=np.uint8)
    )
    arr.setflags(write=False)
    return arr


def count_isotropic(n: int, k: int, field: Field) -> int:
    """Number of points of the symplectic Grassmannian; fills the
    isotropic_stack cache that build_code reads."""
    return isotropic_stack(n, k, field).shape[0]

