"""Totally isotropic subspace enumeration and the Plücker embedding.

iter_isotropic_batches is the package's one walker over RREF Schubert
cells.  The k-subspaces totally isotropic for one given form are generated
cell by cell (fixed pivot columns), extending partial RREF frames one row
at a time and pruning extensions that break isotropy against any earlier
row.  The constraint values of all candidate rows form one uint8
combination table of a few columns of frame @ G (_filter_extend), batched
in numpy, so the enumeration keeps up with the largest verification sizes
(about a million subspaces in a fraction of a second).  The walker knows
nothing of sigma: the symplectic point set is built in forms.

Plücker coordinates are the k x k minors over lexicographically ordered
column subsets.  For an RREF basis the minor on the pivot columns equals
1 and every lexicographically earlier minor vanishes, so projective
normalization (first nonzero coordinate = 1) is automatic.  The minors come
from a row-by-row Laplace expansion, level r holding the minors of the
first r rows on every r-subset of columns, for any k and chunk by chunk of
points, into a minor-major (C(d,k), N) array whose transpose is the
Plücker matrix.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator

import numpy as np

from .gf import Field

_FILTER_CHUNK_ELEMS = 1 << 21
_PLUCKER_CHUNK_ELEMS = 1 << 18  # minors per chunk of points


# ---------------------------------------------------------------------------
# k-subsets and batched minors


@lru_cache(maxsize=None)
def k_subsets(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {0..d-1} in lexicographic order (coordinate indexing)."""
    return tuple(combinations(range(d), k))


@lru_cache(maxsize=None)
def _laplace_tables(d: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables for expanding every r-subset minor along its last row.

    For the t-th element j of the subset S (lex index i), idx[t, i] is the
    lex index of S minus j among the (r-1)-subsets, and col[t, i] is j when
    the cofactor sign (-1)^(r-1+t) is +1 and d + j when it is -1, so that it
    picks a row of [b; -b].
    """
    prev = {s: i for i, s in enumerate(k_subsets(d, r - 1))}
    subs = k_subsets(d, r)
    idx = np.empty((r, len(subs)), dtype=np.intp)
    col = np.empty((r, len(subs)), dtype=np.intp)
    for i, s in enumerate(subs):
        for t, j in enumerate(s):
            idx[t, i] = prev[s[:t] + s[t + 1 :]]
            col[t, i] = j + d * ((r - 1 + t) % 2)
    idx.setflags(write=False)
    col.setflags(write=False)
    return idx, col


def _minors_chunk(f: Field, bt: np.ndarray) -> np.ndarray:
    """All k x k minors of a (k, d, B) stack, as a (C(d,k), B) array.

    Level r holds the minors of the first r rows on every r-subset, each one
    the Laplace expansion along row r-1 of r minors of level r-1.  The two
    factors of each term are gathered into buffers reused across the r
    terms.  Over a prime field one level is summed as integers and reduced
    mod p once: each of its r terms is a product of two residues, at most
    (p-1)^2, so the sum is at most r*(p-1)^2.  It is summed in uint8 while
    that is below 2^8 (GF(11): 200 at r = 2) and otherwise in uint16, as
    r*(p-1)^2 <= k*(p-1)^2 < 2^16 (checked in plucker_batch; GF(11): 300 at
    r = 3).  Over an extension field every term is an encoding, summed by
    f.arr_add (XOR in characteristic 2).
    """
    k, d, n_pts = bt.shape
    level = bt[0]
    for r in range(2, k + 1):
        row = bt[r - 1]
        idx, col = _laplace_tables(d, r)
        dtype = np.uint16 if f.e == 1 and r * (f.p - 1) ** 2 >= 1 << 8 else np.uint8
        signed = np.concatenate([row, f.arr_neg(row)]).astype(dtype, copy=False)
        level = level.astype(dtype, copy=False)
        acc = np.zeros((idx.shape[1], n_pts), dtype=dtype)
        factor, term = np.empty_like(acc), np.empty_like(acc)
        for t in range(r):
            # mode="clip" writes straight into out, which the default mode buffers
            np.take(signed, col[t], axis=0, out=factor, mode="clip")
            np.take(level, idx[t], axis=0, out=term, mode="clip")
            if f.e == 1:
                term *= factor
                acc += term
            else:
                acc = f.arr_add(acc, f.arr_mul(factor, term))
        level = f.mod_p(acc).astype(np.uint8, copy=False) if f.e == 1 else acc
    return level


def plucker_batch(f: Field, mats: np.ndarray) -> np.ndarray:
    """Plücker coordinate vectors (all k x k minors, lex column subsets) of a
    (B, k, d) stack of bases, computed in chunks of points.

    The minors are written minor-major, one row of a (C(d,k), B) array per
    minor, as _minors_chunk makes them; the (B, C(d,k)) result is that
    array's transpose.  A chunk of 2^18 minors keeps a level's buffers in
    cache: the six bench builds' minors took 0.17-0.18 s, against 0.26-0.28 s
    with 2^21 (2^16, 2^17 were slower; 2-core x86, one BLAS thread)."""
    n_mats, k, d = mats.shape
    if k * (f.p - 1) ** 2 >= 1 << 16:
        raise ValueError(f"k={k} is too large for exact uint16 minor sums over GF({f.q})")
    width = len(k_subsets(d, k))
    out = np.empty((width, n_mats), dtype=np.uint8)
    chunk = max(1, _PLUCKER_CHUNK_ELEMS // width)
    for s in range(0, n_mats, chunk):
        bt = np.ascontiguousarray(mats[s : s + chunk].transpose(1, 2, 0))
        out[:, s : s + chunk] = _minors_chunk(f, bt)
    return out.T


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


def _free_columns(pivots: tuple[int, ...], ncols: int, i: int) -> list[int]:
    """The columns after pivot i that are no pivot: row i's free entries."""
    return [j for j in range(pivots[i] + 1, ncols) if j not in pivots]


@lru_cache(maxsize=256)
def _row_candidates(f: Field, pivots: tuple[int, ...], ncols: int, i: int) -> np.ndarray:
    """All admissible RREF row-i vectors for the given pivot pattern (cached
    and read-only: every enumeration over the same field and dimension, such
    as eta's k = 1 point enumeration, asks for the same tables; uncached, even
    with a 2-7x faster digit block, the bench's 260 eta counts took a median
    1.4-1.8x as long on 2-core x86).  Candidate t holds the base-q digits of t
    in the free columns, the first free column fastest."""
    free = _free_columns(pivots, ncols, i)
    total = f.q ** len(free)
    rows = np.zeros((total, ncols), dtype=np.uint8)
    rows[:, pivots[i]] = 1
    if free:
        rows[:, np.asarray(free, dtype=np.intp)] = _digit_block(total, len(free), f.q)
    rows.setflags(write=False)
    return rows


def _filter_extend(
    f: Field, surv: np.ndarray, pivots: tuple[int, ...], gram: np.ndarray
) -> np.ndarray:
    """Extend the (B, r, d) frames surv by every candidate row r of the cell
    (_row_candidates) orthogonal to all of their rows under the form with
    (d, d) Gram matrix gram, frame by frame in candidate order.

    Candidate t is e_c + sum_j x_j e_(free_j), with c = pivots[r] and x_j the
    base-q digits of t, the first free column fastest (_row_candidates).  For
    a frame row y, w = y @ G is taken once per chunk, and y @ G @ cand_t =
    w_c + sum_j x_j w_(free_j).  These values for all t form a combination
    table, one row per candidate and one column per frame and row, built one
    free column at a time: the table for digits 0..j-1 is repeated q times,
    the x-th copy plus x w_j (a row of f.mul_table), so the first free column
    runs fastest and the table's row t is candidate t.  The last free column
    is compared, not added: a value is zero iff the table of the other
    digits equals -(x w_last).  Every entry is an encoding below q <= 16 and
    every sum is taken by f.arr_add, so the table is exact in uint8.  A
    candidate survives when its values are zero in all r columns of its
    frame; read off the transposed (frames, candidates) mask, the survivors
    come frame by frame and in candidate order within a frame, with no sort.  The table stays
    candidate-major: a frame-major one skips the mask's transposed copy, but
    its first digit steps add along inner axes of 1 to q entries, and the six
    bench enumerations took 0.27-0.40 s against 0.18-0.27 s (2-core x86).

    The frames are extended chunk by chunk, so that a chunk's table, its
    zero mask and its frames' float32 digits in Field.matmul hold at most
    _FILTER_CHUNK_ELEMS bytes each (2 MiB), whatever B is.  A chunk's
    survivors are gathered into one (survivors, r + 1, d) array, a frame's
    r * d bytes and a candidate's d bytes as one void element each: 5 ms for
    600k survivors against 41 ms by uint8 fancy indexing (2-core x86).
    """
    n_surv, r, d = surv.shape
    cands = _row_candidates(f, pivots, d, r)
    cols = [pivots[r], *_free_columns(pivots, d, r)]
    right = gram[:, cols]  # column j is column cols[j] of G
    chunk = max(1, _FILTER_CHUNK_ELEMS // max(r * cands.shape[0], 4 * r * d * f.e))
    frame_bytes, cand_bytes = np.dtype((np.void, r * d)), np.dtype((np.void, d))

    def extend(part):
        n_part = part.shape[0]
        # w[j, (i, b)] = (part[b, i] @ G)[cols[j]]: one column per table row
        w = np.ascontiguousarray(f.matmul(part, right).transpose(2, 1, 0)).reshape(len(cols), -1)
        table = w[:1]
        for j in range(1, len(cols) - 1):
            steps = np.take(f.mul_table, w[j], axis=1)  # row x holds x * w_j
            table = f.arr_add(steps[:, None, :], table[None, :, :]).reshape(-1, w.shape[1])
        # the last free column by comparison: table + x w_last = 0 iff
        # table = -(x w_last)
        last = (f.arr_neg(np.take(f.mul_table, w[-1], axis=1)) if len(cols) > 1
                else np.zeros((1, w.shape[1]), dtype=np.uint8))
        zero = (table[None, :, :] == last[:, None, :]).reshape(-1, r, n_part)
        # frame-major: flat index b * n_cand + t
        ib, it = np.divmod(np.flatnonzero(zero.all(axis=1).T), zero.shape[0])
        out = np.empty((ib.size, (r + 1) * d), dtype=np.uint8)
        out[:, : r * d].view(frame_bytes)[:, 0] = part.reshape(n_part, -1).view(frame_bytes)[ib, 0]
        out[:, r * d :].view(cand_bytes)[:, 0] = cands.view(cand_bytes)[it, 0]
        return out.reshape(-1, r + 1, d)

    pieces = [extend(surv[s : s + chunk]) for s in range(0, n_surv, chunk)]
    if not pieces:
        return np.zeros((0, r + 1, d), dtype=np.uint8)
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)


def iter_isotropic_batches(f: Field, gram: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Subspaces of dimension k totally isotropic for the alternating form
    with (d, d) Gram matrix gram.

    Yields canonical RREF bases stacked as (B, k, d) arrays, one per
    nonempty cell, in lexicographic pivot-pattern order.
    """
    gram = np.asarray(gram, dtype=np.uint8)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"need one square Gram matrix, got shape {gram.shape}")
    d = gram.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}, got k={k}")
    for pivots in combinations(range(d), k):
        surv = _row_candidates(f, pivots, d, 0)[:, None, :]
        for _ in range(1, k):
            surv = _filter_extend(f, surv, pivots, gram)
            if surv.shape[0] == 0:
                break
        if surv.shape[0]:
            yield surv
