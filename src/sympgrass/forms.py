"""Alternating bilinear forms on V(2n, q).

Houses the fixed standard symplectic form (Gram matrix [[0, I], [-I, 0]])
and its point set, the totally isotropic k-subspaces that the codes are
built on (the walker in grassmann takes sigma's Gram matrix as given),
arbitrary alternating forms, the eigen profile of a pair of forms
(the kernel dimension of theta - lam sigma for each lam in GF(q)), and the
point/line counts that drive the minimum-distance verification for the
line codes.

A form's rank is computed when first read; the counts read only sigma's,
so a random theta costs its validation and no elimination.  A form's
codeword in W(n,2) is a message read from its Gram entries (codes).

N1 comes from the eigen profile, whose q ranks of theta - lam sigma are
one stacked elimination (linalg.rank on a (q, 2n, 2n) stack).  eta, the
number of lines isotropic for both forms, is an exact count that builds no
line and does not use N1, so the double-counting identity that ties the
two stays a check; it reads each point's functionals a = p G_sigma and
b = p G_theta column-major, one column per point, and reduces over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import grassmann
from .gf import Field
from .linalg import rank


@dataclass(frozen=True, eq=False)
class AlternatingForm:
    """An alternating bilinear form, stored by its Gram matrix.

    Construction checks the Gram matrix (square, of even dimension, with
    zero diagonal, which is independent in characteristic 2, and
    skew-symmetric) and makes it read-only, so the rank, computed on demand
    once and asserted even, cannot go stale.
    """

    field: Field
    gram: np.ndarray  # (2n, 2n), read-only

    def __post_init__(self):
        g = self.gram
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("Gram matrix must be square")
        if g.shape[0] % 2 != 0:
            raise ValueError("ambient dimension must be even (V = V(2n, q))")
        if np.any(np.diagonal(g) != 0):
            raise ValueError("alternating form needs a zero diagonal")
        if not np.array_equal(g.T, self.field.arr_neg(g)):
            raise ValueError("Gram matrix must be skew-symmetric")
        g.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @property
    def n(self) -> int:
        return self.gram.shape[0] // 2

    @cached_property
    def rank(self) -> int:
        rk = rank(self.field, self.gram)
        if rk % 2 != 0:
            raise AssertionError(f"alternating form has odd rank {rk}")
        return rk

    def is_nondegenerate(self) -> bool:
        return self.rank == self.dim

    def __repr__(self) -> str:
        return f"AlternatingForm(dim={self.dim}, rank={self.rank}, q={self.field.q})"


def standard_symplectic(n: int, field: Field) -> AlternatingForm:
    """The fixed non-degenerate form with Gram matrix [[0, I_n], [-I_n, 0]]."""
    if n < 1:
        raise ValueError("need n >= 1")
    g = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    one = np.uint8(1)
    minus_one = np.uint8(field.neg(1))
    for i in range(n):
        g[i, n + i] = one
        g[n + i, i] = minus_one
    return AlternatingForm(field, g)


@lru_cache(maxsize=1)
def isotropic_stack(n: int, k: int, field: Field) -> np.ndarray:
    """All isotropic k-subspace bases stacked as one read-only (N, k, 2n)
    array.  Only the last stack is cached, keyed by (n, k, q) (a Field
    hashes by its order): verify's length check hands it to build_code, and
    no earlier stack is held after a later one is built."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    gram = standard_symplectic(n, field).gram
    empty = np.zeros((0, k, 2 * n), dtype=np.uint8)  # the shape when no cell has a point
    arr = np.concatenate([empty, *grassmann.iter_isotropic_batches(field, gram, k)])
    arr.setflags(write=False)
    return arr


def count_isotropic(n: int, k: int, field: Field) -> int:
    """Number of points of the symplectic Grassmannian; leaves its stack in
    the one-entry isotropic_stack cache, for a build_code of the same
    (n, k, q) that follows."""
    return isotropic_stack(n, k, field).shape[0]


def eigen_profile(sigma: AlternatingForm, theta: AlternatingForm) -> dict[int, int]:
    """{lam: d_lam} for each lam in GF(q) with d_lam = 2n - rank(theta - lam sigma) > 0.

    sigma must be non-degenerate.  Then theta - lam sigma = sigma (M^-1 S - lam I),
    with M and S the Gram matrices, so d_lam is the dimension of the eigenspace
    of M^-1 S for lam, and these eigenspaces meet trivially.
    """
    f = sigma.field
    if sigma.dim != theta.dim or f != theta.field:
        raise ValueError("forms must live on the same space")
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    lams = np.arange(f.q, dtype=np.uint8)[:, None, None]  # every encoding of GF(q)
    dims = sigma.dim - rank(f, f.arr_sub(theta.gram, f.arr_mul(sigma.gram, lams)))
    return {lam: d_lam for lam, d_lam in enumerate(dims.tolist()) if d_lam}


def count_n1(sigma: AlternatingForm, theta: AlternatingForm) -> int:
    """Projective points p with sigma-perp of p contained in theta-perp of p:
    the points of the eigenspaces of M^-1 S, which meet trivially, so the
    count is a plain sum over the eigen profile."""
    q = sigma.field.q
    return sum((q**d - 1) // (q - 1) for d in eigen_profile(sigma, theta).values())


_ETA_SLAB = 1 << 16  # most points counted at once; bounds eta's temporaries


def _slabs(batches):
    """The points of (B, 1, d) batches in (rows, d) slabs of at most _ETA_SLAB
    rows: a larger batch is sliced into views, and smaller consecutive ones are
    joined (sliced alone, the bench's 260 eta counts took 2.5-3.2x as long)."""
    pending, held = [], 0
    for batch in batches:
        for s in range(0, batch.shape[0], _ETA_SLAB):
            part = batch[s : s + _ETA_SLAB, 0]
            if held + part.shape[0] > _ETA_SLAB:
                yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending, held = [], 0
            pending.append(part)
            held += part.shape[0]
    if pending:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def count_common_isotropic_lines(sigma: AlternatingForm, theta: AlternatingForm) -> int:
    """eta: the lines (2-subspaces) totally isotropic for both forms.

    Counted, not built, from each point's rank profile.  Such a line has one
    RREF basis: a projective point p with pivot c0 and zero in the second
    pivot column c1 > c0, then a row r = e_c1 + (entries after c1) with
    a.r = b.r = 0, where a = p G_sigma and b = p G_theta (a single vector is
    isotropic for every alternating form).  With z the last column where a or
    b is nonzero and m the last column j with a_j b_z != a_z b_j (-1 if none),
    the columns >= c of [a; b] have rank rho_c = [c <= z] + [c <= m], so
    [a; b] x = 0 has q^(s_c) solutions on them, s_c = d - c - rho_c, and cell
    (p, c1) has (q^(s_c1) - q^(s_(c1+1))) / (q - 1) rows r: 0 if c1 is z or
    m, where rho drops, else q^(d - 1 - c1 - [c1 < z] - [c1 < m]).  eta sums
    these over p and the columns c1 > c0 where p is zero, which between
    them begin every such line's RREF basis; nothing depends on N1.  As
    a_j b_z = a_z b_j for every j >= z, m < z, so every exponent is >= 0.

    Each point is counted on its own, so the cells are regrouped into slabs
    of at most _ETA_SLAB points (_slabs): one product and one bincount per
    slab.  The slab's (N, 2d) product and its (N, d) points are transposed
    once each into C-contiguous (2d, N) and (d, N) uint8 arrays, a column
    per point, and every per-point quantity is a reduction over axis 0: z
    and m are 1 less than the largest of a mask times the column weights
    1..d, c0 is d less the largest of (p != 0) times d - c.  A reduction
    over axis 0 is d - 1 elementwise passes of length N, not N reductions
    over rows of length d.  The weights, and so z, m, c0 and the exponents,
    are int16, which holds every column index: d = 2n <= 600 under the
    CLI's n <= 300.  The temporaries take a few bytes per point and column,
    whatever n is.

    sigma must be non-degenerate and n >= 2.
    """
    f = sigma.field
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    if sigma.n < 2:
        raise ValueError("lines need n >= 2")
    if theta.dim != sigma.dim or theta.field != f:
        raise ValueError("forms must live on the same space")
    d = sigma.dim
    grams = np.hstack([sigma.gram, theta.gram])
    cols = np.arange(d, dtype=np.int16)[:, None]
    weights = cols + 1  # a max over axis 0 of mask * weights is 1 + the last True row
    tally = np.zeros(d, dtype=np.int64)  # (p, c1) pairs per exponent of q
    for p in _slabs(grassmann.iter_isotropic_batches(f, sigma.gram, 1)):
        # exact: Field.matmul's inner dimension is d, and it raises rather than round
        ab = np.ascontiguousarray(f.matmul(p, grams).T)  # (2d, N): a column per point
        a, b = ab[:d], ab[d:]
        p = np.ascontiguousarray(p.T)  # (d, N)
        z = (((a | b) != 0) * weights).max(axis=0) - 1  # >= 0: a != 0 as sigma is non-degenerate
        at = z * np.intp(p.shape[1]) + np.arange(p.shape[1])  # flat index of (z_i, i)
        az, bz = a.take(at), b.take(at)
        m = ((f.arr_mul(a, bz) != f.arr_mul(b, az)) * weights).max(axis=0) - 1
        c0 = d - ((p != 0) * (d - cols)).max(axis=0)
        cells = (cols > c0) & (p == 0) & (cols != z) & (cols != m)
        exps = d - 1 - cols - (cols < z) - (cols < m)
        tally += np.bincount(exps[cells], minlength=d)
    # summed in Python ints, so eta is exact for any n
    return sum(int(t) * f.q**e for e, t in enumerate(tally))


def worst_case_theta(sigma: AlternatingForm) -> AlternatingForm:
    """The rank-2 form theta attaining the maximum N1: sigma on a
    non-isotropic line <e_i, e_j>, zero on its sigma-perp complement.

    With (i, j) the first pair, row by row, with s = G[i, j] != 0, that is
    theta = (G[:, i] G[:, j]^T - G[:, j] G[:, i]^T) / s.  Needs n >= 2 (for
    n = 1 every such theta is a scalar multiple of sigma).
    """
    f = sigma.field
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    if sigma.n < 2:
        raise ValueError("worst-case construction needs n >= 2")
    g = sigma.gram
    i, j = np.argwhere(np.triu(g != 0, 1))[0]  # non-degeneracy guarantees one
    rows = f.arr_mul(np.stack([g[:, j], f.arr_neg(g[:, i])]), np.uint8(f.inv(int(g[i, j]))))
    theta = AlternatingForm(f, f.matmul(g[:, [i, j]], rows))
    assert theta.rank == 2
    return theta


def random_alternating_form(field: Field, dim: int, rng: np.random.Generator) -> AlternatingForm:
    """Uniformly random alternating form: free strictly-upper entries, drawn
    in one call in row-major order, the lower triangle their negatives."""
    if dim % 2 != 0:
        raise ValueError("ambient dimension must be even")
    rows, cols = np.triu_indices(dim, 1)
    g = np.zeros((dim, dim), dtype=np.uint8)
    g[rows, cols] = rng.integers(0, field.q, size=rows.size)
    g[cols, rows] = field.neg_table[g[rows, cols]]
    return AlternatingForm(field, g)
