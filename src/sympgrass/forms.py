"""Alternating bilinear forms on V(2n, q).

Houses the fixed standard symplectic form (Gram matrix [[0, I], [-I, 0]]),
arbitrary alternating forms, perp/radical computations, the eigenspace
analysis of M^-1 S for a pair of forms, and the point/line counts that
drive the minimum-distance verification for the line codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field
from .linalg import Subspace, inverse, kernel, rank


@dataclass(frozen=True, eq=False)
class AlternatingForm:
    """An alternating bilinear form, stored by its Gram matrix.

    The Gram matrix must be skew-symmetric with zero diagonal (the diagonal
    condition is independent in characteristic 2) and of even rank.
    """

    field: Field
    gram: np.ndarray  # (2n, 2n), read-only

    def __post_init__(self):
        g = self.gram
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("Gram matrix must be square")
        if g.shape[0] % 2 != 0:
            raise ValueError("ambient dimension must be even (V = V(2n, q))")
        f = self.field
        if np.any(np.diagonal(g) != 0):
            raise ValueError("alternating form needs a zero diagonal")
        if not np.array_equal(g.T, f.arr_neg(g)):
            raise ValueError("Gram matrix must be skew-symmetric")
        rk = rank(f, g)
        if rk % 2 != 0:
            raise AssertionError(f"alternating form has odd rank {rk}")
        g.setflags(write=False)
        object.__setattr__(self, "_rank", rk)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @property
    def n(self) -> int:
        return self.gram.shape[0] // 2

    @property
    def rank(self) -> int:
        return self._rank

    def is_nondegenerate(self) -> bool:
        return self._rank == self.dim

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Values x^T G y of the form on pairs of vectors of shape (..., dim)."""
        x = np.asarray(x, dtype=np.uint8)[..., None, :]
        y = np.asarray(y, dtype=np.uint8)[..., :, None]
        f = self.field
        return f.matmul(f.matmul(x, self.gram), y)[..., 0, 0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlternatingForm)
            and self.field == other.field
            and bool(np.array_equal(self.gram, other.gram))
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.gram.tobytes()))

    def __repr__(self) -> str:
        return f"AlternatingForm(dim={self.dim}, rank={self.rank}, q={self.field.q})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenspaces of M^-1 S over GF(q), one entry per eigenvalue that occurs."""

    pairs: tuple[tuple[int, Subspace], ...]
    diagonalizable: bool

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for _, s in self.pairs)


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


def radical(form: AlternatingForm) -> Subspace:
    """Vectors orthogonal to the whole space; zero iff non-degenerate."""
    return kernel(form.field, form.gram)


def perp(form: AlternatingForm, s: Subspace) -> Subspace:
    """{x : form(x, y) = 0 for all y in s}."""
    f = form.field
    if s.dim == 0:
        return Subspace.full(f, form.dim)
    constraints = f.matmul(s.basis, form.gram.T)
    return kernel(f, constraints)


def is_totally_isotropic(form: AlternatingForm, s: Subspace) -> bool:
    """True iff the form vanishes on every pair of basis vectors of s."""
    f = form.field
    if s.dim == 0:
        return True
    vals = f.matmul(f.matmul(s.basis, form.gram), s.basis.T)
    return not vals.any()


def eigen_analysis(sigma: AlternatingForm, theta: AlternatingForm) -> EigenDecomposition:
    """Eigenspaces of M^-1 S, found by sweeping all q candidate eigenvalues.

    M is sigma's Gram matrix (must be non-degenerate), S is theta's.
    """
    f = sigma.field
    if sigma.dim != theta.dim or f != theta.field:
        raise ValueError("forms must live on the same space")
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    a = f.matmul(inverse(f, sigma.gram), theta.gram)
    d = sigma.dim
    pairs = []
    total = 0
    for lam in f.elements():
        shifted = a.copy()
        for i in range(d):
            shifted[i, i] = f.sub(int(shifted[i, i]), lam)
        eig = kernel(f, shifted)
        if eig.dim > 0:
            pairs.append((lam, eig))
            total += eig.dim
    return EigenDecomposition(tuple(pairs), diagonalizable=(total == d))


def count_n1(sigma: AlternatingForm, theta: AlternatingForm) -> int:
    """Projective points p with sigma-perp of p contained in theta-perp of p.

    Counted through the eigenspaces of M^-1 S; eigenspaces for distinct
    eigenvalues meet trivially, so the union count is a plain sum.
    """
    q = sigma.field.q
    dec = eigen_analysis(sigma, theta)
    return sum((q**d - 1) // (q - 1) for d in dec.dims)


def count_common_isotropic_lines(sigma: AlternatingForm, theta: AlternatingForm) -> int:
    """eta: lines totally isotropic for both forms, by one enumeration of them.

    sigma must be non-degenerate and n >= 2.
    """
    from .grassmann import iter_isotropic_batches

    f = sigma.field
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    if sigma.n < 2:
        raise ValueError("lines need n >= 2")
    if theta.dim != sigma.dim or theta.field != f:
        raise ValueError("forms must live on the same space")
    grams = np.stack([sigma.gram, theta.gram])
    return sum(batch.shape[0] for batch in iter_isotropic_batches(f, grams, 2))


def worst_case_theta(sigma: AlternatingForm) -> AlternatingForm:
    """The rank-2 form theta attaining the maximum N1: sigma restricted to a
    non-isotropic line, zero on its sigma-perp complement.

    Needs n >= 2 (for n = 1 every such theta is a scalar multiple of sigma).
    """
    f = sigma.field
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    d = sigma.dim
    if sigma.n < 2:
        raise ValueError("worst-case construction needs n >= 2")
    # first standard basis pair spanning a non-isotropic line
    pair = None
    for i in range(d):
        for j in range(i + 1, d):
            if sigma.gram[i, j] != 0:
                pair = (i, j)
                break
        if pair:
            break
    assert pair is not None  # non-degeneracy guarantees one
    i, j = pair
    line = Subspace.from_rows(f, np.eye(d, dtype=np.uint8)[[i, j]])
    comp = perp(sigma, line)
    assert comp.dim == d - 2
    # change of basis C: rows = line basis then complement basis
    c_mat = np.concatenate([line.basis, comp.basis], axis=0)
    c_inv = inverse(f, c_mat)
    mask = np.zeros((d, d), dtype=np.uint8)
    mask[0, 0] = mask[1, 1] = 1
    proj = f.matmul(f.matmul(c_inv, mask), c_mat)
    s_gram = f.matmul(f.matmul(proj, sigma.gram), proj.T)
    theta = AlternatingForm(f, s_gram)
    assert theta.rank == 2
    return theta


def random_alternating_form(field: Field, dim: int, rng: np.random.Generator) -> AlternatingForm:
    """Uniformly random alternating form: free strictly-upper entries."""
    if dim % 2 != 0:
        raise ValueError("ambient dimension must be even")
    g = np.zeros((dim, dim), dtype=np.uint8)
    for i in range(dim):
        for j in range(i + 1, dim):
            v = int(rng.integers(0, field.q))
            g[i, j] = v
            g[j, i] = field.neg(v)
    return AlternatingForm(field, g)


def subtract_scaled(theta: AlternatingForm, sigma: AlternatingForm, lam: int) -> AlternatingForm:
    """The form theta - lam * sigma."""
    f = theta.field
    scaled = f.arr_mul(sigma.gram, np.uint8(lam))
    return AlternatingForm(f, f.arr_sub(theta.gram, scaled))
