"""Alternating forms: perps, radicals, eigen analysis, point/line counts."""

from itertools import combinations, product

import numpy as np
import pytest

from sympgrass import formulas
from sympgrass.forms import (
    AlternatingForm,
    count_common_isotropic_lines,
    count_n1,
    eigen_analysis,
    is_totally_isotropic,
    perp,
    radical,
    random_alternating_form,
    standard_symplectic,
    subtract_scaled,
    worst_case_theta,
)
from sympgrass.gf import GF
from sympgrass.linalg import Subspace, inverse, kernel, projective_points_array

from oracles import (
    count_n1_direct,
    oracle_bilinear,
    oracle_common_isotropic_lines,
    standard_gram,
)


def e(i, d):
    v = np.zeros(d, dtype=np.uint8)
    v[i] = 1
    return v


def all_alternating_forms(f, d):
    """Every alternating form on V(d, q), by sweeping the upper triangle."""
    pairs = list(combinations(range(d), 2))
    for entries in product(range(f.q), repeat=len(pairs)):
        g = np.zeros((d, d), dtype=np.uint8)
        for (i, j), v in zip(pairs, entries):
            g[i, j] = v
            g[j, i] = f.neg(v)
        yield AlternatingForm(f, g)


def test_standard_form_n1_q2():
    sig = standard_symplectic(1, GF(2))
    assert np.array_equal(sig.gram, np.array([[0, 1], [1, 0]], dtype=np.uint8))


def test_standard_form_nondegenerate():
    sig = standard_symplectic(2, GF(3))
    assert sig.rank == 4
    assert radical(sig).dim == 0


def test_standard_form_basis_pairings():
    n, f = 3, GF(2)
    sig = standard_symplectic(n, f)
    for i in range(2 * n):
        for j in range(2 * n):
            val = sig.evaluate(e(i, 2 * n), e(j, 2 * n))
            if j == i + n or i == j + n:
                assert val != 0
            else:
                assert val == 0


def test_alternating_validation():
    f = GF(3)
    bad_diag = np.array([[1, 1], [2, 0]], dtype=np.uint8)
    with pytest.raises(ValueError):
        AlternatingForm(f, bad_diag)
    not_skew = np.array([[0, 1], [1, 0]], dtype=np.uint8)  # over GF(3), -1 = 2
    with pytest.raises(ValueError):
        AlternatingForm(f, not_skew)
    ok = np.array([[0, 1], [2, 0]], dtype=np.uint8)
    assert AlternatingForm(f, ok).rank == 2


def test_radical_zero_form_and_standard():
    f = GF(2)
    assert radical(standard_symplectic(2, f)).dim == 0
    zero = AlternatingForm(f, np.zeros((4, 4), dtype=np.uint8))
    assert radical(zero).dim == 4


def test_perp_trivial_cases():
    f = GF(3)
    sig = standard_symplectic(2, f)
    assert perp(sig, Subspace.full(f, 4)).dim == 0
    assert perp(sig, Subspace.zero(f, 4)).dim == 4


def test_perp_point_example_exhaustive():
    # perp of <e_1> under standard sigma, n=2, q=2: exactly the v with
    # sigma(e_1, v) = 0, checked against all 16 vectors
    f = GF(2)
    sig = standard_symplectic(2, f)
    s = Subspace.from_rows(f, e(0, 4)[None, :])
    p = perp(sig, s)
    gram = standard_gram(2, 2)
    expected = {
        v
        for v in product(range(2), repeat=4)
        if oracle_bilinear(2, gram, (1, 0, 0, 0), v) == 0
    }
    got = set()
    for coeffs in product(range(2), repeat=p.dim):
        vec = np.zeros(4, dtype=np.uint8)
        for c, row in zip(coeffs, p.basis):
            vec = f.arr_add(vec, f.arr_mul(row, np.uint8(c)))
        got.add(tuple(int(x) for x in vec))
    assert got == expected
    # explicitly: span{e_1, e_2, e_4} in 1-based labels
    want = Subspace.from_rows(f, np.stack([e(0, 4), e(1, 4), e(3, 4)]))
    assert p == want


def test_perp_dimension_rule():
    f = GF(3)
    sig = standard_symplectic(3, f)
    rng = np.random.default_rng(5)
    for _ in range(10):
        rows = rng.integers(0, 3, size=(2, 6)).astype(np.uint8)
        s = Subspace.from_rows(f, rows)
        assert perp(sig, s).dim == 6 - s.dim


def test_isotropy_examples():
    f = GF(5)
    for n in (1, 2, 3):
        sig = standard_symplectic(n, f)
        d = 2 * n
        for i in range(d):
            assert is_totally_isotropic(sig, Subspace.from_rows(f, e(i, d)[None, :]))
        if n >= 2:
            hyp = Subspace.from_rows(f, np.stack([e(0, d), e(n, d)]))
            assert not is_totally_isotropic(sig, hyp)
            iso = Subspace.from_rows(f, np.stack([e(0, d), e(1, d)]))
            assert is_totally_isotropic(sig, iso)


def test_eigen_analysis_trivial_cases():
    f = GF(3)
    sig = standard_symplectic(2, f)
    dec = eigen_analysis(sig, sig)
    assert dec.dims == (4,) and dec.pairs[0][0] == 1 and dec.diagonalizable
    zero = AlternatingForm(f, np.zeros((4, 4), dtype=np.uint8))
    dec = eigen_analysis(sig, zero)
    assert dec.dims == (4,) and dec.pairs[0][0] == 0


def test_eigen_analysis_rejects_degenerate_sigma():
    f = GF(2)
    zero = AlternatingForm(f, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        eigen_analysis(zero, zero)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_worst_case_theta_eigen_structure(n, q):
    f = GF(q)
    sig = standard_symplectic(n, f)
    th = worst_case_theta(sig)
    assert th.rank == 2
    dec = eigen_analysis(sig, th)
    assert sorted(dec.dims) == sorted((2, 2 * n - 2))
    assert count_n1(sig, th) == formulas.n1_max(n, q)
    # radical of theta equals the sigma-perp of the chosen line
    line = Subspace.from_rows(f, np.stack([e(0, 2 * n), e(n, 2 * n)]))
    assert radical(th) == perp(sig, line)
    # theta is not a scalar multiple of sigma
    for lam in range(q):
        assert subtract_scaled(th, sig, lam).rank != 0


def test_worst_case_rejects_n1():
    with pytest.raises(ValueError):
        worst_case_theta(standard_symplectic(1, GF(2)))


def test_count_n1_direct_agrees_small():
    f = GF(2)
    sig = standard_symplectic(2, f)
    th = worst_case_theta(sig)
    assert count_n1(sig, th) == count_n1_direct(sig, th) == 6
    rng = np.random.default_rng(11)
    for _ in range(10):
        theta = random_alternating_form(f, 4, rng)
        assert count_n1(sig, theta) == count_n1_direct(sig, theta)


def _eigen_membership_and_direct(f, sig, theta, pts, perp_bases):
    """Per point: eigenvector-of-M^-1-S membership vs perp-inclusion."""
    q = f.q
    a = f.matmul(inverse(f, sig.gram), theta.gram)
    v = f.matmul(pts, a.T)  # (M^-1 S) p for every point, as rows
    w = f.matmul(pts, theta.gram.T)  # S p for every point, as rows
    eigen = np.zeros(pts.shape[0], dtype=bool)
    for lam in range(q):
        lam_p = f.arr_mul(pts, np.uint8(lam))
        eigen |= np.all(v == lam_p, axis=1)
    # direct side: every basis vector of p-perp-sigma must kill S p
    direct = np.zeros(pts.shape[0], dtype=bool)
    for idx in range(pts.shape[0]):
        kb = perp_bases[idx]
        vals = f.matmul(kb, np.asarray(w[idx], dtype=np.uint8).reshape(-1, 1))
        direct[idx] = not vals.any()
    return eigen, direct


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_perp_inclusion_iff_eigenvector_exhaustive(n, q):
    """p-perp-sigma inside p-perp-theta iff p is an eigenvector of M^-1 S,
    for every alternating theta and every projective point."""
    f = GF(q)
    sig = standard_symplectic(n, f)
    pts = projective_points_array(f, 2 * n)
    perp_bases = [
        kernel(f, f.matmul(p[None, :], sig.gram.T)).basis for p in pts
    ]
    for theta in all_alternating_forms(f, 2 * n):
        eigen, direct = _eigen_membership_and_direct(f, sig, theta, pts, perp_bases)
        assert np.array_equal(eigen, direct)


def test_perp_inclusion_iff_eigenvector_32_sampled():
    f = GF(2)
    sig = standard_symplectic(3, f)
    pts = projective_points_array(f, 6)
    perp_bases = [kernel(f, f.matmul(p[None, :], sig.gram.T)).basis for p in pts]
    rng = np.random.default_rng(23)
    for _ in range(150):
        theta = random_alternating_form(f, 6, rng)
        eigen, direct = _eigen_membership_and_direct(f, sig, theta, pts, perp_bases)
        assert np.array_equal(eigen, direct)


@pytest.mark.slow
def test_perp_inclusion_iff_eigenvector_32_exhaustive():
    f = GF(2)
    sig = standard_symplectic(3, f)
    pts = projective_points_array(f, 6)
    perp_bases = [kernel(f, f.matmul(p[None, :], sig.gram.T)).basis for p in pts]
    for theta in all_alternating_forms(f, 6):
        eigen, direct = _eigen_membership_and_direct(f, sig, theta, pts, perp_bases)
        assert np.array_equal(eigen, direct)


def test_eta_theta_equals_sigma():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        f = GF(q)
        sig = standard_symplectic(n, f)
        assert count_common_isotropic_lines(sig, sig) == formulas.length(n, 2, q)


def test_eta_worst_case_22():
    f = GF(2)
    sig = standard_symplectic(2, f)
    assert count_common_isotropic_lines(sig, worst_case_theta(sig)) == 9


def test_eta_against_brute_force_22():
    # independent oracle: point pairs on which both forms vanish, pure python;
    # the worst-case theta over GF(2), random theta over a prime and an
    # extension field
    sig = standard_symplectic(2, GF(2))
    cases = [(sig, worst_case_theta(sig))]
    rng = np.random.default_rng(22)
    for q in (3, 4):
        sig_q = standard_symplectic(2, GF(q))
        cases += [(sig_q, random_alternating_form(GF(q), 4, rng)) for _ in range(3)]
    etas = []
    for sig_q, th in cases:
        gram_s = [[int(x) for x in row] for row in sig_q.gram]
        gram_t = [[int(x) for x in row] for row in th.gram]
        etas.append(oracle_common_isotropic_lines(sig_q.field.q, gram_s, gram_t))
        assert count_common_isotropic_lines(sig_q, th) == etas[-1]
    assert etas[0] == 9


@pytest.mark.parametrize("n,q,trials", [(2, 2, 40), (2, 3, 40), (3, 2, 40), (2, 4, 25)])
def test_line_identity_random(n, q, trials):
    f = GF(q)
    sig = standard_symplectic(n, f)
    rng = np.random.default_rng(1000 * n + q)
    for _ in range(trials):
        theta = random_alternating_form(f, 2 * n, rng)
        n1 = count_n1(sig, theta)
        eta = count_common_isotropic_lines(sig, theta)
        assert (q + 1) * eta == formulas.line_identity_rhs(n, q, n1)


def test_eta_scalar_invariance():
    f = GF(3)
    sig = standard_symplectic(2, f)
    rng = np.random.default_rng(77)
    for _ in range(5):
        theta = random_alternating_form(f, 4, rng)
        base = count_common_isotropic_lines(sig, theta)
        for lam in range(3):
            assert count_common_isotropic_lines(sig, subtract_scaled(theta, sig, lam)) == base


def test_worst_case_attains_maximum_22():
    # exhaustive over all 64 alternating forms on V(4,2): the maximum eta
    # over theta outside the scalar multiples of sigma is attained
    f = GF(2)
    sig = standard_symplectic(2, f)
    best = -1
    for theta in all_alternating_forms(f, 4):
        if any(
            np.array_equal(theta.gram, f.arr_mul(sig.gram, np.uint8(lam)))
            for lam in range(2)
        ):
            continue
        best = max(best, count_common_isotropic_lines(sig, theta))
    assert best == formulas.eta_max(2, 2) == 9


def test_random_forms_even_rank_and_reproducible():
    f = GF(4)
    g1 = random_alternating_form(f, 6, np.random.default_rng(42))
    g2 = random_alternating_form(f, 6, np.random.default_rng(42))
    assert g1 == g2
    rng = np.random.default_rng(9)
    for _ in range(20):
        form = random_alternating_form(f, 6, rng)
        assert form.rank % 2 == 0


def test_eigenspaces_pairwise_trivial():
    f = GF(3)
    sig = standard_symplectic(2, f)
    rng = np.random.default_rng(31)
    for _ in range(10):
        theta = random_alternating_form(f, 4, rng)
        dec = eigen_analysis(sig, theta)
        assert sum(dec.dims) <= 4
        assert dec.diagonalizable == (sum(dec.dims) == 4)
        for (_, s1), (_, s2) in combinations(dec.pairs, 2):
            stacked = np.concatenate([s1.basis, s2.basis], axis=0)
            from sympgrass.linalg import rank as _rank

            assert _rank(f, stacked) == s1.dim + s2.dim
