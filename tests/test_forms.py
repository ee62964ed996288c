"""Alternating forms: perps, radicals, eigen profiles, point/line counts."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympgrass import formulas, forms, grassmann
from sympgrass.forms import (
    AlternatingForm,
    count_common_isotropic_lines,
    count_n1,
    eigen_profile,
    random_alternating_form,
    standard_symplectic,
    worst_case_theta,
)
from sympgrass.gf import GF, Field
from sympgrass.linalg import rank

from oracles import (
    count_n1_direct,
    eigen_analysis,
    form_values_reference,
    inverse,
    is_totally_isotropic,
    kernel,
    oracle_bilinear,
    oracle_common_isotropic_lines,
    perp,
    projective_points,
    random_alternating_form_reference,
    standard_gram,
)


def e(i, d):
    v = np.zeros(d, dtype=np.uint8)
    v[i] = 1
    return v


def radical(form):
    """Vectors orthogonal to the whole space: the kernel of the Gram matrix."""
    return kernel(form.field, form.gram)


def subtract_scaled(theta, sigma, lam):
    """The form theta - lam * sigma."""
    f = theta.field
    return AlternatingForm(f, f.arr_sub(theta.gram, f.arr_mul(sigma.gram, np.uint8(lam))))


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
    assert radical(sig).shape[0] == 0


def test_standard_form_basis_pairings():
    n, f = 3, GF(2)
    sig = standard_symplectic(n, f)
    for i in range(2 * n):
        for j in range(2 * n):
            val = sig.gram[i, j]  # sigma(e_i, e_j)
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
    assert radical(standard_symplectic(2, f)).shape[0] == 0
    zero = AlternatingForm(f, np.zeros((4, 4), dtype=np.uint8))
    assert radical(zero).shape[0] == 4


def test_perp_trivial_cases():
    f = GF(3)
    sig = standard_symplectic(2, f)
    assert perp(sig, np.eye(4, dtype=np.uint8)).shape[0] == 0
    assert perp(sig, np.zeros((0, 4), dtype=np.uint8)).shape[0] == 4


def test_perp_point_example_exhaustive():
    # perp of <e_1> under standard sigma, n=2, q=2: exactly the v with
    # sigma(e_1, v) = 0, checked against all 16 vectors
    f = GF(2)
    sig = standard_symplectic(2, f)
    p = perp(sig, e(0, 4)[None, :])
    gram = standard_gram(2, 2)
    expected = {
        v
        for v in product(range(2), repeat=4)
        if oracle_bilinear(2, gram, (1, 0, 0, 0), v) == 0
    }
    got = set()
    for coeffs in product(range(2), repeat=p.shape[0]):
        vec = np.zeros(4, dtype=np.uint8)
        for c, row in zip(coeffs, p):
            vec = f.arr_add(vec, f.arr_mul(row, np.uint8(c)))
        got.add(tuple(int(x) for x in vec))
    assert got == expected
    # explicitly: span{e_1, e_2, e_4} in 1-based labels
    assert np.array_equal(p, np.stack([e(0, 4), e(1, 4), e(3, 4)]))


def test_perp_dimension_rule():
    f = GF(3)
    sig = standard_symplectic(3, f)
    rng = np.random.default_rng(5)
    for _ in range(10):
        rows = rng.integers(0, 3, size=(2, 6)).astype(np.uint8)
        assert perp(sig, rows).shape[0] == 6 - rank(f, rows)


def test_isotropy_examples():
    f = GF(5)
    for n in (1, 2, 3):
        sig = standard_symplectic(n, f)
        d = 2 * n
        for i in range(d):
            assert is_totally_isotropic(sig, e(i, d)[None, :])
        if n >= 2:
            assert not is_totally_isotropic(sig, np.stack([e(0, d), e(n, d)]))
            assert is_totally_isotropic(sig, np.stack([e(0, d), e(1, d)]))


def test_eigen_profile_trivial_cases():
    f = GF(3)
    sig = standard_symplectic(2, f)
    assert eigen_profile(sig, sig) == {1: 4}
    zero = AlternatingForm(f, np.zeros((4, 4), dtype=np.uint8))
    assert eigen_profile(sig, zero) == {0: 4}


def test_eigen_profile_rejects_degenerate_sigma():
    f = GF(2)
    zero = AlternatingForm(f, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match="non-degenerate"):
        eigen_profile(zero, zero)
    with pytest.raises(ValueError, match="same space"):
        eigen_profile(standard_symplectic(2, f), standard_symplectic(3, f))
    with pytest.raises(ValueError, match="same space"):
        eigen_profile(standard_symplectic(2, f), standard_symplectic(2, GF(3)))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_worst_case_theta_eigen_structure(n, q):
    f = GF(q)
    sig = standard_symplectic(n, f)
    th = worst_case_theta(sig)
    assert th.rank == 2
    assert sorted(eigen_profile(sig, th).values()) == sorted((2, 2 * n - 2))
    assert count_n1(sig, th) == formulas.n1_max(n, q)
    # radical of theta equals the sigma-perp of the chosen line
    line = np.stack([e(0, 2 * n), e(n, 2 * n)])
    assert np.array_equal(radical(th), perp(sig, line))
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
    pts = projective_points(f, 2 * n)
    perp_bases = [perp(sig, p[None, :]) for p in pts]
    for theta in all_alternating_forms(f, 2 * n):
        eigen, direct = _eigen_membership_and_direct(f, sig, theta, pts, perp_bases)
        assert np.array_equal(eigen, direct)


def test_perp_inclusion_iff_eigenvector_32_sampled():
    f = GF(2)
    sig = standard_symplectic(3, f)
    pts = projective_points(f, 6)
    perp_bases = [perp(sig, p[None, :]) for p in pts]
    rng = np.random.default_rng(23)
    for _ in range(150):
        theta = random_alternating_form(f, 6, rng)
        eigen, direct = _eigen_membership_and_direct(f, sig, theta, pts, perp_bases)
        assert np.array_equal(eigen, direct)


@pytest.mark.slow
def test_perp_inclusion_iff_eigenvector_32_exhaustive():
    f = GF(2)
    sig = standard_symplectic(3, f)
    pts = projective_points(f, 6)
    perp_bases = [perp(sig, p[None, :]) for p in pts]
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


@pytest.mark.parametrize(
    "n,q,trials", [(2, 2, 40), (2, 3, 40), (3, 2, 40), (2, 4, 25), (5, 3, 5), (8, 2, 3)]
)
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


QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
ETA_CASES = [(2, q) for q in QS] + [(3, q) for q in (2, 3, 4, 5)] + [(4, 2)]


@pytest.mark.parametrize(
    "n,q",
    [(2, q) for q in QS] + [(3, q) for q in QS if q <= 9] + [(4, q) for q in QS if q <= 5]
    + [(5, 2), (5, 3), (6, 2), (7, 2), (8, 2)],
)
def test_eta_worst_case_equals_eta_max(n, q):
    sig = standard_symplectic(n, GF(q))
    assert count_common_isotropic_lines(sig, worst_case_theta(sig)) == formulas.eta_max(n, q)


def _theta(sig, kind, lam, seed):
    f = sig.field
    if kind == "zero":
        return AlternatingForm(f, np.zeros_like(sig.gram))
    if kind == "scaled":
        return AlternatingForm(f, f.arr_mul(sig.gram, np.uint8(lam)))
    if kind == "worst":
        return worst_case_theta(sig)
    if kind == "wedge":  # u v^T - v u^T, of rank 0 or 2
        u, v = np.random.default_rng(seed).integers(0, f.q, size=(2, sig.dim, 1), dtype=np.uint8)
        return AlternatingForm(f, f.arr_sub(f.matmul(u, v.T), f.matmul(v, u.T)))
    return random_alternating_form(f, sig.dim, np.random.default_rng(seed))


def _common_lines(sig, th):
    """The RREF bases of sigma's lines on which theta vanishes, counted by
    direct evaluation of x theta y^T on each basis pair."""
    return sum(int(np.count_nonzero(form_values_reference(th, batch) == 0))
               for batch in grassmann.iter_isotropic_batches(sig.field, sig.gram, 2))


@pytest.mark.parametrize("n,q", ETA_CASES)
@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(("zero", "scaled", "worst", "random", "wedge")),
       lam=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
def test_eta_counts_the_lines_it_would_build(n, q, kind, lam, seed):
    # the counted eta equals the number of sigma's lines on which theta
    # vanishes and satisfies the line identity, once as shipped, once with
    # filter chunks of one frame, so that every cell with more than one point
    # splits into several chunks, and with eta's slabs cut to five points, so
    # that cells are split and merged across slab edges, and to one point
    # where PG(2n - 1, q) has at most 400 (one slab body per point)
    f = GF(q)
    sig = standard_symplectic(n, f)
    th = _theta(sig, kind, 1 + lam % (q - 1), seed)
    rhs = formulas.line_identity_rhs(n, q, count_n1(sig, th))
    for budget in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if budget:
                mp.setattr(grassmann, "_FILTER_CHUNK_ELEMS", budget)
            frames = _common_lines(sig, th)
            eta = count_common_isotropic_lines(sig, th)
            assert eta == frames
            assert (q + 1) * eta == rhs
    for slab in (1, 5) if (q ** (2 * n) - 1) // (q - 1) <= 400 else (5,):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forms, "_ETA_SLAB", slab)
            assert count_common_isotropic_lines(sig, th) == frames


def test_eta_slabs_split_and_merge_cells():
    # the 15 points of PG(3, 2) come in cells of 8, 4, 2 and 1 points; slabs
    # of 5 cut the first cell into views and join the last two cells
    f = GF(2)
    cells = list(grassmann.iter_isotropic_batches(f, np.zeros((4, 4), np.uint8), 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "_ETA_SLAB", 5)
        slabs = list(forms._slabs(cells))
    assert [s.shape[0] for s in slabs] == [5, 3, 4, 3]
    assert np.shares_memory(slabs[0], cells[0]) and not slabs[0].flags.writeable
    assert np.array_equal(np.concatenate(slabs), np.concatenate([c[:, 0] for c in cells]))


def test_eta_takes_one_product_per_slab(monkeypatch):
    # structural: the 364 points of PG(5, 3) fit in one slab, so eta takes
    # one Field.matmul (the point enumeration of k = 1 takes none)
    f = GF(3)
    sig = standard_symplectic(3, f)
    th = random_alternating_form(f, 6, np.random.default_rng(3))
    calls = []
    matmul = Field.matmul

    def counting(self, a, b):
        calls.append(np.shape(a))
        return matmul(self, a, b)

    monkeypatch.setattr(Field, "matmul", counting)
    count_common_isotropic_lines(sig, th)
    assert calls == [(364, 6)]


@pytest.mark.parametrize("n,q", [(2, 2), (3, 5), (4, 3), (2, 16)])
def test_eigen_profile_takes_one_stacked_rank(monkeypatch, n, q):
    # structural: the q ranks of theta - lam sigma come from one rank call
    # on a (q, 2n, 2n) stack, with the profile it gave before the patch
    f = GF(q)
    sig = standard_symplectic(n, f)
    th = random_alternating_form(f, 2 * n, np.random.default_rng(n * q))
    want = eigen_profile(sig, th)
    calls = []

    def counting(field, m):
        calls.append(np.shape(m))
        return rank(field, m)

    monkeypatch.setattr(forms, "rank", counting)
    assert eigen_profile(sig, th) == want
    assert calls == [(q, 2 * n, 2 * n)]


@pytest.mark.parametrize("n,q", [(2, q) for q in QS] + [(3, q) for q in QS if q <= 5])
@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(("zero", "scaled", "worst", "random")),
       lam=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
def test_eigen_profile_matches_the_eigenspaces(n, q, kind, lam, seed):
    # the kernel dimensions of theta - lam sigma against the eigenspaces of
    # M^-1 S found through the inverse of sigma's Gram matrix
    sig = standard_symplectic(n, GF(q))
    th = _theta(sig, kind, 1 + lam % (q - 1), seed)
    profile = eigen_profile(sig, th)
    pairs, diagonalizable = eigen_analysis(sig, th)
    assert profile == {mu: space.shape[0] for mu, space in pairs}  # eigenvalues and dimensions
    assert (sum(profile.values()) == 2 * n) == diagonalizable


def test_row_candidates_are_cached_read_only():
    f = GF(3)
    rows = grassmann._row_candidates(f, (0, 2), 4, 1)
    assert grassmann._row_candidates(f, (0, 2), 4, 1) is rows
    with pytest.raises(ValueError):
        rows[0, 0] = 2


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
    assert np.array_equal(g1.gram, g2.gram)
    rng = np.random.default_rng(9)
    for _ in range(20):
        form = random_alternating_form(f, 6, rng)
        assert form.rank % 2 == 0


def _refuse_rank(field, m):
    raise AssertionError("an elimination ran")


def test_construction_runs_no_elimination(monkeypatch):
    # a form is validated on construction and ranked only when its rank is read
    monkeypatch.setattr(forms, "rank", _refuse_rank)
    f = GF(5)
    sig = standard_symplectic(3, f)
    theta = random_alternating_form(f, 6, np.random.default_rng(3))
    AlternatingForm(f, np.zeros((4, 4), dtype=np.uint8))
    AlternatingForm(f, f.arr_sub(theta.gram, sig.gram))


def test_gram_is_read_only_before_any_rank(monkeypatch):
    # the cached rank cannot go stale: the Gram matrix, the caller's array
    # itself, is read-only from construction on, rank or no rank
    monkeypatch.setattr(forms, "rank", _refuse_rank)
    g = np.array([[0, 1], [2, 0]], dtype=np.uint8)
    form = AlternatingForm(GF(3), g)
    assert form.gram is g and not g.flags.writeable
    with pytest.raises(ValueError):
        g[0, 1] = 2


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 8)])
def test_sigma_is_ranked_once(monkeypatch, n, q):
    # across is_nondegenerate(), N1 and eta, sigma's Gram matrix is reduced
    # once and theta's never; N1's one stacked call is the only other rank
    calls = []

    def counting(field, m):
        calls.append(np.shape(m))
        return rank(field, m)

    monkeypatch.setattr(forms, "rank", counting)
    f = GF(q)
    sig = standard_symplectic(n, f)
    theta = random_alternating_form(f, 2 * n, np.random.default_rng(n + q))
    assert sig.is_nondegenerate()
    n1 = count_n1(sig, theta)
    eta = count_common_isotropic_lines(sig, theta)
    assert (q + 1) * eta == formulas.line_identity_rhs(n, q, n1)
    assert calls == [(2 * n, 2 * n), (q, 2 * n, 2 * n)]
    assert "rank" not in vars(theta)


def test_odd_rank_raises_on_first_read(monkeypatch):
    # the even-rank assertion runs wherever a rank is computed
    monkeypatch.setattr(forms, "rank", lambda field, m: 3)
    form = AlternatingForm(GF(2), np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(AssertionError, match="odd rank 3"):
        form.rank
    with pytest.raises(AssertionError, match="odd rank 3"):
        form.is_nondegenerate()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(q=st.sampled_from(QS), seed=st.integers(0, 2**32 - 1),
       dims=st.lists(st.integers(1, 10).map(lambda h: 2 * h), min_size=1, max_size=5))
def test_random_form_draw_matches_the_reference(q, seed, dims):
    # one draw of every strictly-upper entry gives the per-entry loop's Gram
    # bytes and leaves the generator in the same state, form after form
    f = GF(q)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for dim in dims:
        got = random_alternating_form(f, dim, rng).gram
        assert got.tobytes() == random_alternating_form_reference(f, dim, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_eigenspaces_pairwise_trivial():
    # the reference eigenspaces meet trivially, so N1 and diagonalizability
    # can be read from the sum of their dimensions
    f = GF(3)
    sig = standard_symplectic(2, f)
    rng = np.random.default_rng(31)
    for _ in range(10):
        theta = random_alternating_form(f, 4, rng)
        pairs, diagonalizable = eigen_analysis(sig, theta)
        dims = [s.shape[0] for _, s in pairs]
        assert sum(dims) <= 4
        assert diagonalizable == (sum(dims) == 4)
        for (_, s1), (_, s2) in combinations(pairs, 2):
            stacked = np.concatenate([s1, s2], axis=0)
            assert rank(f, stacked) == s1.shape[0] + s2.shape[0]
