"""Isotropic enumeration, Plücker coordinates, and the Plücker images of
the lines of the polar Grassmannian."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympgrass import formulas, grassmann
from sympgrass.forms import count_isotropic, isotropic_stack, standard_symplectic
from sympgrass.gf import GF
from sympgrass.grassmann import iter_isotropic_batches, k_subsets, plucker_batch
from sympgrass.linalg import rank, rref

from oracles import (
    contains_vector,
    enumerate_subspaces,
    filter_extend_reference,
    is_totally_isotropic,
    oracle_det,
    polar_line_count,
    polar_pencils,
    rref_reference,
)


def test_k_subsets_lex_order():
    assert k_subsets(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_plucker_batch_against_leibniz(q, k):
    # random bases, not in RREF, so every minor is exercised; over GF(11)
    # a level's sum of r products is at most r * 100, so level 2 sums in
    # uint8 (bound 200) and level 3 in uint16 (bound 300)
    f = GF(q)
    rng = np.random.default_rng(q * 10 + k)
    d = k + 2 if k <= 4 else k + 1
    mats = rng.integers(0, q, size=(4 if k <= 4 else 2, k, d)).astype(np.uint8)
    got = plucker_batch(f, mats)
    assert got.shape == (mats.shape[0], len(k_subsets(d, k)))
    for i in range(mats.shape[0]):
        for j, cols in enumerate(k_subsets(d, k)):
            expect = oracle_det(q, [[int(row[c]) for c in cols] for row in mats[i]])
            assert int(got[i, j]) == expect


def test_plucker_batch_chunks_agree(monkeypatch):
    # a chunk of a few points gives the same minors as one chunk of all
    from sympgrass import grassmann

    f = GF(5)
    mats = np.random.default_rng(3).integers(0, 5, size=(50, 3, 6)).astype(np.uint8)
    whole = plucker_batch(f, mats)
    monkeypatch.setattr(grassmann, "_PLUCKER_CHUNK_ELEMS", 7 * 20)
    assert np.array_equal(plucker_batch(f, mats), whole)


def test_plucker_coordinate_basis_plane():
    # span{e_1, e_2} in V(4, q): the single minor at subset {1,2} is 1
    for q in (2, 3, 5):
        f = GF(q)
        coords = plucker_batch(f, np.eye(4, dtype=np.uint8)[None, :2])[0]
        want = np.zeros(6, dtype=np.uint8)
        want[0] = 1  # subset (0,1) is first in lex order
        assert np.array_equal(coords, want)


def test_plucker_spec_example_v42():
    # span{e_1, e_2 + e_3} in V(4,2): ones exactly at subsets {1,2} and {1,3}
    f = GF(2)
    coords = plucker_batch(f, np.array([[[1, 0, 0, 0], [0, 1, 1, 0]]], dtype=np.uint8))[0]
    subs = k_subsets(4, 2)
    nz = {subs[i] for i in np.nonzero(coords)[0]}
    assert nz == {(0, 1), (0, 2)}
    assert all(coords[i] == 1 for i in np.nonzero(coords)[0])


def test_plucker_basis_independent():
    # a change of basis by [[2, 1], [1, 0]] scales every minor by its
    # determinant, -1 = 2 over GF(3): the same projective point
    f = GF(3)
    rows = np.array([[1, 2, 0, 1], [0, 1, 1, 2]], dtype=np.uint8)
    mixed = np.array(
        [f.arr_add(f.arr_mul(rows[0], np.uint8(2)), rows[1]), rows[0]], dtype=np.uint8
    )
    coords, scrambled = plucker_batch(f, np.stack([rows, mixed]))
    assert coords.any()
    assert np.array_equal(scrambled, f.arr_mul(coords, np.uint8(2)))


def test_plucker_normalized_leading_one():
    f = GF(3)
    for coords in plucker_batch(f, isotropic_stack(2, 2, f)):
        nz = np.nonzero(coords)[0]
        assert coords[nz[0]] == 1


@pytest.mark.parametrize("n,k,q,expected", [(2, 2, 2, 15), (3, 3, 2, 135)])
def test_isotropic_counts_fixed(n, k, q, expected):
    assert count_isotropic(n, k, GF(q)) == expected


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_isotropic_points_all_projective(n, q):
    # k = 1: every projective point is isotropic
    assert count_isotropic(n, 1, GF(q)) == (q ** (2 * n) - 1) // (q - 1)


@pytest.mark.parametrize("n,k,q", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 2, 4), (2, 2, 8)])
def test_isotropic_matches_filter_oracle(n, k, q):
    # oracle route from the definition: filter the full Grassmannian
    f = GF(q)
    sig = standard_symplectic(n, f)
    expected = {
        mat.tobytes()
        for batch in enumerate_subspaces(2 * n, k, f)
        for mat in batch
        if is_totally_isotropic(sig, mat)
    }
    got = {mat.tobytes() for mat in isotropic_stack(n, k, f)}
    assert got == expected


@pytest.mark.parametrize("q", [2, 3, 4])
def test_zero_form_enumerates_every_subspace_once(q):
    # under the zero form nothing is pruned: the k-subspaces of V(d, q), each once
    f = GF(q)
    for d in range(1, 6):
        for k in range(1, d + 1):
            got = [mat.tobytes() for batch in
                   iter_isotropic_batches(f, np.zeros((d, d), np.uint8), k) for mat in batch]
            expected = {mat.tobytes() for batch in enumerate_subspaces(d, k, f) for mat in batch}
            assert len(got) == len(set(got)) == formulas.gaussian_binomial(d, k, q), (d, k)
            assert set(got) == expected, (d, k)


def _alternating(f, d, rng):
    """A random alternating form on V(d, q): A - A^T with A strictly upper."""
    upper = np.triu(rng.integers(0, f.q, size=(d, d), dtype=np.uint8), 1)
    return f.arr_sub(upper, upper.T)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16]), data=st.data())
def test_filter_extend_matches_the_float_product_filter(q, data):
    # random RREF frames at a random level of a random cell, against one
    # form (zero or random alternating): the combination-table filter returns
    # the float-product filter's array byte for byte, in its frame-major,
    # candidate-minor order, as shipped and with one frame per chunk
    f = GF(q)
    d = data.draw(st.integers(2, 6 if q <= 8 else 5), label="d")
    r = data.draw(st.integers(1, d - 1), label="level")
    pivots = tuple(sorted(data.draw(st.permutations(range(d)), label="columns")[: r + 1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n_frames = data.draw(st.integers(0, 12), label="frames")
    rows = [grassmann._row_candidates(f, pivots, d, i) for i in range(r)]
    surv = np.stack([rows[i][rng.integers(0, len(rows[i]), size=n_frames)] for i in range(r)],
                    axis=1)
    kind = data.draw(st.sampled_from(("zero", "random")), label="form")
    gram = np.zeros((d, d), np.uint8) if kind == "zero" else _alternating(f, d, rng)
    expect = filter_extend_reference(f, surv, grassmann._row_candidates(f, pivots, d, r),
                                     gram[None])
    for budget in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if budget:
                mp.setattr(grassmann, "_FILTER_CHUNK_ELEMS", budget)
            got = grassmann._filter_extend(f, surv, pivots, gram)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


def test_isotropic_counts_match_formula_medium():
    for n, k, q in [(3, 2, 3), (4, 2, 2), (4, 4, 2), (3, 3, 3)]:
        assert count_isotropic(n, k, GF(q)) == formulas.length(n, k, q)


def test_isotropic_stack_matches_stream():
    # one cached, read-only array of the walker's batches, in their order
    f = GF(2)
    stack = isotropic_stack(3, 2, f)
    stream = np.concatenate(list(iter_isotropic_batches(f, standard_symplectic(3, f).gram, 2)))
    assert np.array_equal(stack, stream)
    assert isotropic_stack(3, 2, GF(2)) is stack
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1


def test_isotropic_bases_are_rref_and_isotropic():
    f = GF(3)
    sig = standard_symplectic(2, f)
    for basis in isotropic_stack(2, 2, f):
        r, rk, _ = rref(f, basis)
        assert rk == 2 and np.array_equal(r[:2], basis)
        assert is_totally_isotropic(sig, basis)


def test_plucker_injective_on_points():
    for n, k, q in [(2, 2, 3), (3, 2, 2)]:
        f = GF(q)
        pts = plucker_batch(f, isotropic_stack(n, k, f))
        seen = {pts[i].tobytes() for i in range(pts.shape[0])}
        assert len(seen) == formulas.length(n, k, q)


# ---------------------------------------------------------------------------
# lines: pencils {X : W < X < T} built by tests/oracles.polar_pencils


def canonical(f, members):
    """The RREF bases of a stack of members, as bytes."""
    return [rref_reference(f, m)[0].tobytes() for m in members]


@pytest.mark.parametrize("n,k,q", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 3, 2), (2, 1, 2)])
def test_line_counts(n, k, q):
    assert sum(1 for _ in polar_pencils(n, k, GF(q))) == polar_line_count(n, k, q)


@pytest.mark.parametrize("n,k,q", [(2, 2, 2), (3, 2, 2), (3, 3, 2), (2, 1, 3)])
def test_line_points_structure(n, k, q):
    # q + 1 distinct isotropic k-spaces, each holding W (the first k - 1
    # rows) and together spanning the (k+1)-space T, isotropic for k < n
    f = GF(q)
    sig = standard_symplectic(n, f)
    for i, members in enumerate(polar_pencils(n, k, f)):
        assert members.shape == (q + 1, k, 2 * n)
        assert len(set(canonical(f, members))) == q + 1
        for m in members:
            r, rk, _ = rref_reference(f, m)
            assert rk == k
            assert all(contains_vector(f, r[:rk], row) for row in members[0, : k - 1])
            assert is_totally_isotropic(sig, m)
        t, rk, _ = rref_reference(f, members.reshape(-1, 2 * n))
        assert rk == k + 1
        if k < n:
            assert is_totally_isotropic(sig, t[:rk])
        if i >= 60:
            break


def lines_through(n, k, f, x):
    """The lines whose members hold the RREF basis x."""
    return [m for m in polar_pencils(n, k, f) if x.tobytes() in canonical(f, m)]


def test_lines_through_point_dual_polar_22():
    # dual polar space of rank 2: q + 1 lines through each point
    f = GF(2)
    assert len(lines_through(2, 2, f, isotropic_stack(2, 2, f)[0])) == 3


def test_lines_through_point_32():
    # [k choose k-1]_q * (q^(2n-2k)-1)/(q-1) lines through a point
    f = GF(2)
    lines = lines_through(3, 2, f, isotropic_stack(3, 2, f)[0])
    expect = formulas.gaussian_binomial(2, 1, 2) * (2**2 - 1)
    assert len(lines) == expect
    sig = standard_symplectic(3, f)
    for members in lines:
        assert is_totally_isotropic(sig, members.reshape(-1, 6))


def test_lines_through_k1():
    # k = 1 pencils: one line per isotropic plane through the point
    f = GF(2)
    lines = lines_through(2, 1, f, isotropic_stack(2, 1, f)[0])
    assert len(lines) == (2**2 - 1) // (2 - 1)
    assert all(rank(f, members.reshape(-1, 4)) == 2 for members in lines)


def test_line_point_incidence_double_count():
    # sum over lines of (q+1) = sum over points of lines-through, every
    # point being on as many lines as the first
    f = GF(2)
    n, k = 3, 3
    through = len(lines_through(n, k, f, isotropic_stack(n, k, f)[0]))
    assert polar_line_count(n, k, 2) * 3 == formulas.length(n, k, 2) * through


def test_invalid_args_rejected():
    f = GF(2)
    for gram in (np.zeros((2, 4, 4), np.uint8), np.zeros((4, 3), np.uint8)):
        with pytest.raises(ValueError, match="one square Gram matrix"):
            list(iter_isotropic_batches(f, gram, 1))  # a stack or a non-square matrix
    with pytest.raises(ValueError):
        isotropic_stack(2, 3, f)
    with pytest.raises(ValueError):
        count_isotropic(0, 1, f)

