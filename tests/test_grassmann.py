"""Isotropic enumeration, Plücker coordinates, Grassmannian lines."""

import numpy as np
import pytest

from sympgrass import formulas
from sympgrass.forms import is_totally_isotropic, standard_symplectic
from sympgrass.gf import GF
from sympgrass.grassmann import (
    count_isotropic,
    det_batch,
    enumerate_isotropic,
    grassmann_lines,
    grassmann_lines_through,
    isotropic_stack,
    k_subsets,
    line_points,
    plucker,
    plucker_batch,
)
from sympgrass.linalg import Subspace, enumerate_subspaces, rank, rref

from oracles import oracle_det


def test_k_subsets_lex_order():
    assert k_subsets(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_det_batch_against_leibniz(q, m):
    f = GF(q)
    rng = np.random.default_rng(q * 10 + m)
    mats = rng.integers(0, q, size=(40, m, m)).astype(np.uint8)
    got = det_batch(f, mats)
    for i in range(mats.shape[0]):
        expect = oracle_det(q, [[int(x) for x in row] for row in mats[i]])
        assert int(got[i]) == expect


def test_plucker_coordinate_basis_plane():
    # span{e_1, e_2} in V(4, q): the single minor at subset {1,2} is 1
    for q in (2, 3, 5):
        f = GF(q)
        s = Subspace.from_rows(f, np.eye(4, dtype=np.uint8)[:2])
        coords = plucker(s)
        want = np.zeros(6, dtype=np.uint8)
        want[0] = 1  # subset (0,1) is first in lex order
        assert np.array_equal(coords, want)


def test_plucker_spec_example_v42():
    # span{e_1, e_2 + e_3} in V(4,2): ones exactly at subsets {1,2} and {1,3}
    f = GF(2)
    s = Subspace.from_rows(
        f, np.array([[1, 0, 0, 0], [0, 1, 1, 0]], dtype=np.uint8)
    )
    coords = plucker(s)
    subs = k_subsets(4, 2)
    nz = {subs[i] for i in np.nonzero(coords)[0]}
    assert nz == {(0, 1), (0, 2)}
    assert all(coords[i] == 1 for i in np.nonzero(coords)[0])


def test_plucker_basis_independent():
    # scrambled spanning rows canonicalize to the same subspace, same point
    f = GF(3)
    rows = np.array([[1, 2, 0, 1], [0, 1, 1, 2]], dtype=np.uint8)
    s1 = Subspace.from_rows(f, rows)
    mixed = np.array(
        [f.arr_add(f.arr_mul(rows[0], np.uint8(2)), rows[1]), rows[0]], dtype=np.uint8
    )
    s2 = Subspace.from_rows(f, mixed)
    assert s1 == s2
    assert np.array_equal(plucker(s1), plucker(s2))


def test_plucker_normalized_leading_one():
    f = GF(3)
    for s in enumerate_isotropic(2, 2, f):
        coords = plucker(s)
        nz = np.nonzero(coords)[0]
        assert coords[nz[0]] == 1


@pytest.mark.parametrize("n,k,q,expected", [(2, 2, 2, 15), (3, 3, 2, 135)])
def test_isotropic_counts_fixed(n, k, q, expected):
    assert count_isotropic(n, k, GF(q)) == expected


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_isotropic_points_all_projective(n, q):
    # k = 1: every projective point is isotropic
    assert count_isotropic(n, 1, GF(q)) == (q ** (2 * n) - 1) // (q - 1)


@pytest.mark.parametrize("n,k,q", [(2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_isotropic_matches_filter_oracle(n, k, q):
    # oracle route from the definition: filter the full Grassmannian
    f = GF(q)
    sig = standard_symplectic(n, f)
    expected = {
        s.basis.tobytes()
        for s in enumerate_subspaces(2 * n, k, f)
        if is_totally_isotropic(sig, s)
    }
    got = {s.basis.tobytes() for s in enumerate_isotropic(n, k, f)}
    assert got == expected


def test_isotropic_counts_match_formula_medium():
    for n, k, q in [(3, 2, 3), (4, 2, 2), (4, 4, 2), (3, 3, 3)]:
        assert count_isotropic(n, k, GF(q)) == formulas.length(n, k, q)


def test_isotropic_stack_matches_stream():
    f = GF(2)
    stack = isotropic_stack(3, 2, f)
    stream = [s.basis for s in enumerate_isotropic(3, 2, f)]
    assert stack.shape[0] == len(stream)
    for i, mat in enumerate(stream):
        assert np.array_equal(stack[i], mat)


def test_isotropic_bases_are_rref_and_isotropic():
    f = GF(3)
    sig = standard_symplectic(2, f)
    for s in enumerate_isotropic(2, 2, f):
        r, rk, _ = rref(f, s.basis)
        assert rk == 2 and np.array_equal(r[:2], s.basis)
        assert is_totally_isotropic(sig, s)


def test_plucker_injective_on_points():
    for n, k, q in [(2, 2, 3), (3, 2, 2)]:
        f = GF(q)
        pts = plucker_batch(f, isotropic_stack(n, k, f))
        seen = {pts[i].tobytes() for i in range(pts.shape[0])}
        assert len(seen) == formulas.length(n, k, q)


# ---------------------------------------------------------------------------
# lines


def expected_line_count(n, k, q):
    if k == n:
        return formulas.length(n, n - 1, q) if n >= 2 else 1
    return formulas.length(n, k + 1, q) * formulas.gaussian_binomial(k + 1, k - 1, q)


@pytest.mark.parametrize("n,k,q", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 3, 2), (2, 1, 2)])
def test_line_counts(n, k, q):
    f = GF(q)
    got = sum(1 for _ in grassmann_lines(n, k, f))
    assert got == expected_line_count(n, k, q)


@pytest.mark.parametrize("n,k,q", [(2, 2, 2), (3, 2, 2), (3, 3, 2), (2, 1, 3)])
def test_line_points_structure(n, k, q):
    f = GF(q)
    sig = standard_symplectic(n, f)
    for i, line in enumerate(grassmann_lines(n, k, f)):
        pts = line_points(line, sig)
        assert len(pts) == q + 1
        assert len({p.basis.tobytes() for p in pts}) == q + 1
        for p in pts:
            assert p.dim == k
            assert p.contains_subspace(line.W)
            assert is_totally_isotropic(sig, p)
            if line.T is not None:
                assert line.T.contains_subspace(p)
        if i >= 60:
            break


def test_lines_through_point_dual_polar_22():
    # dual polar space of rank 2: q + 1 lines through each point
    f = GF(2)
    x = next(iter(enumerate_isotropic(2, 2, f)))
    lines = list(grassmann_lines_through(2, 2, f, x))
    assert len(lines) == 3
    sig = standard_symplectic(2, f)
    for line in lines:
        assert x in line_points(line, sig)


def test_lines_through_point_32():
    # [k choose k-1]_q * (q^(2n-2k)-1)/(q-1) lines through a point
    f = GF(2)
    x = next(iter(enumerate_isotropic(3, 2, f)))
    lines = list(grassmann_lines_through(3, 2, f, x))
    expect = formulas.gaussian_binomial(2, 1, 2) * (2**2 - 1)
    assert len(lines) == expect
    sig = standard_symplectic(3, f)
    for line in lines:
        assert x in line_points(line, sig)
        assert is_totally_isotropic(sig, line.T)


def test_lines_through_k1():
    # k = 1 pencils: one line per isotropic plane through the point
    f = GF(2)
    x = next(iter(enumerate_isotropic(2, 1, f)))
    lines = list(grassmann_lines_through(2, 1, f, x))
    assert len(lines) == (2**2 - 1) // (2 - 1)
    assert all(line.W.dim == 0 for line in lines)


def test_line_point_incidence_double_count():
    # sum over lines of (q+1) = sum over points of lines-through
    f = GF(2)
    n, k = 3, 3
    total_lines = sum(1 for _ in grassmann_lines(n, k, f))
    x = next(iter(enumerate_isotropic(n, k, f)))
    through = sum(1 for _ in grassmann_lines_through(n, k, f, x))
    assert total_lines * 3 == formulas.length(n, k, 2) * through


@pytest.mark.parametrize("n,k,q", [(2, 2, 2), (2, 2, 3)])
def test_embedding_maps_lines_to_lines(n, k, q):
    f = GF(q)
    sig = standard_symplectic(n, f)
    for line in grassmann_lines(n, k, f):
        pts = line_points(line, sig)
        coords = np.stack([plucker(p) for p in pts])
        assert rank(f, coords) == 2


def test_invalid_args_rejected():
    f = GF(2)
    with pytest.raises(ValueError):
        list(enumerate_isotropic(2, 3, f))
    with pytest.raises(ValueError):
        count_isotropic(0, 1, f)
    sig_x = Subspace.from_rows(f, np.array([[1, 0, 1, 0]], dtype=np.uint8))
    with pytest.raises(ValueError):
        list(grassmann_lines_through(2, 2, f, sig_x))

