"""Row reduction, kernels, subspace enumeration, serialization."""

import io

import numpy as np
import pytest

from sympgrass.formulas import gaussian_binomial
from sympgrass.gf import GF
from sympgrass.linalg import (
    Subspace,
    enumerate_projective_points,
    enumerate_subspaces,
    inverse,
    iter_subspace_batches,
    kernel,
    normalize_projective,
    rank,
    read_matrix_text,
    rref,
    write_matrix_text,
)

from oracles import oracle_subspaces


def test_rref_identity_fixed():
    f = GF(2)
    eye = np.eye(3, dtype=np.uint8)
    r, rk, piv = rref(f, eye)
    assert np.array_equal(r, eye) and rk == 3 and piv == [0, 1, 2]


def test_rref_zero_matrix():
    f = GF(3)
    z = np.zeros((2, 4), dtype=np.uint8)
    r, rk, piv = rref(f, z)
    assert np.array_equal(r, z) and rk == 0 and piv == []


def test_rref_gf3_singular_example():
    # [[1,2],[2,1]] over GF(3) has det = 1 - 4 = 0, so rank 1: row 2 is 2*row 1.
    f = GF(3)
    r, rk, _ = rref(f, np.array([[1, 2], [2, 1]], dtype=np.uint8))
    assert rk == 1
    assert np.array_equal(r, np.array([[1, 2], [0, 0]], dtype=np.uint8))


def test_rref_gf3_invertible_example():
    # hand elimination: [[1,2],[2,2]] -> [[1,2],[0,1]] -> identity
    f = GF(3)
    r, rk, _ = rref(f, np.array([[1, 2], [2, 2]], dtype=np.uint8))
    assert rk == 2
    assert np.array_equal(r, np.eye(2, dtype=np.uint8))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_rref_idempotent_and_row_space_preserved(q):
    f = GF(q)
    rng = np.random.default_rng(q * 101)
    for _ in range(25):
        m = rng.integers(0, q, size=(4, 6)).astype(np.uint8)
        r, rk, _ = rref(f, m)
        r2, rk2, _ = rref(f, r)
        assert np.array_equal(r, r2) and rk == rk2
        stacked = np.concatenate([m, r], axis=0)
        assert rank(f, stacked) == rk


def test_kernel_identity_and_zero():
    f = GF(2)
    assert kernel(f, np.eye(3, dtype=np.uint8)).dim == 0
    full = kernel(f, np.zeros((4, 4), dtype=np.uint8))
    assert full.dim == 4


def test_kernel_gf2_example_exhaustive():
    # kernel of [1 1] over GF(2): checked against all 4 vectors
    f = GF(2)
    ker = kernel(f, np.array([[1, 1]], dtype=np.uint8))
    members = {tuple(v) for v in [(0, 0), (1, 1)]}
    for v in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        in_ker = (v[0] + v[1]) % 2 == 0
        assert ker.contains_vector(np.array(v, dtype=np.uint8)) == in_ker
    assert ker.dim == 1 and tuple(ker.basis[0]) in members


@pytest.mark.parametrize("q", [2, 3, 4])
def test_kernel_dimension_and_annihilation(q):
    f = GF(q)
    rng = np.random.default_rng(q)
    for _ in range(20):
        m = rng.integers(0, q, size=(3, 5)).astype(np.uint8)
        ker = kernel(f, m)
        assert ker.dim == 5 - rank(f, m)
        if ker.dim:
            prod = f.matmul(m, ker.basis.T)
            assert not prod.any()


def test_inverse_round_trip():
    f = GF(5)
    rng = np.random.default_rng(7)
    found = 0
    while found < 10:
        m = rng.integers(0, 5, size=(4, 4)).astype(np.uint8)
        if rank(f, m) < 4:
            continue
        found += 1
        inv = inverse(f, m)
        assert np.array_equal(f.matmul(m, inv), np.eye(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        inverse(f, np.zeros((2, 2), dtype=np.uint8))


def test_subspace_canonical_equality():
    f = GF(3)
    a = Subspace.from_rows(f, np.array([[1, 2, 0], [0, 0, 1]], dtype=np.uint8))
    b = Subspace.from_rows(f, np.array([[2, 1, 0], [1, 2, 1]], dtype=np.uint8))
    assert a == b and hash(a) == hash(b)
    c = Subspace.from_rows(f, np.array([[1, 0, 0]], dtype=np.uint8))
    assert a != c


def test_enumerate_subspaces_counts_small():
    for d, k, q in [(2, 1, 2), (4, 2, 2), (4, 2, 3), (5, 3, 2), (4, 0, 3)]:
        f = GF(q)
        got = sum(1 for _ in enumerate_subspaces(d, k, f))
        assert got == gaussian_binomial(d, k, q)


def test_enumerate_subspaces_unique_and_canonical():
    f = GF(3)
    seen = set()
    for s in enumerate_subspaces(4, 2, f):
        r, rk, _ = rref(f, s.basis)
        assert rk == 2 and np.array_equal(r[:2], s.basis)
        seen.add(s.basis.tobytes())
    assert len(seen) == gaussian_binomial(4, 2, 3)


def test_enumerate_subspaces_matches_brute_force_spans():
    # compare against subspaces built as raw vector sets
    from oracles import span_of

    f = GF(2)
    expected = oracle_subspaces(2, 4, 2)
    got = set()
    for s in enumerate_subspaces(4, 2, f):
        got.add(span_of(2, [tuple(int(x) for x in row) for row in s.basis], 4))
    assert got == expected


def test_zero_dimensional_subspace():
    f = GF(3)
    subs = list(enumerate_subspaces(4, 0, f))
    assert len(subs) == 1 and subs[0].dim == 0


@pytest.mark.parametrize(
    "d,k,q",
    [(6, 2, 2), (6, 3, 2), (7, 3, 2), (6, 2, 3), (6, 3, 3)],
)
def test_enumeration_count_medium(d, k, q):
    f = GF(q)
    got = sum(b.shape[0] for b in iter_subspace_batches(f, d, k))
    assert got == gaussian_binomial(d, k, q)


@pytest.mark.slow
@pytest.mark.parametrize("q", [2, 3])
def test_enumeration_count_full_range(q):
    # the full verification range: every ambient dimension <= 8, k <= 4
    for d in range(1, 9):
        for k in range(0, min(d, 4) + 1):
            f = GF(q)
            got = sum(b.shape[0] for b in iter_subspace_batches(f, d, k))
            assert got == gaussian_binomial(d, k, q), (d, k, q)


def test_projective_points_d2_q2():
    pts = [tuple(int(x) for x in v) for v in enumerate_projective_points(2, GF(2))]
    assert sorted(pts) == [(0, 1), (1, 0), (1, 1)]


def test_projective_points_counts():
    assert sum(1 for _ in enumerate_projective_points(4, GF(3))) == 40
    assert sum(1 for _ in enumerate_projective_points(1, GF(5))) == 1
    for v in enumerate_projective_points(3, GF(4)):
        nz = np.nonzero(v)[0]
        assert v[nz[0]] == 1  # normalized


def test_normalize_projective():
    f = GF(5)
    v = np.array([0, 3, 1], dtype=np.uint8)
    w = normalize_projective(f, v)
    assert w[1] == 1 and w[2] == f.mul(f.inv(3), 1)
    with pytest.raises(ValueError):
        normalize_projective(f, np.zeros(3, dtype=np.uint8))


def test_matrix_text_round_trip():
    f = GF(9)
    rng = np.random.default_rng(3)
    m = rng.integers(0, 9, size=(3, 5)).astype(np.uint8)
    buf = io.StringIO()
    write_matrix_text(buf, f, m)
    text = buf.getvalue()
    first = text.splitlines()[0]
    assert first == "3 5 9"
    f2, m2 = read_matrix_text(io.StringIO(text + "\n  \n"))  # trailing blank lines are fine
    assert f2 == f and np.array_equal(m, m2)


def test_matrix_text_rejects_bad_entries():
    for text in [
        "1 2 3\n5 0\n",  # entry out of range
        "1 2 3\n1\n",  # short row
        "2 2 3\n1 0\n",  # missing row
        "1 2 3\n1 0\n2 2\n",  # trailing row
        "1 1000000000 3\n1 0\n",  # header claims more columns than the row holds
        "-1 2 3\n",  # negative shape
        "1 2\n1 0\n",  # short header
    ]:
        with pytest.raises(ValueError):
            read_matrix_text(io.StringIO(text))
