"""Row reduction, the oracle kernel and subspace walker, the projective
points of the isotropic enumeration, serialization."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympgrass import linalg
from sympgrass.formulas import gaussian_binomial
from sympgrass.gf import GF
from sympgrass.grassmann import iter_isotropic_batches
from sympgrass.linalg import rank, read_matrix_text, rref, write_matrix_text

from oracles import (
    contains_vector,
    enumerate_subspaces,
    inverse,
    kernel,
    oracle_subspaces,
    rref_reference,
)


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


def _assert_is_rref(r, rk, piv):
    assert len(piv) == rk and piv == sorted(set(piv))
    assert not r[rk:].any()
    for i, c in enumerate(piv):
        assert not r[i, :c].any() and r[i, c] == 1
        assert np.array_equal(r[:, c], np.eye(r.shape[0], dtype=np.uint8)[i])


@pytest.mark.parametrize("sparse_update", [False, True])
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(q=st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13, 16)),
       rows=st.integers(0, 12), cols=st.integers(0, 12), inner=st.integers(0, 12),
       zero_rows=st.integers(0, 2**12 - 1), zero_cols=st.integers(0, 2**12 - 1),
       seed=st.integers(0, 2**32 - 1))
def test_rref_matches_the_reference(sparse_update, q, rows, cols, inner,
                                    zero_rows, zero_cols, seed):
    # a product of random rows x inner and inner x cols factors, tall, wide
    # or square and of rank at most inner, with the rows and columns of the
    # two bit masks zeroed; once with the whole-matrix update and once with
    # the update of only the rows with a nonzero factor
    f = GF(q)
    rng = np.random.default_rng(seed)
    left = rng.integers(0, q, size=(rows, inner), dtype=np.uint8)
    right = rng.integers(0, q, size=(inner, cols), dtype=np.uint8)
    m = f.matmul(left, right)
    m[[i for i in range(rows) if zero_rows >> i & 1]] = 0
    m[:, [j for j in range(cols) if zero_cols >> j & 1]] = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_SPARSE_UPDATE_ELEMS", 0 if sparse_update else 1 << 12)
        r, rk, piv = rref(f, m)
        want = rref_reference(f, m)
        assert r.dtype == np.uint8 and r.shape == m.shape
        assert r.tobytes() == want[0].tobytes() and (rk, piv) == want[1:]
        assert rk <= min(rows, cols, inner)
        _assert_is_rref(r, rk, piv)
        r2, rk2, piv2 = rref(f, r)
        assert np.array_equal(r2, r) and (rk2, piv2) == (rk, piv)
        assert rank(f, np.concatenate([m, r])) == rk


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(q=st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13, 16)),
       rows=st.integers(0, 10), cols=st.integers(0, 10), inner=st.integers(0, 10),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_rank_matches_the_reference(q, rows, cols, inner, seed):
    # a (2, 3, rows, cols) stack, tall, wide or square, of a zero matrix, a
    # rank-1 product u v^T, a full-rank L E U (E the rows x cols identity,
    # L and U unitriangular), two products of rank at most inner and one
    # uniform matrix, each rank against the reference RREF's
    f = GF(q)
    rng = np.random.default_rng(seed)

    def rand(r, c):
        return rng.integers(0, q, size=(r, c), dtype=np.uint8)

    low = np.tril(rand(rows, rows), -1) + np.eye(rows, dtype=np.uint8)
    up = np.triu(rand(cols, cols), 1) + np.eye(cols, dtype=np.uint8)
    u, v = rand(rows, 1), rand(1, cols)
    u[:1], v[:, :1] = 1, 1
    mats = [
        np.zeros((rows, cols), dtype=np.uint8),
        f.matmul(u, v),
        f.matmul(f.matmul(low, np.eye(rows, cols, dtype=np.uint8)), up),
        f.matmul(rand(rows, inner), rand(inner, cols)),
        f.matmul(rand(rows, inner), rand(inner, cols)),
        rand(rows, cols),
    ]
    stack = np.stack(mats).reshape(2, 3, rows, cols)
    before = stack.copy()
    ranks = rank(f, stack)
    want = [rref_reference(f, m)[1] for m in mats]
    assert ranks.shape == (2, 3) and ranks.ravel().tolist() == want
    assert want[:3] == [0, min(rows, cols, 1), min(rows, cols)]
    assert np.array_equal(stack, before)
    for m, rk in zip(mats, want):
        one = rank(f, m)
        assert type(one) is int and one == rk


def test_stacked_rank_of_empty_stacks():
    f = GF(3)
    assert rank(f, np.zeros((0, 2, 2), dtype=np.uint8)).shape == (0,)
    assert rank(f, np.zeros((2, 0, 0), dtype=np.uint8)).tolist() == [0, 0]
    with pytest.raises(ValueError):
        rank(f, np.zeros(4, dtype=np.uint8))


def test_kernel_identity_and_zero():
    f = GF(2)
    assert kernel(f, np.eye(3, dtype=np.uint8)).shape == (0, 3)
    assert np.array_equal(kernel(f, np.zeros((4, 4), dtype=np.uint8)), np.eye(4))


def test_kernel_gf2_example_exhaustive():
    # kernel of [1 1] over GF(2): checked against all 4 vectors
    f = GF(2)
    ker = kernel(f, np.array([[1, 1]], dtype=np.uint8))
    members = {tuple(v) for v in [(0, 0), (1, 1)]}
    for v in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        in_ker = (v[0] + v[1]) % 2 == 0
        assert contains_vector(f, ker, np.array(v, dtype=np.uint8)) == in_ker
    assert ker.shape[0] == 1 and tuple(ker[0]) in members


@pytest.mark.parametrize("q", [2, 3, 4])
def test_kernel_dimension_and_annihilation(q):
    f = GF(q)
    rng = np.random.default_rng(q)
    for _ in range(20):
        m = rng.integers(0, q, size=(3, 5)).astype(np.uint8)
        ker = kernel(f, m)
        assert ker.shape == (5 - rank(f, m), 5)
        assert not f.matmul(m, ker.T).any()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(q=st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13, 16)),
       rows=st.integers(0, 8), cols=st.integers(0, 8), inner=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_invariants(q, rows, cols, inner, seed):
    # m of rank at most inner; the oracle's kernel is annihilated by m, has
    # the complementary dimension and is held by a basis in RREF
    f = GF(q)
    rng = np.random.default_rng(seed)
    m = f.matmul(rng.integers(0, q, size=(rows, inner), dtype=np.uint8),
                 rng.integers(0, q, size=(inner, cols), dtype=np.uint8))
    ker = kernel(f, m)
    dim = ker.shape[0]
    assert ker.dtype == np.uint8 and ker.shape[1] == cols
    assert not f.matmul(m, ker.T).any()
    assert dim + rank(f, m) == cols
    r, rk, piv = rref(f, ker)
    assert rk == dim
    _assert_is_rref(r, rk, piv)
    assert np.array_equal(r, ker)


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


def subspace_bases(d, k, f):
    """The oracle walker's RREF bases, one at a time."""
    for batch in enumerate_subspaces(d, k, f):
        yield from batch


def test_enumerate_subspaces_counts_small():
    for d, k, q in [(2, 1, 2), (4, 2, 2), (4, 2, 3), (5, 3, 2), (4, 0, 3)]:
        f = GF(q)
        got = sum(1 for _ in subspace_bases(d, k, f))
        assert got == gaussian_binomial(d, k, q)


def test_enumerate_subspaces_unique_and_canonical():
    f = GF(3)
    seen = set()
    for basis in subspace_bases(4, 2, f):
        r, rk, _ = rref(f, basis)
        assert rk == 2 and np.array_equal(r[:2], basis)
        seen.add(basis.tobytes())
    assert len(seen) == gaussian_binomial(4, 2, 3)


def test_enumerate_subspaces_matches_brute_force_spans():
    # compare against subspaces built as raw vector sets
    from oracles import span_of

    f = GF(2)
    expected = oracle_subspaces(2, 4, 2)
    got = set()
    for basis in subspace_bases(4, 2, f):
        got.add(span_of(2, [tuple(int(x) for x in row) for row in basis], 4))
    assert got == expected


def test_zero_dimensional_subspace():
    f = GF(3)
    subs = list(subspace_bases(4, 0, f))
    assert len(subs) == 1 and subs[0].shape == (0, 4)


@pytest.mark.parametrize(
    "d,k,q",
    [(6, 2, 2), (6, 3, 2), (7, 3, 2), (6, 2, 3), (6, 3, 3)],
)
def test_enumeration_count_medium(d, k, q):
    f = GF(q)
    got = sum(b.shape[0] for b in enumerate_subspaces(d, k, f))
    assert got == gaussian_binomial(d, k, q)


@pytest.mark.slow
@pytest.mark.parametrize("q", [2, 3])
def test_enumeration_count_full_range(q):
    # the full verification range: every ambient dimension <= 8, k <= 4
    for d in range(1, 9):
        for k in range(0, min(d, 4) + 1):
            f = GF(q)
            got = sum(b.shape[0] for b in enumerate_subspaces(d, k, f))
            assert got == gaussian_binomial(d, k, q), (d, k, q)


def projective_points(f, d):
    """The points of PG(d - 1, q) from the isotropic enumeration under the
    zero form (k = 1: no filter runs)."""
    batches = iter_isotropic_batches(f, np.zeros((d, d), np.uint8), 1)
    return np.concatenate([b[:, 0] for b in batches])


def test_projective_points_d2_q2():
    pts = [tuple(int(x) for x in v) for v in projective_points(GF(2), 2)]
    assert sorted(pts) == [(0, 1), (1, 0), (1, 1)]


def test_projective_points_counts():
    assert projective_points(GF(3), 4).shape == (40, 4)
    assert projective_points(GF(5), 1).shape == (1, 1)
    for v in projective_points(GF(4), 3):
        nz = np.nonzero(v)[0]
        assert v[nz[0]] == 1  # normalized


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


@pytest.mark.parametrize("shape", [(4, 37), (3, 0), (0, 5)])
def test_matrix_text_writes_each_entry_in_decimal(shape):
    # the file's bytes: the header, then each row's entries as str(int(x))
    f = GF(16)
    m = np.random.default_rng(5).integers(0, 16, size=shape).astype(np.uint8)
    buf = io.StringIO()
    write_matrix_text(buf, f, m)
    rows = "".join(" ".join(str(int(x)) for x in row) + "\n" for row in m)
    assert buf.getvalue() == f"{shape[0]} {shape[1]} 16\n" + rows


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
