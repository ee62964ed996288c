"""Field arithmetic: axioms, fixed encodings, table/array agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympgrass import gf
from sympgrass.gf import GF, Field

from oracles import oracle_add, oracle_matvec, oracle_mul

ALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
EXTENSION_Q = [4, 8, 9, 16]


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive(q):
    f = GF(q)
    add, mul = f.add_table.astype(int), f.mul_table.astype(int)
    elems = np.arange(q)
    assert np.array_equal(add[:, 0], elems)
    assert np.array_equal(mul[:, 1], elems)
    assert not mul[:, 0].any()
    assert not add[elems, f.neg_table].any()
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    a, b, c = np.ix_(elems, elems, elems)
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])


@pytest.mark.parametrize("q", ALL_Q)
def test_inverses_exhaustive(q):
    f = GF(q)
    assert f.inv_table[1] == 1
    for a in range(1, q):
        assert f.mul_table[a, f.inv_table[a]] == 1
    assert f.inv_table[0] == 0  # 0 has no inverse; its entry is 0


def table_powers(f, g):
    """g^0 .. g^(q-2), each taken from the last through mul_table."""
    out = [1]
    for _ in range(f.q - 2):
        out.append(int(f.mul_table[out[-1], g]))
    return out


@pytest.mark.parametrize("q", ALL_Q)
def test_exp_table_lists_the_powers_of_the_smallest_generator(q):
    f = GF(q)
    exp = f.exp_table
    assert exp.dtype == np.uint8 and exp.shape == (q - 1,) and not exp.flags.writeable
    assert exp[0] == 1
    assert sorted(exp.tolist()) == list(range(1, q))
    # g is the smallest encoding whose powers cover GF(q)* (1 for q = 2)
    g = next(g for g in range(1, q) if len(set(table_powers(f, g))) == q - 1)
    assert exp[1 % (q - 1)] == g
    assert exp.tolist() == table_powers(f, g)


@pytest.mark.parametrize("q", ALL_Q)
def test_mul_table_is_read_from_the_powers(q):
    f = GF(q)
    log = np.zeros(q, dtype=np.intp)
    log[f.exp_table] = np.arange(q - 1)
    for a in range(1, q):
        for b in range(1, q):
            assert f.mul_table[a, b] == f.exp_table[(log[a] + log[b]) % (q - 1)]
    assert not f.mul_table[0].any() and not f.mul_table[:, 0].any()


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_prime_mul_table_is_the_residue_product(q):
    residues = np.arange(q)
    assert np.array_equal(GF(q).mul_table, np.outer(residues, residues) % q)


@pytest.mark.parametrize("q", ALL_Q)
def test_frobenius(q):
    f = GF(q)
    for a in range(q):
        power = 1
        for _ in range(q):
            power = f.mul_table[power, a]
        assert power == a


def test_fixed_encodings():
    # GF(3): 2 + 2 = 1, 2 * 2 = 1
    f3 = GF(3)
    assert f3.add_table[2, 2] == 1
    assert f3.mul_table[2, 2] == 1
    # GF(2): 1 + 1 = 0
    assert GF(2).add_table[1, 1] == 0
    # GF(4) with modulus x^2+x+1: x + (x+1) = 1 and x * x = x + 1
    f4 = GF(4)
    x, x1 = 2, 3  # encodings: x -> 2, x+1 -> 3
    assert f4.add_table[x, x1] == 1
    assert f4.mul_table[x, x] == x1


@pytest.mark.parametrize("q", EXTENSION_Q)
def test_extension_tables_match_polynomial_oracle(q):
    f = GF(q)
    for a in range(q):
        for b in range(q):
            assert f.add_table[a, b] == oracle_add(q, a, b)
            assert f.mul_table[a, b] == oracle_mul(q, a, b)


@pytest.mark.parametrize("q", ALL_Q)
def test_array_ops_agree_with_tables(q):
    f = GF(q)
    a = np.repeat(np.arange(q, dtype=np.uint8), q)
    b = np.tile(np.arange(q, dtype=np.uint8), q)
    add = f.arr_add(a, b)
    mul = f.arr_mul(a, b)
    sub = f.arr_sub(a, b)
    for i in range(q * q):
        assert add[i] == f.add_table[a[i], b[i]]
        assert mul[i] == f.mul_table[a[i], b[i]]
        assert sub[i] == f.add_table[a[i], f.neg_table[b[i]]]
    neg = f.arr_neg(np.arange(q, dtype=np.uint8))
    for i in range(q):
        assert neg[i] == f.neg_table[i]


@pytest.mark.parametrize("q", ALL_Q)
def test_arr_neg_is_a_fresh_copy_of_the_table(q):
    # entrywise against neg_table on a 2-d array, a strided view and a
    # read-only one; the result is a new writable uint8 array every time
    f = GF(q)
    a = np.random.default_rng(q).integers(0, q, size=(7, 9), dtype=np.uint8)
    frozen = a.copy()
    frozen.setflags(write=False)
    for src in (a, a[:, ::2].T, frozen):
        before = src.copy()
        neg = f.arr_neg(src)
        assert neg.dtype == np.uint8 and neg.shape == src.shape
        assert np.array_equal(neg, f.neg_table[src.astype(np.intp)])
        assert not np.shares_memory(neg, src) and neg.flags.writeable
        neg[...] = 0
        assert np.array_equal(src, before)


def test_invalid_orders_rejected():
    for q in (-4, 0, 1, 6, 10, 12, 14, 15, 17, 32):
        with pytest.raises(ValueError):
            GF(q)


def test_a_modulus_without_generator_x_is_refused(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2), but x has order 5
    monkeypatch.setitem(gf._ORDERS, 16, (2, (1, 1, 1, 1, 1)))
    with pytest.raises(AssertionError):
        Field(16)


def test_moduli_metadata():
    assert GF(4).modulus == (1, 1, 1)
    assert GF(8).modulus == (1, 1, 0, 1)
    assert GF(9).modulus == (2, 1, 1)
    assert GF(16).modulus == (1, 1, 0, 0, 1)
    assert GF(7).modulus is None
    f9 = GF(9)
    assert (f9.p, f9.e) == (3, 2)


def test_shared_instances():
    assert GF(5) is GF(5)
    assert GF(4) == GF(4) and GF(4) != GF(8)


def oracle_matmul(q, a, b):
    """Product of two 2-d arrays, column by column through oracle_matvec."""
    a_rows = a.tolist()
    cols = [oracle_matvec(q, a_rows, col) for col in b.T.tolist()]
    return np.array(cols, dtype=np.uint8).T


@pytest.mark.parametrize("q", ALL_Q)
def test_matmul_against_oracle(q):
    f = GF(q)
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, size=(5, 7), dtype=np.uint8)
    b = rng.integers(0, q, size=(7, 4), dtype=np.uint8)
    assert np.array_equal(f.matmul(a, b), oracle_matmul(q, a, b))
    # a stacked left operand against one right operand
    stack = rng.integers(0, q, size=(3, 2, 7), dtype=np.uint8)
    got = f.matmul(stack, b)
    assert got.shape == (3, 2, 4)
    for i in range(3):
        assert np.array_equal(got[i], oracle_matmul(q, stack[i], b))
    # a read-only right operand whose columns are strided, like the sweep's
    # rows gen[: K - t] of a wider generator
    wide = rng.integers(0, q, size=(9, 11), dtype=np.uint8)
    wide.setflags(write=False)
    view = wide[:7, ::3]
    assert not view.flags.c_contiguous and not view.flags.writeable
    assert np.array_equal(f.matmul(a, view), oracle_matmul(q, a, view))


@pytest.mark.parametrize("q", [2, 4, 9])
@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 7), (2, 7, 4)),     # a stacked right operand
    ((2, 3, 7), (2, 7, 4)),
    ((6, 1, 7), (6, 7, 1)),  # one dot product per pair
    ((3, 0), (2, 0, 5)),
    ((3, 7), (7,)),          # a vector on either side
    ((7,), (7, 4)),
])
def test_matmul_refuses_a_right_operand_that_is_not_a_matrix(q, a_shape, b_shape):
    # the right operand is one matrix, so every product is one BLAS call
    a = np.zeros(a_shape, dtype=np.uint8)
    b = np.zeros(b_shape, dtype=np.uint8)
    with pytest.raises(ValueError, match="cannot multiply shapes"):
        GF(q).matmul(a, b)


@pytest.mark.parametrize("q,k", [
    (3, 63), (3, 64),        # k * (p - 1)^2 = 252, 256: uint8, then uint16
    (13, 1), (13, 2),        # 144, 288
    (16, 63), (16, 64),      # k * 4 * 1 = 252, 256
    (3, 16383), (3, 16384),  # 65 532, 65 536: uint16, then uint32
])
def test_matmul_at_the_reduction_dtype_edges(q, k):
    # every entry q - 1, on both sides of the bound where the reduction
    # dtype widens
    f = GF(q)
    a = np.full((2, k), q - 1, dtype=np.uint8)
    b = np.full((k, 3), q - 1, dtype=np.uint8)
    assert np.array_equal(f.matmul(a, b), oracle_matmul(q, a, b))


def test_matmul_exactness_guard():
    # GF(13): k * (p - 1)^2 must stay below 2^24, so k = 2^24 // 144 + 1 is refused
    k = (1 << 24) // 144 + 1
    with pytest.raises(ValueError):
        GF(13).matmul(np.zeros((1, k), dtype=np.uint8), np.zeros((k, 1), dtype=np.uint8))
    # GF(16) = GF(2^4): k * 4 * 1 < 2^24 allows k up to 2^22 - 1
    with pytest.raises(ValueError):
        GF(16).matmul(np.zeros((1, 1 << 22), dtype=np.uint8), np.zeros((1 << 22, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        GF(3).matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))


@pytest.mark.parametrize("q", [2, 4, 9])
@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 0), (0, 5)),        # empty inner dimension
    ((2, 3, 0), (0, 5)),     # stacked left operand
    ((0, 3, 4), (4, 5)),     # an empty stack
    ((2, 3, 4), (4, 0)),
    ((0, 4), (4, 5)),        # empty outer dimensions
    ((3, 4), (4, 0)),
    ((2, 0, 4), (4, 3)),
    ((2, 0, 3, 4), (4, 0)),
    ((0, 0), (0, 0)),
])
def test_matmul_on_empty_dimensions(q, a_shape, b_shape):
    a = np.zeros(a_shape, dtype=np.uint8)
    b = np.zeros(b_shape, dtype=np.uint8)
    got = GF(q).matmul(a, b)
    assert got.shape == np.matmul(a, b).shape
    assert got.dtype == np.uint8 and not got.any()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(q=st.sampled_from(ALL_Q), rows=st.integers(0, 6), inner=st.integers(0, 6),
       mid=st.integers(0, 6), cols=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_matmul_associative_and_distributive(q, rows, inner, mid, cols, seed):
    f = GF(q)
    rng = np.random.default_rng(seed)
    a, a2 = rng.integers(0, q, size=(2, rows, inner), dtype=np.uint8)
    b, b2 = rng.integers(0, q, size=(2, inner, mid), dtype=np.uint8)
    c = rng.integers(0, q, size=(mid, cols), dtype=np.uint8)
    assert np.array_equal(f.matmul(f.matmul(a, b), c), f.matmul(a, f.matmul(b, c)))
    assert np.array_equal(f.matmul(a, f.arr_add(b, b2)),
                          f.arr_add(f.matmul(a, b), f.matmul(a, b2)))
    assert np.array_equal(f.matmul(f.arr_add(a, a2), b),
                          f.arr_add(f.matmul(a, b), f.matmul(a2, b)))
