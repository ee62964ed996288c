"""Field arithmetic: axioms, fixed encodings, table/array agreement."""

import numpy as np
import pytest

from sympgrass.gf import GF

from oracles import oracle_add, oracle_dot, oracle_matvec, oracle_mul

ALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
EXTENSION_Q = [4, 8, 9, 16]


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive(q):
    f = GF(q)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", ALL_Q)
def test_inverses_exhaustive(q):
    f = GF(q)
    assert f.inv(1) == 1
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("q", ALL_Q)
def test_frobenius(q):
    f = GF(q)
    for a in f.elements():
        assert f.pow(a, q) == a


def test_fixed_encodings():
    # GF(3): 2 + 2 = 1, 2 * 2 = 1
    f3 = GF(3)
    assert f3.add(2, 2) == 1
    assert f3.mul(2, 2) == 1
    # GF(2): 1 + 1 = 0
    assert GF(2).add(1, 1) == 0
    # GF(4) with modulus x^2+x+1: x + (x+1) = 1 and x * x = x + 1
    f4 = GF(4)
    x, x1 = 2, 3  # encodings: x -> 2, x+1 -> 3
    assert f4.add(x, x1) == 1
    assert f4.mul(x, x) == x1


@pytest.mark.parametrize("q", EXTENSION_Q)
def test_extension_tables_match_polynomial_oracle(q):
    f = GF(q)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == oracle_add(q, a, b)
            assert f.mul(a, b) == oracle_mul(q, a, b)


@pytest.mark.parametrize("q", ALL_Q)
def test_array_ops_agree_with_tables(q):
    f = GF(q)
    a = np.repeat(np.arange(q, dtype=np.uint8), q)
    b = np.tile(np.arange(q, dtype=np.uint8), q)
    add = f.arr_add(a, b)
    mul = f.arr_mul(a, b)
    sub = f.arr_sub(a, b)
    for i in range(q * q):
        assert add[i] == f.add(int(a[i]), int(b[i]))
        assert mul[i] == f.mul(int(a[i]), int(b[i]))
        assert sub[i] == f.sub(int(a[i]), int(b[i]))
    neg = f.arr_neg(np.arange(q, dtype=np.uint8))
    for i in range(q):
        assert neg[i] == f.neg(i)


def test_invalid_orders_rejected():
    for q in (1, 6, 10, 12, 14, 15, 17, 32):
        with pytest.raises(ValueError):
            GF(q)


def test_out_of_range_elements_rejected():
    f = GF(4)
    with pytest.raises(ValueError):
        f.add(4, 0)
    with pytest.raises(ValueError):
        f.mul(0, 7)


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
    # batched operands on both sides: one dot product per pair
    x = rng.integers(0, q, size=(6, 1, 7), dtype=np.uint8)
    y = rng.integers(0, q, size=(6, 7, 1), dtype=np.uint8)
    got = f.matmul(x, y)
    assert got.shape == (6, 1, 1)
    for i in range(6):
        assert got[i, 0, 0] == oracle_dot(q, x[i, 0].tolist(), y[i, :, 0].tolist())


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
