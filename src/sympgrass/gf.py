"""Arithmetic in GF(q) for prime powers q <= 16.

Elements are integers in [0, q).  For prime q the encoding is the residue
itself; for q = p^e the base-p digits of the encoding are the coefficients
of the element as a polynomial in x, little-endian (digit i = coefficient
of x^i).  Extension fields are built modulo a fixed primitive polynomial
so that encodings are reproducible across runs and file formats:

    q = 4  : x^2 + x + 1
    q = 8  : x^3 + x + 1
    q = 9  : x^2 + x + 2
    q = 16 : x^4 + x + 1

Each modulus makes x a generator of GF(q)*, and GF(p) is taken as
GF(p)[x]/(x - g), g its smallest primitive root, so every multiplication
table is read from the powers of one generator, kept as exp_table:
exp[i] = x^i, one digit shift per power, and a * b = exp[(log a + log b)
mod (q - 1)]; a field whose powers of x miss an element raises
AssertionError.  For every q, x is the smallest encoding that generates
GF(q)*, and the sweep's torus scales by its powers.  Negation is digitwise,
and the inverse is read from the multiplication table.

Scalars are read from the tables: add_table and mul_table, q x q;
neg_table and inv_table, one entry per element (inv_table[0] = 0); and
exp_table, g^0 .. g^(q-2).  Array helpers
(`arr_add` etc.) operate elementwise on numpy arrays of encodings and agree
with the scalar tables entrywise (tested).  In characteristic 2 an encoding
is a vector of GF(2) digits, so addition is one bitwise XOR for q = 2, 4, 8
and 16, negation is a copy, and GF(2) multiplies by one bitwise AND.  Other
prime fields use modular arithmetic, exact in uint8 because (p-1)^2 < 256
for p <= 13, and take no uint8 remainder, which numpy computes several
times slower than a quotient: a sum or a negation is folded back below p by
one wrapping subtraction and a minimum, and a product is reduced by mod_p
(on 6 x 3906 entries over GF(5), a * b % 5 took 63 us and mod_p(a * b)
9 us).  GF(9) adds and every extension field multiplies by a lookup indexed
by the packed byte 16*a + b (a 256-entry table is read several times faster
than a q x q one indexed by two intp arrays), and GF(9) negates by one
np.take from its negation table.  The modular path stays for odd primes
because it is the faster one there: with the table path on GF(3), building
W(4,3) took 12.2 s instead of 6.8 s and 552 MB of peak memory instead of
413 MB (2-core x86, numpy 2.4, one BLAS thread).

`Field.matmul` is the one matrix product, for every q.  An encoding is
already its e base-p digits, and multiplication by a fixed element is an
e x e matrix over GF(p), so a product over GF(p^e) is one float32 BLAS
product of the digit-expanded operands, reduced mod p and recombined; a
prime field is the case e = 1, whose operands are converted to float32 on
both sides.  It takes one right matrix, so that a stacked left operand is
one BLAS call, and expands an extension field's left operand by one np.take
from the digits of x^0 * a, row 0 of the right operand's digit table.
Every entry of the float product is an integer of at most k*e*(p-1)^2 for
inner dimension k, exact below 2^24; larger products raise ValueError.  The
product is reduced in the narrowest unsigned dtype that holds that bound
(uint8 below 2^8, uint16 below 2^16), by & 1 when p = 2.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Each supported order q = p^e: its characteristic p and, for e > 1, the
# coefficients of its modulus (little-endian, degree e last).
_ORDERS = {
    2: (2, None), 3: (3, None), 5: (5, None), 7: (7, None), 11: (11, None), 13: (13, None),
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (2, 1, 1)),
    16: (2, (1, 1, 0, 0, 1)),
}


class Field:
    """GF(q), q a prime power <= 16.  Immutable after construction."""

    def __init__(self, q: int):
        if q not in _ORDERS:
            raise ValueError(f"q={q} is not a prime power <= 16")
        p, modulus = _ORDERS[q]
        e = 1 if modulus is None else len(modulus) - 1
        self.q = q
        self.p = p
        self.e = e
        self.modulus: tuple[int, ...] | None = modulus

        # addition and negation are digitwise mod p
        powers = p ** np.arange(e, dtype=np.uint8)
        digits = np.arange(q, dtype=np.uint8)[:, None] // powers % p
        add = ((digits[:, None, :] + digits[None, :, :]) % p @ powers).astype(np.uint8)
        # GF(p) is GF(p)[x]/(x - g), g its smallest primitive root, so that
        # exp[i] encodes x^i for every q: one shift of the digits per power,
        # with x^e = -(m_0 + ... + m_(e-1) x^(e-1)) folded back in
        if modulus is None:
            g = next(g for g in range(1, q) if len({pow(g, i, q) for i in range(q - 1)}) == q - 1)
            low = np.array([-g])
        else:
            low = np.asarray(modulus[:e])
        power = np.eye(e, dtype=np.intp)[0]
        exp = np.empty(q - 1, dtype=np.uint8)
        for i in range(q - 1):
            exp[i] = power @ powers
            power = (np.concatenate(([0], power[:-1])) - power[-1] * low) % p
        if sorted(exp.tolist()) != list(range(1, q)):
            raise AssertionError(f"x does not generate GF({q})*; bad modulus")
        log = np.zeros(q, dtype=np.intp)
        log[exp] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=np.uint8)
        mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        self.exp_table = exp
        self.add_table = add
        self.mul_table = mul
        self._add_packed = np.zeros(256, dtype=np.uint8)
        self._mul_packed = np.zeros(256, dtype=np.uint8)
        pairs = (np.arange(q)[:, None] << 4 | np.arange(q)[None, :]).ravel()
        self._add_packed[pairs] = add.ravel()
        self._mul_packed[pairs] = mul.ravel()
        self.neg_table = ((p - digits) % p @ powers).astype(np.uint8)
        # the one b with a * b = 1 (0 for a = 0, whose row holds no 1)
        self.inv_table = np.argmax(mul == 1, axis=1).astype(np.uint8)

        # row r of _mul_digits[b] holds the digits of x^r * b (x^r is encoded
        # as p^r); row 0 holds b's own digits, the left operand's expansion
        xb = mul[powers][:, :, None] // powers % p
        self._mul_digits = xb.transpose(1, 0, 2).astype(np.float32)

        for t in (self.exp_table, self.add_table, self.mul_table, self.neg_table, self.inv_table):
            t.setflags(write=False)

    # -- elementwise array ops (uint8 encodings in, uint8 out) ----------

    def arr_add(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if self.p == 2:
            # the encodings' bits are the GF(2) digits, added mod 2
            return np.bitwise_xor(a, b)
        if self.e == 1:
            # encodings are below q, so s = a + b <= 2q - 2 < 256 is exact in
            # uint8, and s - q wraps above s exactly when s < q: the minimum
            # is s mod q, without a division (taken in place unless s is a
            # scalar, so that one temporary is live, as for a uint8 %)
            s = np.add(a, b)
            return np.minimum(s, np.subtract(s, self.q, dtype=np.uint8), out=s if s.ndim else None)
        return np.take(self._add_packed, a << 4 | b)

    def arr_neg(self, a) -> np.ndarray:
        """-a, always a fresh writable array."""
        a = np.asarray(a, dtype=np.uint8)
        if self.p == 2:
            return a.copy()  # in characteristic 2, -a = a
        if self.e == 1:
            # s = q - a is in [1, q], and s - q wraps above s unless s = q
            # (a = 0): the minimum is -a mod q, folded as in arr_add
            s = np.subtract(np.uint8(self.q), a, dtype=np.uint8)
            return np.minimum(s, np.subtract(s, self.q, dtype=np.uint8), out=s if s.ndim else None)
        return np.take(self.neg_table, a)

    def arr_sub(self, a, b) -> np.ndarray:
        return self.arr_add(a, self.arr_neg(b))

    def arr_mul(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if self.q == 2:
            return np.bitwise_and(a, b)
        if self.e == 1:
            return self.mod_p(np.multiply(a, b))  # (q - 1)^2 < 256: exact in uint8
        return np.take(self._mul_packed, a << 4 | b)

    # -- matrix product ------------------------------------------------

    def mod_p(self, x: np.ndarray) -> np.ndarray:
        """x mod p, in place, for an array of non-negative integers.

        numpy divides by a scalar several times faster than it takes a
        remainder (and float32 % is slower still), so this is x - p*(x // p).
        """
        p = x.dtype.type(self.p)
        quot = x // p
        quot *= p
        x -= quot
        return x

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product over GF(q) of uint8 encodings, with np.matmul shapes.

        a is (..., rows, k) and b is (k, cols); other shapes raise ValueError,
        and an empty inner dimension gives zeros.  Every entry of the float32
        product is at most k*e*(p-1)^2, so it is exact while that bound is
        below 2^24, otherwise this raises ValueError, and it is reduced in
        the narrowest unsigned dtype that holds the bound.
        """
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
            raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
        k, n, p, e = a.shape[-1], b.shape[-1], self.p, self.e
        bound = k * e * (p - 1) ** 2
        if bound >= 1 << 24:
            raise ValueError(f"inner dimension {k} is too large for an exact GF({self.q}) product")
        rows = math.prod(a.shape[:-1])  # explicit, as -1 is ambiguous when k = 0
        # a prime-field element is its own single digit, converted several
        # times faster than it is looked up, on either side
        if e == 1:
            a_dig, b_dig = a.astype(np.float32), b.astype(np.float32)
        else:
            a_dig = np.take(self._mul_digits[:, 0], a, axis=0)
            b_dig = self._mul_digits[b].swapaxes(1, 2).reshape(k * e, n * e)
        prod = (a_dig.reshape(rows, k * e) @ b_dig).reshape(*a.shape[:-1], n * e)
        wide = np.uint8 if bound < 1 << 8 else np.uint16 if bound < 1 << 16 else np.uint32
        digits = prod.astype(wide)
        if p == 2:
            digits &= 1
        else:
            self.mod_p(digits)
        digits = digits.astype(np.uint8, copy=False).reshape(*prod.shape[:-1], n, e)
        out = digits[..., e - 1]
        for c in range(e - 2, -1, -1):
            out = out * p + digits[..., c]
        return out

    # -- misc ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def GF(q: int) -> Field:
    """Shared Field instance for a given order (tables built once)."""
    return Field(q)
