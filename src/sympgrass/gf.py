"""Arithmetic in GF(q) for prime powers q <= 16.

Elements are integers in [0, q).  For prime q the encoding is the residue
itself; for q = p^e the base-p digits of the encoding are the coefficients
of the element as a polynomial in x, little-endian (digit i = coefficient
of x^i).  Extension fields are built modulo a fixed irreducible polynomial
so that encodings are reproducible across runs and file formats:

    q = 4  : x^2 + x + 1
    q = 8  : x^3 + x + 1
    q = 9  : x^2 + x + 2
    q = 16 : x^4 + x + 1

Scalar arithmetic is table-driven (full q x q tables).  Array helpers
(`arr_add` etc.) operate elementwise on numpy arrays of encodings; for
prime fields they use modular arithmetic, for extension fields table
lookups.  Both agree with the scalar tables entrywise (tested).  The
modular path stays exact in uint8 because (p-1)^2 < 256 for p <= 13.  Both
elementwise paths stay because each is the faster one on its fields: with
the table path on GF(3), building W(4,3) took 12.2 s instead of 6.8 s and
552 MB of peak memory instead of 413 MB (2-core x86, numpy 2.4, one BLAS
thread).

`Field.matmul` is the one matrix product, for every q.  An encoding is
already its e base-p digits, and multiplication by a fixed element is an
e x e matrix over GF(p), so a product over GF(p^e) is one float32 BLAS
product of the digit-expanded operands, reduced mod p and recombined; a
prime field is the case e = 1.  Every entry of the float product is an
integer of at most k*e*(p-1)^2 for inner dimension k, exact below 2^24;
larger products raise ValueError.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Irreducible polynomial coefficients (little-endian, degree e last), per q.
_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 1, 1),
    16: (1, 1, 0, 0, 1),
}

_PRIMES = (2, 3, 5, 7, 11, 13)


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in _PRIMES:
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m == 1:
                return p, e
            break
    raise ValueError(f"q={q} is not a prime power <= 16")


def _poly_mul_mod(a: int, b: int, p: int, e: int, modulus: tuple[int, ...] | None) -> int:
    """Multiply two elements in digit encoding, reducing mod the fixed polynomial
    (for e = 1 there is nothing to reduce and this is a * b mod p)."""
    da = []
    m = a
    for _ in range(e):
        da.append(m % p)
        m //= p
    db = []
    m = b
    for _ in range(e):
        db.append(m % p)
        m //= p
    prod = [0] * (2 * e - 1)
    for i, ca in enumerate(da):
        if ca:
            for j, cb in enumerate(db):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce: x^e = -(modulus[0] + ... + modulus[e-1] x^{e-1})
    for d in range(2 * e - 2, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(e):
                prod[d - e + j] = (prod[d - e + j] - c * modulus[j]) % p
    out = 0
    for d in range(e - 1, -1, -1):
        out = out * p + prod[d]
    return out


class Field:
    """GF(q), q a prime power <= 16.  Immutable after construction."""

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        if q > 16:
            raise ValueError(f"q={q} exceeds the supported range (q <= 16)")
        self.q = q
        self.p = p
        self.e = e
        self.modulus: tuple[int, ...] | None = _MODULI[q] if e > 1 else None

        # addition is digitwise mod p
        self._powers = p ** np.arange(e, dtype=np.uint8)
        digits = np.arange(q, dtype=np.uint8)[:, None] // self._powers % p
        add = ((digits[:, None, :] + digits[None, :, :]) % p @ self._powers).astype(np.uint8)
        mul = np.array(
            [[_poly_mul_mod(a, b, p, e, self.modulus) for b in range(q)] for a in range(q)],
            dtype=np.uint8,
        )
        self.add_table = add
        self.mul_table = mul

        neg = np.zeros(q, dtype=np.uint8)
        for a in range(q):
            for b in range(q):
                if add[a, b] == 0:
                    neg[a] = b
                    break
        self.neg_table = neg

        inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            for b in range(1, q):
                if mul[a, b] == 1:
                    inv[a] = b
                    break
            else:
                raise AssertionError(f"no inverse for {a} in GF({q}); bad modulus")
        self.inv_table = inv

        # row r of _mul_digits[b] holds the digits of x^r * b (x^r is encoded as p^r)
        xb = mul[self._powers][:, :, None] // self._powers % p
        self._mul_digits = xb.transpose(1, 0, 2).astype(np.float32)

        for t in (self.add_table, self.mul_table, self.neg_table, self.inv_table):
            t.setflags(write=False)

    # -- scalar ops ----------------------------------------------------

    def _check(self, *vals: int) -> None:
        for v in vals:
            if not 0 <= v < self.q:
                raise ValueError(f"{v} is not an element encoding of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, self.neg_table[b]])

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in GF({self.q})")
        return int(self.inv_table[a])

    def pow(self, a: int, m: int) -> int:
        self._check(a)
        if m < 0:
            a, m = self.inv(a), -m
        out = 1
        while m:
            if m & 1:
                out = int(self.mul_table[out, a])
            a = int(self.mul_table[a, a])
            m >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)

    # -- elementwise array ops (uint8 encodings in, uint8 out) ----------

    def arr_add(self, a, b) -> np.ndarray:
        if self.e == 1:
            return ((np.asarray(a, dtype=np.uint8) + np.asarray(b, dtype=np.uint8)) % self.q).astype(np.uint8)
        return self.add_table[np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)]

    def arr_neg(self, a) -> np.ndarray:
        return self.neg_table[np.asarray(a, dtype=np.intp)]

    def arr_sub(self, a, b) -> np.ndarray:
        return self.arr_add(a, self.arr_neg(b))

    def arr_mul(self, a, b) -> np.ndarray:
        if self.e == 1:
            prod = np.asarray(a, dtype=np.uint8) * np.asarray(b, dtype=np.uint8)
            return (prod % self.q).astype(np.uint8)
        return self.mul_table[np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)]

    # -- matrix product ------------------------------------------------

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product over GF(q) of uint8 encodings, with np.matmul shapes.

        Both operands must be at least 2-d.  The float32 product is exact
        while k*e*(p-1)^2 < 2^24 (k the inner dimension); otherwise this
        raises ValueError.
        """
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
        k, n, p, e = a.shape[-1], b.shape[-1], self.p, self.e
        if k * e * (p - 1) ** 2 >= 1 << 24:
            raise ValueError(f"inner dimension {k} is too large for an exact GF({self.q}) product")
        a_dig = (a[..., None] // self._powers % p).reshape(*a.shape[:-1], k * e)
        b_dig = np.swapaxes(self._mul_digits[b], -3, -2).reshape(*b.shape[:-2], k * e, n * e)
        if b.ndim == 2:  # one BLAS product for a stacked left operand
            prod = (a_dig.reshape(-1, k * e).astype(np.float32) @ b_dig).reshape(
                *a.shape[:-1], n * e
            )
        else:
            prod = np.matmul(a_dig.astype(np.float32), b_dig)
        # float32 % is several times slower than an integer % of the same values
        digits = (prod.astype(np.uint32) % np.uint32(p)).astype(np.uint8)
        digits = digits.reshape(*prod.shape[:-1], n, e)
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
