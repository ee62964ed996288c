"""Closed-form reference values for the codes W(n,k).

Everything here is evaluated in exact Python integer arithmetic; quotients
assert divisibility so a silent rounding error cannot corrupt an oracle.
These are the formulas the enumeration paths are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod


def _exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem != 0:
        raise ArithmeticError(f"{num} not divisible by {den}")
    return quot


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-subspaces of an m-dimensional space over GF(q)."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return _exact_div(num, den)


def length(n: int, k: int, q: int) -> int:
    """Number of totally isotropic k-subspaces of V(2n, q) = code length N,
    prod_{i<k} (q^(2n-2i) - 1)/(q^(i+1) - 1).  As q^(2m) - 1 = (q^m - 1)(q^m + 1),
    that is the Gaussian binomial [n, k]_q times prod_{i<k} (q^(n-i) + 1)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return gaussian_binomial(n, k, q) * prod(q ** (n - i) + 1 for i in range(k))


def dimension(n: int, k: int) -> int:
    """Code dimension K = C(2n, k) - C(2n, k-2)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)


def dmin_line(n: int, q: int) -> int:
    """Minimum distance of W(n,2): q^(4n-5) - q^(2n-3)."""
    if n < 2:
        raise ValueError("line codes need n >= 2")
    return q ** (4 * n - 5) - q ** (2 * n - 3)


def dmin_dps3(q: int) -> int:
    """Minimum distance of W(3,3): q^6 - q^4."""
    return q**6 - q**4


def n1_max(n: int, q: int) -> int:
    """Largest point count with sigma-perp inside theta-perp, over all theta != sigma."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _exact_div(q ** (2 * n - 2) - 1, q - 1) + _exact_div(q**2 - 1, q - 1)


def eta_max(n: int, q: int) -> int:
    """Largest number of lines isotropic for both forms, over all theta != sigma."""
    if n < 2:
        raise ValueError("need n >= 2")
    num = (
        q ** (4 * n - 3)
        + q ** (4 * n - 4)
        - q ** (4 * n - 5)
        - q ** (2 * n - 1)
        - 2 * q ** (2 * n - 2)
        + q ** (2 * n - 3)
        + 1
    )
    return _exact_div(num, (q - 1) * (q**2 - 1))


def line_identity_rhs(n: int, q: int, n1: int) -> int:
    """Right side of the double-count (q+1)*eta = q^(2n-3)*N1 + (q^2n-1)(q^(2n-3)-1)/(q-1)^2."""
    if n < 2:
        raise ValueError("need n >= 2")
    tail = _exact_div((q ** (2 * n) - 1) * (q ** (2 * n - 3) - 1), (q - 1) ** 2)
    return q ** (2 * n - 3) * n1 + tail


def w22_table(q: int) -> dict[int, int]:
    """Exact weight distribution of W(2,2): three nonzero weights."""
    return {
        0: 1,
        q**3 - q: _exact_div(q**2 * (q**2 + 1) * (q - 1), 2),
        q**3: q**4 - 1,
        q**3 + q: _exact_div(q**2 * (q**2 - 1) * (q - 1), 2),
    }


def w33_table(q: int) -> dict[int, int]:
    """Exact weight distribution of W(3,3): four nonzero weights."""
    return {
        0: 1,
        q**6 - q**4: _exact_div(
            q**2 * (q**2 + 1) * (q**2 + q + 1) * (q**3 + 1) * (q - 1), 2
        ),
        q**6: (q + 1) ** 2 * (q**2 - q + 1) * (q**2 + 1) * (q**6 - q**3 + 1) * (q - 1),
        q**6 + q**3: q**9 * (q**4 - 1) * (q - 1),
        q**6 + q**4: _exact_div(q**2 * (q + 1) * (q**6 - 1) * (q - 1), 2),
    }


def known_table(n: int, k: int, q: int) -> dict[int, int] | None:
    """The proved full weight distribution of W(n,k), where there is one."""
    if k == 1:  # every vector is isotropic, so W(n,1) is the simplex code
        return {0: 1, q ** (2 * n - 1): q ** (2 * n) - 1}
    if (n, k) == (2, 2):
        return w22_table(q)
    if (n, k) == (3, 3):
        return w33_table(q)
    return None


def grassmann_bound_line(n: int, q: int) -> int:
    """Lower bound on d_min(W(n,2)) from the second-highest Grassmann weight.

    The displayed fraction need not be integral in general; we floor toward
    zero (see grassmann_bound_line_exact for the unrounded value).
    """
    value = grassmann_bound_line_exact(n, q)
    return int(value)  # floors toward zero for positive values


def grassmann_bound_line_exact(n: int, q: int) -> Fraction:
    if n < 2:
        raise ValueError("line codes need n >= 2")
    num = (
        q ** (4 * n - 2)
        - 2 * q ** (4 * n - 3)
        + q ** (4 * n - 5)
        + q ** (2 * n - 1)
        - q ** (2 * n - 2)
    )
    return Fraction(num, (q - 1) * (q**2 - 1))


def pz_upper(n: int, q: int) -> int:
    """Upper bound on d_min(W(n,n)): q^(n(n+1)/2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return q ** (n * (n + 1) // 2)


@dataclass(frozen=True)
class CodeParams:
    """Parameters [N, K, d_min] of W(n,k); d_min only where proved."""

    n: int
    k: int
    q: int
    N: int
    K: int
    d_min: int | None

    @property
    def d_min_proved(self) -> bool:
        return self.d_min is not None


def code_params(n: int, k: int, q: int) -> CodeParams:
    """N and K for W(n,k), with d_min filled in for the proved cases."""
    big_n = length(n, k, q)
    big_k = dimension(n, k)
    if k == 1:  # the simplex code
        d: int | None = q ** (2 * n - 1)
    elif k == 2:
        d = dmin_line(n, q)
    elif (n, k) == (3, 3):
        d = dmin_dps3(q)
    else:
        d = None
    if d is not None and not d <= big_n - big_k + 1:
        raise AssertionError("Singleton bound violated; formula error")
    return CodeParams(n, k, q, big_n, big_k, d)
