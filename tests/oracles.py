"""Independent brute-force oracles for freezing expected test values.

Everything here deliberately avoids the package's vectorized code paths:
field arithmetic is naive polynomial arithmetic written from scratch,
subspaces are sets of vectors, determinants use the Leibniz sum, and
weight sweeps walk messages one by one.  The one exception is
count_n1_direct, which takes a different route through the package's own
linear algebra than the eigenspace count it checks.
"""

from itertools import combinations, permutations, product

# same fixed moduli as the package contract (little-endian coefficients)
ORACLE_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 1, 1),
    16: (1, 1, 0, 0, 1),
}

ORACLE_CHAR = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3, 11: 11, 13: 13, 16: 2}


def _digits(v, p, e):
    out = []
    for _ in range(e):
        out.append(v % p)
        v //= p
    return out


def _undigits(ds, p):
    out = 0
    for d in reversed(ds):
        out = out * p + d
    return out


def oracle_add(q, a, b):
    p = ORACLE_CHAR[q]
    if q == p:
        return (a + b) % p
    e = {4: 2, 8: 3, 9: 2, 16: 4}[q]
    da, db = _digits(a, p, e), _digits(b, p, e)
    return _undigits([(x + y) % p for x, y in zip(da, db)], p)


def oracle_mul(q, a, b):
    p = ORACLE_CHAR[q]
    if q == p:
        return (a * b) % p
    e = {4: 2, 8: 3, 9: 2, 16: 4}[q]
    mod = ORACLE_MODULI[q]
    da, db = _digits(a, p, e), _digits(b, p, e)
    prod = [0] * (2 * e - 1)
    for i, ca in enumerate(da):
        for j, cb in enumerate(db):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    # long division by the modulus (x^e + mod[e-1] x^{e-1} + ... + mod[0])
    for d in range(2 * e - 2, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(e):
                prod[d - e + j] = (prod[d - e + j] - c * mod[j]) % p
    return _undigits(prod[:e], p)


def oracle_neg(q, a):
    for b in range(q):
        if oracle_add(q, a, b) == 0:
            return b
    raise AssertionError


def oracle_sub(q, a, b):
    return oracle_add(q, a, oracle_neg(q, b))


def oracle_dot(q, x, y):
    acc = 0
    for a, b in zip(x, y):
        acc = oracle_add(q, acc, oracle_mul(q, a, b))
    return acc


def oracle_matvec(q, m, v):
    return tuple(oracle_dot(q, row, v) for row in m)


def oracle_bilinear(q, gram, x, y):
    return oracle_dot(q, oracle_matvec(q, gram, y), x)


def oracle_det(q, mat):
    """Leibniz determinant, any size (used for m <= 4)."""
    m = len(mat)
    total = 0
    for perm in permutations(range(m)):
        sign_neg = _perm_parity(perm)
        term = 1
        for i in range(m):
            term = oracle_mul(q, term, mat[i][perm[i]])
        total = oracle_sub(q, total, term) if sign_neg else oracle_add(q, total, term)
    return total


def _perm_parity(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return inv % 2 == 1


def all_vectors(q, d):
    return list(product(range(q), repeat=d))


def span_of(q, rows, d):
    """The full set of vectors spanned by the given rows (frozen set)."""
    vecs = {tuple([0] * d)}
    for row in rows:
        new = set()
        for v in vecs:
            for lam in range(q):
                new.add(tuple(oracle_add(q, v[i], oracle_mul(q, lam, row[i])) for i in range(d)))
        vecs = new
    return frozenset(vecs)


def oracle_subspaces(q, d, k):
    """All k-subspaces of GF(q)^d as frozensets of vectors.  Tiny cases only."""
    nonzero = [v for v in all_vectors(q, d) if any(v)]
    spans = set()
    for rows in combinations(nonzero, k):
        s = span_of(q, rows, d)
        if len(s) == q**k:
            spans.add(s)
    return spans


def standard_gram(n, q):
    g = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        g[i][n + i] = 1
        g[n + i][i] = oracle_neg(q, 1)
    return g


def is_isotropic_span(q, gram, span):
    return all(oracle_bilinear(q, gram, x, y) == 0 for x in span for y in span)


def oracle_isotropic_count(n, k, q):
    gram = standard_gram(n, q)
    return sum(
        1 for s in oracle_subspaces(q, 2 * n, k) if is_isotropic_span(q, gram, s)
    )


def oracle_weight_enumerator(q, generator):
    """Sweep all q^K messages one by one; pure python arithmetic."""
    big_k = len(generator)
    big_n = len(generator[0])
    dist = {}
    for msg in product(range(q), repeat=big_k):
        cw = [0] * big_n
        for m, row in zip(msg, generator):
            if m:
                for j in range(big_n):
                    cw[j] = oracle_add(q, cw[j], oracle_mul(q, m, row[j]))
        w = sum(1 for x in cw if x)
        dist[w] = dist.get(w, 0) + 1
    return dist


def oracle_weight_enumerator_gf2(generator_rows_as_ints, big_n):
    """GF(2) sweep with int bitmasks (independent of the numpy packing)."""
    big_k = len(generator_rows_as_ints)
    dist = {}
    for msg in range(1 << big_k):
        cw = 0
        m = msg
        i = 0
        while m:
            if m & 1:
                cw ^= generator_rows_as_ints[i]
            m >>= 1
            i += 1
        w = bin(cw).count("1")
        dist[w] = dist.get(w, 0) + 1
    return dist


def oracle_common_isotropic_lines(q, gram_s, gram_t):
    """eta by brute force: pairs of distinct projective points on which both
    forms vanish, divided by the C(q+1, 2) such pairs on each common line."""
    d = len(gram_s)
    points = [v for v in all_vectors(q, d) if any(v) and next(x for x in v if x) == 1]
    pairs = sum(
        1
        for x, y in combinations(points, 2)
        if oracle_bilinear(q, gram_s, x, y) == 0 and oracle_bilinear(q, gram_t, x, y) == 0
    )
    per_line = q * (q + 1) // 2
    assert pairs % per_line == 0
    return pairs // per_line


def count_n1_direct(sigma, theta):
    """Independent N1 count: compare the two perp subspaces point by point."""
    from sympgrass.linalg import kernel, projective_points_array

    f = sigma.field
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    count = 0
    for p in projective_points_array(f, sigma.dim):
        row = p.reshape(1, -1)
        p_sig = kernel(f, f.matmul(row, sigma.gram.T))
        p_th = kernel(f, f.matmul(row, theta.gram.T))
        if p_th.contains_subspace(p_sig):
            count += 1
    return count
