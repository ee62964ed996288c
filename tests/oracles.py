"""Independent brute-force oracles for freezing expected test values.

Everything here deliberately avoids the package's vectorized code paths:
field arithmetic is naive polynomial arithmetic written from scratch,
subspaces are sets of vectors, determinants use the Leibniz sum, and
weight sweeps walk messages one by one.  The exceptions are the reference
implementations at the end, which use the package's own arithmetic:
rref_reference is the package's earlier row reduction (a nonzero-column
search and an update of the rows with a nonzero factor per pivot), kept as
the reference for linalg.rref; count_n1_direct and eigen_analysis take
other routes through its linear algebra than the rank profile they check,
and is_totally_isotropic and
contains_vector are the definitions that the pruned enumerations are
compared against.  enumerate_subspaces walks every RREF cell with numpy
alone; it shares no code with the package's pruned cell walker.
"""

from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np

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


@lru_cache(maxsize=None)  # at most q*q entries per field; the sweeps call it millions of times
def oracle_add(q, a, b):
    p = ORACLE_CHAR[q]
    if q == p:
        return (a + b) % p
    e = {4: 2, 8: 3, 9: 2, 16: 4}[q]
    da, db = _digits(a, p, e), _digits(b, p, e)
    return _undigits([(x + y) % p for x, y in zip(da, db)], p)


@lru_cache(maxsize=None)
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
    """Leibniz determinant of any size: the reference for the Plücker minors."""
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


def is_totally_isotropic(form, s):
    """True iff the form vanishes on every pair of basis vectors of the Subspace s."""
    f = form.field
    if s.dim == 0:
        return True
    vals = f.matmul(f.matmul(s.basis, form.gram), s.basis.T)
    return not vals.any()


def contains_vector(s, v):
    """True iff the vector v lies in the Subspace s (reduced against its RREF basis)."""
    f = s.field
    v = np.asarray(v, dtype=np.uint8).copy()
    pivots = [int(np.nonzero(row)[0][0]) for row in s.basis]
    for row, c in zip(s.basis, pivots):
        if v[c]:
            v = f.arr_sub(v, f.arr_mul(row, v[c]))
    return not v.any()


_BATCH_ROWS = 1 << 18  # matrices per batch of a Schubert cell


def _cell_batches(q, pivots, d):
    """All RREF k x d matrices with the given pivot columns, in (B, k, d)
    batches of at most _BATCH_ROWS; the free entries, row-major, are the
    base-q digits of a counter, first entry fastest."""
    pset = set(pivots)
    slots = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, d) if j not in pset]
    rows_idx = np.array([s[0] for s in slots], dtype=np.intp)
    cols_idx = np.array([s[1] for s in slots], dtype=np.intp)
    powers = q ** np.arange(len(slots), dtype=np.int64)
    total = q ** len(slots)
    for start in range(0, total, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, total)
        mats = np.zeros((stop - start, len(pivots), d), dtype=np.uint8)
        mats[:, np.arange(len(pivots)), list(pivots)] = 1
        if slots:
            idx = np.arange(start, stop, dtype=np.int64)[:, None]
            mats[:, rows_idx, cols_idx] = (idx // powers % q).astype(np.uint8)
        yield mats


def enumerate_subspaces(ambient_dim, k, field):
    """Each k-subspace of V(ambient_dim, q) exactly once, as (B, k, d) batches
    of canonical RREF bases: every pivot pattern in lex order, every value of
    its free entries, no filter."""
    if not 0 <= k <= ambient_dim:
        raise ValueError(f"need 0 <= k <= ambient_dim, got k={k}, d={ambient_dim}")
    if k == 0:
        yield np.zeros((1, 0, ambient_dim), dtype=np.uint8)
        return
    for pivots in combinations(range(ambient_dim), k):
        yield from _cell_batches(field.q, pivots, ambient_dim)


def projective_points(field, d):
    """The normalized points of PG(d - 1, q), one per row."""
    return np.concatenate([batch[:, 0] for batch in enumerate_subspaces(d, 1, field)])


def count_n1_direct(sigma, theta):
    """Independent N1 count: compare the two perp subspaces point by point."""
    from sympgrass.linalg import kernel

    f = sigma.field
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    count = 0
    for p in projective_points(f, sigma.dim):
        row = p.reshape(1, -1)
        p_sig = kernel(f, f.matmul(row, sigma.gram.T))
        p_th = kernel(f, f.matmul(row, theta.gram.T))
        if all(contains_vector(p_th, row) for row in p_sig.basis):
            count += 1
    return count


def eigen_analysis(sigma, theta):
    """Eigenspaces of M^-1 S, M and S the Gram matrices of sigma and theta,
    found by sweeping all q candidate eigenvalues: the reference for
    forms.eigen_profile.  Returns ((lam, Subspace), ...) for each eigenvalue
    that occurs, and whether the eigenspaces together span the space."""
    from sympgrass.linalg import inverse, kernel, rank

    f = sigma.field
    if sigma.dim != theta.dim or f != theta.field:
        raise ValueError("forms must live on the same space")
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    a = f.matmul(inverse(f, sigma.gram), theta.gram)
    d = sigma.dim
    pairs = []
    for lam in f.elements():
        eig = kernel(f, f.arr_sub(a, f.arr_mul(np.eye(d, dtype=np.uint8), np.uint8(lam))))
        if eig.dim > 0:
            pairs.append((lam, eig))
    bases = [np.zeros((0, d), dtype=np.uint8)] + [s.basis for _, s in pairs]
    return tuple(pairs), rank(f, np.concatenate(bases)) == d


def rref_reference(f, m):
    """Reduced row echelon form.  Returns (R, rank, pivot_columns)."""
    r_mat = np.array(m, dtype=np.uint8, copy=True)
    if r_mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = r_mat.shape
    pivots: list[int] = []
    r = 0
    c0 = 0
    while r < nrows and c0 < ncols:
        nz = np.nonzero(r_mat[r:, c0:].any(axis=0))[0]
        if nz.size == 0:
            break
        c = c0 + int(nz[0])
        i = r + int(np.nonzero(r_mat[r:, c])[0][0])
        if i != r:
            r_mat[[r, i]] = r_mat[[i, r]]
        pv = int(r_mat[r, c])
        if pv != 1:
            r_mat[r] = f.arr_mul(r_mat[r], np.uint8(f.inv(pv)))
        others = np.nonzero(r_mat[:, c])[0]
        others = others[others != r]
        if others.size:
            factors = r_mat[others, c]
            r_mat[others] = f.arr_sub(
                r_mat[others], f.arr_mul(factors[:, None], r_mat[r][None, :])
            )
        pivots.append(c)
        r += 1
        c0 = c + 1
    return r_mat, len(pivots), pivots
