"""Independent brute-force oracles for freezing expected test values.

Everything here deliberately avoids the package's vectorized code paths:
field arithmetic is naive polynomial arithmetic written from scratch,
subspaces are sets of vectors, determinants use the Leibniz sum, and
weight sweeps walk messages one by one.  The exceptions are the reference
implementations at the end, which use the package's own arithmetic:
rref_reference is the package's earlier row reduction (a nonzero-column
search and an update of the rows with a nonzero factor per pivot), kept as
the reference for linalg.rref; inverse and kernel are built on it, so
count_n1_direct and eigen_analysis, which take other routes than the rank
profile they check, share no row reduction with it;
filter_extend_reference is the earlier isotropy filter (one float product
per candidate), kept as the reference for grassmann._filter_extend;
random_alternating_form_reference is the earlier per-entry draw, kept as
the reference for forms.random_alternating_form;
form_values_reference is the earlier evaluation x G y of a form on each
line's basis pair, kept as the reference for codes.codeword_from_form;
is_totally_isotropic and contains_vector are the definitions that the
pruned enumerations are compared against.  enumerate_subspaces walks every RREF cell with numpy
alone; it shares no code with the package's pruned cell walker.
polar_pencils builds the lines of the polar Grassmannian from the
package's enumerator, for the Plücker embedding's line check.
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


def oracle_proportional_pairs(q, generator):
    """Ordered pairs (i, j), i != j, of nonzero columns with column j equal
    to some scalar times column i; direct comparison of every pair."""
    cols = [list(col) for col in zip(*generator) if any(col)]
    return sum(
        any(b == [oracle_mul(q, lam, x) for x in a] for lam in range(1, q))
        for i, a in enumerate(cols)
        for j, b in enumerate(cols)
        if i != j
    )


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


def is_totally_isotropic(form, basis):
    """True iff the form vanishes on every pair of rows of the (dim, d) basis."""
    f = form.field
    return not f.matmul(f.matmul(basis, form.gram), basis.T).any()


def contains_vector(f, basis, v):
    """True iff the vector v lies in the span of the RREF basis."""
    v = np.asarray(v, dtype=np.uint8).copy()
    for row in basis:
        c = int(np.nonzero(row)[0][0])
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
    f = sigma.field
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    count = 0
    for p in projective_points(f, sigma.dim):
        row = p.reshape(1, -1)
        p_sig = kernel(f, f.matmul(row, sigma.gram.T))
        p_th = kernel(f, f.matmul(row, theta.gram.T))
        if all(contains_vector(f, p_th, v) for v in p_sig):
            count += 1
    return count


def eigen_analysis(sigma, theta):
    """Eigenspaces of M^-1 S, M and S the Gram matrices of sigma and theta,
    found by sweeping all q candidate eigenvalues: the reference for
    forms.eigen_profile.  Returns ((lam, RREF basis), ...) for each
    eigenvalue that occurs, and whether the eigenspaces together span the
    space."""
    f = sigma.field
    if sigma.dim != theta.dim or f != theta.field:
        raise ValueError("forms must live on the same space")
    if not sigma.is_nondegenerate():
        raise ValueError("sigma must be non-degenerate")
    d = sigma.dim
    eye = np.eye(d, dtype=np.uint8)
    m_inv = rref_reference(f, np.concatenate([sigma.gram, eye], axis=1))[0][:, d:]
    a = f.matmul(m_inv, theta.gram)
    pairs = []
    for lam in range(f.q):
        eig = kernel(f, f.arr_sub(a, f.arr_mul(eye, np.uint8(lam))))
        if eig.shape[0] > 0:
            pairs.append((lam, eig))
    bases = [np.zeros((0, d), dtype=np.uint8)] + [basis for _, basis in pairs]
    return tuple(pairs), rref_reference(f, np.concatenate(bases))[1] == d


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
            r_mat[r] = f.arr_mul(r_mat[r], f.inv_table[pv])
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


def random_alternating_form_reference(f, dim, rng):
    """The Gram matrix of forms.random_alternating_form, drawn as it was
    before the one-call draw: one rng.integers call per strictly-upper entry,
    row by row, with its negative below the diagonal."""
    g = np.zeros((dim, dim), dtype=np.uint8)
    for i in range(dim):
        for j in range(i + 1, dim):
            v = int(rng.integers(0, f.q))
            g[i, j] = v
            g[j, i] = f.neg_table[v]
    return g


def form_values_reference(form, bases):
    """x G y for each basis pair (x, y) = bases[j] of an (N, 2, 2n) stack:
    one product of the x rows with the Gram matrix, then a dot product per
    row, summed column by column with the field's addition."""
    f = form.field
    terms = f.arr_mul(f.matmul(bases[:, 0], form.gram), bases[:, 1])  # (N, 2n)
    vals = np.zeros(terms.shape[0], dtype=np.uint8)
    for column in terms.T:
        vals = f.arr_add(vals, column)
    return vals


def filter_extend_reference(f, surv, cands, grams):
    """The package's earlier isotropy filter, kept as the reference for
    grassmann._filter_extend: extend the (B, r, d) frames surv by every row
    of cands orthogonal to all of their rows under every form of the
    (forms, d, d) stack grams, frame by frame in candidate order.

    Column (g, t) of duals is G_g @ cand_t, so row x is orthogonal to cand_t
    under form g iff x @ duals[:, (g, t)] = 0: one float product per frame
    row and candidate, in a single unchunked f.matmul.
    """
    n_surv, r, d = surv.shape
    n_cand = cands.shape[0]
    duals = f.matmul(grams, cands.T).transpose(1, 0, 2).reshape(d, -1)
    vals = f.matmul(surv, duals).reshape(n_surv, r * grams.shape[0], n_cand)
    # OR of the rows x forms slices: zero iff every value is zero
    acc = np.zeros((n_surv, n_cand), dtype=np.uint8)
    for j in range(vals.shape[1]):
        acc = acc | vals[:, j]
    ib, it = np.nonzero(acc == 0)
    return np.concatenate([surv[ib], cands[it][:, None, :]], axis=1)


def inverse(f, m):
    """Inverse of a square matrix, read from the RREF of [m | I]."""
    m = np.asarray(m, dtype=np.uint8)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    aug = np.concatenate([m, np.eye(n, dtype=np.uint8)], axis=1)
    r_mat, _, pivots = rref_reference(f, aug)
    if len(pivots) < n or any(c >= n for c in pivots):
        raise ValueError("matrix is singular")
    return r_mat[:, n:].copy()


def kernel(f, m):
    """RREF basis of the right kernel {x : m x^T = 0}, as a (dim, cols) array."""
    m = np.asarray(m, dtype=np.uint8)
    ncols = m.shape[1]
    r_mat, rk, pivots = rref_reference(f, m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = f.neg_table[r_mat[:rk][:, free]].T
    return rref_reference(f, basis)[0]


def perp(form, basis):
    """RREF basis of {x : form(x, y) = 0 for every row y of basis}."""
    f = form.field
    return kernel(f, f.matmul(basis, form.gram.T))


def _pencil(f, inner, outer):
    """The q + 1 spaces between the RREF bases inner and outer, of ranks r
    and r + 2 with inner inside outer, as a (q+1, r+1, d) stack: inner's rows
    and one point [1, lam] or [0, 1] of PG(1, q) in outer's rows at the
    pivots inner lacks.  Every nonzero vector of a subspace leads at one of
    its pivots, so inner's pivots are among outer's and those two rows
    complete inner to outer."""
    inner_pivots = set((inner != 0).argmax(axis=1).tolist())
    lacks = [i for i, c in enumerate((outer != 0).argmax(axis=1)) if c not in inner_pivots]
    points = np.array([[1, lam] for lam in range(f.q)] + [[0, 1]], dtype=np.uint8)
    extra = f.matmul(points, outer[lacks])[:, None]
    return np.concatenate([np.broadcast_to(inner, (f.q + 1, *inner.shape)), extra], axis=1)


def polar_pencils(n, k, f):
    """Each line of the polar Grassmannian of totally isotropic k-spaces of
    V(2n, q) for the standard form, as a (q+1, k, 2n) stack of member bases.

    A line is a pencil {X : W < X < T}, dim W = k - 1 and dim T = k + 1.
    For k < n, T runs over the isotropic (k+1)-spaces and W = C @ T over
    the (k-1)-spaces of T, with C walked in F^(k+1) under the zero form, so
    each member is [C; v] @ T for v in the pencil of _pencil(C, I).  For
    k = n, W runs over the isotropic
    (n-1)-spaces and T is W's perp.  The members are not canonical bases;
    the rank of their Plücker rows does not depend on that.  For k < n these
    are not all the projective lines inside the embedded point set: a
    pencil with T not isotropic but inside W's perp is one too.  W(3,2) at
    q = 2 has 945 pencils, while its point set holds 2205 lines.
    """
    from sympgrass.forms import isotropic_stack, standard_symplectic
    from sympgrass.grassmann import iter_isotropic_batches

    if k < n:
        if k > 1:  # every subspace is isotropic for the zero form
            zero_form = np.zeros((k + 1, k + 1), dtype=np.uint8)
            inner = np.concatenate(list(iter_isotropic_batches(f, zero_form, k - 1)))
        else:
            inner = np.zeros((1, 0, k + 1), dtype=np.uint8)
        coeffs = [_pencil(f, c, np.eye(k + 1, dtype=np.uint8)) for c in inner]
        for t in isotropic_stack(n, k + 1, f):
            for c in coeffs:
                yield f.matmul(c, t)
        return
    sigma = standard_symplectic(n, f)
    ws = isotropic_stack(n, n - 1, f) if n > 1 else np.zeros((1, 0, 2 * n), dtype=np.uint8)
    for w in ws:
        yield _pencil(f, w, perp(sigma, w))


def polar_line_count(n, k, q):
    """The number of lines polar_pencils(n, k, GF(q)) yields, in closed form."""
    from sympgrass import formulas

    if k == n:
        return formulas.length(n, n - 1, q) if n >= 2 else 1
    return formulas.length(n, k + 1, q) * formulas.gaussian_binomial(k + 1, k - 1, q)
