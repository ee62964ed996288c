"""Projective codes from the Plücker point set, with exact exhaustive sweeps.

W(n,k) is the span of the coordinate functionals on the point set, the
columns of the N x C(2n,k) Plücker matrix pl.  Its generator is those
functionals at the lex-first basis P of pl's column space, pl[:, P].T,
moved in place to the first K rows of the minor-major array behind pl; it
is not systematic, and pl is never row-reduced whole (pivot_generator).  A
stride sample of pl's rows gives P and the relation pl[:, not P] =
pl[:, P] @ X, checked on all N rows by 1 to 5 uint8 row operations per
column, exact with no float bound (0.02 s for the six bench builds on a
2-core x86); a row that breaks it joins the sample, so K = |P| is exact.

Weight enumeration has one engine for every q, a count-vector transform
(_transform_histogram) of float32 products, exact while N < 2^24, over one
block of messages per orbit of its high digits, counted by the orbit's
size.  The group is the scalars and, for a built code over GF(q), q > 2,
the diagonal torus diag(t, t^-1) of Sp(2n, q), which permutes the point set
and scales each Plücker coordinate by a character; each torus generator is
checked to permute the columns before its character is used.  Each stage
runs along its own digits of two reused buffers, no digit moves, and a
block's zero counts are sorted in place and binned by runs; over GF(2) one
signed count channel goes through +-1 stages.  Every distribution is
checked against q^K words, the scalar rule and the first two power
moments, and a code built from the point set must be projective
(weight_enumerator).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .forms import AlternatingForm, isotropic_stack
from .gf import Field
from .grassmann import k_subsets, plucker_batch
from .linalg import rref, write_matrix_text


@dataclass
class WeightEnumerator:
    """Exact map weight -> codeword count, zero word included at weight 0."""

    distribution: dict[int, int]

    @staticmethod
    def from_histogram(hist: np.ndarray) -> "WeightEnumerator":
        weights = np.flatnonzero(hist)
        return WeightEnumerator(dict(zip(weights.tolist(), hist[weights].tolist())))

    @property
    def d_min(self) -> int:
        return min(w for w, c in self.distribution.items() if w > 0 and c > 0)

    def total(self) -> int:
        return sum(self.distribution.values())


@dataclass(eq=False)
class LinearCode:
    """A linear [N, K] code over GF(q) with its generator matrix.

    For codes built from the symplectic Grassmannian, (n, k) records the
    origin and plucker_map holds R = rref(pl)[:K], the K x C(2n,k) map with
    pl = generator.T @ R: the functional t on the Plücker vectors is the
    message R t."""

    field: Field
    n: int | None
    k: int | None
    N: int
    K: int
    generator: np.ndarray
    plucker_map: np.ndarray | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.generator.shape != (self.K, self.N):
            raise ValueError("generator shape must be (K, N)")
        self.generator.setflags(write=False)
        if self.plucker_map is not None:
            self.plucker_map.setflags(write=False)

    def __repr__(self) -> str:
        origin = f"W({self.n},{self.k}) " if self.n is not None else ""
        return f"LinearCode({origin}[{self.N},{self.K}] over GF({self.field.q}))"


def build_code(n: int, k: int, field: Field) -> LinearCode:
    """The code W(n,k): span of the coordinate functionals on the point set."""
    pl = plucker_batch(field, isotropic_stack(n, k, field))
    pivots, plucker_map = pivot_generator(field, pl)
    minors = pl.T  # row P_i moves to row i, which no later pivot reads: P_j >= j
    for i, c in enumerate(pivots.tolist()):
        if c != i:
            minors[i] = minors[c]
    return LinearCode(field=field, n=n, k=k, N=pl.shape[0], K=pivots.size,
                      generator=minors[: pivots.size], plucker_map=plucker_map)


def pivot_generator(f: Field, pl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, R): the pivot columns P of rref(pl) (intp), the lex-first basis
    of pl's column space, and R = rref(pl)[:K], so that pl = pl[:, P] @ R.

    A stride sample of about 4 * width rows of pl is row-reduced; its pivots
    P and relation X = RREF[:, not P] give each sampled row as pl[i, c] =
    sum_j X[j, c] pl[i, P_j], c not in P.  Each such column c is checked on
    all N rows, a row of the minor-major pl.T, by f.arr_mul (skipped where
    X[j, c] = 1) and f.arr_add: exact in uint8 with no float bound, one pass
    per term and one per column.  The codes measured have 1 to 5 terms a
    column (W(4,3) q=3: 8 columns, 16 terms; W(5,4) q=2: 45, 97; W(5,5)
    q=2: 120, 140): 0.02 s for the six bench builds, against 0.2 s for a
    chunked float32 product (2-core x86).  The first failing row joins
    the sample, whose rank it must raise (else AssertionError: a faulty
    check or rref).  Once every row passes, the sample spans pl's row space:
    K = |P| exactly, P is rref(pl)'s whatever the sample, and the sample's
    reduced rows are R.  At |P| = width there is nothing to check.
    """
    n_rows, width = pl.shape
    minors = pl.T
    # distinct rows: their spacing is at least 1
    sample = np.linspace(0, n_rows - 1, min(n_rows, 4 * width), dtype=np.intp)
    last_rank = -1
    while True:
        reduced, rk, pivots = rref(f, pl[sample])
        if rk <= last_rank:
            raise AssertionError(f"row {row} breaks the relation but left the rank at {rk} "
                                 f"(was {last_rank})")
        row, last_rank = n_rows, rk
        for c in np.delete(np.arange(width), pivots).tolist():
            total = None
            for j in np.flatnonzero(reduced[:rk, c]).tolist():
                x, term = reduced[j, c], minors[pivots[j]]
                term = term if x == 1 else f.arr_mul(term, x)
                total = term if total is None else f.arr_add(total, term)
            wrong = np.flatnonzero(minors[c] != (0 if total is None else total))
            row = min([row, *wrong[:1].tolist()])
        if row == n_rows:
            return np.asarray(pivots, dtype=np.intp), reduced[:rk].copy()
        sample = np.insert(sample, np.searchsorted(sample, row), row)


# ---------------------------------------------------------------------------
# the weight engine: the count-vector transform


def _run_tasks(run, tasks, threads: int) -> np.ndarray:
    """Sum of the histograms run(chunk) over chunks of tasks, shared over threads."""
    if threads <= 1 or len(tasks) < 2:
        return run(tasks)
    n_chunks = min(len(tasks), threads * 4)
    bounds = np.linspace(0, len(tasks), n_chunks + 1, dtype=int)
    chunks = [tasks[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(run, chunks))


_TRANSFORM_BLOCK = 1 << 18  # float32 entries of one block of F (at most 2^20)
_RADIX = {2: 4, 3: 2, 4: 2}  # digits per stage, measured (_transform_histogram); 1 otherwise


@lru_cache(maxsize=None)
def _stage_matrix(f: Field, s: int) -> np.ndarray:
    """The float32 matrix of one stage over s digits, m and u base-q numbers
    with the first digit most significant: over GF(2) H[m, u] = (-1)^(m.u),
    side 2^s; else M[(m, c'), (c, u)] = [c' = c + m.u], side q^(s+1)."""
    q = f.q
    digits = np.arange(q**s)[:, None] // q ** np.arange(s - 1, -1, -1) % q
    dot = f.matmul(digits, digits.T)  # dot[m, u] = m.u
    if q == 2:
        mat = 1 - 2 * dot.astype(np.float32)
    else:
        m, c, u = np.ix_(np.arange(q**s), np.arange(q), np.arange(q**s))
        mat = np.zeros((q**s, q, q, q**s), dtype=np.float32)
        mat[m, f.add_table[c, dot[:, None, :]], c, u] = 1
        mat = mat.reshape(q ** (s + 1), q ** (s + 1))
    mat.setflags(write=False)
    return mat


def _transform_digits(q: int, big_k: int, big_n: int) -> tuple[int, int]:
    """(t, b): the last t generator rows are transformed, and a block holds
    q^b values of the rows before them, with q^(b+t+1) <= _TRANSFORM_BLOCK
    (a block of F has q^(b+t) ch entries, ch = 1 over GF(2)).  t is the
    smallest with q^t >= 4N, capped by K and the block: the direct tally
    then costs at most a quarter of a column per message, and each further
    inner digit would add a fraction of a stage."""
    top = 0
    while q ** (top + 2) <= _TRANSFORM_BLOCK:
        top += 1
    t = min(big_k, top)
    while t > 0 and q ** (t - 1) >= 4 * big_n:
        t -= 1
    return t, min(big_k - t, top - t)


@lru_cache(maxsize=None)
def _primitive_powers(f: Field) -> np.ndarray:
    """g^0 .. g^(q-2) for the smallest encoding g that generates GF(q)*."""
    for g in range(1, f.q):
        powers = [1]
        for _ in range(f.q - 2):
            powers.append(int(f.mul_table[powers[-1], g]))
        if len(set(powers)) == f.q - 1:
            return np.array(powers, dtype=np.intp)
    raise AssertionError(f"GF({f.q})* has no generator")


def _block_orbits(f: Field, exps: np.ndarray) -> list[tuple[int, int]]:
    """(block id, orbit size) for each orbit of H on the q^high patterns of
    high digits, high = len(exps), id the base-q number with the first digit
    most significant and the smallest id of its orbit; the sizes sum to
    q^high.  H multiplies digit i by g^(c + <exps[i], x>) over all c and x,
    g = _primitive_powers(f)[1]: generated by the scalar g (c = 1) and one
    element per column of exps.  A label starts as the pattern's own id and
    is lowered, one generator h at a time, to min_b label[h^b x], b < q - 1,
    which is the smallest id over the orbit of the generators so far (H is
    abelian); h as a permutation of the ids is an outer sum over the digits."""
    q, high = f.q, exps.shape[0]
    powers = _primitive_powers(f)
    label = np.arange(q**high, dtype=np.intp)
    for e in np.concatenate([np.ones((high, 1), dtype=np.int64), exps], axis=1).T:
        mult = powers[e % (q - 1)]
        if np.all(mult == 1):
            continue
        perm = np.zeros(1, dtype=np.intp)
        for i in range(high):
            perm = (perm[:, None] * q + f.mul_table[mult[i]]).ravel()
        image = perm
        for _ in range(q - 2):
            np.minimum(label, label[image], out=label)
            image = perm[image]
    ids, sizes = np.unique(label, return_counts=True)
    return list(zip(ids.tolist(), sizes.tolist()))


def _transform_histogram(f: Field, gen: np.ndarray, threads: int,
                         exps: np.ndarray) -> np.ndarray:
    """Exact weight histogram (length N+1 int64) of all q^K messages of gen.

    F(m, c) counts the columns g with m.g = c, so message m weighs
    N - F(m, 0).  The last t generator rows are the inner digits u of a
    column and the rows before them the outer digits.  For each outer
    value, the columns are tallied by (c, u), c the outer value's dot
    product with the column, into ch = q channels just before the inner
    digits; a block stacks q^b outer values.  The inner digits are then
    transformed s at a time, first digits first, each stage one product
    with M = _stage_matrix(f, s) along its own axis of the block viewed as
    (a, ch q^s, after): the digits before the stage's, its channel and
    digits, those after.  M[(m, c'), (c, u)] puts the channel after the
    stage's digits, next to the next stage's, so no digit moves, and each
    product is written into the other of two buffers that run() allocates
    once.  The last stage is one 2-d product on the right with the c' = 0
    columns of M.  Over GF(2) ch = 1: D(u) = F(u, 0) - F(u, 1) is tallied
    by np.add.at with weights +-1, M is the symmetric +-1 matrix H, and
    F(m, 0) = (N + D(m))/2 is counted in bin N + D.  Every entry of F or D,
    of a product and of its partial sums, in any stage order, is a sum
    (signed over GF(2)) of counts of disjoint column sets, so it is an
    integer of magnitude at most N, and the float32 arithmetic is exact
    while N < 2^24; so is the even N + D(m).  The zero counts, a view into
    a buffer the next block overwrites, are sorted in place, and each run
    of one value (-0.0 joins 0.0) adds size times its length to one bin.
    Sorting the 2^17 values of a block of the bench's GF(2) job (6 to 8
    distinct) took 0.14-0.21 ms, against 0.36-0.40 ms to add N, cast to
    intp and np.bincount, whose increments serialise on a few bins.

    Stages of _RADIX digits, the short stage first (the last, 2-d, product
    is fastest at full side), measured with one BLAS thread on a 2-core
    x86: the bench's GF(2) job (24 rows of W(4,2), t = 15, b = 2; 3, 4, 4,
    4 digits) took 79-86 ms, against 89-108 ms at radix 3, 5 or 6 and
    135-147 ms with the digits rotated after each stage.  W(3,3) q=3
    (t = 8) took 35-37 ms at radix 2, 52-55 ms at radix 3, whose middle
    stage is 81 products of 81 x 81 by 81 x 9, and 55-58 ms rotated;
    W(3,2) q=3 (t = 9) 35-38 ms with the short stage first, 60-65 ms last.
    W(3,3) q=4 took 2.10-2.26 s at radix 2, 2.59 s at radix 1 and 2.51-2.71
    s rotated.  From q = 5 on radix 1 was fastest (W(2,2) q=8: 1.7 ms, 2.8
    ms at radix 2); W(2,2) q=16's middle stage, 16 products of 256 x 256
    by 256 x 16, costs it 13.7 -> 15.9 ms against rotation.  Channel-last
    tallies, the stages run from the last digits, took 37-39 ms on W(3,3)
    q=3 against 35-37 ms.

    Block i holds the messages whose first high = K - t - b digits are the
    base-q digits of i.  exps (K x n or K x 0, _torus_exponents) are the
    characters: (c, x) scales message digit i by g^(c + <exps[i], x>), and
    weight_enumerator's _check_torus has proved that m and every such scaling
    of m weigh the same.  A scaling maps block i onto the block of its scaled
    high digits, the low digits one to one, so the two have one histogram.
    Each orbit of the scalings on the high digits (_block_orbits) is
    transformed once, at its smallest id, and its histogram counted times the
    orbit's size; the list of (id, size) is shared over threads.  With width 0
    the orbits are the scalars': block 0 and the lead blocks [q^j, 2 q^j),
    j < high, of size q - 1.  Scalar -> torus orbits, one BLAS thread on a
    2-core x86: W(3,3) q=3 41 -> 20 blocks, 37-39 -> 19-20 ms; W(2,2) q=16
    18 -> 4, 17-21 -> 5.4-5.5 ms; W(3,3) q=4 1366 -> 104, 2.2-2.3 -> 0.18 s.
    W(3,3) q=5 (3250 orbits of 5^8 patterns) sweeps in 2.3-2.6 s and W(3,2)
    q=5 (3404) in 11.1-11.4 s, against about 340 s estimated for the scalar
    list.  The orbit step took 0.1-0.5 ms, 28-32 ms at 5^8 patterns.
    """
    big_k, big_n = gen.shape
    q = f.q
    if big_n >= 1 << 24:
        raise ValueError(
            f"transform of length N={big_n} is not exact in float32: needs N < 2^24"
        )
    t, b = _transform_digits(q, big_k, big_n)
    radix = _RADIX.get(q, 1)
    stages = ([t % radix] if t % radix else []) + [radix] * (t // radix)
    mats = [_stage_matrix(f, s) for s in stages]
    # zeros_hist counts message m in bin level + step F(m, 0), over GF(2) N + D(m)
    ch, level, step = (1, big_n, 2) if q == 2 else (q, 0, 1)
    if mats:  # the c' = 0 columns of M, on the right of the last product
        mats[-1] = np.ascontiguousarray(mats[-1].reshape(-1, ch, mats[-1].shape[1])[:, 0].T)
    outer = gen[: big_k - t]
    n_block = q**b
    block = n_block * ch * q**t
    inner = q ** np.arange(t - 1, -1, -1, dtype=np.int64) @ gen[big_k - t :].astype(np.int64)
    offsets = np.arange(n_block, dtype=np.int64)[:, None] * (ch * q**t) + inner
    channel = np.int64(q**t)  # the tally's stride from one channel to the next
    powers = q ** np.arange(big_k - t - 1, -1, -1, dtype=np.int64)
    per_chunk = max(1, block // max(1, n_block * big_n))  # blocks per outer product
    axes = [(n_block * q ** sum(stages[:i]), ch * q**s, q ** sum(stages[i + 1 :]))
            for i, s in enumerate(stages)]

    def transform(counts: np.ndarray, prod: np.ndarray) -> np.ndarray:
        """F(m, 0), or D(m) over GF(2), of one block from its tally in
        counts; counts and prod are overwritten, and either may hold it."""
        for mat, (a, side, after) in zip(mats[:-1], axes):
            np.matmul(mat, counts.reshape(a, side, after), out=prod.reshape(a, side, after))
            counts, prod = prod, counts
        if not mats:
            return counts.reshape(-1, ch)[:, 0]
        a, side, _ = axes[-1]
        return np.matmul(counts.reshape(a, side), mats[-1], out=prod[: block // ch].reshape(a, -1))

    def run(blocks) -> np.ndarray:
        zeros_hist = np.zeros(step * big_n + 1, dtype=np.int64)
        counts, prod = np.empty((2, block), dtype=np.float32)
        for i in range(0, len(blocks), per_chunk):
            ids, sizes = np.array(blocks[i : i + per_chunk], dtype=np.int64).T
            msgs = (ids[:, None] * n_block + np.arange(n_block)).ravel()
            vals = f.matmul((msgs[:, None] // powers % q).astype(np.uint8), outer)
            for j, size in enumerate(sizes.tolist()):
                val = vals[j * n_block : (j + 1) * n_block]
                if ch == 1:
                    counts.fill(0)
                    np.add.at(counts, offsets.ravel(), 1 - 2 * val.ravel().astype(np.float32))
                else:
                    np.copyto(counts, np.bincount((offsets + channel * val).ravel(),
                                                  minlength=block))
                zeros = transform(counts, prod).reshape(-1)
                zeros.sort()  # a view into counts or prod, which the next block overwrites
                ends = np.append(np.flatnonzero(zeros[1:] != zeros[:-1]), zeros.size - 1)
                zeros_hist[zeros[ends].astype(np.intp) + level] += size * np.diff(ends, prepend=-1)
        return zeros_hist

    blocks = _block_orbits(f, exps[: big_k - t - b])
    return _run_tasks(run, blocks, threads)[::-step].copy()


def weight_enumerator(
    code: LinearCode,
    method: str = "hyperplane",
    threads: int = 1,
) -> WeightEnumerator:
    """Exact weight distribution of the code, by the count-vector transform
    (_transform_histogram), exact while N < 2^24: one block per orbit of
    the scalars and the torus of Sp(2n, q) on its high digits, counted times
    the orbit's size, the blocks shared over `threads`; a longer code raises
    ValueError before any product is taken.  A built code over GF(q), q > 2,
    has torus characters (_torus_exponents); each torus generator must first
    permute the columns up to scalars (_check_torus, else AssertionError
    naming it).  A code with no Plücker map and a code over GF(2) have the
    scalars alone.  method 'codeword' and 'hyperplane' both run this one
    sweep, and any other name raises ValueError; ROADMAP item 1's bench
    change, which stops the bench naming a method, removes the keyword.
    The result must sum to q^K, have each A_w (w > 0) divisible by q - 1 and
    pass _check_power_moments; a failure raises AssertionError.
    """
    if method not in ("codeword", "hyperplane"):
        raise ValueError(f"unknown sweep method {method!r}")
    f = code.field
    exps = _torus_exponents(code)
    _check_torus(f, code.generator, exps)
    hist = _transform_histogram(f, code.generator, threads, exps)
    we = WeightEnumerator.from_histogram(hist)
    if we.total() != f.q**code.K:
        raise AssertionError("sweep histogram does not sum to q^K; internal error")
    for w, c in we.distribution.items():
        if w and c % (f.q - 1):
            raise AssertionError(f"scalar rule: A_{w} = {c}, not divisible by q - 1 = {f.q - 1}")
    _check_power_moments(f, code.generator, we, projective=code.n is not None)
    return we


def _torus_exponents(code: LinearCode) -> np.ndarray:
    """e, (K, n) int64: diag(t, t^-1) of Sp(2n, q) scales generator row i,
    the Plücker coordinate S_i of its pivot (the first nonzero of row i of
    plucker_map, a k_subsets index), by prod_a t_a^e[i, a], e[i, a] =
    [a in S_i] - [a + n in S_i].  (K, 0), the scalars alone, for a code with
    no Plücker map, such as a subcode, and over GF(2), whose torus is 1."""
    if code.plucker_map is None or code.field.q == 2:
        return np.zeros((code.K, 0), dtype=np.int64)
    n = code.n
    subsets = np.array(k_subsets(2 * n, code.k))[(code.plucker_map != 0).argmax(axis=1)]
    exps = np.zeros((code.K, n), dtype=np.int64)
    np.add.at(exps, (np.arange(code.K)[:, None], subsets % n), np.where(subsets < n, 1, -1))
    return exps


def _check_torus(f: Field, gen: np.ndarray, exps: np.ndarray) -> None:
    """Each torus generator, t_a = g (g = _primitive_powers(f)[1]) and every
    other t_b = 1, scales row i of gen by g^exps[i, a]; it must map the
    nonzero columns, scaled to lead with 1, onto the same multiset (else
    AssertionError naming a).  Then m and that scaling of m weigh the same
    for every message m, and so do a block and its image: the block list of
    _transform_histogram rests on this, not on the derivation of exps."""
    if not exps.shape[1]:
        return
    cols = gen[:, gen.any(axis=0)]
    normed = _normed_columns(f, cols)
    powers = _primitive_powers(f)
    for a in range(exps.shape[1]):
        scale = powers[exps[:, a] % (f.q - 1)].astype(np.uint8)[:, None]
        if not np.array_equal(_normed_columns(f, f.arr_mul(cols, scale)), normed):
            raise AssertionError(f"torus generator t_{a}: does not permute the columns "
                                 "up to scalars")


def _normed_columns(f: Field, cols: np.ndarray) -> np.ndarray:
    """cols, each scaled to lead with 1 (a zero column stays 0), sorted by
    one np.lexsort so that equal columns are adjacent."""
    lead = cols[(cols != 0).argmax(axis=0), np.arange(cols.shape[1])]
    normed = f.arr_mul(cols, f.inv_table[lead][None, :])
    return normed[:, np.lexsort(normed)]


def _check_power_moments(f: Field, gen: np.ndarray, we: WeightEnumerator,
                         projective: bool) -> None:
    """The first two power moments of a sweep over all q^K messages of gen,
    and, for a projective code (one built from a point set), Z = N, Pp = 0.

    A nonzero column is nonzero in (q-1)q^(K-1) of the messages' codewords,
    and two columns are both nonzero in (q-1)q^(K-1) of them if they are
    proportional, in (q-1)^2 q^(K-2) if not.  With Z nonzero columns and Pp
    ordered pairs of distinct proportional ones, for any generator:
        sum w A_w   = Z (q-1) q^(K-1)
        sum w^2 A_w = (Z + Pp)(q-1) q^(K-1) + (Z(Z-1) - Pp)(q-1)^2 q^(K-2)
    Both right sides are integers: at K = 1 all nonzero columns are
    proportional, so Z(Z-1) = Pp, and at K = 0 there are no columns.  They
    are computed times q^2 so that no power of q is negative.  Pp is read
    from one np.lexsort of the columns scaled to lead with 1 (no bound on
    q^K): 0.043 s at W(9,1) q=2, where a sort of structured rows took 1.64 s.
    """
    q, big_k = f.q, gen.shape[0]
    cols = gen[:, gen.any(axis=0)]
    z = cols.shape[1]
    pp = 0
    if z:  # with no nonzero column (K = 0 included) there is nothing to normalise
        normed = _normed_columns(f, cols)
        starts = np.flatnonzero(np.any(normed[:, 1:] != normed[:, :-1], axis=0)) + 1
        runs = np.diff(starts, prepend=0, append=z)  # class sizes
        pp = int(np.sum(runs * (runs - 1)))
    if projective and (z, pp) != (gen.shape[1], 0):
        raise AssertionError(
            f"projectivity: {z} nonzero columns, expected N = {gen.shape[1]}; "
            f"{pp} ordered pairs of proportional columns, expected 0"
        )
    moments = (
        ("first", 1, z * (q - 1) * q ** (big_k + 1)),
        ("second", 2, (z + pp) * (q - 1) * q ** (big_k + 1)
         + (z * (z - 1) - pp) * (q - 1) ** 2 * q**big_k),
    )
    for name, power, scaled in moments:
        got = sum(w**power * c for w, c in we.distribution.items())
        if got != scaled // q**2:
            raise AssertionError(
                f"{name} power moment: sum w^{power} A_w = {got}, expected {scaled // q**2}"
            )


def codeword_from_form(code: LinearCode, theta: AlternatingForm) -> tuple[np.ndarray, int]:
    """The codeword of W(n,2) cut out by an alternating form, with its weight
    (N minus the number of lines isotropic for both forms).

    On a line with basis (x, y), theta is sum_(i<l) t_il (x_i y_l - x_l y_i),
    t its strictly-upper Gram entries, listed by np.triu_indices in the lex
    order of the Plücker columns: the word is pl @ t = gen.T @ m, m = R t.
    It is summed as K scaled uint8 row additions m_i g_i, since Field.matmul
    would expand the (K, N) generator to float32 digits: at W(3,2) q=8 that
    took 4.3 s and 2.4 GB on the right, 0.57 s and 615 MB more peak as gen.T
    on the left, the row additions 0.012-0.14 s and no more peak (2-core x86).
    """
    if code.k != 2 or code.plucker_map is None:
        raise ValueError("form-induced codewords require a built line code W(n,2)")
    if theta.field != code.field or theta.dim != 2 * code.n:
        raise ValueError("theta must be an alternating form on the same V(2n, q)")
    f = code.field
    message = f.matmul(code.plucker_map, theta.gram[np.triu_indices(theta.dim, 1)][:, None])
    word = np.zeros(code.N, dtype=np.uint8)
    for m_i, row in zip(message[:, 0].tolist(), code.generator):
        if m_i:
            word = f.arr_add(word, f.arr_mul(row, np.uint8(m_i)))
    return word, int(np.count_nonzero(word))


# ---------------------------------------------------------------------------
# generator matrix files: header "q K N", then K rows of N encodings, read
# back by linalg.read_matrix_text(path, GENERATOR_HEADER)

GENERATOR_HEADER = "q rows cols"


def write_generator(dest, code: LinearCode) -> None:
    write_matrix_text(dest, code.field, code.generator, GENERATOR_HEADER)

