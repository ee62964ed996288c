"""Code construction, weight sweeps, file formats."""

import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympgrass import codes, formulas
from sympgrass.codes import (
    LinearCode,
    WeightEnumerator,
    build_code,
    codeword_from_form,
    pivot_generator,
    weight_enumerator,
    write_generator,
)
from sympgrass.forms import (
    AlternatingForm,
    count_common_isotropic_lines,
    isotropic_stack,
    random_alternating_form,
    standard_symplectic,
    worst_case_theta,
)
from sympgrass.gf import GF, Field
from sympgrass.grassmann import plucker_batch
from sympgrass.linalg import rank, read_matrix_text, rref

from oracles import (
    form_values_reference,
    oracle_proportional_pairs,
    oracle_weight_enumerator,
    oracle_weight_enumerator_gf2,
)

ALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "n,k,q,N,K",
    [(2, 2, 2, 15, 5), (3, 3, 2, 135, 14), (3, 2, 2, 315, 14), (2, 2, 5, 156, 5)],
)
def test_build_code_parameters(n, k, q, N, K):
    code = build_code(n, k, GF(q))
    assert (code.N, code.K) == (N, K)
    assert (code.N, code.K) == (formulas.length(n, k, q), formulas.dimension(n, k))
    assert rank(code.field, code.generator) == K


def test_generator_rows_span_plucker_rows():
    # the generator row space equals the span of the coordinate functionals
    f = GF(2)
    code = build_code(2, 2, f)
    pl = plucker_batch(f, isotropic_stack(2, 2, f))
    stacked = np.concatenate([np.ascontiguousarray(pl.T), code.generator], axis=0)
    assert rank(f, stacked) == code.K


GENERATOR_CASES = [
    (n, k, q) for q in (2, 3) for n in range(1, 5) for k in range(1, n + 1)
] + [(2, 2, 4), (3, 3, 4), (3, 2, 4), (2, 2, 5), (3, 2, 5), (2, 2, 8), (3, 3, 8), (2, 2, 9)]


@lru_cache(maxsize=None)
def transposed_rref(n, k, q):
    """rref(pl.T) of W(n,k)'s Plücker matrix, reduced once for both generator
    tests (at W(4,3) q=3 the 56 x 918 400 reduction takes 6-7 s, the longest
    step of tier-1); shared, so read-only."""
    f = GF(q)
    pl = plucker_batch(f, isotropic_stack(n, k, f))
    reduced, rk, pivots = rref(f, np.ascontiguousarray(pl.T))
    pivots = np.array(pivots, dtype=np.intp)
    reduced.flags.writeable = pivots.flags.writeable = False
    return reduced, rk, pivots


@pytest.mark.parametrize("n,k,q", GENERATOR_CASES)
def test_generator_is_rref_of_transpose(n, k, q):
    # as a code: the generator spans the row space of the systematic
    # generator R = rref(pl.T)[:K], that is gen = gen[:, Q] @ R with gen[:, Q]
    # invertible, Q the pivot columns of R
    f = GF(q)
    code = build_code(n, k, f)
    pl = plucker_batch(f, isotropic_stack(n, k, f))
    reduced, rk, q_cols = transposed_rref(n, k, q)
    gen = code.generator
    assert gen.shape == (rk, pl.shape[0])
    assert gen.shape == (formulas.dimension(n, k), formulas.length(n, k, q))
    assert rank(f, gen[:, q_cols]) == rk
    assert np.array_equal(f.matmul(gen[:, q_cols], reduced[:rk]), gen)


@pytest.mark.parametrize("n,k,q", GENERATOR_CASES)
def test_generator_is_pivot_columns(n, k, q):
    # byte for byte the coordinate functionals at the pivot columns P of
    # rref(pl), held as a read-only C-contiguous row gather.  P is read from the K
    # rows Q of pl at the pivots of rref(pl.T): those rows have rank K, so
    # they span pl's row space, and the RREF of a row space is unique.
    f = GF(q)
    code = build_code(n, k, f)
    pl = plucker_batch(f, isotropic_stack(n, k, f))
    _, rk, q_rows = transposed_rref(n, k, q)
    _, _, p_cols = rref(f, pl[q_rows])
    gen = code.generator
    assert gen.shape == (rk, pl.shape[0])
    assert gen.dtype == np.uint8 and gen.flags.c_contiguous and not gen.flags.writeable
    assert gen.tobytes() == np.take(pl, p_cols, axis=1).T.tobytes()


@pytest.mark.parametrize("n,k,q", GENERATOR_CASES)
def test_plucker_map_takes_the_generator_to_the_minors(n, k, q):
    # pl = gen.T @ R, and R is in RREF with R[:, P] = I at the generator's
    # pivot columns P: pl's row space is R's, so R = rref(pl)[:K]
    f = GF(q)
    code = build_code(n, k, f)
    pl = plucker_batch(f, isotropic_stack(n, k, f))
    r = code.plucker_map
    assert r.shape == (code.K, pl.shape[1]) and r.dtype == np.uint8 and not r.flags.writeable
    pivots = (r != 0).argmax(axis=1)
    assert np.all(np.diff(pivots) > 0)
    assert np.array_equal(r[:, pivots], np.eye(code.K, dtype=np.uint8))
    assert code.generator.tobytes() == np.take(pl, pivots, axis=1).T.tobytes()
    step = 1 << 16  # bounds the float32 digits of each product
    for s in range(0, code.N, step):
        assert np.array_equal(f.matmul(code.generator[:, s : s + step].T, r), pl[s : s + step])


# SHA-256 of the point stack, the Plücker matrix (row-major) and the
# generator, pinned before the combination-table filter, the minor-major
# array and the pivot rows moved in place, which must give the same bytes
PINNED_DIGESTS = {
    (3, 3, 8): ("c9db97e159f69283def8dc51132c7d857af2674b9498b1399b1b082f77f856d7",
                "6ef0530da8a0e8550aa921cd72c8fc4135882577b38451802451591a0391c243",
                "697b30f9ac581aefe12a53d78df57b1f630bcd808ad9514eaaf0807130260c4e"),
    (3, 2, 4): ("b8a42e905708cbc6bfc9d2d937ecbfd5feb5c7c5275e160e8975b13eb4acc0c5",
                "88b3b586c4750f01cf1f008ace99ae06381cae000867c7de39ed01a6cdb33a7e",
                "f8b79d054472a0e1acb6d4a386c6efc0c630b94f8bfc6ce4ae4368bc7144e512"),
    (3, 3, 4): ("86c335c7702b7c230581a19f0fdc42ae96b056ec3c2cf30f6fbe481a8e441845",
                "c84d373de8a4e422eb5fc163315d7858c77b58bf976a764cf655b7ff3d0222a4",
                "8a9b774481987371952ba8e61b06f70eab94527e62b03c3e648e1a8c4fbe73c9"),
    (2, 2, 9): ("8b48525dc5ef3e3a652ab53912b6f4de98011d9ef5583bb22c3a40a66ca76844",
                "49e00a8d5e311894fa9a80eab0e89877cec2f8a45a0fc3d6124f69105936108b",
                "8acad744164516bf50f8f27b5f6764ffee7cf0a2fe885f26b865288926d1712b"),
    (4, 2, 3): ("963aebd3fcdbc0c8e7aef4a7a37438e34cab9a9673d3d95f9eb718a682d13021",
                "a75e20786b59e1d0a2572fa65309bd81dfb9cb759bd2476079356e3508969250",
                "6977c56f7c3035f2d85b0c39e63550a9a4fd821d5e716f121f1249412d8bfe4c"),
}


@pytest.mark.parametrize("n,k,q", sorted(PINNED_DIGESTS))
def test_build_keeps_its_pinned_bytes(n, k, q):
    # the enumeration's order, the minors and the generator's pivot columns
    # are fixed: the same bytes whatever route computes them
    f = GF(q)
    bases = isotropic_stack(n, k, f)
    digests = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in (
        bases, plucker_batch(f, bases), build_code(n, k, f).generator))
    assert digests == PINNED_DIGESTS[n, k, q]


def _sparse_column_matrix():
    """100 x 4 over GF(3): column 1 is twice column 0, and column 2 is
    nonzero only on row 5, which the 16-row stride sample skips."""
    f = GF(3)
    rng = np.random.default_rng(11)
    pl = np.zeros((100, 4), dtype=np.uint8)
    pl[:, 0] = rng.integers(1, 3, size=100)
    pl[:, 1] = f.arr_mul(pl[:, 0], np.uint8(2))
    pl[:, 3] = rng.integers(0, 3, size=100)
    pl[5, 2] = 1
    return pl


def test_pivot_generator_grows_a_sample_that_misses_a_column(monkeypatch):
    # the full check finds row 5, adds it and reduces again
    f = GF(3)
    pl = _sparse_column_matrix()
    sample_rows = []

    def counting_rref(field, m):
        sample_rows.append(m.shape[0])
        return rref(field, m)

    monkeypatch.setattr(codes, "rref", counting_rref)
    pivots, r = pivot_generator(f, pl)
    assert pivots.dtype == np.intp and pivots.tolist() == [0, 2, 3]
    assert np.array_equal(r, [[1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # the first sample has 4 * width rows; one later sample has one more
    assert sample_rows[0] == 16 and 17 in sample_rows


@pytest.mark.parametrize("q,a,b", [(4, 2, 3), (9, 5, 7)])
def test_pivot_generator_weighs_each_term_of_a_relation(monkeypatch, q, a, b):
    # column 2 is a * column 0 + b * column 1, with a, b != 1, on every row
    # but row 5, which the stride sample skips: the check must scale both
    # terms to find row 5, and adds exactly that row to the sample
    f = GF(q)
    rng = np.random.default_rng(q)
    pl = np.zeros((100, 3), dtype=np.uint8)
    pl[:, 0] = rng.integers(1, q, size=100)
    pl[:, 1] = rng.integers(0, q, size=100)
    pl[:, 2] = f.arr_add(f.arr_mul(pl[:, 0], np.uint8(a)), f.arr_mul(pl[:, 1], np.uint8(b)))
    pl[5, 2] = f.arr_add(pl[5, 2], np.uint8(1))
    first = np.linspace(0, 99, 12, dtype=np.intp)
    assert 5 not in first
    assert np.array_equal(rref(f, pl[first])[0][:2], [[1, 0, a], [0, 1, b]])
    samples = []

    def recording_rref(field, m):
        samples.append(m.copy())
        return rref(field, m)

    monkeypatch.setattr(codes, "rref", recording_rref)
    pivots, r = pivot_generator(f, pl)
    assert pivots.tolist() == [0, 1, 2] and np.array_equal(r, np.eye(3, dtype=np.uint8))
    assert len(samples) == 2
    assert np.array_equal(samples[0], pl[first])
    assert np.array_equal(samples[1], pl[np.sort(np.append(first, 5))])


def test_pivot_generator_refuses_a_round_that_does_not_raise_the_rank(monkeypatch):
    # an rref that ignores the rows added to the sample keeps the rank at 2,
    # which would loop forever; the second round raises instead, naming the
    # row and both ranks
    f = GF(3)
    pl = _sparse_column_matrix()
    first = pl[np.linspace(0, 99, 16, dtype=np.intp)]
    monkeypatch.setattr(codes, "rref", lambda field, m: rref(field, first))
    with pytest.raises(AssertionError, match=r"row 5 breaks the relation but left the rank at 2 "
                                             r"\(was 2\)"):
        pivot_generator(f, pl)


def test_pivot_generator_skips_the_check_at_full_rank(monkeypatch):
    # rank = width: the relation has no columns, so no field operation runs
    # on pl's rows; rref reduces the sample over its own copy of GF(5)
    f = Field(5)
    pl = np.tile(np.eye(3, dtype=np.uint8), (7, 1))

    def no_op(*args):
        raise AssertionError("checked a relation with no columns")

    for name in ("arr_add", "arr_mul", "arr_neg", "matmul"):
        monkeypatch.setattr(f, name, no_op)
    monkeypatch.setattr(codes, "rref", lambda field, m: rref(GF(5), m))
    pivots, r = pivot_generator(f, pl)
    assert pivots.tolist() == [0, 1, 2] and np.array_equal(r, np.eye(3, dtype=np.uint8))


def test_pivot_generator_of_zero_matrix():
    pivots, r = pivot_generator(GF(2), np.zeros((9, 3), dtype=np.uint8))
    assert pivots.shape == (0,) and r.shape == (0, 3)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(q=st.sampled_from(ALL_Q), data=st.data())
def test_pivot_generator_is_rref_of_the_whole_matrix(q, data):
    # a product of (rows x cap) and random (cap x width) factors has rank
    # below its width; the first left column is nonzero on one row only, so
    # the stride sample often misses a direction it needs: P and R are still
    # the pivots and first K rows of rref(pl)
    f = GF(q)
    width = data.draw(st.integers(1, 6), label="width")
    cap = data.draw(st.integers(0, width - 1), label="rank cap")
    n_rows = data.draw(st.integers(1, 80), label="rows")
    density = data.draw(st.sampled_from((0.1, 1.0)), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    left = rng.integers(0, q, size=(n_rows, cap), dtype=np.uint8)
    left[rng.random(left.shape) >= density] = 0
    if cap:
        left[:, 0] = 0
        left[data.draw(st.integers(0, n_rows - 1), label="rare row"), 0] = 1
    pl = f.matmul(left, rng.integers(0, q, size=(cap, width), dtype=np.uint8))
    reduced, rk, expect = rref(f, pl)
    pivots, r = pivot_generator(f, pl)
    assert pivots.dtype == np.intp and pivots.tolist() == expect
    assert r.shape == (rk, width) and np.array_equal(r, reduced[:rk])


GROWTH_SCRIPT = r"""
import sys
from sympgrass import codes, gf

def peak_kb():
    # VmHWM is the peak resident set of this process's own address space; on
    # Linux ru_maxrss would also carry the peak of the process that started it
    with open("/proc/self/status") as status:
        return int(status.read().split("VmHWM:")[1].split()[0])

n, k, q = map(int, sys.argv[1:])
field = gf.GF(q)
before = peak_kb()
code = codes.build_code(n, k, field)
print(code.N, code.K, peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM (Linux)")
@pytest.mark.parametrize("n,k,q", [
    (4, 3, 3),
    pytest.param(5, 4, 2, marks=pytest.mark.slow),
    pytest.param(4, 4, 4, marks=pytest.mark.slow),
])
def test_build_peak_is_the_points_and_the_minors(n, k, q):
    # a fresh build holds the point stack and the minor-major array, plus at
    # most 24 MB of chunks and allocator slack: the generator is the array's
    # first K rows, not a K x N copy (with which W(4,3) q=3 grew by 113 MB
    # against 70 MB of arrays).  A fixed mmap threshold keeps glibc from
    # holding freed temporaries on its heap after its dynamic threshold rose,
    # which moved W(4,4) q=4's growth by 30 MB with the environment's size
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.run([sys.executable, "-c", GROWTH_SCRIPT, str(n), str(k), str(q)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    big_n, big_k, grown_kb = map(int, proc.stdout.split())
    assert (big_n, big_k) == (formulas.length(n, k, q), formulas.dimension(n, k))
    arrays = big_n * k * 2 * n + math.comb(2 * n, k) * big_n
    assert grown_kb << 10 <= arrays + (24 << 20), (
        f"grew {grown_kb >> 10} MB against {arrays >> 20} MB of points and minors")


def test_build_w55_q2_has_the_formula_dimension():
    # k = 5: no ceiling on the size of the Plücker minors
    code = build_code(5, 5, GF(2))
    assert (code.N, code.K) == (formulas.length(5, 5, 2), 132)


def test_w22_q2_against_oracle_and_table():
    f = GF(2)
    code = build_code(2, 2, f)
    we = weight_enumerator(code)
    rows = [[int(x) for x in row] for row in code.generator]
    assert we.distribution == oracle_weight_enumerator(2, rows)
    assert we.distribution == formulas.w22_table(2)
    assert we.distribution == {0: 1, 6: 10, 8: 15, 10: 6}


def test_w22_q3_against_oracle_and_table():
    f = GF(3)
    code = build_code(2, 2, f)
    we = weight_enumerator(code)
    rows = [[int(x) for x in row] for row in code.generator]
    assert we.distribution == oracle_weight_enumerator(3, rows)
    assert we.distribution == formulas.w22_table(3)
    assert sorted(w for w in we.distribution if w) == [24, 27, 30]


def test_packed_sweep_against_bitmask_oracle():
    # W(3,2) q=2 against an integer-bitmask sweep written independently of
    # the float32 sweep kernel
    f = GF(2)
    code = build_code(3, 2, f)
    we = weight_enumerator(code)
    rows_as_ints = [
        sum(int(x) << j for j, x in enumerate(row)) for row in code.generator
    ]
    oracle = oracle_weight_enumerator_gf2(rows_as_ints, code.N)
    assert we.distribution == oracle
    assert we.d_min == 120


@pytest.mark.parametrize(
    "n,k,q", [(2, 2, 2), (2, 2, 3), (3, 3, 2), (2, 2, 4), (2, 2, 5), (2, 2, 8), (2, 2, 13)]
)
def test_method_agreement(n, k, q):
    # the sweep of projective functionals against the paper's closed-form
    # tables of W(2,2) and W(3,3)
    code = build_code(n, k, GF(q))
    table = formulas.w22_table(q) if k == 2 else formulas.w33_table(q)
    assert weight_enumerator(code).distribution == table


def test_both_method_names_run_the_one_sweep():
    code = build_code(2, 2, GF(3))
    cw = weight_enumerator(code, method="codeword")
    assert cw.distribution == weight_enumerator(code, method="hyperplane").distribution
    with pytest.raises(ValueError, match="unknown sweep method 'x'"):
        weight_enumerator(code, method="x")


def record_blocks(monkeypatch) -> list:
    """The block lists the sweeps hand to _run_tasks, in order."""
    handed = []
    orig = codes._run_tasks

    def record(run, tasks, threads):
        handed.append(list(tasks))
        return orig(run, tasks, threads)

    monkeypatch.setattr(codes, "_run_tasks", record)
    return handed


def test_codeword_sweep_transforms_one_block_per_torus_orbit(monkeypatch):
    # W(2,2) q=13 has high = 2 outer digits beyond its block.  The torus of
    # Sp(4, 13) and the scalars cut the 169 high patterns to 4 orbits, each
    # swept once at its smallest id and counted by its size; the scalars
    # alone would leave 15 (block 0 and the lead blocks [q^j, 2 q^j))
    handed = record_blocks(monkeypatch)
    q = 13
    code = build_code(2, 2, GF(q))
    assert weight_enumerator(code, method="codeword").distribution == formulas.w22_table(q)
    assert code.K - sum(codes._transform_digits(q, code.K, code.N)) == 2
    assert handed == [[(0, 1), (1, 12), (13, 12), (14, 144)]]


def scalar_blocks(q: int, high: int) -> list[tuple[int, int]]:
    """Block 0 once and each lead block [q^j, 2 q^j), j < high, q - 1 times:
    one message per projective class, the scalars' orbits."""
    return [(0, 1)] + [(i, q - 1) for j in range(high) for i in range(q**j, 2 * q**j)]


@pytest.mark.parametrize("q", ALL_Q)
def test_a_code_with_no_origin_sweeps_the_scalar_orbits(monkeypatch, q):
    # with no Plücker map there is no torus, and the sweep is handed the
    # scalars' orbits, block 0 and the lead blocks: a random K = 4 code with
    # blocks of q^2 entries, so t = 1 and high = 3
    handed = record_blocks(monkeypatch)
    monkeypatch.setattr(codes, "_TRANSFORM_BLOCK", q**2)
    gen = np.random.default_rng(q).integers(0, q, size=(4, 6), dtype=np.uint8)
    code = LinearCode(field=GF(q), n=None, k=None, N=6, K=4, generator=gen)
    assert code.K - sum(codes._transform_digits(q, code.K, code.N)) == 3
    assert weight_enumerator(code).distribution == oracle_weight_enumerator(q, gen.tolist())
    assert handed == [scalar_blocks(q, 3)]


def test_a_binary_code_sweeps_the_scalar_orbits(monkeypatch):
    # the torus of Sp(2n, 2) is trivial: built W(3,3) q=2 with blocks of 64
    # entries is handed every one of its 2^high blocks once
    handed = record_blocks(monkeypatch)
    monkeypatch.setattr(codes, "_TRANSFORM_BLOCK", 64)
    code = build_code(3, 3, GF(2))
    high = code.K - sum(codes._transform_digits(2, code.K, code.N))
    assert high >= 4
    assert weight_enumerator(code).distribution == formulas.w33_table(2)
    assert handed == [scalar_blocks(2, high)] == [[(i, 1) for i in range(2**high)]]


def burnside_orbits(q: int, exps: np.ndarray) -> int:
    """(1/|H|) sum_(h in H) prod_i (1 + (q - 1)[h_i = 1]), the number of
    orbits of H on GF(q)^high, H the image of T x GF(q)* as exponent vectors
    c + exps @ x mod q - 1 (h_i = 1 where the exponent is 0)."""
    image = {tuple(((c + exps @ np.array(x, dtype=np.int64)) % (q - 1)).tolist())
             for c in range(q - 1)
             for x in itertools.product(range(q - 1), repeat=exps.shape[1])}
    fixed = sum(math.prod(q if e == 0 else 1 for e in h) for h in image)
    assert fixed % len(image) == 0
    return fixed // len(image)


ORBIT_CASES = [(2, 2, q, 3 if q <= 5 else 4) for q in ALL_Q] + [
    (3, 3, 2, 12), (3, 3, 3, 11), (2, 1, 5, 3)]


@pytest.mark.parametrize("n,k,q,block", ORBIT_CASES)
def test_orbit_blocks_sweep_as_every_block(monkeypatch, n, k, q, block):
    # blocks of q^block entries leave high >= 2 high digits.  The orbit
    # sweep's histogram is byte-equal to one handed every id with size 1,
    # its sizes sum to q^high, and its orbit count is Burnside's
    code = build_code(n, k, GF(q))
    f, gen = code.field, code.generator
    monkeypatch.setattr(codes, "_TRANSFORM_BLOCK", q**block)
    high = code.K - sum(codes._transform_digits(q, code.K, code.N))
    assert high >= 2
    exps = codes._torus_exponents(code)
    assert exps.shape == (code.K, 0 if q == 2 else n)
    handed = record_blocks(monkeypatch)
    assert weight_enumerator(code).distribution == formulas.known_table(n, k, q)
    orbit = codes._transform_histogram(f, gen, 1, exps)
    blocks = handed[-1]
    monkeypatch.setattr(codes, "_block_orbits",
                        lambda f, exps: [(i, 1) for i in range(q ** exps.shape[0])])
    every = codes._transform_histogram(f, gen, 1, exps)
    assert orbit.dtype == every.dtype and orbit.tobytes() == every.tobytes()
    assert sum(size for _, size in blocks) == q**high
    assert len(blocks) == burnside_orbits(q, exps[:high])


@pytest.mark.parametrize("n,k,q,orbits", [
    (3, 3, 3, 20), (2, 2, 13, 4), (2, 2, 16, 4), (3, 2, 4, 90), (3, 3, 4, 104)])
def test_orbit_counts_at_the_real_block_size(n, k, q, orbits):
    code = build_code(n, k, GF(q))
    exps = codes._torus_exponents(code)
    high = code.K - sum(codes._transform_digits(q, code.K, code.N))
    blocks = codes._block_orbits(code.field, exps[:high])
    assert len(blocks) == burnside_orbits(q, exps[:high]) == orbits
    assert sum(size for _, size in blocks) == q**high


def plus_torus(code: LinearCode, _true: np.ndarray) -> np.ndarray:
    """The exponents of diag(t, t), not in Sp(2n, q): [a in S_i] + [a + n in S_i]."""
    exps = np.zeros((code.K, code.n), dtype=np.int64)
    pivots = (code.plucker_map != 0).argmax(axis=1)
    subsets = list(itertools.combinations(range(2 * code.n), code.k))
    for i, p in enumerate(pivots.tolist()):
        for j in subsets[p]:
            exps[i, j % code.n] += 1
    return exps


def borrowed_row(code: LinearCode, exps: np.ndarray) -> np.ndarray:
    """The true exponents exps with one row's vector given another's, the
    first pair that differs mod q - 1."""
    exps = exps.copy()
    q = code.field.q
    i, j = next((i, j) for i in range(code.K) for j in range(code.K)
                if np.any((exps[i] - exps[j]) % (q - 1)))
    exps[i] = exps[j]
    return exps


@pytest.mark.parametrize("wrong", [plus_torus, borrowed_row])
def test_a_wrong_torus_character_fails_the_invariance_check(monkeypatch, wrong):
    # the true characters pass on every listed code; each wrong one raises
    # the check's AssertionError on at least one of them, before any sweep
    listed = [build_code(n, k, GF(q)) for n, k, q in ((2, 1, 5), (2, 2, 4), (2, 2, 5), (3, 3, 4))]
    for code in listed:
        codes._check_torus(code.field, code.generator, codes._torus_exponents(code))
    true = codes._torus_exponents
    monkeypatch.setattr(codes, "_torus_exponents", lambda c: wrong(c, true(c)))
    failed = []
    for code in listed:
        try:
            weight_enumerator(code)
        except AssertionError as exc:
            assert str(exc).startswith("torus generator t_")
            failed.append(code)
    assert failed


@pytest.mark.parametrize("n,k,q", [(2, 2, 3), (3, 3, 2), (2, 2, 4)])
def test_sum_and_scalar_rules(n, k, q):
    code = build_code(n, k, GF(q))
    we = weight_enumerator(code)
    assert we.total() == q**code.K
    for w, c in we.distribution.items():
        if w > 0:
            assert c % (q - 1) == 0
    assert max(we.distribution) <= code.N


def test_projective_system_rule_w22():
    # d_min equals N minus the largest hyperplane section; sections checked
    # directly against an independent numpy evaluation per functional
    f = GF(2)
    code = build_code(2, 2, f)
    max_section = 0
    gen = code.generator.astype(np.int64)
    for m in range(1, 2**code.K):
        msg = np.array([(m >> i) & 1 for i in range(code.K)], dtype=np.int64)
        cw = (msg @ gen) % 2
        max_section = max(max_section, int(np.count_nonzero(cw == 0)))
    assert weight_enumerator(code).d_min == code.N - max_section


def test_min_distance_early_exit():
    code = build_code(2, 2, GF(2))
    assert weight_enumerator(code).d_min == 6


def test_threads_do_not_change_distribution(monkeypatch):
    # blocks of 64 entries split each transform into many blocks
    monkeypatch.setattr(codes, "_TRANSFORM_BLOCK", 64)
    code = build_code(3, 3, GF(2))
    big_k = code.K
    t, b = codes._transform_digits(2, big_k, code.N)
    assert big_k - t - b >= 4  # at least 16 blocks
    dists = [weight_enumerator(code, threads=t).distribution for t in (1, 3, 4)]
    assert dists == [formulas.w33_table(2)] * 3
    # W(2,2) over GF(3) and GF(4).  At 64 entries the transform has 27 and
    # 64 blocks and high = 3, and the sweep's 10 and 8 torus-orbit blocks go
    # to the threads in chunks, one of which (q = 3, two threads) holds
    # blocks 4 and 9.  At q^4 entries high = 2, each has 4 orbit blocks, and
    # at one thread the first outer product takes two or three of them, of
    # orbit sizes 1 and q - 1 among them.
    handed = record_blocks(monkeypatch)
    for q, orbits in ((3, {64: 10, 81: 4}), (4, {64: 8, 256: 4})):
        code = build_code(2, 2, GF(q))
        for block, high in ((64, 3), (q**4, 2)):
            monkeypatch.setattr(codes, "_TRANSFORM_BLOCK", block)
            assert code.K - sum(codes._transform_digits(q, code.K, code.N)) == high
            dists = [weight_enumerator(code, threads=t).distribution for t in (1, 2, 3, 4)]
            assert dists == [formulas.w22_table(q)] * 4
            assert [len(blocks) for blocks in handed[-4:]] == [orbits[block]] * 4


FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@st.composite
def small_generators(draw):
    """A K x N generator (K <= 4, q^K <= 4096, N <= 12) whose columns are
    random, zero, repeated or a multiple of an earlier column."""
    q = draw(st.sampled_from(FIELDS))
    f = GF(q)
    big_k = draw(st.integers(1, max(k for k in range(1, 5) if q**k <= 4096)))
    cols: list[list[int]] = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("random", "zero", "repeat", "scaled")))
        if kind == "zero":
            col = [0] * big_k
        elif kind == "repeat" and cols:
            col = list(draw(st.sampled_from(cols)))
        elif kind == "scaled" and cols:
            lam = draw(st.integers(1, q - 1))
            col = [int(f.mul_table[lam, x]) for x in draw(st.sampled_from(cols))]
        else:
            col = [draw(st.integers(0, q - 1)) for _ in range(big_k)]
        cols.append(col)
    return q, np.array(cols, dtype=np.uint8).T.copy()


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(small_generators())
def test_sweep_kernel_against_oracle(case):
    # once as shipped, then with transform blocks of q^3 and q^5 entries at
    # radix 2, so that outer-digit block boundaries fall inside the message
    # space, high = K - t - b reaches 2 and 3 (several lead ranges), and a
    # stage of one digit runs beside one of two
    q, gen = case
    code = LinearCode(field=GF(q), n=None, k=None, N=gen.shape[1], K=gen.shape[0],
                      generator=gen)
    expected = oracle_weight_enumerator(q, gen.tolist())
    for block in (None, q**3, q**5):
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(codes, "_TRANSFORM_BLOCK", block)
                mp.setattr(codes, "_RADIX", {q: 2})
            assert weight_enumerator(code).distribution == expected


@st.composite
def binary_generators(draw):
    """A K x N binary generator (K <= 8, N <= 24) whose columns are random,
    zero or a repeat of an earlier column."""
    big_k = draw(st.integers(1, 8))
    cols: list[list[int]] = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(("random", "zero", "repeat")))
        if kind == "zero":
            col = [0] * big_k
        elif kind == "repeat" and cols:
            col = list(draw(st.sampled_from(cols)))
        else:
            col = [draw(st.integers(0, 1)) for _ in range(big_k)]
        cols.append(col)
    return np.array(cols, dtype=np.uint8).T.copy()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(binary_generators())
def test_signed_binary_transform_against_bitmask_oracle(gen):
    # GF(2) tallies one signed channel F(u, 0) - F(u, 1) and transforms it
    # by +-1 Hadamard stages.  As shipped t = K whenever 2^(K-1) < 4N: one
    # block and no outer rows.  With blocks of 2^3 entries t = 1 and
    # high = K - 1 blocks of outer digits; with 2^5 entries at radix 2,
    # t = min(K, 3), so a stage of one digit runs beside one of two; with
    # 2^10 entries a code with 4 < N <= 2^(K-3) has three stages and q^b > 1
    big_k, big_n = gen.shape
    code = LinearCode(field=GF(2), n=None, k=None, N=big_n, K=big_k, generator=gen)
    expected = oracle_weight_enumerator_gf2(
        [sum(int(x) << j for j, x in enumerate(row)) for row in gen.tolist()], big_n)
    for block in (None, 2**3, 2**5, 2**10):
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(codes, "_TRANSFORM_BLOCK", block)
                mp.setattr(codes, "_RADIX", {2: 2})
            for threads in (1, 2):
                assert weight_enumerator(code, threads=threads).distribution == expected


def test_signed_binary_transform_runs_a_stage_on_every_axis(monkeypatch):
    # blocks of 2^10 entries at radix 2: K = 10, N = 20 gives t = 7 inner
    # digits in four stages, three of 2 digits and one of 1, and q^b > 1
    # outer values a block, so the first, a middle and the last stage each
    # see several rows, and high >= 1 lead blocks go to the threads
    gen = np.random.default_rng(33).integers(0, 2, size=(10, 20), dtype=np.uint8)
    code = LinearCode(field=GF(2), n=None, k=None, N=20, K=10, generator=gen)
    monkeypatch.setattr(codes, "_TRANSFORM_BLOCK", 2**10)
    monkeypatch.setattr(codes, "_RADIX", {2: 2})
    t, b = codes._transform_digits(2, 10, 20)
    assert t == 7 and b >= 1 and 10 - t - b >= 1
    expected = oracle_weight_enumerator_gf2(
        [sum(int(x) << j for j, x in enumerate(row)) for row in gen.tolist()], 20)
    for threads in (1, 2):
        assert weight_enumerator(code, threads=threads).distribution == expected


@pytest.mark.parametrize("q,big_k,big_n,radix,t", [(3, 7, 24, 2, 5), (4, 6, 12, 1, 3)])
def test_q_channel_transform_runs_a_stage_on_every_axis(monkeypatch, q, big_k, big_n, radix, t):
    # blocks of q^(t+2) entries: t inner digits in three stages (2, 2 and 1
    # digits over GF(3), 1 each over GF(4)), q^b = q outer values a block
    # and high >= 1 lead blocks, so the first, a middle and the last stage
    # of the q count channels each see several rows, at one and two threads
    gen = np.random.default_rng(34).integers(0, q, size=(big_k, big_n), dtype=np.uint8)
    code = LinearCode(field=GF(q), n=None, k=None, N=big_n, K=big_k, generator=gen)
    monkeypatch.setattr(codes, "_TRANSFORM_BLOCK", q ** (t + 2))
    monkeypatch.setattr(codes, "_RADIX", {q: radix})
    assert codes._transform_digits(q, big_k, big_n) == (t, 1)
    assert -(-t // radix) == 3 and big_k - t - 1 >= 1
    expected = oracle_weight_enumerator(q, gen.tolist())
    for threads in (1, 2):
        assert weight_enumerator(code, threads=threads).distribution == expected


@pytest.mark.parametrize("big_k,big_n", [(0, 3), (2, 0)])
def test_sweep_of_an_empty_generator(big_k, big_n):
    # no rows or no columns: all q^K words have weight 0, over GF(2)'s
    # signed channel and GF(3)'s q channels alike
    for q in (2, 3):
        gen = np.zeros((big_k, big_n), dtype=np.uint8)
        code = LinearCode(field=GF(q), n=None, k=None, N=big_n, K=big_k, generator=gen)
        assert weight_enumerator(code).distribution == {0: q**big_k}


@pytest.mark.parametrize("q", FIELDS)
def test_block_histograms_at_the_edge_bins(monkeypatch, q):
    # blocks of q^2 entries: t = 1, high = 2, and the q + 1 scalar orbit
    # blocks after block 0, each of size q - 1, add into one bin.  The
    # all-zero generator makes every block one run, at N + D = 2N, the top
    # bin, over GF(2).  A first row of all ones and no other gives weights 0
    # and N only: blocks q to 2q - 1 are each one run at zero count 0, over
    # GF(2) N + D = 0, bin 0
    monkeypatch.setattr(codes, "_TRANSFORM_BLOCK", q**2)
    big_k, big_n = 3, 5
    assert big_k - sum(codes._transform_digits(q, big_k, big_n)) == 2
    ones = np.zeros((big_k, big_n), dtype=np.uint8)
    ones[0] = 1
    handed = record_blocks(monkeypatch)
    for gen in (np.zeros_like(ones), ones):
        code = LinearCode(field=GF(q), n=None, k=None, N=big_n, K=big_k, generator=gen)
        expected = oracle_weight_enumerator(q, gen.tolist())
        for threads in (1, 2):
            assert weight_enumerator(code, threads=threads).distribution == expected
    assert expected == {0: q**2, big_n: q**3 - q**2}
    assert handed == [scalar_blocks(q, 2)] * 4


@pytest.mark.parametrize("q,big_k,block,high", [
    (2, 6, 2**3, 4),  # the lead ranges [2^j, 2^(j+1)) cover every nonzero block
    (5, 3, 5**2, 2),
    (2, 6, None, 0),  # high = 0: block 0 is every message
    (3, 4, None, 0),
])
def test_hyperplane_lead_blocks(monkeypatch, q, big_k, block, high):
    gen = np.random.default_rng(q).integers(0, q, size=(big_k, 10), dtype=np.uint8)
    code = LinearCode(field=GF(q), n=None, k=None, N=10, K=big_k, generator=gen)
    if block:
        monkeypatch.setattr(codes, "_TRANSFORM_BLOCK", block)
    assert big_k - sum(codes._transform_digits(q, big_k, 10)) == high
    expected = oracle_weight_enumerator(q, gen.tolist())
    for threads in (1, 3):
        assert weight_enumerator(code, threads=threads).distribution == expected


def test_float32_exactness_guard(monkeypatch):
    # hyperplane: N = 2^24 breaks the transform's N < 2^24 too, refused
    # before the stage matrices of its products are fetched
    def no_product(*args):
        raise AssertionError("product taken")

    monkeypatch.setattr(codes, "_stage_matrix", no_product)
    wide = np.zeros((1, 1 << 24), dtype=np.uint8)
    wide[0, 0] = 1
    code = LinearCode(field=GF(2), n=None, k=None, N=1 << 24, K=1, generator=wide)
    with pytest.raises(ValueError, match=r"needs N < 2\^24"):
        weight_enumerator(code, method="hyperplane")
    # one column fewer is within the bound and reaches the products
    with pytest.raises(AssertionError, match="product taken"):
        codes._transform_histogram(GF(2), wide[:, 1:], 1, np.zeros((1, 0), np.int64))


def test_float32_exactness_guard_codeword(monkeypatch):
    # the method name 'codeword' runs the same transform: N = 2^24 breaks
    # N < 2^24, refused before the stage matrices of its products are fetched
    def no_product(*args):
        raise AssertionError("product taken")

    monkeypatch.setattr(codes, "_stage_matrix", no_product)
    wide = np.zeros((1, 1 << 24), dtype=np.uint8)
    wide[0, 0] = 1
    code = LinearCode(field=GF(2), n=None, k=None, N=1 << 24, K=1, generator=wide)
    with pytest.raises(ValueError, match=r"needs N < 2\^24"):
        weight_enumerator(code, method="codeword")
    # one column fewer is within the bound and reaches the products
    with pytest.raises(AssertionError, match="product taken"):
        codes._transform_histogram(GF(2), wide[:, 1:], 1, np.zeros((1, 0), np.int64))


def test_codeword_from_sigma_is_zero():
    f = GF(2)
    code = build_code(2, 2, f)
    sig = standard_symplectic(2, f)
    vals, weight = codeword_from_form(code, sig)
    assert weight == 0 and not vals.any()


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_codeword_from_worst_theta_weight(n, q):
    f = GF(q)
    code = build_code(n, 2, f)
    sig = standard_symplectic(n, f)
    th = worst_case_theta(sig)
    _, weight = codeword_from_form(code, th)
    assert weight == formulas.dmin_line(n, q)
    assert weight == code.N - count_common_isotropic_lines(sig, th)


def test_codeword_from_form_is_in_the_code():
    f = GF(3)
    code = build_code(2, 2, f)
    sig = standard_symplectic(2, f)
    rng = np.random.default_rng(4)
    for _ in range(5):
        theta = random_alternating_form(f, 4, rng)
        vals, weight = codeword_from_form(code, theta)
        assert weight == code.N - count_common_isotropic_lines(sig, theta)
        # reduces to zero against the generator's row space
        stacked = np.concatenate([code.generator, vals[None, :]], axis=0)
        assert rank(f, stacked) == code.K


CODEWORD_CASES = [(2, q) for q in ALL_Q] + [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]


@pytest.mark.parametrize("n,q", CODEWORD_CASES)
def test_codeword_from_form_is_the_evaluation_on_bases(n, q):
    # byte for byte x G y on each line's basis pair, for the zero form,
    # sigma, the worst case and three random forms
    f = GF(q)
    code = build_code(n, 2, f)
    bases = isotropic_stack(n, 2, f)
    sig = standard_symplectic(n, f)
    rng = np.random.default_rng(100 * n + q)
    thetas = [AlternatingForm(f, np.zeros((2 * n, 2 * n), dtype=np.uint8)), sig,
              worst_case_theta(sig)] + [random_alternating_form(f, 2 * n, rng) for _ in range(3)]
    for theta in thetas:
        word, weight = codeword_from_form(code, theta)
        expected = form_values_reference(theta, bases)
        assert word.dtype == np.uint8 and word.tobytes() == expected.tobytes()
        assert weight == np.count_nonzero(expected)


def test_codeword_from_form_takes_no_product_over_the_points(monkeypatch):
    # one small product forms the message R t; the (K, N) generator enters
    # no Field.matmul, which would expand it to float32 digits
    f = GF(3)
    code = build_code(3, 2, f)
    theta = random_alternating_form(f, 6, np.random.default_rng(5))
    shapes = []
    matmul = Field.matmul

    def counting(self, a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return matmul(self, a, b)

    monkeypatch.setattr(Field, "matmul", counting)
    codeword_from_form(code, theta)
    assert shapes == [((code.K, 15), (15, 1))]
    assert code.N not in (code.K, 15)


def test_codeword_from_form_requires_line_code():
    code = build_code(2, 1, GF(2))
    sig = standard_symplectic(2, GF(2))
    with pytest.raises(ValueError):
        codeword_from_form(code, sig)


def test_generator_file_round_trip(tmp_path):
    code = build_code(2, 2, GF(3))
    path = tmp_path / "gen.txt"
    write_generator(path, code)
    text = path.read_text()
    assert text.splitlines()[0] == "3 5 40"
    field, back = read_matrix_text(path, codes.GENERATOR_HEADER)
    assert field == code.field
    assert back.shape == (code.K, code.N)
    assert np.array_equal(back, code.generator)


def test_read_generator_rejects_bad_header():
    with pytest.raises(ValueError):
        read_matrix_text(io.StringIO("3 5\n"), codes.GENERATOR_HEADER)


# zero, repeated, proportional and dependent rows and columns over GF(3):
# row 2 = row 0 + row 1, row 3 is zero, row 4 repeats row 0; column 4 is
# zero, column 5 repeats column 0 and column 6 is twice column 2
ODD_GENERATOR = np.array(
    [
        [1, 0, 2, 1, 0, 1, 1],
        [0, 1, 1, 2, 0, 0, 2],
        [1, 1, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0],
        [1, 0, 2, 1, 0, 1, 1],
    ],
    dtype=np.uint8,
)


def odd_code():
    return LinearCode(field=GF(3), n=None, k=None, N=7, K=5, generator=ODD_GENERATOR.copy())


def test_power_moments_hold_for_any_generator():
    code = odd_code()
    we = weight_enumerator(code)
    assert we.distribution == oracle_weight_enumerator(3, ODD_GENERATOR.tolist())


@pytest.mark.parametrize("moment", ["first", "second"])
def test_power_moments_catch_a_wrong_histogram(monkeypatch, moment):
    # keep the q^K total and the scalar rule but move weight, q - 1 words
    # at a time (2 over GF(3), 1 over GF(2)'s signed channel): from w to
    # w+1 breaks the first moment; from each of w-1 and w+1 to w keeps it
    # and breaks the second
    orig = codes._transform_histogram

    def wrong(f, *args):
        hist = orig(f, *args).copy()
        w, step = int(np.nonzero(hist[1:])[0][0]) + 2, f.q - 1
        if moment == "first":
            hist[w - 1] -= step
            hist[w] += step
        else:
            hist[w - 1] -= step
            hist[w + 1] -= step
            hist[w] += 2 * step
        return hist

    monkeypatch.setattr(codes, "_transform_histogram", wrong)
    for q in (3, 2):
        with pytest.raises(AssertionError, match=f"{moment} power moment"):
            weight_enumerator(build_code(2, 2, GF(q)))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (8, 2), (6, 3)])
def test_simplex_codes_match_their_table(n, q):
    # every vector is isotropic: W(n,1) is the simplex code; W(8,1) q=2
    # (N = 65 535) and W(6,1) q=3 (N = 265 720) also run the postconditions
    # over long codes
    code = build_code(n, 1, GF(q))
    table = formulas.known_table(n, 1, q)
    we = weight_enumerator(code)
    assert we.distribution == table
    assert we.d_min == formulas.code_params(n, 1, q).d_min


def test_projectivity_is_checked_for_codes_with_an_origin():
    # ODD_GENERATOR has a zero column (4) and proportional ones (0, 5 and
    # 2, 3, 6): as a subcode (n = None) it sweeps, with an origin it is refused
    gen = ODD_GENERATOR.copy()
    code = LinearCode(field=GF(3), n=2, k=1, N=7, K=5, generator=gen)
    with pytest.raises(AssertionError) as exc:
        weight_enumerator(code)
    assert str(exc.value) == ("projectivity: 6 nonzero columns, expected N = 7; "
                              "8 ordered pairs of proportional columns, expected 0")
    # a scaled copy of a column is proportional too; the zero column alone is caught
    gen = build_code(2, 2, GF(3)).generator
    scaled = np.concatenate([gen, GF(3).arr_mul(gen[:, :1], np.uint8(2))], axis=1)
    zero = np.concatenate([gen, np.zeros((gen.shape[0], 1), np.uint8)], axis=1)
    for extra, msg in ((scaled, "41 nonzero columns, expected N = 41; 2 ordered"),
                       (zero, "40 nonzero columns, expected N = 41; 0 ordered")):
        code = LinearCode(field=GF(3), n=2, k=2, N=41, K=gen.shape[0], generator=extra)
        with pytest.raises(AssertionError, match=f"projectivity: {msg}"):
            weight_enumerator(code)
        subcode = LinearCode(field=GF(3), n=None, k=None, N=41, K=gen.shape[0],
                             generator=extra.copy())
        assert weight_enumerator(subcode).total() == 3 ** gen.shape[0]


@pytest.mark.parametrize("q", ALL_Q)
def test_proportional_pairs_against_direct_comparison(q):
    # random nonzero columns, then planted zero, equal and scaled copies;
    # K up to 20 puts q^K far beyond int64 at q = 16
    f, rng = GF(q), np.random.default_rng(q)
    for big_k in (1, 2, 3, 5, 20):
        cols = [c for c in rng.integers(0, q, size=(12, big_k)).tolist() if any(c)]
        for kind in rng.choice(("zero", "equal", "scaled"), size=8).tolist():
            pick = cols[rng.integers(len(cols))] if cols else [1] * big_k
            lam = int(rng.integers(1, q))
            cols.append([0] * big_k if kind == "zero" else
                        pick if kind == "equal" else [int(f.mul_table[lam, x]) for x in pick])
        gen = np.array(cols, dtype=np.uint8)[rng.permutation(len(cols))].T.copy()
        z = int(np.count_nonzero(gen.any(axis=0)))
        pp = oracle_proportional_pairs(q, gen.tolist())
        with pytest.raises(AssertionError) as exc:
            codes._check_power_moments(f, gen, WeightEnumerator({}), projective=True)
        assert str(exc.value) == (f"projectivity: {z} nonzero columns, expected N = {gen.shape[1]}; "
                                  f"{pp} ordered pairs of proportional columns, expected 0")


def test_weight_enumerator_dataclass_helpers():
    we = WeightEnumerator({0: 1, 3: 6, 5: 2})
    assert we.d_min == 3
    assert we.total() == 9
