"""Projective codes from the Plücker point set, with exact exhaustive sweeps.

The generator matrix of W(n,k) is obtained by row-reducing the transpose
of the N x C(2n,k) Plücker matrix; the nonzero rows span exactly the code.

Weight enumeration sweeps the whole message space.  Messages are processed
in blocks: a table of all combinations of the last t generator rows is
built once, and each block adds one fixed combination of the remaining
rows, so the amortized cost per codeword is one vectorized row update.
For q = 2 the table is bit-packed into uint64 words and weights come from
hardware popcounts.  The hyperplane method sweeps one message per
projective functional instead (counting hyperplane sections), and scales
counts by q - 1; both methods must produce identical distributions.

Sweeps above a configurable operation budget are refused up front with a
cost estimate (BudgetError) so CLI behavior stays predictable.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .forms import AlternatingForm
from .gf import Field
from .grassmann import isotropic_stack, plucker_batch
from .linalg import read_matrix_text, rref, write_matrix_text

DEFAULT_BUDGET = 10**11


class BudgetError(RuntimeError):
    """Raised when a sweep's estimated cost exceeds the allowed budget."""

    def __init__(self, estimated_ops: int, budget: int):
        super().__init__(
            f"sweep estimated at {estimated_ops:.2e} symbol operations, "
            f"over the budget of {budget:.2e}; raise --budget (or use --slow) to run it"
        )
        self.estimated_ops = estimated_ops
        self.budget = budget


@dataclass
class WeightEnumerator:
    """Exact map weight -> codeword count, zero word included at weight 0."""

    distribution: dict[int, int]

    @staticmethod
    def from_histogram(hist: np.ndarray) -> "WeightEnumerator":
        return WeightEnumerator({int(w): int(c) for w, c in enumerate(hist) if c})

    @property
    def d_min(self) -> int:
        return min(w for w, c in self.distribution.items() if w > 0 and c > 0)

    def total(self) -> int:
        return sum(self.distribution.values())

    def nonzero_weights(self) -> list[int]:
        return sorted(w for w, c in self.distribution.items() if w > 0 and c > 0)


@dataclass(eq=False)
class LinearCode:
    """A linear [N, K] code over GF(q) with its generator matrix.

    For codes built from the symplectic Grassmannian, (n, k) records the
    origin and point_bases holds the isotropic subspace bases in column
    order (column j of the generator evaluates the points at index j).
    """

    field: Field
    n: int | None
    k: int | None
    N: int
    K: int
    generator: np.ndarray
    point_bases: np.ndarray | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.generator.shape != (self.K, self.N):
            raise ValueError("generator shape must be (K, N)")
        self.generator.setflags(write=False)

    def __repr__(self) -> str:
        origin = f"W({self.n},{self.k}) " if self.n is not None else ""
        return f"LinearCode({origin}[{self.N},{self.K}] over GF({self.field.q}))"


def build_code(n: int, k: int, field: Field) -> LinearCode:
    """The code W(n,k): span of the coordinate functionals on the point set."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    bases = isotropic_stack(n, k, field)
    pl = plucker_batch(field, bases)
    transposed = np.ascontiguousarray(pl.T)
    reduced, rk, _ = rref(field, transposed)
    return LinearCode(
        field=field,
        n=n,
        k=k,
        N=pl.shape[0],
        K=rk,
        generator=reduced[:rk].copy(),
        point_bases=bases,
    )


# ---------------------------------------------------------------------------
# sweep engine


def _pick_table_size(q: int, k_rows: int) -> int:
    t = 1
    while t + 1 <= k_rows and q ** (t + 1) <= 8192:
        t += 1
    return min(t, k_rows)


def _low_table(f: Field, rows: np.ndarray) -> np.ndarray:
    """All combinations of the given rows; the LAST row is the fastest digit,
    so table[:q^s] covers exactly the messages supported on the last s rows."""
    table = np.zeros((1, rows.shape[1]), dtype=np.uint8)
    for r in range(rows.shape[0] - 1, -1, -1):
        blocks = [table]
        for lam in range(1, f.q):
            scaled = f.arr_mul(rows[r], np.uint8(lam))
            blocks.append(f.arr_add(table, scaled[None, :]))
        table = np.concatenate(blocks, axis=0)
    return table


def _combo_row(f: Field, rows: np.ndarray, h: int) -> np.ndarray:
    """Combination of rows with base-q digits of h, last row = fastest digit."""
    base = np.zeros(rows.shape[1], dtype=np.uint8)
    idx = rows.shape[0] - 1
    while h > 0 and idx >= 0:
        lam = h % f.q
        if lam:
            base = f.arr_add(base, f.arr_mul(rows[idx], np.uint8(lam)))
        h //= f.q
        idx -= 1
    return base


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack (B, N) GF(2) rows into (B, ceil(N/64)) uint64 words."""
    nrows, ncols = bits.shape
    words = max(1, (ncols + 63) // 64)
    packed8 = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little")
    out8 = np.zeros((nrows, words * 8), dtype=np.uint8)
    out8[:, : packed8.shape[1]] = packed8
    return out8.view(np.uint64)


def _block_weights(f: Field, table: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Hamming weights of table[i] + base over GF(q), vectorized per block."""
    ncols = table.shape[1]
    if f.e == 1:
        z = table + base[None, :]  # values stay below 2q <= 32, no wraparound
        w = ncols - np.count_nonzero(z == 0, axis=1) - np.count_nonzero(z == f.q, axis=1)
        return w
    z = f.arr_add(table, base[None, :])
    return np.count_nonzero(z, axis=1)


def _estimate_ops(q: int, big_k: int, big_n: int, method: str) -> int:
    n_codewords = q**big_k if method == "codeword" else (q**big_k - 1) // (q - 1)
    return n_codewords * big_n


def _sweep_histogram(
    f: Field, gen: np.ndarray, method: str, threads: int
) -> np.ndarray:
    """Exact weight histogram (length N+1 int64) by exhaustive block sweep."""
    big_k, big_n = gen.shape
    q = f.q
    packed = q == 2
    t = _pick_table_size(q, big_k if method == "codeword" else max(big_k - 1, 1))
    table = _low_table(f, gen[big_k - t :])
    table_p = _pack_rows(table) if packed else None

    if method == "codeword":
        high = gen[: big_k - t]
        tasks: list[tuple] = [(None, h) for h in range(q ** (big_k - t))]
    elif method == "hyperplane":
        tasks = []
        for lead in range(big_k):
            s = big_k - 1 - lead
            if s <= t:
                tasks.append((lead, None))
            else:
                tasks.extend((lead, h) for h in range(q ** (s - t)))
    else:
        raise ValueError(f"unknown sweep method {method!r}")

    def base_for(task) -> np.ndarray:
        lead, h = task
        if lead is None:
            return _combo_row(f, high, h)
        base = gen[lead].copy()
        if h is not None:
            mid = gen[lead + 1 : big_k - t]
            base = f.arr_add(base, _combo_row(f, mid, h))
        return base

    mult = 1 if method == "codeword" else q - 1

    def run(task_chunk) -> np.ndarray:
        hist = np.zeros(big_n + 1, dtype=np.int64)
        for task in task_chunk:
            lead, h = task
            base = base_for(task)
            if lead is None:
                block_p, block = table_p, table
            else:
                size = q ** (big_k - 1 - lead) if h is None else None
                block = table[:size] if size is not None else table
                block_p = table_p[:size] if (packed and size is not None) else table_p
            if packed:
                w = np.bitwise_count(block_p ^ _pack_rows(base[None, :])[0]).sum(
                    axis=1, dtype=np.int64
                )
            else:
                w = _block_weights(f, block, base)
            hist += mult * np.bincount(w, minlength=big_n + 1)
        return hist

    if threads <= 1 or len(tasks) < 4:
        hist = run(tasks)
    else:
        n_chunks = min(len(tasks), threads * 4)
        bounds = np.linspace(0, len(tasks), n_chunks + 1, dtype=int)
        chunks = [tasks[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        hist = np.zeros(big_n + 1, dtype=np.int64)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(run, chunks):
                hist += part

    if method == "hyperplane":
        hist[0] += 1  # the zero word is not covered by projective functionals
    return hist


def weight_enumerator(
    code: LinearCode,
    method: str = "codeword",
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> WeightEnumerator:
    """Exact weight distribution of the code by exhaustive sweep.

    method 'codeword' walks all q^K messages; 'hyperplane' walks the
    (q^K - 1)/(q - 1) projective functionals and scales by q - 1.
    """
    f = code.field
    est = _estimate_ops(f.q, code.K, code.N, method)
    if est > budget:
        raise BudgetError(est, budget)
    hist = _sweep_histogram(f, code.generator, method, threads)
    we = WeightEnumerator.from_histogram(hist)
    if we.total() != f.q**code.K:
        raise AssertionError("sweep histogram does not sum to q^K; internal error")
    return we


def min_distance(
    code: LinearCode,
    method: str = "codeword",
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Smallest nonzero codeword weight, by an exhaustive sweep."""
    return weight_enumerator(code, method=method, threads=threads, budget=budget).d_min


def codeword_from_form(code: LinearCode, theta: AlternatingForm) -> tuple[np.ndarray, int]:
    """The codeword of W(n,2) cut out by an alternating form, with its weight.

    Entry j is theta evaluated on the canonical basis pair of point j, so
    the weight is N minus the number of lines isotropic for both forms.
    """
    if code.k != 2:
        raise ValueError("form-induced codewords require a line code W(n,2)")
    if code.point_bases is None:
        raise ValueError("code carries no point bases (was it read from a file?)")
    if theta.field != code.field or theta.dim != 2 * code.n:
        raise ValueError("theta must be an alternating form on the same V(2n, q)")
    vals = theta.evaluate(code.point_bases[:, 0], code.point_bases[:, 1])
    return vals, int(np.count_nonzero(vals))


# ---------------------------------------------------------------------------
# generator matrix files: header "q K N", then K rows of N encodings

GENERATOR_HEADER = "q rows cols"


def write_generator(dest, code: LinearCode) -> None:
    write_matrix_text(dest, code.field, code.generator, GENERATOR_HEADER)


def read_generator(src) -> LinearCode:
    f, gen = read_matrix_text(src, GENERATOR_HEADER)
    return LinearCode(field=f, n=None, k=None, N=gen.shape[1], K=gen.shape[0], generator=gen)
