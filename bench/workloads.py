"""The benchmark's workloads: inputs, jobs, and the correctness gate.

Every job returns (work units, errors).  The gate checks each result by a
route independent of the code that produced it: closed-form lengths and
dimensions, the exact W(2,2)/W(3,3) weight tables and d_min formulas, the
first moment of a binary code, the double-counting identity for lines,
and the CLI's own exit code and verdict.

Library functions are always reached through their module (``codes.build_code``,
not an imported name), so that the traced pass can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import time
from functools import partial

import numpy as np

from sympgrass import cli, codes, forms, formulas, gf

from spans import sweep_ops

SWEEP_THREADS = 1

# (n, k, q): the three q=3 builds stress Plücker and rref, q=8 the
# extension-field enumeration filter, W(5,2) q=2 and W(3,2) q=5 wide cells.
BUILD_CASES = ((4, 2, 3), (4, 3, 3), (4, 4, 3), (5, 2, 2), (3, 2, 5), (3, 3, 8))

# (n, k, q, method): every arithmetic path of the sweep engine and both
# methods, each long enough to time; the codes themselves build in < 0.1 s.
SWEEP_CASES = (
    (3, 3, 3, "hyperplane"),
    (2, 2, 13, "codeword"),
    (2, 2, 11, "codeword"),
    (2, 2, 9, "codeword"),
    (2, 2, 8, "codeword"),
    (2, 2, 16, "hyperplane"),
)
# The packed GF(2) path: the subcode spanned by the first rows of W(4,2) q=2.
SUBCODE = (4, 2, 2, 24)

# (n, q, trials): about 260 random second forms in all.
LINE_TRIALS = ((3, 3, 60), (3, 4, 50), (4, 2, 60), (3, 5, 50), (4, 3, 40))

# (n, k, q) for `sympgrass verify`.
VERIFY_CASES = ((4, 2, 3), (4, 4, 3), (3, 2, 4), (2, 2, 13), (3, 3, 4))


# ---------------------------------------------------------------------------
# the gate


def check_build(n: int, k: int, q: int, big_n: int, big_k: int, enumerated=None) -> list[str]:
    errors = []
    if big_n != formulas.length(n, k, q):
        errors.append(f"N={big_n}, formula {formulas.length(n, k, q)}")
    if big_k != formulas.dimension(n, k):
        errors.append(f"K={big_k}, formula {formulas.dimension(n, k)}")
    if enumerated is not None and enumerated != formulas.length(n, k, q):
        errors.append(f"enumerated {enumerated} points, formula {formulas.length(n, k, q)}")
    return errors


def check_table(n: int, k: int, q: int, distribution: dict[int, int]) -> list[str]:
    """Exact W(2,2) or W(3,3) table, and d_min against its own formula."""
    table = formulas.w22_table(q) if (n, k) == (2, 2) else formulas.w33_table(q)
    expected_d = formulas.dmin_line(n, q) if k == 2 else formulas.dmin_dps3(q)
    errors = []
    if distribution != table:
        errors.append(f"W({n},{k}) q={q} enumerator differs from the exact table")
    swept_d = min((w for w, c in distribution.items() if w > 0 and c > 0), default=None)
    if swept_d != expected_d:
        errors.append(f"d_min={swept_d}, formula {expected_d}")
    return errors


def check_binary_moments(distribution: dict[int, int], big_k: int, nonzero_cols: int) -> list[str]:
    """A binary [N, K] code: 2^K words, and each nonzero column is 1 in half of them."""
    errors = []
    total = sum(distribution.values())
    if total != 2**big_k:
        errors.append(f"{total} codewords, expected 2^{big_k}")
    moment = sum(w * c for w, c in distribution.items())
    if moment != nonzero_cols * 2 ** (big_k - 1):
        errors.append(f"first moment {moment}, expected {nonzero_cols}*2^{big_k - 1}")
    return errors


def check_line_identity(n: int, q: int, n1: int, eta: int) -> list[str]:
    rhs = formulas.line_identity_rhs(n, q, n1)
    return [] if (q + 1) * eta == rhs else [f"(q+1)*eta={(q + 1) * eta}, identity gives {rhs}"]


def check_verify(rc: int, report: dict) -> list[str]:
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    results = report.get("results", {})
    if results.get("overall_pass") is not True:
        errors.append("overall_pass is not true")
    if not any(c.get("pass") is True for c in results.get("checks", {}).values()):
        errors.append("no check passed")
    return errors


# ---------------------------------------------------------------------------
# jobs


def build_job(tr, n: int, k: int, q: int):
    before = tr.counts["grassmann.enum_points"] if tr.enabled else 0
    code = codes.build_code(n, k, gf.GF(q))
    enumerated = tr.counts["grassmann.enum_points"] - before if tr.enabled else None
    with tr.span("formulas.check"):
        return code.N, check_build(n, k, q, code.N, code.K, enumerated)


def sweep_job(tr, code, method: str, check):
    we = codes.weight_enumerator(code, method=method, threads=SWEEP_THREADS)
    with tr.span("formulas.check"):
        errors = check(we.distribution)
    return sweep_ops(code.field.q, code.K, code.N, method), errors


def line_trial(tr, sigma, gram: np.ndarray):
    f = sigma.field
    with tr.span("forms.form_init"):
        theta = forms.AlternatingForm(f, gram)
    n1 = forms.count_n1(sigma, theta)
    eta = forms.count_common_isotropic_lines(sigma, theta)
    with tr.span("formulas.check"):
        return 1, check_line_identity(sigma.n, f.q, n1, eta)


def verify_job(tr, n: int, k: int, q: int, seed: int):
    argv = ["verify", str(n), str(k), str(q), "--seed", str(seed),
            "--threads", str(SWEEP_THREADS)]
    out, err = io.StringIO(), io.StringIO()
    with tr.span("cli.verify"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        report = {}
    checks = report.get("results", {}).get("checks", {}).values()
    tr.count("cli.checks_passed", sum(c.get("pass") is True for c in checks))
    tr.count("cli.checks_skipped", sum(c.get("pass") is None for c in checks))
    with tr.span("formulas.check"):
        return 1, check_verify(rc, report)


# ---------------------------------------------------------------------------
# set-up: everything a job needs, made before the timed span


def setup_build(seed: int, tr):
    for q in sorted({q for _, _, q in BUILD_CASES}):
        gf.GF(q)
    return [(f"W({n},{k}) q={q}", partial(build_job, tr, n, k, q)) for n, k, q in BUILD_CASES]


def setup_sweep(seed: int, tr):
    jobs = []
    for n, k, q, method in SWEEP_CASES:
        code = codes.build_code(n, k, gf.GF(q))
        jobs.append((f"W({n},{k}) q={q} {method}",
                     partial(sweep_job, tr, code, method, partial(check_table, n, k, q))))
    n, k, q, rows = SUBCODE
    full = codes.build_code(n, k, gf.GF(q))
    sub = codes.LinearCode(field=full.field, n=None, k=None, N=full.N, K=rows,
                           generator=full.generator[:rows].copy())
    nonzero_cols = int(np.count_nonzero(sub.generator.any(axis=0)))
    check = partial(check_binary_moments, big_k=rows, nonzero_cols=nonzero_cols)
    jobs.append((f"W({n},{k}) q={q} {rows}-row subcode packed",
                 partial(sweep_job, tr, sub, "codeword", check)))
    return jobs


def draw_grams(f, dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count uniformly random alternating Gram matrices, shape (count, dim, dim)."""
    upper = np.triu(rng.integers(0, f.q, size=(count, dim, dim), dtype=np.uint8), k=1)
    return upper + f.neg_table[upper.transpose(0, 2, 1)]


def setup_lines(seed: int, tr):
    rng = np.random.default_rng(seed)
    jobs = []
    for n, q, trials in LINE_TRIALS:
        f = gf.GF(q)
        sigma = forms.standard_symplectic(n, f)
        for i, gram in enumerate(draw_grams(f, 2 * n, trials, rng)):
            jobs.append((f"n={n} q={q} trial {i}", partial(line_trial, tr, sigma, gram)))
    return jobs


def setup_verify(seed: int, tr):
    return [(f"verify {n} {k} {q}", partial(verify_job, tr, n, k, q, seed))
            for n, k, q in VERIFY_CASES]


# name -> (set-up, unit of work, whether per-job percentiles are reported)
WORKLOADS = {
    "build": (setup_build, "points", False),
    "sweep": (setup_sweep, "symbol_ops", False),
    "lines": (setup_lines, "trials", True),
    "verify": (setup_verify, "cases", False),
}


# ---------------------------------------------------------------------------
# the timed span


def run_jobs(jobs) -> dict:
    """Run jobs one at a time; a job that raises counts as failed."""
    job_s, failures = [], []
    work = 0
    t0, c0 = time.perf_counter(), time.process_time()
    for label, job in jobs:
        s = time.perf_counter()
        try:
            units, errors = job()
        except Exception as exc:  # reported as a failed job, the run goes on
            units, errors = 0, [f"raised {exc!r}"]
        job_s.append(time.perf_counter() - s)
        work += units
        if errors:
            failures.append(f"{label}: {'; '.join(errors)}")
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "work": work,
        "attempted": len(job_s),
        "failed": len(failures),
        "failures": failures[:20],
        "job_s": job_s,
    }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def process_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "sweep_threads": SWEEP_THREADS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
