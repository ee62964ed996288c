"""Command-line front end: reproducible runs with machine-readable reports.

JSON goes to stdout, human-readable logging to stderr.  Exit codes:
0 = pass, 1 = verification mismatch, 2 = usage error, 3 = budget refusal.
Identical invocations (including --seed and --threads) produce identical
JSON except for the elapsed-seconds field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import formulas
from .codes import (
    DEFAULT_BUDGET,
    BudgetError,
    _estimate_ops,
    build_code,
    codeword_from_form,
    min_distance,
    weight_enumerator,
    write_generator,
)
from .forms import (
    count_common_isotropic_lines,
    count_n1,
    eigen_analysis,
    random_alternating_form,
    standard_symplectic,
    worst_case_theta,
    AlternatingForm,
)
from .gf import GF
from .grassmann import count_isotropic
from .linalg import read_matrix_text

SLOW_BUDGET = 10**13
SLOW_THRESHOLD = 10**9  # sweeps estimated above this run only with --slow
BUILD_POINTS = 5_000_000  # larger point sets are refused (exit 3)
VERIFY_POINTS = 2_000_000  # larger point sets are not verification targets


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(command: str, parameters: dict, results: dict, seconds: float, seed=None) -> None:
    report = {
        "command": command,
        "parameters": parameters,
        "results": results,
        "seconds": round(seconds, 6),
        "seed": seed,
    }
    print(json.dumps(report, sort_keys=True, indent=2))


def _field(q: int):
    try:
        return GF(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


class UsageError(ValueError):
    pass


def _check_nkq(n: int, k: int, q: int) -> None:
    if not 1 <= k <= n:
        raise UsageError(f"need 1 <= k <= n, got n={n}, k={k}")
    _field(q)


def _gate(args) -> tuple[int, int, int, int, bool]:
    """Decide, from the closed forms and before anything is built, what a
    command may build and sweep.

    Returns (N, K, sweep estimate, budget, sweep admitted) for the chosen
    method.  build and weights refuse a point set over BUILD_POINTS, and
    weights a sweep over its budget (BudgetError, exit 3).  verify and bounds
    skip a sweep that is not admitted: one over the budget, or over
    SLOW_THRESHOLD without --slow.
    """
    _check_nkq(args.n, args.k, args.q)
    big_n = formulas.length(args.n, args.k, args.q)
    big_k = formulas.dimension(args.n, args.k)
    est = _estimate_ops(args.q, big_k, big_n, getattr(args, "method", "codeword"))
    slow = getattr(args, "slow", False)
    budget = getattr(args, "budget", None)
    if budget is None:
        budget = SLOW_BUDGET if slow else DEFAULT_BUDGET
    if args.subcommand in ("build", "weights") and big_n > BUILD_POINTS:
        raise BudgetError(big_n, BUILD_POINTS)
    if args.subcommand == "weights" and est > budget:
        raise BudgetError(est, budget)
    return big_n, big_k, est, budget, est <= budget and (slow or est <= SLOW_THRESHOLD)


# ---------------------------------------------------------------------------
# subcommands


def cmd_params(args) -> int:
    t0 = time.perf_counter()
    _check_nkq(args.n, args.k, args.q)
    p = formulas.code_params(args.n, args.k, args.q)
    results = {
        "N": p.N,
        "K": p.K,
        "d_min": p.d_min,
        "d_min_proved": p.d_min_proved,
    }
    _log(f"W({args.n},{args.k}) over GF({args.q}): N={p.N} K={p.K} "
         + (f"d_min={p.d_min}" if p.d_min_proved else "d_min unproved"))
    _emit("params", {"n": args.n, "k": args.k, "q": args.q}, results, time.perf_counter() - t0)
    return 0


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    _, big_k, est, _, _ = _gate(args)
    code = build_code(args.n, args.k, _field(args.q))
    write_generator(args.output, code)
    results = {
        "N": code.N,
        "K": code.K,
        "expected_K": big_k,
        "rank_ok": code.K == big_k,
        "output": args.output,
        "sweep_estimate_ops": est,
    }
    _log(f"wrote generator [{code.N},{code.K}] to {args.output}")
    _emit("build", {"n": args.n, "k": args.k, "q": args.q}, results, time.perf_counter() - t0)
    return 0 if results["rank_ok"] else 1


def cmd_weights(args) -> int:
    t0 = time.perf_counter()
    budget = _gate(args)[3]
    code = build_code(args.n, args.k, _field(args.q))
    we = weight_enumerator(code, method=args.method, threads=args.threads, budget=budget)
    seconds = time.perf_counter() - t0

    verdicts = {}
    table = formulas.known_table(args.n, args.k, args.q)
    if table is not None:
        verdicts["table_match"] = we.distribution == table
        _log(f"table comparison: {'MATCH' if verdicts['table_match'] else 'MISMATCH'}")
    else:
        verdicts["table_match"] = None
        _log("no full weight table is proved for this code; comparing d_min only")
    p = formulas.code_params(args.n, args.k, args.q)
    if p.d_min_proved:
        verdicts["dmin_match"] = we.d_min == p.d_min
        _log(f"d_min={we.d_min} vs formula {p.d_min}: "
             f"{'MATCH' if verdicts['dmin_match'] else 'MISMATCH'}")
    else:
        verdicts["dmin_match"] = None
        _log(f"d_min={we.d_min} (no proved formula for this case)")

    results = {
        "n": args.n,
        "k": args.k,
        "q": args.q,
        "N": code.N,
        "K": code.K,
        "distribution": {str(w): c for w, c in sorted(we.distribution.items())},
        "d_min": we.d_min,
        "method": args.method,
        "seconds": round(seconds, 6),
    }
    results.update(verdicts)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(results, fh, sort_keys=True, indent=2)
        _log(f"wrote enumerator report to {args.output}")
    _emit("weights", {"n": args.n, "k": args.k, "q": args.q, "method": args.method,
                      "threads": args.threads, "budget": budget}, results, seconds)
    failed = any(v is False for v in verdicts.values())
    return 1 if failed else 0


def _eta_report(sigma, theta, q: int, n: int) -> dict:
    dec = eigen_analysis(sigma, theta)
    n1 = count_n1(sigma, theta)
    eta = count_common_isotropic_lines(sigma, theta)
    rhs = formulas.line_identity_rhs(n, q, n1)
    residual = (q + 1) * eta - rhs
    big_n = formulas.length(n, 2, q)
    return {
        "N1": n1,
        "eta": eta,
        "N": big_n,
        "N_minus_eta": big_n - eta,
        "eigen_dims": sorted(dec.dims),
        "eigenvalues": sorted(lam for lam, _ in dec.pairs),
        "diagonalizable": dec.diagonalizable,
        "e1_residual": residual,
    }


def cmd_eta(args) -> int:
    t0 = time.perf_counter()
    if args.n < 2:
        raise UsageError("eta needs n >= 2")
    f = _field(args.q)
    sigma = standard_symplectic(args.n, f)
    seed = None
    if args.theta == "worst":
        theta = worst_case_theta(sigma)
        results = _eta_report(sigma, theta, args.q, args.n)
        results["dmin_formula"] = formulas.dmin_line(args.n, args.q)
        results["theta_source"] = "worst"
    elif args.theta == "random":
        seed = args.seed if args.seed is not None else 0
        rng = np.random.default_rng(seed)
        trials = []
        for _ in range(args.trials):
            theta = random_alternating_form(f, 2 * args.n, rng)
            trials.append(_eta_report(sigma, theta, args.q, args.n))
        results = {
            "theta_source": "random",
            "trials": args.trials,
            "all_residuals_zero": all(t["e1_residual"] == 0 for t in trials),
            "sample": trials[: min(5, len(trials))],
        }
    else:
        form_field, gram = read_matrix_text(args.theta)
        if form_field != f:
            raise UsageError(f"theta file is over GF({form_field.q}), expected GF({args.q})")
        theta = AlternatingForm(f, gram)
        results = _eta_report(sigma, theta, args.q, args.n)
        results["theta_source"] = args.theta
    bad = results.get("e1_residual", 0) != 0 or results.get("all_residuals_zero") is False
    _log("line-count identity residual "
         + ("is ZERO (pass)" if not bad else "is NONZERO (fail)"))
    _emit("eta", {"n": args.n, "q": args.q, "theta": args.theta, "trials": args.trials},
          results, time.perf_counter() - t0, seed=seed)
    return 1 if bad else 0


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    sweep = _gate(args)[4]
    p = formulas.code_params(args.n, args.k, args.q)
    results: dict = {"N": p.N, "K": p.K, "d_min": p.d_min, "d_min_proved": p.d_min_proved}
    d = p.d_min
    if d is None:
        if sweep:
            code = build_code(args.n, args.k, _field(args.q))
            d = min_distance(code)
            results["d_min"] = d
            results["d_min_computed"] = True
    if args.k == 2:
        g = formulas.grassmann_bound_line(args.n, args.q)
        exact = formulas.grassmann_bound_line_exact(args.n, args.q)
        results["grassmann_lower_bound"] = g
        results["grassmann_lower_bound_integral"] = exact.denominator == 1
        results["grassmann_bound_holds"] = None if d is None else g <= d
        _log(f"higher-weight lower bound {g} <= d_min"
             + (f" {d}: {'OK' if g <= d else 'VIOLATED'}" if d is not None else " (unknown)"))
    if args.k == args.n:
        pz = formulas.pz_upper(args.n, args.q)
        results["pz_upper_bound"] = pz
        results["pz_bound_holds"] = None if d is None else d <= pz
        results["pz_bound_sharp"] = None if d is None else d == pz
        if d is not None:
            _log(f"Lagrangian upper bound: d_min {d} <= {pz}"
                 + (" (not sharp)" if d < pz else " (sharp)"))
    _emit("bounds", {"n": args.n, "k": args.k, "q": args.q}, results, time.perf_counter() - t0)
    ok = results.get("grassmann_bound_holds", True) is not False and \
        results.get("pz_bound_holds", True) is not False
    return 0 if ok else 1


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    big_n, big_k, est, budget, sweep = _gate(args)
    n, k, q = args.n, args.k, args.q
    f = _field(q)
    checks: dict[str, dict] = {}
    seed = args.seed if args.seed is not None else 0

    def record(name: str, ok: bool | None, **info):
        checks[name] = {"pass": ok, **info}
        verdict = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
        _log(f"{verdict} {name}" + (f" {info}" if info else ""))

    # point count against the closed-form length, Plücker rank against the dimension
    code = None
    if big_n <= VERIFY_POINTS:
        got = count_isotropic(n, k, f)
        record("length", got == big_n, enumerated=got, formula=big_n)
        code = build_code(n, k, f)
        record("dimension", code.K == big_k, rank=code.K, formula=big_k)
    else:
        record("length", None, reason="point set too large; not a verification target")
        record("dimension", None, reason="point set too large")

    # minimum distance / weight table sweeps
    p = formulas.code_params(n, k, q)
    if code is not None and sweep:
        we = weight_enumerator(code, method=args.method, threads=args.threads, budget=budget)
        if p.d_min_proved:
            record("d_min", we.d_min == p.d_min, swept=we.d_min, formula=p.d_min)
        else:
            record("d_min", None, swept=we.d_min, reason="no proved value")
        table = formulas.known_table(n, k, q)
        if table is not None:
            record("weight_table", we.distribution == table)
        sums_ok = we.total() == q**code.K
        scalar_ok = all(c % (q - 1) == 0 for w, c in we.distribution.items() if w > 0)
        record("sum_and_scalar_rules", sums_ok and scalar_ok)
    elif code is not None:
        record("d_min", None, reason="sweep locked; rerun with --slow", estimate=est)

    # line-count identity and the worst-case construction (line codes)
    if k == 2:
        sigma = standard_symplectic(n, f)
        rng = np.random.default_rng(seed)
        bad = 0
        for _ in range(args.trials):
            theta = random_alternating_form(f, 2 * n, rng)
            n1 = count_n1(sigma, theta)
            eta = count_common_isotropic_lines(sigma, theta)
            if (q + 1) * eta != formulas.line_identity_rhs(n, q, n1):
                bad += 1
        record("line_identity_random", bad == 0, trials=args.trials, failures=bad)

        theta = worst_case_theta(sigma)
        rep = _eta_report(sigma, theta, q, n)
        n1, weight = rep["N1"], rep["N_minus_eta"]
        ok = rep["eigen_dims"] == sorted((2, 2 * n - 2)) and n1 == formulas.n1_max(n, q)
        record("worst_case_theta", ok and weight == formulas.dmin_line(n, q),
               eigen_dims=rep["eigen_dims"], N1=n1, weight=weight)
        if code is not None:
            _, cw_weight = codeword_from_form(code, theta)
            record("worst_case_codeword", cw_weight == formulas.dmin_line(n, q),
                   weight=cw_weight)

    overall = all(c["pass"] is not False for c in checks.values())
    _log("verify: " + ("ALL CHECKS PASS" if overall else "MISMATCH DETECTED"))
    _emit("verify", {"n": n, "k": k, "q": q, "slow": args.slow, "trials": args.trials,
                     "method": args.method, "threads": args.threads, "budget": budget},
          {"checks": checks, "overall_pass": overall}, time.perf_counter() - t0, seed=seed)
    return 0 if overall else 1


# ---------------------------------------------------------------------------
# argument parsing


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _threads(text: str) -> int:
    """At least 1, capped at the number of cores so no request starts more threads."""
    return min(_positive(text), os.cpu_count() or 1)


def _add_common(sp):
    sp.add_argument("--threads", type=_threads, default=1,
                    help="worker threads for sweeps (capped at the core count)")
    sp.add_argument("--budget", type=int, default=None,
                    help=f"sweep operation budget (default {DEFAULT_BUDGET:.0e})")
    sp.add_argument("--slow", action="store_true",
                    help="unlock the long sweeps (W(3,2) q=3, W(3,3) q=3, W(4,2) q=2)")
    sp.add_argument("--method", choices=["codeword", "hyperplane"], default="codeword")


def _add_trials(sp):
    sp.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    sp.add_argument("--trials", type=_positive, default=25, help="number of random-form trials")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sympgrass",
        description="Symplectic Grassmann codes: parameters, weight enumerators, verification",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("params", help="print N, K and (when proved) d_min")
    for name in ("n", "k", "q"):
        sp.add_argument(name, type=int)
    sp.set_defaults(func=cmd_params)

    sp = sub.add_parser("build", help="write the generator matrix to a file")
    for name in ("n", "k", "q"):
        sp.add_argument(name, type=int)
    sp.add_argument("--output", required=True)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("weights", help="exact weight enumerator by exhaustive sweep")
    for name in ("n", "k", "q"):
        sp.add_argument(name, type=int)
    _add_common(sp)
    sp.add_argument("--output", default=None, help="also write the enumerator JSON here")
    sp.set_defaults(func=cmd_weights)

    sp = sub.add_parser("eta", help="common-isotropic-line counts for a second form")
    sp.add_argument("n", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--theta", default="worst",
                    help="'worst', 'random', or a matrix text file path")
    _add_trials(sp)
    sp.set_defaults(func=cmd_eta)

    sp = sub.add_parser("verify", help="run every applicable check for (n,k,q)")
    for name in ("n", "k", "q"):
        sp.add_argument(name, type=int)
    _add_common(sp)
    _add_trials(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bounds", help="lower/upper bounds with ordering verdicts")
    for name in ("n", "k", "q"):
        sp.add_argument(name, type=int)
    sp.set_defaults(func=cmd_bounds)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetError as exc:
        _log(f"refused: {exc}")
        return 3
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return 2
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
