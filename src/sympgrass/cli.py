"""Command-line front end: reproducible runs with machine-readable reports.

JSON goes to stdout, human-readable logging to stderr.  Exit codes:
0 = pass, 1 = verification mismatch, 2 = usage error, 3 = budget refusal
(and a verify whose every check the gate skipped).
Identical invocations (including --seed and --threads) produce identical
JSON except for the elapsed seconds: the top-level "seconds" field, and
"results.seconds" in a weights report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import formulas
from .codes import build_code, codeword_from_form, weight_enumerator, write_generator
from .forms import (
    count_common_isotropic_lines,
    count_isotropic,
    count_n1,
    eigen_profile,
    random_alternating_form,
    standard_symplectic,
    worst_case_theta,
    AlternatingForm,
)
from .gf import GF
from .linalg import read_matrix_text

DEFAULT_BUDGET = 10**11
# larger point sets are refused (exit 3) or skipped; W(11,1) q=2 has this many,
# and every point set within it has N < 2^24 and at most 2^28 Plücker minors
BUILD_POINTS = 4_194_303


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
    if n > 300:  # a fixed limit: every closed form up to it takes under a second
        raise UsageError(f"n={n} is over the largest supported n, 300")
    _field(q)


def _exponent(x: int) -> int:
    """floor(log10(x)) for a positive integer of any size."""
    exp = int(math.log10(x))  # a float logarithm, off by one at worst
    return exp + (x >= 10 ** (exp + 1)) - (x < 10**exp)


def _sci(x: int) -> str:
    """x as 1.23e+45, for an integer of any size (a float overflows above
    about 1e308, and str() refuses integers of more than 4300 digits)."""
    if x < 10**300:
        return f"{x:.2e}"
    exp = _exponent(x)
    return f"{x // 10 ** (exp - 2) / 100:.2f}e+{exp}"


class BudgetError(RuntimeError):
    """A run refused before anything is built (exit 3)."""


def _estimate_ops(q: int, big_k: int, big_n: int) -> int:
    """Symbol operations of a sweep: N per projective message.  The sweep
    transforms one block per orbit of the scalars and the torus of Sp(2n, q),
    so for q > 2 this charges more blocks than it transforms: an upper bound.
    Charging the orbit blocks is left to the gate's recalibration."""
    return (q**big_k - 1) // (q - 1) * big_n


def _eta_ops(n: int, q: int, counts: int) -> int:
    """A conservative bound on `counts` eta counts in the sweep estimate's
    unit, 4n symbol operations per 2-subspace of V(2n, q), kept so that the
    gate admits the same runs; eta does far less (eta 8 2: 2.3e10, 0.04 s)."""
    return counts * 4 * n * formulas.gaussian_binomial(2 * n, 2, q)


def _verdict(what: str, estimate: int, budget: int, remedy: str) -> str | None:
    """None if the estimate is within the budget, else the reason and its remedy."""
    if estimate <= budget:
        return None
    return (f"{what} estimated at {_sci(estimate)} symbol operations, over the budget of "
            f"{_sci(budget)} ({remedy})")


class Gate(NamedTuple):
    """W(n,k)'s closed forms, and each stage's verdict: None if admitted, else
    why not; in verify's table build admits length and dimension, sweep d_min."""

    params: formulas.CodeParams
    budget: int
    estimate: int | None  # of the sweep; None for a point set over BUILD_POINTS
    build: str | None
    sweep: str | None  # a refused build refuses the sweep for the same reason
    lines: str | None  # eta's counts or verify's line checks; None where there are none


def _gate(args) -> Gate:
    """Decide, from the closed forms and before anything is built, what a
    command may build, sweep and count.

    A point set is built only within BUILD_POINTS, which no option lifts.  A
    sweep, verify's line checks and eta's counts are each admitted if their
    estimate is within the one budget: --budget where the command has it,
    else DEFAULT_BUDGET.  build, weights and eta raise the verdict of their
    stage (BudgetError, exit 3); verify records each one as the reason its
    checks are skipped.  q^K is only computed for a point set within
    BUILD_POINTS, so that no n makes the estimate itself costly.  N bounds
    every closed form a report prints, so an N too long to print is a usage
    error.
    """
    n, k, q, command = args.n, args.k, args.q, args.subcommand
    _check_nkq(n, k, q)
    params = formulas.code_params(n, k, q)
    big_n = params.N
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if max_digits and _exponent(big_n) >= max_digits:
        raise UsageError(f"W({n},{k}) over GF({q}): N has {_exponent(big_n) + 1} digits, over "
                         f"Python's limit of {max_digits} digits for printing an integer")
    budget = getattr(args, "budget", None) or DEFAULT_BUDGET

    lines = None
    if command == "eta":  # --trials counts only for random forms
        random = args.theta == "random"
        lines = _verdict("eta counts", _eta_ops(n, q, args.trials if random else 1), budget,
                         "lower n, q or --trials" if random else "lower n or q")
    elif command == "verify" and k == 2:  # the random trials and the worst case
        lines = _verdict("eta counts", _eta_ops(n, q, args.trials + 1), budget, "raise --budget")
    est = build = None
    if big_n > BUILD_POINTS:
        build = sweep = (f"W({n},{k}) over GF({q}) has {_sci(big_n)} points, over the "
                         f"BUILD_POINTS limit of {_sci(BUILD_POINTS)}; no option lifts it")
    else:
        est = _estimate_ops(q, params.K, big_n)
        sweep = _verdict("sweep", est, budget, "raise --budget")
    return Gate(params, budget, est, build, sweep, lines)


# ---------------------------------------------------------------------------
# subcommands


def _closed_forms(args) -> tuple[formulas.CodeParams, dict]:
    """Gate the command; W(n,k)'s closed forms and the four keys that params
    and bounds both report."""
    p = _gate(args).params
    return p, {"N": p.N, "K": p.K, "d_min": p.d_min, "d_min_proved": p.d_min_proved}


def cmd_params(args) -> int:
    t0 = time.perf_counter()
    p, results = _closed_forms(args)
    _log(f"W({args.n},{args.k}) over GF({args.q}): N={p.N} K={p.K} "
         + (f"d_min={p.d_min}" if p.d_min_proved else "d_min unproved"))
    _emit("params", {"n": args.n, "k": args.k, "q": args.q}, results, time.perf_counter() - t0)
    return 0


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    gate = _gate(args)
    if gate.build:
        raise BudgetError(gate.build)
    with open(args.output, "w") as fh:  # before the build, so a bad path fails at once
        code = build_code(args.n, args.k, _field(args.q))
        write_generator(fh, code)
    results = {
        "N": code.N,
        "K": code.K,
        "expected_K": gate.params.K,
        "rank_ok": code.K == gate.params.K,
        "output": args.output,
        "sweep_estimate_ops": gate.estimate,
    }
    _log(f"wrote generator [{code.N},{code.K}] to {args.output}")
    _emit("build", {"n": args.n, "k": args.k, "q": args.q}, results, time.perf_counter() - t0)
    return 0 if results["rank_ok"] else 1


class Checks(dict):
    """Checks by name, each {"pass": ok, **info}, logged as it is recorded."""

    def record(self, name: str, ok: bool | None, **info) -> None:
        """ok is True (passed), False (failed) or None (skipped)."""
        self[name] = {"pass": ok, **info}
        verdict = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
        _log(f"{verdict} {name}" + (f" {info}" if info else ""))


def _sweep(code, p: formulas.CodeParams, threads: int, checks: Checks):
    """Sweep every codeword and record d_min against the proved value, the
    distribution against the proved table (where there is one) and the
    sweep's postconditions; the enumerator, or None if a postcondition
    (weight_enumerator's sum, scalar, power-moment and projectivity rules)
    failed."""
    try:
        we = weight_enumerator(code, method="hyperplane", threads=threads)
    except AssertionError as exc:
        checks.record("sweep_postconditions", False, error=str(exc))
        return None
    if p.d_min_proved:
        checks.record("d_min", we.d_min == p.d_min, swept=we.d_min, formula=p.d_min)
    else:
        checks.record("d_min", None, swept=we.d_min, reason="no proved value")
    table = formulas.known_table(p.n, p.k, p.q)
    if table is not None:
        checks.record("weight_table", we.distribution == table)
    checks.record("sweep_postconditions", True)
    return we


def cmd_weights(args) -> int:
    t0 = time.perf_counter()
    gate = _gate(args)
    if gate.sweep:
        raise BudgetError(gate.sweep)
    # opened before the sweep, so that an unwritable --output fails at once
    with open(args.output, "w") if args.output else contextlib.nullcontext() as fh:
        code = build_code(args.n, args.k, _field(args.q))
        results = {"n": args.n, "k": args.k, "q": args.q, "N": code.N, "K": code.K}
        checks = Checks()
        we = _sweep(code, gate.params, args.threads, checks)
        if we is None:
            results["sweep_postconditions"] = checks["sweep_postconditions"]
        else:
            results["distribution"] = {str(w): c for w, c in sorted(we.distribution.items())}
            results["d_min"] = we.d_min
            results["table_match"] = checks.get("weight_table", {}).get("pass")
            results["dmin_match"] = checks["d_min"]["pass"]
        seconds = time.perf_counter() - t0
        results["seconds"] = round(seconds, 6)
        if fh:
            json.dump(results, fh, sort_keys=True, indent=2)
            _log(f"wrote enumerator report to {args.output}")
    _emit("weights", {"n": args.n, "k": args.k, "q": args.q, "threads": args.threads,
                      "budget": gate.budget}, results, seconds)
    return 1 if any(c["pass"] is False for c in checks.values()) else 0


def _eta_report(sigma, theta, big_n: int) -> dict:
    """theta's eigen profile, N1 and eta against sigma; big_n is W(n,2)'s length."""
    n, q = sigma.n, sigma.field.q
    profile = eigen_profile(sigma, theta)
    n1 = sum((q**d - 1) // (q - 1) for d in profile.values())
    eta = count_common_isotropic_lines(sigma, theta)
    rhs = formulas.line_identity_rhs(n, q, n1)
    residual = (q + 1) * eta - rhs
    return {
        "N1": n1,
        "eta": eta,
        "N": big_n,
        "N_minus_eta": big_n - eta,
        "eigen_dims": sorted(profile.values()),
        "eigenvalues": sorted(profile),
        "diagonalizable": sum(profile.values()) == 2 * n,
        "e1_residual": residual,
    }


def cmd_eta(args) -> int:
    t0 = time.perf_counter()
    if args.n < 2:
        raise UsageError("eta needs n >= 2")
    gate = _gate(args)
    if gate.lines:
        raise BudgetError(gate.lines)
    f = _field(args.q)
    sigma = standard_symplectic(args.n, f)
    seed = None
    if args.theta == "worst":
        theta = worst_case_theta(sigma)
        results = _eta_report(sigma, theta, gate.params.N)
        results["dmin_formula"] = gate.params.d_min
        results["theta_source"] = "worst"
    elif args.theta == "random":
        seed = args.seed if args.seed is not None else 0
        rng = np.random.default_rng(seed)
        sample, all_zero = [], True  # only the reports that are printed are kept
        for _ in range(args.trials):
            theta = random_alternating_form(f, 2 * args.n, rng)
            rep = _eta_report(sigma, theta, gate.params.N)
            all_zero = all_zero and rep["e1_residual"] == 0
            if len(sample) < 5:
                sample.append(rep)
        results = {
            "theta_source": "random",
            "trials": args.trials,
            "all_residuals_zero": all_zero,
            "sample": sample,
        }
    else:
        form_field, gram = read_matrix_text(args.theta)
        if form_field != f:
            raise UsageError(f"theta file is over GF({form_field.q}), expected GF({args.q})")
        theta = AlternatingForm(f, gram)
        results = _eta_report(sigma, theta, gate.params.N)
        results["theta_source"] = args.theta
    bad = results.get("e1_residual", 0) != 0 or results.get("all_residuals_zero") is False
    _log("line-count identity residual "
         + ("is ZERO (pass)" if not bad else "is NONZERO (fail)"))
    _emit("eta", {"n": args.n, "q": args.q, "theta": args.theta, "trials": args.trials},
          results, time.perf_counter() - t0, seed=seed)
    return 1 if bad else 0


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    p, results = _closed_forms(args)
    d = p.d_min
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
    gate = _gate(args)
    p = gate.params
    n, k, q = args.n, args.k, args.q
    f = _field(q)
    checks = Checks()
    seed = args.seed if args.seed is not None else 0
    code = sigma = theta = None
    if k == 2 and (gate.lines is None or gate.build is None):  # a k = 2 row runs (n may be large)
        sigma = standard_symplectic(n, f)
        theta = worst_case_theta(sigma)

    def build():  # point count against the closed-form length, Plücker rank against K
        nonlocal code
        got = count_isotropic(n, k, f)
        checks.record("length", got == p.N, enumerated=got, formula=p.N)
        code = build_code(n, k, f)
        checks.record("dimension", code.K == p.K, rank=code.K, formula=p.K)

    def lines():  # the line-count identity for random forms, and the worst-case form
        rng = np.random.default_rng(seed)
        thetas = (random_alternating_form(f, 2 * n, rng) for _ in range(args.trials))
        bad = sum((q + 1) * count_common_isotropic_lines(sigma, t)
                  != formulas.line_identity_rhs(n, q, count_n1(sigma, t)) for t in thetas)
        checks.record("line_identity_random", bad == 0, trials=args.trials, failures=bad)
        rep = _eta_report(sigma, theta, p.N)
        ok = rep["eigen_dims"] == [2, 2 * n - 2] and rep["N1"] == formulas.n1_max(n, q)
        checks.record("worst_case_theta", ok and rep["N_minus_eta"] == p.d_min,
                      eigen_dims=rep["eigen_dims"], N1=rep["N1"], weight=rep["N_minus_eta"])

    def codeword():
        weight = codeword_from_form(code, theta)[1]
        checks.record("worst_case_codeword", weight == p.d_min, weight=weight)

    # each row: its checks, whether they apply to (n, k), whether they need the
    # code (such a row is left out where the build is refused), the gate verdict
    # that admits them (None: no verdict of their own), the info each SKIP
    # records beside the verdict as its reason, and what runs them
    for names, applies, needs_code, verdict, info, run in (
        (("length", "dimension"), True, False, gate.build, {}, build),
        (("d_min",), True, True, gate.sweep, {"estimate": gate.estimate},
         lambda: _sweep(code, p, args.threads, checks)),
        (("line_identity_random", "worst_case_theta"), k == 2, False, gate.lines, {}, lines),
        (("worst_case_codeword",), k == 2, True, None, {}, codeword),
    ):
        if not applies or needs_code and gate.build:
            continue
        if verdict:
            for name in names:
                checks.record(name, None, **info, reason=verdict)
        else:
            run()

    # None when every check was skipped: a verify that checked nothing does not pass
    passes = [c["pass"] for c in checks.values() if c["pass"] is not None]
    overall = all(passes) if passes else None
    _log("verify: " + {True: "ALL CHECKS PASS", False: "MISMATCH DETECTED",
                       None: "NO CHECK RAN"}[overall])
    _emit("verify", {"n": n, "k": k, "q": q, "trials": args.trials, "threads": args.threads,
                     "budget": gate.budget},
          {"checks": checks, "overall_pass": overall}, time.perf_counter() - t0, seed=seed)
    return {True: 0, False: 1, None: 3}[overall]


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(low: int):
    """An argparse type: an int of at least low, refused at parse time."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _threads(text: str) -> int:
    """At least 1, capped at the CPUs this process may run on (its affinity
    set where the platform reports one) so no request starts more threads."""
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    return min(_at_least(1)(text), usable)


def _add_common(sp):
    sp.add_argument("--threads", type=_threads, default=1,
                    help="worker threads for sweeps (capped at the usable cores)")
    sp.add_argument("--budget", type=_at_least(1), default=None,
                    help="symbol operations allowed to the sweep and the line checks "
                         f"(default {DEFAULT_BUDGET:.0e})")


def _add_trials(sp):
    sp.add_argument("--seed", type=_at_least(0), default=None, help="seed for randomized checks")
    sp.add_argument("--trials", type=_at_least(1), default=25, help="number of random-form trials")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sympgrass",
        description="Symplectic Grassmann codes: parameters, weight enumerators, verification",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    nkq = ("n", "k", "q")
    # name, handler, help, positionals, options of its own, option groups
    for name, handler, text, positionals, options, groups in (
        ("params", cmd_params, "print N, K and (when proved) d_min", nkq, {}, ()),
        ("build", cmd_build, "write the generator matrix to a file", nkq,
         {"--output": {"required": True}}, ()),
        ("weights", cmd_weights, "exact weight enumerator by exhaustive sweep", nkq,
         {"--output": {"default": None, "help": "also write the enumerator JSON here"}},
         (_add_common,)),
        ("eta", cmd_eta, "common-isotropic-line counts for a second form", ("n", "q"),
         {"--theta": {"default": "worst",
                      "help": "'worst', 'random', or a matrix text file path"}},
         (_add_trials,)),
        ("verify", cmd_verify, "run every applicable check for (n,k,q)", nkq, {},
         (_add_common, _add_trials)),
        ("bounds", cmd_bounds, "lower/upper bounds with ordering verdicts", nkq, {}, ()),
    ):
        sp = sub.add_parser(name, help=text)
        for positional in positionals:
            sp.add_argument(positional, type=int)
        for flag, spec in options.items():
            sp.add_argument(flag, **spec)
        for group in groups:
            group(sp)
        sp.set_defaults(func=handler)
    sub.choices["eta"].set_defaults(k=2)  # eta counts lines
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
