"""CLI behavior: JSON reports, exit codes, determinism."""

import json
import os
import shlex
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest

from sympgrass import cli, codes, formulas, forms, grassmann
from sympgrass.cli import build_parser, main
from sympgrass.gf import GF
from sympgrass.linalg import read_matrix_text

from oracles import eigen_analysis

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def strip_seconds(report):
    out = json.loads(json.dumps(report))
    out.pop("seconds", None)
    if isinstance(out.get("results"), dict):
        out["results"].pop("seconds", None)
    return out


def test_params_proved(capsys):
    code, report, err = run_cli(capsys, "params", "3", "3", "2")
    assert code == 0
    assert report["results"] == {"N": 135, "K": 14, "d_min": 48, "d_min_proved": True}


def test_params_22_q3(capsys):
    code, report, _ = run_cli(capsys, "params", "2", "2", "3")
    assert code == 0
    assert report["results"]["N"] == 40
    assert report["results"]["K"] == 5
    assert report["results"]["d_min"] == 24


def test_params_unproved(capsys):
    code, report, err = run_cli(capsys, "params", "4", "3", "2")
    assert code == 0
    assert report["results"]["d_min"] is None
    assert report["results"]["d_min_proved"] is False
    assert "unproved" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "params", "2", "3", "2")[0] == 2  # k > n
    assert run_cli(capsys, "params", "2", "2", "6")[0] == 2  # not a prime power
    assert main(["nonsense"]) == 2


def test_readme_cli_commands_parse():
    # each sympgrass line of the README's CLI block, less its environment
    # assignments and comment, is accepted by the parser and admitted by the
    # gate as written (nothing runs), so the README shows no option the CLI
    # has dropped and no run its budget refuses
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        while words and "=" in words[0]:  # NAME=value before the command
            words.pop(0)
        if words:
            assert words[0] == "sympgrass", line
            commands.append(words[1:])
    assert len(commands) >= 10
    for argv in commands:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the README's `sympgrass {shlex.join(argv)}` does not parse")
        gate = cli._gate(args)
        assert gate.build is gate.sweep is gate.lines is None, argv


def test_weights_w22_match(capsys):
    code, report, err = run_cli(capsys, "weights", "2", "2", "2")
    assert code == 0
    res = report["results"]
    assert res["distribution"] == {"0": 1, "6": 10, "8": 15, "10": 6}
    assert res["d_min"] == 6
    assert res["table_match"] is True and res["dmin_match"] is True
    assert "PASS weight_table" in err and "PASS d_min" in err


def test_weights_budget_refusal(capsys):
    code, _, err = run_cli(capsys, "weights", "4", "2", "2")
    assert code == 3
    assert "budget" in err.lower()


def test_weights_hyperplane_method(capsys, monkeypatch):
    # weights and verify sweep the hyperplane blocks, the one message set of
    # the CLI; no report names a method, and --method is no option
    methods = []

    def spy(code, **kwargs):
        methods.append(kwargs["method"])
        return codes.weight_enumerator(code, **kwargs)

    monkeypatch.setattr(cli, "weight_enumerator", spy)
    code, report, _ = run_cli(capsys, "weights", "2", "2", "3")
    assert code == 0 and report["results"]["table_match"] is True
    code, checked, _ = run_cli(capsys, "verify", "2", "2", "3", "--trials", "1")
    assert code == 0 and checked["results"]["checks"]["weight_table"]["pass"] is True
    assert methods == ["hyperplane", "hyperplane"]
    for rep in (report, checked):
        assert "method" not in rep["parameters"] and "method" not in rep["results"]
    for argv in (["weights", "2", "2", "3", "--method", "hyperplane"],
                 ["verify", "2", "2", "3", "--method", "codeword"]):
        assert run_cli(capsys, *argv)[:2] == (2, None), argv


def test_weights_no_table_case(capsys):
    code, report, _ = run_cli(capsys, "weights", "3", "2", "2")
    assert code == 0
    res = report["results"]
    assert res["table_match"] is None
    assert res["dmin_match"] is True and res["d_min"] == 120


def test_eta_worst(capsys):
    code, report, _ = run_cli(capsys, "eta", "2", "2", "--theta", "worst")
    assert code == 0
    res = report["results"]
    assert res["N1"] == 6 and res["eta"] == 9 and res["N_minus_eta"] == 6
    assert res["e1_residual"] == 0
    assert res["eigen_dims"] == [2, 2]
    assert res["eigenvalues"] == [0, 1] and res["diagonalizable"] is True


def test_eta_random_deterministic(capsys):
    code1, rep1, _ = run_cli(capsys, "eta", "2", "3", "--theta", "random",
                             "--seed", "7", "--trials", "10")
    code2, rep2, _ = run_cli(capsys, "eta", "2", "3", "--theta", "random",
                             "--seed", "7", "--trials", "10")
    assert code1 == code2 == 0
    assert rep1["results"]["all_residuals_zero"] is True
    assert strip_seconds(rep1) == strip_seconds(rep2)


def test_eta_analyses_each_form_once(capsys, monkeypatch):
    calls = []
    orig = forms.eigen_profile

    def counted(sigma, theta):
        calls.append(theta)
        return orig(sigma, theta)

    monkeypatch.setattr(forms, "eigen_profile", counted)
    monkeypatch.setattr(cli, "eigen_profile", counted)
    code, report, _ = run_cli(capsys, "eta", "3", "4", "--theta", "random",
                              "--seed", "7", "--trials", "20")
    assert code == 0 and len(calls) == 20
    # N1 and eta as counted by the library's own entry points
    f = GF(4)
    sigma = forms.standard_symplectic(3, f)
    rng = np.random.default_rng(7)
    for trial in report["results"]["sample"]:
        theta = forms.random_alternating_form(f, 6, rng)
        assert trial["N1"] == forms.count_n1(sigma, theta)
        assert trial["eta"] == forms.count_common_isotropic_lines(sigma, theta)
        # the eigen fields against the eigenspaces found through sigma's inverse
        pairs, diagonalizable = eigen_analysis(sigma, theta)
        assert trial["eigenvalues"] == [lam for lam, _ in pairs]
        assert trial["eigen_dims"] == sorted(space.shape[0] for _, space in pairs)
        assert trial["diagonalizable"] == diagonalizable
    assert report["results"]["all_residuals_zero"] is True


def test_eta_from_file(capsys, tmp_path):
    from sympgrass.forms import standard_symplectic, worst_case_theta
    from sympgrass.gf import GF
    from sympgrass.linalg import write_matrix_text

    th = worst_case_theta(standard_symplectic(2, GF(2)))
    path = tmp_path / "theta.txt"
    write_matrix_text(path, GF(2), th.gram)
    code, report, _ = run_cli(capsys, "eta", "2", "2", "--theta", str(path))
    assert code == 0
    assert report["results"]["eta"] == 9


def test_build_writes_generator(capsys, tmp_path):
    out = tmp_path / "gen.txt"
    code, report, _ = run_cli(capsys, "build", "2", "2", "3", "--output", str(out))
    assert code == 0
    assert report["results"]["rank_ok"] is True
    assert out.read_text().splitlines()[0] == "3 5 40"
    field, gen = read_matrix_text(out, codes.GENERATOR_HEADER)
    assert field == GF(3)
    assert np.array_equal(gen, codes.build_code(2, 2, GF(3)).generator)


def test_bounds_22(capsys):
    code, report, _ = run_cli(capsys, "bounds", "2", "2", "2")
    assert code == 0
    res = report["results"]
    assert res["grassmann_lower_bound"] == 4
    assert res["d_min"] == 6
    assert res["grassmann_bound_holds"] is True
    assert res["pz_upper_bound"] == 8
    assert res["pz_bound_holds"] is True and res["pz_bound_sharp"] is False


def test_bounds_33(capsys):
    code, report, _ = run_cli(capsys, "bounds", "3", "3", "2")
    assert code == 0
    res = report["results"]
    assert res["pz_upper_bound"] == 64 and res["d_min"] == 48
    assert res["pz_bound_sharp"] is False


def test_verify_small_passes(capsys):
    code, report, err = run_cli(capsys, "verify", "2", "2", "2", "--trials", "10",
                                "--seed", "3")
    assert code == 0
    assert report["results"]["overall_pass"] is True
    checks = report["results"]["checks"]
    for name in ("length", "dimension", "d_min", "weight_table",
                 "line_identity_random", "worst_case_theta", "worst_case_codeword"):
        assert checks[name]["pass"] is True, name
    assert "ALL CHECKS PASS" in err


def test_verify_skips_locked_sweep(capsys):
    # the W(3,2) q=4 sweep (2.1e12) is over the default budget; verify still
    # runs counts
    code, report, _ = run_cli(capsys, "verify", "3", "2", "4", "--trials", "5",
                              "--seed", "1")
    assert code == 0
    checks = report["results"]["checks"]
    assert checks["length"]["pass"] is True
    assert checks["dimension"]["pass"] is True
    assert checks["d_min"]["pass"] is None  # skipped, not failed


def test_verify_names_the_limit_a_skipped_sweep_crosses(capsys):
    # a sweep over --budget is skipped, and its reason names the budget
    code, report, _ = run_cli(capsys, "verify", "2", "2", "3", "--budget", "1000")
    assert code == 0
    checks = report["results"]["checks"]
    reason = checks["d_min"]["reason"]
    assert "4.84e+03" in reason and "budget of 1.00e+03" in reason and "--budget" in reason
    # and so are the line checks, whose reason names the same limit
    for name in ("line_identity_random", "worst_case_theta"):
        assert checks[name]["pass"] is None and checks[name]["reason"] == (
            "eta counts estimated at 2.70e+04 symbol operations, over the budget of "
            "1.00e+03 (raise --budget)"), name
    # W(3,2) q=3, 8.72e9: over a budget of 1e9, and within the default one
    code, report, _ = run_cli(capsys, "verify", "3", "2", "3", "--trials", "1",
                              "--budget", "1000000000")
    reason = report["results"]["checks"]["d_min"]["reason"]
    assert code == 0 and reason == ("sweep estimated at 8.71e+09 symbol operations, over the "
                                    "budget of 1.00e+09 (raise --budget)")
    gate = cli._gate(build_parser().parse_args(["verify", "3", "2", "3"]))  # not run here
    assert gate.sweep is None and gate.budget == cli.DEFAULT_BUDGET


def move_one_word(monkeypatch):
    """Move one word of W(2,2) q=3 from weight 24 (A_24 = 90) to 25 in every
    sweep: the q^K total holds and the scalar rule breaks."""
    orig = codes._transform_histogram

    def wrong(*args):
        hist = orig(*args).copy()
        hist[24] -= 1
        hist[25] += 1
        return hist

    monkeypatch.setattr(codes, "_transform_histogram", wrong)


def test_verify_reports_a_failed_sweep_postcondition(capsys, monkeypatch):
    # verify still prints its JSON, names the failure in
    # sweep_postconditions and exits 1
    move_one_word(monkeypatch)
    code, report, err = run_cli(capsys, "verify", "2", "2", "3", "--trials", "1")
    assert code == 1
    results = report["results"]
    assert results["checks"]["sweep_postconditions"] == {
        "pass": False, "error": "scalar rule: A_24 = 89, not divisible by q - 1 = 2"}
    assert results["overall_pass"] is False
    assert "MISMATCH DETECTED" in err


def test_weights_reports_a_failed_sweep_postcondition(capsys, monkeypatch, tmp_path):
    # weights prints its JSON, writes the same report to --output and
    # exits 1, with no traceback
    move_one_word(monkeypatch)
    out = tmp_path / "w22.json"
    code, report, err = run_cli(capsys, "weights", "2", "2", "3", "--output", str(out))
    assert code == 1
    results = report["results"]
    assert results["sweep_postconditions"] == {
        "pass": False, "error": "scalar rule: A_24 = 89, not divisible by q - 1 = 2"}
    assert "distribution" not in results and "Traceback" not in err
    assert json.loads(out.read_text()) == results


def test_verify_that_runs_no_check_does_not_pass(capsys, monkeypatch):
    # W(4,3) q=4 and W(8,2) q=2 are over BUILD_POINTS, and the line checks
    # (k = 2) of W(8,2) q=2 (6.0e11) over the default budget; so are those of
    # W(300,2) q=16 with one trial
    for name in ("build_code", "count_isotropic", "weight_enumerator", "standard_symplectic"):
        monkeypatch.setattr(cli, name, refuse)
    for argv in (["4", "3", "4"], ["8", "2", "2"], ["300", "2", "16", "--trials", "1"]):
        code, report, err = run_cli(capsys, "verify", *argv)
        checks = report["results"]["checks"]
        assert code == 3 and report["results"]["overall_pass"] is None, argv
        assert checks and all(c["pass"] is None for c in checks.values()), argv
        assert "verify: NO CHECK RAN" in err and "ALL CHECKS PASS" not in err, argv


def test_simplex_codes_get_a_table_match(capsys):
    code, report, _ = run_cli(capsys, "weights", "2", "1", "3")
    res = report["results"]
    assert code == 0 and res["distribution"] == {"0": 1, "27": 80}
    assert res["table_match"] is True and res["dmin_match"] is True
    code, report, _ = run_cli(capsys, "verify", "3", "1", "2")
    checks = report["results"]["checks"]
    assert code == 0
    assert checks["d_min"] == {"pass": True, "swept": 32, "formula": 32}
    assert checks["weight_table"]["pass"] is True
    code, report, _ = run_cli(capsys, "bounds", "2", "1", "2")
    assert report["results"]["d_min"] == 8 and "d_min_computed" not in report["results"]


def test_verify_json_deterministic(capsys):
    _, rep1, _ = run_cli(capsys, "verify", "2", "2", "3", "--trials", "8", "--seed", "5")
    _, rep2, _ = run_cli(capsys, "verify", "2", "2", "3", "--trials", "8", "--seed", "5")
    assert strip_seconds(rep1) == strip_seconds(rep2)


def test_weights_output_file(capsys, tmp_path):
    out = tmp_path / "w22.json"
    code, report, _ = run_cli(capsys, "weights", "2", "2", "2", "--output", str(out))
    assert code == 0
    written = json.loads(out.read_text())
    assert written["distribution"] == report["results"]["distribution"]


def test_unwritable_output_fails_before_the_work(capsys, tmp_path):
    # --output is opened after the gate and before the build: a bad path
    # exits 2 at once (these runs take seconds), and a refusal (exit 3)
    # creates no file
    missing = str(tmp_path / "no_such_dir" / "x")
    start = time.perf_counter()
    assert run_cli(capsys, "weights", "4", "2", "2", "--budget", "1000000000000",
                   "--output", missing)[0] == 2
    assert run_cli(capsys, "build", "4", "3", "3", "--output", missing)[0] == 2
    assert time.perf_counter() - start < 1
    out = tmp_path / "out"
    assert run_cli(capsys, "weights", "4", "2", "2", "--output", str(out))[0] == 3
    assert run_cli(capsys, "build", "5", "3", "3", "--output", str(out))[0] == 3
    assert not out.exists()


def test_eta_rejects_malformed_theta_file(capsys, tmp_path):
    path = tmp_path / "theta.txt"
    rows = "\n".join(" ".join(["0"] * 4) for _ in range(4))
    path.write_text(f"4 4 3\n{rows}\n0 0 0 0\n")  # one row too many
    assert run_cli(capsys, "eta", "2", "3", "--theta", str(path))[0] == 2
    path.write_text(f"4 1000000000 3\n{rows}\n")  # header claims 10^9 columns
    assert run_cli(capsys, "eta", "2", "3", "--theta", str(path))[0] == 2
    # an entry past int64 is out of range for GF(3), not an OverflowError
    path.write_text("4 4 3\n0 99999999999999999999 0 0\n" + "0 0 0 0\n" * 3)
    code, _, err = run_cli(capsys, "eta", "2", "3", "--theta", str(path))
    assert code == 2 and "out of range for GF(3)" in err


def test_order_zero_is_a_usage_error(capsys, tmp_path):
    # q = 0 once looped forever in the prime-power factorization
    start = time.perf_counter()
    assert run_cli(capsys, "params", "2", "2", "0")[0] == 2
    assert run_cli(capsys, "verify", "2", "2", "0")[0] == 2
    assert run_cli(capsys, "eta", "2", "0")[0] == 2
    path = tmp_path / "theta.txt"
    rows = "\n".join(" ".join(["0"] * 4) for _ in range(4))
    path.write_text(f"4 4 0\n{rows}\n")
    assert run_cli(capsys, "eta", "2", "2", "--theta", str(path))[0] == 2
    assert time.perf_counter() - start < 1


def test_threads_and_trials_validated(capsys):
    args = build_parser().parse_args(["weights", "2", "2", "2", "--threads", "100000"])
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert args.threads == usable  # capped before any thread starts
    assert run_cli(capsys, "weights", "2", "2", "2", "--threads", "0")[0] == 2
    assert run_cli(capsys, "eta", "2", "3", "--theta", "random", "--trials", "0")[0] == 2
    assert run_cli(capsys, "verify", "2", "2", "2", "--trials", "0")[0] == 2
    assert run_cli(capsys, "weights", "2", "2", "2", "--seed", "1")[0] == 2  # no such option
    assert run_cli(capsys, "weights", "2", "2", "3", "--budget", "-1")[0] == 2
    assert run_cli(capsys, "verify", "2", "2", "3", "--budget", "0")[0] == 2


def test_threads_capped_at_the_cpus_the_process_may_use(monkeypatch):
    # under taskset or a cpuset fewer cores are usable than the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for command in ("weights", "verify"):
        assert build_parser().parse_args([command, "2", "2", "2", "--threads", "2"]).threads == 1


def test_a_negative_seed_is_refused_before_any_work(capsys, monkeypatch):
    # numpy refuses a negative seed only when the first random form is
    # drawn, after the build (and the sweep, when admitted); the parser
    # refuses it first, with no JSON
    for name in ("count_isotropic", "build_code", "weight_enumerator", "count_n1"):
        monkeypatch.setattr(cli, name, refuse)
    for argv in (["verify", "4", "2", "3"], ["verify", "2", "2", "3"],
                 ["eta", "2", "3", "--theta", "random"]):
        code, report, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, report) == (2, None) and "--seed" in err
    assert build_parser().parse_args(["verify", "2", "2", "3", "--seed", "0"]).seed == 0


PEAK_SCRIPT = r"""
import contextlib, io
from sympgrass import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "3", "2", "8", "--trials", "1"])
# VmHWM is the peak resident set of this process's own address space; on
# Linux ru_maxrss would also carry the peak of the process that started it
with open("/proc/self/status") as status:
    peak_kb = int(status.read().split("VmHWM:")[1].split()[0])
print(code, peak_kb)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM (Linux)")
def test_verify_w32_q8_peaks_below_300_mb():
    # W(3,2) q=8 (2 434 185 lines) is the largest line code verify builds;
    # its worst-case codeword is read as a message on the generator, so no
    # product over the points lifts the peak above the build's
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PEAK_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb <= 300 * 1024, f"peak {peak_kb / 1024:.0f} MB"


def test_gate_refuses_before_building(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("built a code the gate should have refused")

    monkeypatch.setattr(cli, "build_code", no_build)
    monkeypatch.setattr(cli, "count_isotropic", no_build)
    assert run_cli(capsys, "weights", "4", "3", "3")[0] == 3  # sweep over budget
    assert run_cli(capsys, "weights", "4", "3", "4")[0] == 3  # 24 million points
    # every check skipped: the report is printed and the run exits 3, not 0
    code, report, _ = run_cli(capsys, "verify", "4", "3", "4")
    assert code == 3 and report["results"]["checks"]["length"]["pass"] is None


def test_weights_admits_every_sweep_within_the_budget(capsys, monkeypatch):
    # W(3,2) q=3 is estimated at 8.7e9 operations, within the default
    # budget, so the gate admits it with no option; --slow is not an option,
    # so it is a usage error that prints no JSON
    monkeypatch.setattr(cli, "build_code", refuse)
    gate = cli._gate(build_parser().parse_args(["weights", "3", "2", "3"]))  # not run here
    assert gate.estimate <= gate.budget == cli.DEFAULT_BUDGET and gate.sweep is None
    for command in ("weights", "verify"):
        code, report, err = run_cli(capsys, command, "3", "2", "3", "--slow")
        assert code == 2 and report is None and "unrecognized arguments: --slow" in err
    # W(2,2) q=16: 69 905 projective messages of length 4369, 3.1e8
    gate = cli._gate(build_parser().parse_args(["weights", "2", "2", "16"]))
    assert gate.sweep is None and gate.estimate == (16**5 - 1) // 15 * 4369


def test_verify_enumerates_points_once(capsys, monkeypatch):
    # the length check fills the point-set cache that build_code reads
    calls = []
    orig = grassmann.iter_isotropic_batches

    def counted(f, grams, k):
        calls.append(k)
        return orig(f, grams, k)

    grassmann.isotropic_stack.cache_clear()
    monkeypatch.setattr(grassmann, "iter_isotropic_batches", counted)
    code, report, _ = run_cli(capsys, "verify", "3", "2", "2", "--trials", "1")
    assert code == 0 and report["results"]["overall_pass"] is True
    assert calls.count(2) == 1


def refuse(*args, **kwargs):
    raise AssertionError("reached work the gate should have refused")


def test_gate_caps_n(capsys, monkeypatch, tmp_path):
    # no closed form is evaluated for an n over the cap
    for name in ("length", "dimension", "gaussian_binomial"):
        monkeypatch.setattr(formulas, name, refuse)
    for argv in (["params", "100000000", "2", "2"], ["bounds", "100000000", "2", "2"],
                 ["weights", "3000", "2", "2"], ["verify", "3000", "2", "2"],
                 ["build", "1000000", "1", "2", "--output", str(tmp_path / "gen.txt")],
                 ["eta", "100000000", "2"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "largest supported n" in err, argv


def test_gate_refuses_huge_point_sets_by_n(capsys, monkeypatch, tmp_path):
    # N = 2^600 - 1 is refused on N alone; the message counts points and
    # names the fixed limit, which no option lifts
    monkeypatch.setattr(cli, "build_code", refuse)
    monkeypatch.setattr(cli, "_estimate_ops", refuse)
    for argv in (["weights", "300", "1", "2"],
                 ["build", "300", "1", "2", "--output", str(tmp_path / "gen.txt")]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and "4.15e+180" in err and "points" in err, argv
        assert "BUILD_POINTS" in err and "--budget" not in err, argv
    assert cli._sci(2**5000) == "1.41e+1505"


def test_closed_forms_too_long_to_print(capsys, monkeypatch):
    # W(300,300) q=16: N has 54 367 digits, over Python's 4300-digit limit
    for command in ("params", "bounds"):
        code, report, err = run_cli(capsys, command, "300", "300", "16")
        assert code == 2 and report is None, command
        assert "W(300,300) over GF(16)" in err and "54367 digits" in err, command
    # N of W(300,2) q=16 has about 1440 digits and still prints
    monkeypatch.setattr(cli, "build_code", refuse)
    code, report, _ = run_cli(capsys, "bounds", "300", "2", "16")
    assert code == 0 and report["results"]["N"] == formulas.length(300, 2, 16)


def test_eta_refuses_over_the_budget(capsys, monkeypatch):
    # eta 12 2: 4.7e13 candidate lines per count; eta 3 2 with 10^8 trials
    for mod in (cli, forms):
        monkeypatch.setattr(mod, "count_common_isotropic_lines", refuse)
    monkeypatch.setattr(cli, "standard_symplectic", refuse)
    code, _, err = run_cli(capsys, "eta", "12", "2")
    # one count whatever --trials says, so the remedy does not name it
    assert code == 3 and err.endswith("(lower n or q)\n")
    assert run_cli(capsys, "eta", "9", "3", "--theta", "random")[0] == 3
    code, _, err = run_cli(capsys, "eta", "3", "2", "--theta", "random", "--trials", "100000000")
    assert code == 3 and err.endswith("(lower n, q or --trials)\n")


def test_eta_and_verify_decide_the_same_counts_alike():
    # verify's line checks are 25 random counts and the worst case, so they
    # are admitted exactly where eta's 26 random counts are
    for n in range(2, 13):
        for q in FIELD_ORDERS:
            eta = cli._gate(build_parser().parse_args(
                ["eta", str(n), str(q), "--theta", "random", "--trials", "26"]))
            verify = cli._gate(build_parser().parse_args(["verify", str(n), "2", str(q)]))
            assert (eta.lines is None) == (verify.lines is None), (n, q)


def test_verify_skips_line_checks_over_the_budget(capsys, monkeypatch):
    # W(7,2) q=2: 26 eta counts, estimated at 3.3e10, are within the default
    # budget and run, though its 22 million points are over BUILD_POINTS
    monkeypatch.setattr(cli, "build_code", refuse)
    monkeypatch.setattr(cli, "count_isotropic", refuse)
    code, report, _ = run_cli(capsys, "verify", "7", "2", "2", "--seed", "1")
    checks = report["results"]["checks"]
    assert code == 0 and report["results"]["overall_pass"] is True
    assert checks["line_identity_random"]["pass"] is checks["worst_case_theta"]["pass"] is True
    # W(8,2) q=2: those of 6.0e11 are over it, and the 358 million points too
    for mod in (cli, forms):
        monkeypatch.setattr(mod, "count_common_isotropic_lines", refuse)
    code, report, err = run_cli(capsys, "verify", "8", "2", "2")
    assert code == 3  # no check ran
    checks = report["results"]["checks"]
    for name in ("line_identity_random", "worst_case_theta"):
        reason = checks[name]["reason"]
        assert checks[name]["pass"] is None and reason == (
            "eta counts estimated at 5.96e+11 symbol operations, over the budget "
            "of 1.00e+11 (raise --budget)"), name
    assert "worst_case_codeword" not in checks and "d_min" not in checks
    for name in ("length", "dimension"):
        assert checks[name] == {"pass": None, "reason": (
            "W(8,2) over GF(2) has 3.58e+08 points, over the BUILD_POINTS limit of "
            "4.19e+06; no option lifts it")}, name


FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def test_bounds_reports_unproved_codes_from_closed_forms(capsys, monkeypatch):
    # every unproved code has K >= 42, so its sweep, (q^K - 1)/(q - 1) N, is over
    # the default budget, and bounds (no --budget) reports the closed forms alone
    monkeypatch.setattr(cli, "build_code", refuse)
    monkeypatch.setattr(cli, "weight_enumerator", refuse)
    cases = [(n, k, q) for q in FIELD_ORDERS for n in range(4, 12) for k in range(3, n + 1)]
    for n, k, q in cases:
        argv = ["bounds", str(n), str(k), str(q)]
        assert cli._gate(build_parser().parse_args(argv)).sweep is not None, argv
        p = formulas.code_params(n, k, q)
        expected = {"N": p.N, "K": p.K, "d_min": None, "d_min_proved": False}
        if k == n:
            expected.update(pz_upper_bound=formulas.pz_upper(n, q), pz_bound_holds=None,
                            pz_bound_sharp=None)
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0 and report["results"] == expected, argv


def test_build_refuses_the_point_set_over_the_limit(capsys, monkeypatch, tmp_path):
    # W(6,6) q=2 has 4 922 775 points: its 924 x 4.9M Plücker array would
    # take 4.5 GB, so build and weights refuse it before any work
    monkeypatch.setattr(cli, "build_code", refuse)
    monkeypatch.setattr(cli, "count_isotropic", refuse)
    out = tmp_path / "gen.txt"
    start = time.perf_counter()
    for argv in (["build", "6", "6", "2", "--output", str(out)], ["weights", "6", "6", "2"]):
        code, report, err = run_cli(capsys, *argv)
        assert code == 3 and report is None, argv
        assert "4.92e+06 points" in err and "BUILD_POINTS limit of 4.19e+06" in err, argv
    assert time.perf_counter() - start < 1
    assert not out.exists()


def test_every_admitted_point_set_fits_the_build():
    # N(n, k) grows with n (V(2n) sits in V(2n+2)) and N(k, k) with k, so
    # each walk stops at the first point set over the limit
    admitted = []
    for q in FIELD_ORDERS:
        k = 1
        while formulas.length(k, k, q) <= cli.BUILD_POINTS:
            n = k
            while (big_n := formulas.length(n, k, q)) <= cli.BUILD_POINTS:
                assert big_n * comb(2 * n, k) <= 2**28 and big_n < 2**24, (n, k, q)
                admitted.append((n, k, q))
                n += 1
            k += 1
    assert (11, 1, 2) in admitted and (6, 6, 2) not in admitted
    assert formulas.length(11, 1, 2) == cli.BUILD_POINTS < formulas.length(6, 6, 2)


def test_weights_refusal_names_each_limit_like_verify(capsys):
    # W(3,2) q=4, 2.1e12 operations: over the default budget; weights refuses
    # with the reason verify records for the skipped sweep
    code, _, err = run_cli(capsys, "weights", "3", "2", "4")
    assert code == 3 and err.endswith("over the budget of 1.00e+11 (raise --budget)\n")
    _, report, _ = run_cli(capsys, "verify", "3", "2", "4", "--trials", "1")
    assert err == f"refused: {report['results']['checks']['d_min']['reason']}\n"
    # a budget of 1e13 alone admits it (the sweep itself is not run here)
    args = build_parser().parse_args(["weights", "3", "2", "4", "--budget", "10000000000000"])
    gate = cli._gate(args)
    assert gate.sweep is None and gate.estimate <= gate.budget == 10**13


# each verify case with the stages its gate refuses and its checks, in the
# order they are logged, with their "pass"
BUILT = ("length", "dimension")
SWEPT = ("d_min", "weight_table", "sweep_postconditions")
LINES = ("line_identity_random", "worst_case_theta")
CODEWORD = ("worst_case_codeword",)
SKIPPED_SWEEP = ("d_min",)  # a refused sweep records d_min alone


def passes(*groups):
    """{check: pass} for each (names, pass) group, in order."""
    return {name: ok for names, ok in groups for name in names}


GATE_CASES = [
    (["2", "2", "3"], (), 0,
     passes((BUILT, True), (SWEPT, True), (LINES, True), (CODEWORD, True))),
    (["3", "2", "4", "--trials", "1"], ("sweep",), 0,
     passes((BUILT, True), (SKIPPED_SWEEP, None), (LINES, True), (CODEWORD, True))),
    (["2", "2", "3", "--budget", "10000"], ("lines",), 0,
     passes((BUILT, True), (SWEPT, True), (LINES, None), (CODEWORD, True))),
    (["2", "2", "3", "--budget", "1000"], ("sweep", "lines"), 0,
     passes((BUILT, True), (SKIPPED_SWEEP, None), (LINES, None), (CODEWORD, True))),
    (["7", "2", "2"], ("build", "sweep"), 0, passes((BUILT, None), (LINES, True))),
    (["8", "2", "2"], ("build", "sweep", "lines"), 3, passes((BUILT, None), (LINES, None))),
    (["3", "3", "2"], (), 0, passes((BUILT, True), (SWEPT, True))),
    (["3", "3", "2", "--budget", "1000"], ("sweep",), 0,
     passes((BUILT, True), (SKIPPED_SWEEP, None))),
    (["4", "3", "4"], ("build", "sweep"), 3, passes((BUILT, None))),
]
REFUSED_WORK = {
    "build": ("build_code", "count_isotropic"),
    "sweep": ("weight_enumerator",),
    "lines": ("count_n1", "count_common_isotropic_lines"),
}


@pytest.mark.parametrize("argv, refused, exit_code, expected", GATE_CASES,
                         ids=[" ".join(case[0]) for case in GATE_CASES])
def test_verify_records_each_gate_verdict_combination(capsys, monkeypatch, argv, refused,
                                                      exit_code, expected):
    # a refused stage records its checks as SKIP (a refused build leaves out
    # the checks that need the code) and does none of its work
    for stage in refused:
        for name in REFUSED_WORK[stage]:
            monkeypatch.setattr(cli, name, refuse)
    code, report, err = run_cli(capsys, "verify", *argv, "--seed", "1")
    assert code == exit_code
    checks = report["results"]["checks"]
    assert {name: c["pass"] for name, c in checks.items()} == expected
    logged = [line.split()[1] for line in err.splitlines()
              if line.split(" ", 1)[0] in ("PASS", "FAIL", "SKIP")]
    assert logged == list(expected) and len(set(logged)) == len(logged)
