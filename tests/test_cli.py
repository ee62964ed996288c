"""CLI behavior: JSON reports, exit codes, determinism."""

import json
import os

from sympgrass import cli
from sympgrass.cli import build_parser, main


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


def test_weights_w22_match(capsys):
    code, report, err = run_cli(capsys, "weights", "2", "2", "2")
    assert code == 0
    res = report["results"]
    assert res["distribution"] == {"0": 1, "6": 10, "8": 15, "10": 6}
    assert res["d_min"] == 6
    assert res["table_match"] is True and res["dmin_match"] is True
    assert "MATCH" in err


def test_weights_budget_refusal(capsys):
    code, _, err = run_cli(capsys, "weights", "4", "2", "2")
    assert code == 3
    assert "budget" in err.lower()


def test_weights_hyperplane_method(capsys):
    code, report, _ = run_cli(capsys, "weights", "2", "2", "3", "--method", "hyperplane")
    assert code == 0
    assert report["results"]["table_match"] is True


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


def test_eta_random_deterministic(capsys):
    code1, rep1, _ = run_cli(capsys, "eta", "2", "3", "--theta", "random",
                             "--seed", "7", "--trials", "10")
    code2, rep2, _ = run_cli(capsys, "eta", "2", "3", "--theta", "random",
                             "--seed", "7", "--trials", "10")
    assert code1 == code2 == 0
    assert rep1["results"]["all_residuals_zero"] is True
    assert strip_seconds(rep1) == strip_seconds(rep2)


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
    # W(3,2) q=3 sweep is gated behind --slow; verify still runs counts
    code, report, _ = run_cli(capsys, "verify", "3", "2", "3", "--trials", "5",
                              "--seed", "1")
    assert code == 0
    checks = report["results"]["checks"]
    assert checks["length"]["pass"] is True
    assert checks["dimension"]["pass"] is True
    assert checks["d_min"]["pass"] is None  # skipped, not failed


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


def test_eta_rejects_malformed_theta_file(capsys, tmp_path):
    path = tmp_path / "theta.txt"
    rows = "\n".join(" ".join(["0"] * 4) for _ in range(4))
    path.write_text(f"4 4 3\n{rows}\n0 0 0 0\n")  # one row too many
    assert run_cli(capsys, "eta", "2", "3", "--theta", str(path))[0] == 2
    path.write_text(f"4 1000000000 3\n{rows}\n")  # header claims 10^9 columns
    assert run_cli(capsys, "eta", "2", "3", "--theta", str(path))[0] == 2


def test_threads_and_trials_validated(capsys):
    args = build_parser().parse_args(["weights", "2", "2", "2", "--threads", "100000"])
    assert args.threads == (os.cpu_count() or 1)  # capped before any thread starts
    assert run_cli(capsys, "weights", "2", "2", "2", "--threads", "0")[0] == 2
    assert run_cli(capsys, "eta", "2", "3", "--theta", "random", "--trials", "0")[0] == 2
    assert run_cli(capsys, "verify", "2", "2", "2", "--trials", "0")[0] == 2
    assert run_cli(capsys, "weights", "2", "2", "2", "--seed", "1")[0] == 2  # no such option


def test_gate_refuses_before_building(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("built a code the gate should have refused")

    monkeypatch.setattr(cli, "build_code", no_build)
    monkeypatch.setattr(cli, "count_isotropic", no_build)
    assert run_cli(capsys, "weights", "4", "3", "3")[0] == 3  # sweep over budget
    assert run_cli(capsys, "weights", "4", "3", "4")[0] == 3  # 24 million points
    code, report, _ = run_cli(capsys, "verify", "4", "3", "4")  # skipped, not refused
    assert code == 0 and report["results"]["checks"]["length"]["pass"] is None
