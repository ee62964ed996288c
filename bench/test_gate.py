"""The benchmark's correctness gate fires on wrong results.

    python3 -m pytest -q bench/test_gate.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sympgrass import codes, gf  # noqa: E402

NULL = spans.NullTracer()


def w22_sweep_job(q=3):
    code = codes.build_code(2, 2, gf.GF(q))
    check = lambda dist: workloads.check_table(2, 2, q, dist)  # noqa: E731
    return [("W(2,2)", lambda: workloads.sweep_job(NULL, code, "codeword", check))]


def test_correct_results_pass():
    jobs = w22_sweep_job() + [("build", lambda: workloads.build_job(NULL, 2, 2, 3))]
    result = workloads.run_jobs(jobs)
    assert (result["attempted"], result["failed"]) == (2, 0)


def test_wrong_enumerator_fails(monkeypatch):
    real = codes.weight_enumerator

    def off_by_one(code, **kw):
        we = real(code, **kw)
        dist = dict(we.distribution)
        w = max(dist)
        dist[w] -= 1
        dist[w - 1] = dist.get(w - 1, 0) + 1
        return codes.WeightEnumerator(dist)

    monkeypatch.setattr(codes, "weight_enumerator", off_by_one)
    result = workloads.run_jobs(w22_sweep_job())
    assert result["failed"] == 1
    assert "differs from the exact table" in result["failures"][0]


def test_wrong_length_fails(monkeypatch):
    real = codes.build_code

    def one_point_short(n, k, field):
        code = real(n, k, field)
        return SimpleNamespace(N=code.N - 1, K=code.K)

    monkeypatch.setattr(codes, "build_code", one_point_short)
    result = workloads.run_jobs([("build", lambda: workloads.build_job(NULL, 2, 2, 3))])
    assert result["failed"] == 1
    assert "formula" in result["failures"][0]


def test_raising_job_counts_as_failed():
    def boom():
        raise ValueError("boom")

    result = workloads.run_jobs([("boom", boom)])
    assert (result["attempted"], result["failed"]) == (1, 1)


@pytest.mark.parametrize("dist, errors", [
    ({0: 1, 1: 1}, 0),   # [1,1] binary code, one nonzero column
    ({0: 1, 1: 2}, 2),   # wrong total and wrong first moment
])
def test_binary_moments(dist, errors):
    assert len(workloads.check_binary_moments(dist, big_k=1, nonzero_cols=1)) == errors


def test_line_identity_rejects_a_wrong_eta():
    assert workloads.check_line_identity(2, 3, n1=4, eta=0)


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def fake_pass(failed: int) -> dict:
    return {"wall_s": 1.0, "cpu_s": 1.0, "work": 5, "attempted": 5, "failed": failed,
            "failures": ["injected"] * failed, "python": "3", "numpy": "2", "blas": "none",
            "blas_threads": 1, "sweep_threads": 1, "peak_rss_mb": 50.0, "unit": "cases"}


@pytest.mark.parametrize("failed, status", [(0, 0), (1, 1)])
def test_a_failed_job_fails_the_run(monkeypatch, capsys, failed, status):
    monkeypatch.setattr(run, "spawn", lambda *a: (0.1, fake_pass(failed)))
    argv = ["--workload", "verify", "--seed", "1", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == status
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (failed == 0, failed)
