"""The traced benchmark pass still finds every layer boundary it wraps.

bench/spans.py wraps module attributes by name; a renamed or removed one
would only show when the traced benchmark runs.  This runs one tiny job of
each workload kind under spans.install, in a fresh interpreter because
isotropic_stack is cached per process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json
import numpy as np
import spans, workloads
from sympgrass import codes, forms, gf

tr = spans.Tracer()
spans.install(tr)
tr.phase = "jobs"
f = gf.GF(3)
code = codes.build_code(2, 2, gf.GF(2))  # W(2,2) q=3 stays uncached for the build job
sigma = forms.standard_symplectic(2, f)
gram = workloads.draw_grams(f, 4, 1, np.random.default_rng(1))[0]
jobs = [
    ("build", lambda: workloads.build_job(tr, 2, 2, 3)),
    ("sweep", lambda: workloads.sweep_job(
        tr, code, "codeword", lambda dist: workloads.check_table(2, 2, 2, dist))),
    ("lines", lambda: workloads.line_trial(tr, sigma, gram)),
    ("verify", lambda: workloads.verify_job(tr, 2, 2, 3, 1)),
]
result = workloads.run_jobs(jobs)
print(json.dumps({"failed": result["failed"], "failures": result["failures"],
                  "metrics": tr.metrics(result["wall_s"])}))
"""

COUNTS = (
    "grassmann.enum_points",
    "grassmann.plucker_minors",
    "linalg.rref_cells",
    "codes.symbol_ops",
    "forms.lines_scanned",
    "cli.checks_passed",
)
SPANS = (
    "gf.tables_s",
    "grassmann.enum_s",
    "grassmann.plucker_s",
    "linalg.rref_s",
    "codes.build_s",
    "codes.sweep_codeword_s",
    "forms.n1_s",
    "forms.eta_s",
    "cli.verify_s",
)


def test_traced_jobs_reach_every_wrapped_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0, out["failures"]
    metrics = out["metrics"]
    for key in COUNTS + SPANS:
        assert metrics.get(key, 0) > 0, key
