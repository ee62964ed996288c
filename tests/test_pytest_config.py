"""The repository's pytest configuration reports a failing hypothesis test
like any other failure.

filterwarnings = ["error"] turns every warning into an exception.
Hypothesis's failure report imports libcst, which imports the deprecated
mypy_extensions.TypedDict; unfiltered, that warning is raised inside a
pluggy hook, and the pytest run ends with INTERNALERROR (exit 3), no
falsifying example and no later test run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out
