"""Golden CLI reports: the exit code and the full JSON report, less the
elapsed seconds, of a fixed set of invocations, and the SHA-256 of the
generator file `build 2 2 3` writes, pinned in golden_cli.json.

A path a command is given (a theta file, a generator file) is replaced
by a placeholder.  After an intended change of a report, regenerate with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from sympgrass.cli import main
from sympgrass.forms import standard_symplectic, worst_case_theta
from sympgrass.gf import GF
from sympgrass.linalg import write_matrix_text

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
PLACEHOLDER = "<path>"
INVOCATIONS = [
    "params 3 3 2",
    "params 4 3 2",
    "bounds 2 2 2",
    "bounds 3 3 2",
    "bounds 4 4 2",
    "weights 2 2 3",
    "weights 2 1 3",
    "weights 4 2 2",
    "weights 3 2 3",
    "weights 3 3 3",
    "weights 3 3 3 --slow",
    "weights 8 1 2",
    "weights 4 1 5",
    "eta 3 2 --theta worst",
    "eta 2 3 --theta random --seed 7 --trials 10",
    "eta 2 3 --theta THETA",
    "verify 2 2 3 --trials 3 --seed 5",
    "verify 3 3 2",
    "verify 4 3 4",
    "verify 2 2 3 --budget 1000",
    "verify 3 1 2",
    "build 2 2 3 --output GEN",
]


def run(command: str, paths: dict) -> dict:
    """The exit code and the report of one invocation, its seconds dropped
    and its paths replaced by the placeholder."""
    argv = [paths.get(word, word) for word in command.split()]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue()
    for path in paths.values():
        text = text.replace(json.dumps(path)[1:-1], PLACEHOLDER)
    report = json.loads(text) if text.strip() else None
    if report is not None:
        report.pop("seconds")
        report["results"].pop("seconds", None)
    return {"exit": code, "report": report}


def reports(tmp: Path) -> dict:
    paths = {"THETA": str(tmp / "theta.txt"), "GEN": str(tmp / "gen.txt")}
    write_matrix_text(paths["THETA"], GF(3), worst_case_theta(standard_symplectic(2, GF(3))).gram)
    found = {command: run(command, paths) for command in INVOCATIONS}
    found["sha256 of build 2 2 3"] = hashlib.sha256(Path(paths["GEN"]).read_bytes()).hexdigest()
    return found


def test_cli_reports_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    found = reports(tmp_path)
    assert list(found) == list(golden)
    for name, expected in golden.items():
        assert found[name] == expected, name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(reports(Path(tmp)), indent=1, sort_keys=False) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
