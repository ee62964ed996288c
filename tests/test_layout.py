"""Every definition in src/sympgrass has a caller outside the unit tests.

A top-level function or class, or a non-dunder method, that nothing in
src/, bench/*.py or the acceptance suite refers to (by a name or an
attribute) is code that only tests reach; it belongs in tests/oracles.py or
nowhere.  formulas is exempt: its closed forms are the paper's claims.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sympgrass"
EXEMPT = {"formulas"}


def definitions():
    """(module, qualified name, name) of every definition the guard covers."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT:
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")
                    ):
                        yield path.stem, f"{node.name}.{sub.name}", sub.name


def references() -> set[str]:
    """Every name and attribute used in src/, bench/*.py and the acceptance suite."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_definition_is_reached_only_by_tests():
    used = references()
    unused = [f"{module}.{qualname}" for module, qualname, name in definitions()
              if name not in used]
    assert not unused, f"no caller outside the unit tests: {', '.join(unused)}"


def test_the_guard_sees_the_package():
    found = {f"{module}.{qualname}" for module, qualname, _ in definitions()}
    assert {"codes.build_code", "gf.Field.matmul", "cli.main"} <= found
    assert not any(name.startswith("formulas.") for name in found)
