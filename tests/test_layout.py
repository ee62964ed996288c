"""Every definition in src/sympgrass has a caller outside the tests, and no
module reaches into another module's private names.

A top-level function or class that nothing in src/ or bench/*.py refers to
(by a name or an attribute), or a non-dunder method that nothing there
reaches as an attribute (x.name, numpy's np.name excepted), is code that
only tests reach, the acceptance suite included; it belongs in
tests/oracles.py or nowhere.  A method is not used by a local variable or a numpy function of
the same name.  formulas is exempt: its closed forms are the paper's claims.

A module imports only names it uses: every name an import binds in a
src/ module is referred to there (no linter is installed to catch it).

A module's _names are its own: no module of the package reads
other_module._name or imports `from .other import _name`, and no code reads
a _name off an object other than self or cls, such as f._digit_table from
outside Field (dunders excepted), so that each layout decision is known to
one module.

Every limit is decided in one place: of the CLI's functions, only the gate
and the parser's help text read a limit constant, so no subcommand works
out a limit of its own.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sympgrass"
EXEMPT = {"formulas"}


def definitions():
    """(module, qualified name, name, is a method) of every definition the
    guard covers."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT:
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")
                    ):
                        yield path.stem, f"{node.name}.{sub.name}", sub.name, True


def references() -> tuple[set[str], set[str]]:
    """(names, attributes) used in src/ and bench/*.py; the attributes leave
    out those of np."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == "np"
            ):
                attrs.add(node.attr)
    return names, attrs


def unused_definitions() -> list[str]:
    names, attrs = references()
    return [f"{module}.{qualname}" for module, qualname, name, method in definitions()
            if name not in attrs and (method or name not in names)]


def test_no_definition_is_reached_only_by_tests():
    unused = unused_definitions()
    assert not unused, f"no caller outside the tests: {', '.join(unused)}"


def test_the_guard_sees_the_package():
    found = {f"{module}.{qualname}" for module, qualname, _, _ in definitions()}
    assert {"codes.build_code", "gf.Field.matmul", "cli.main"} <= found
    assert not any(name.startswith("formulas.") for name in found)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_cross_module_uses(package: Path = PACKAGE) -> list[str]:
    """'module: other._name' for every private name a package module takes
    from another package module, and 'module: obj._name' for every private
    attribute it reads off an object other than self or cls."""
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}  # local name -> package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
                for alias in node.names:
                    if alias.name in modules:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.stem}: from .{node.module} import {alias.name}"
                          for alias in node.names if _private(alias.name)]
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                if owner in aliases:
                    found.append(f"{path.stem}: {aliases[owner]}.{node.attr}")
                elif owner not in ("self", "cls"):
                    found.append(f"{path.stem}: {ast.unparse(node)}")
    return sorted(set(found))


def test_no_module_uses_another_modules_private_names():
    found = private_cross_module_uses()
    assert not found, f"private names used across modules: {', '.join(found)}"


def test_the_private_name_guard_sees_a_reach_into_an_object(tmp_path):
    (tmp_path / "gf.py").write_text(
        "class Field:\n"
        "    def __init__(self):\n"
        "        self._digit_table = None\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls._cache, cls.__name__\n"
    )
    (tmp_path / "grassmann.py").write_text(
        "from . import gf\n"
        "from .gf import _ORDERS\n"
        "\n"
        "\n"
        "def extend(f, rows):\n"
        "    return f._digit_table, rows[0]._x, gf._ORDERS, f.q, f.__class__\n"
    )
    assert private_cross_module_uses(tmp_path) == [
        "grassmann: f._digit_table",
        "grassmann: from .gf import _ORDERS",
        "grassmann: gf._ORDERS",
        "grassmann: rows[0]._x",
    ]


def unused_imports(package: Path = PACKAGE) -> list[str]:
    """'module: name' for every name a package module imports but never
    refers to (from __future__ imports excepted)."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}  # bound name -> how it was imported
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = alias.name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.stem}: {name}" for name in imported if name not in used]
    return sorted(found)


def test_no_module_imports_an_unused_name():
    unused = unused_imports()
    assert not unused, f"imported but never used: {', '.join(unused)}"


def test_the_import_guard_sees_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text("import os.path\nfrom .linalg import inverse, rref\n\ninverse\n")
    assert unused_imports(tmp_path) == ["mod: os", "mod: rref"]


LIMITS = {"DEFAULT_BUDGET", "BUILD_POINTS"}
LIMIT_READERS = {"_gate", "_add_common"}  # the gate and the parser's help text


def limit_readers(path: Path = PACKAGE / "cli.py") -> dict[str, set[str]]:
    """{function: the limit constants it reads} for every top-level function
    of the module that reads one, its nested functions included."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)} & LIMITS
            if names:
                found[node.name] = names
    return found


def test_only_the_gate_reads_a_limit():
    readers = limit_readers()
    assert "_gate" in readers
    assert set(readers) <= LIMIT_READERS, f"limits read outside the gate: {readers}"


def test_the_limit_guard_sees_a_command_that_reads_one(tmp_path):
    (tmp_path / "cli.py").write_text(
        "BUILD_POINTS = 10\n"
        "\n"
        "\n"
        "def cmd_weights(args):\n"
        "    def admitted(est):\n"
        "        return est <= DEFAULT_BUDGET\n"
        "    return admitted(args.budget)\n"
        "\n"
        "\n"
        "def _gate(args):\n"
        "    return args.n <= BUILD_POINTS\n"
    )
    assert limit_readers(tmp_path / "cli.py") == {
        "cmd_weights": {"DEFAULT_BUDGET"}, "_gate": {"BUILD_POINTS"}}
