"""Every import in the package is of the standard library, of bikoszul
itself, or of a dependency that pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def declared_modules() -> set[str]:
    """The top-level module of each declared dependency, by its name with
    the version constraint cut off and '-' read as '_'. It skips the test
    that calls it where tomllib is missing (before Python 3.11)."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    return {re.split(r"[^A-Za-z0-9_.-]", dep, maxsplit=1)[0].lower().replace("-", "_")
            for dep in dependencies}


def imported_modules(path: Path):
    """(line, top-level module) of every absolute import in the file,
    function-level ones included."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def test_the_package_imports_only_the_standard_library_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | {"numpy", "bikoszul"} | declared_modules()
    files = sorted((ROOT / "src" / "bikoszul").glob("*.py"))
    assert files
    undeclared = [f"{path.name}:{line}: {module}" for path in files
                  for line, module in imported_modules(path) if module not in allowed]
    assert undeclared == []


def test_the_guard_sees_an_undeclared_import_in_a_function(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\n\ndef f():\n    from scipy.linalg import lu\n")
    assert list(imported_modules(path)) == [(1, "os"), (4, "scipy")]
    assert "scipy" not in set(sys.stdlib_module_names) | declared_modules()


def private_imports(path: Path, module: str):
    """(line, name) of every underscore name the file imports from
    bikoszul's `module`, relatively or absolutely, function-level imports
    included."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                (node.level, node.module) == (1, module)
                or (node.level, node.module) == (0, f"bikoszul.{module}")):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name.startswith("_"))


@pytest.mark.parametrize("module", ["koszul", "exactlinalg"])
def test_only_koszul_reads_its_private_names(module):
    """The block layout and the rest of koszul's internals are read
    through its public names (`koszul.layout`), not re-derived elsewhere
    from its private tables; exactlinalg's kernels (`_schur`,
    `_lu_inverse`, ...) stay behind det, solve and schur_complement."""
    files = sorted((ROOT / "src" / "bikoszul").glob("*.py"))
    assert files
    private = [f"{path.name}:{line}: {name}" for path in files if path.name != f"{module}.py"
               for line, name in private_imports(path, module)]
    assert private == []


@pytest.mark.parametrize("module", ["koszul", "exactlinalg"])
def test_the_guard_sees_a_private_koszul_import_in_a_function(tmp_path, module):
    path = tmp_path / "module.py"
    path.write_text(f"from .{module} import layout\n\ndef f():\n"
                    f"    from .{module} import _K1_BLOCKS, specialize\n"
                    f"    from bikoszul.{module} import _lowered\n"
                    "    from .core import _exponent_basis\n")
    assert list(private_imports(path, module)) == [(4, "_K1_BLOCKS"), (5, "_lowered")]
