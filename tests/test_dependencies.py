"""The package and its tools need only the standard library and numpy, and its
tests add only pytest: every import under ``src/``, ``tools/`` and ``tests/`` is
checked against that list."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"src": {"numpy", "tijepa"}, "tools": {"numpy", "tijepa"},
           "tests": {"numpy", "tijepa", "pytest"}}


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("tree", sorted(ALLOWED))
def test_every_import_is_stdlib_numpy_or_declared(tree):
    files = sorted((ROOT / tree).rglob("*.py"))
    assert files
    foreign = {f"{path.relative_to(ROOT)}: {name}" for path in files
               for name in imported_modules(path)
               if name not in sys.stdlib_module_names and name not in ALLOWED[tree]}
    assert not foreign, sorted(foreign)
