"""`teamplan` depends on nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "teamplan"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "teamplan"}


def imported_modules(tree):
    """The top-level package of every absolute import in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_import_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    outside = {(f.name, name) for f in files for name in imported_modules(ast.parse(f.read_text()))
               if name not in ALLOWED}
    assert not outside, sorted(outside)
