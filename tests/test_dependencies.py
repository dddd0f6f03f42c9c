"""`teamplan` depends on nothing beyond the standard library and numpy,
and calls no numpy function that imports numpy.ma."""

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


# each of these imports numpy.ma on its first call (numpy 2.4), which adds
# 1.5-1.9 MB of peak RSS; np.isin and np.bincount do not
MA_IMPORTERS = {"unique", "union1d", "intersect1d", "setdiff1d"}


def test_sources_call_no_numpy_ma_importer():
    found = set()
    for f in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in MA_IMPORTERS and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy"):
                found.add((f.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found |= {(f.name, node.lineno, a.name) for a in node.names if a.name in MA_IMPORTERS}
    assert not found, sorted(found)
