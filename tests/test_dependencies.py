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


def test_sources_import_no_dataclasses():
    """A dataclass generates and runs the code of its methods when its
    module is imported, which every fresh import of the package pays for."""
    found = sorted(f.stem for f in SRC.glob("*.py")
                   if "dataclasses" in imported_modules(ast.parse(f.read_text())))
    assert not found, found


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


def package_edges():
    """(importer, imported, enclosing function or None) for every
    `from .x import` and `from . import x` between `teamplan` modules."""
    edges = set()

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                for name in [child.module] if child.module else [a.name for a in child.names]:
                    edges.add((module, name.split(".")[0], function))
            visit(child, module, function)

    for f in sorted(SRC.glob("*.py")):
        visit(ast.parse(f.read_text()), f.stem, None)
    return edges


def test_package_layering_is_acyclic():
    """The modules import each other in layers. The one back edge is the
    lazy `product` import in `mdp.model_from_dict`, kept so that a patched
    `product.MAX_STATES` bounds model files too."""
    edges = package_edges()
    back = {e for e in edges if e[:2] == ("mdp", "product")}
    assert back == {("mdp", "product", "model_from_dict")}, back
    graph = {}
    for importer, imported, _ in edges - back:
        graph.setdefault(importer, set()).add(imported)
    done, path = set(), []

    def walk(module):
        assert module not in path, f"import cycle: {' -> '.join(path[path.index(module):] + [module])}"
        if module not in done:
            path.append(module)
            for imported in sorted(graph.get(module, ())):
                walk(imported)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        walk(module)
    assert len(done) >= 10
    assert graph["maps"] == {"ltl", "mdp"}


def unread_private_names():
    """(module, name) for every module-level private name of `teamplan` that
    no source module reads, its own definition's body aside."""
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(SRC.glob("*.py"))}
    defined, read = set(), set()
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {top.name}
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            defined |= {(module, n) for n in names if n.startswith("_") and not n.startswith("__")}
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    read.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    read |= {(node.module, a.name) for a in node.names}
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in trees:
                    read.add((node.value.id, node.attr))
    return defined - read


def test_every_private_name_is_read():
    assert not unread_private_names(), sorted(unread_private_names())


def unread_imports():
    """(module, name) for every name a `teamplan` module imports and never
    reads; the package `__init__` only re-exports, so it is left out."""
    found = set()
    for f in sorted(SRC.glob("*.py")):
        if f.stem == "__init__":
            continue
        tree = ast.parse(f.read_text())
        bound = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found |= {(f.stem, name) for name in bound - read}
    return found


def test_every_import_is_read():
    assert not unread_imports(), sorted(unread_imports())
