"""The names the README and the package's docstrings and comments quote
exist in the package."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "teamplan"
QUOTED = re.compile(r"(?<!`)`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`(?!`)")  # a backticked name or dotted name


def package_names():
    """The `teamplan` modules, their module-level names, and every name
    the package defines anywhere: a def or class, an assignment, an
    attribute store or an argument, or an identifier string (`__slots__`,
    namedtuple fields)."""
    modules = {"teamplan"} | {f.stem for f in SRC.glob("*.py")}
    top, defined = set(), set(modules)
    for f in SRC.glob("*.py"):
        tree = ast.parse(f.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                top |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                defined.add(node.value)
    return modules | top, defined


def stale_references(texts):
    """(file, quoted name, undefined component) for every backticked name
    in `texts`, file name -> text, that starts with a `teamplan` module, a
    module-level name or an underscore and has a component the package
    does not define."""
    heads, defined = package_names()
    found = set()
    for file, text in texts.items():
        for name in QUOTED.findall(text):
            parts = name.split(".")
            if parts[0] in heads or name.startswith("_"):
                found |= {(file, name, p) for p in parts if p not in defined}
    return found


def test_quoted_names_are_defined():
    """The README and the package sources; ROADMAP.md and CHANGES.md are
    history and are left out."""
    texts = {f.name: f.read_text() for f in [ROOT / "README.md", *sorted(SRC.glob("*.py"))]}
    assert not stale_references(texts), sorted(stale_references(texts))


def test_a_removed_name_is_caught():
    text = "`TeamMdp._fill` wrote a block; `team.TeamMdp._build`, `np.unique` and `Arrays` stay"
    assert stale_references({"notes": text}) == {("notes", "TeamMdp._fill", "_fill")}
