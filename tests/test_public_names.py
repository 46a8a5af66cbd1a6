"""Every public module-level name in the package is used somewhere.

A name that nothing in src/ or perfbench/ refers to is dead API: it is
kept only by its tests. A reference is an ast.Name or ast.Attribute outside
the name's own definition, or a string constant equal to the name that is
not a docstring, since perfbench/layers.py wraps functions by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ladderforge"


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.body and isinstance(node.body[0], ast.Expr):
                yield node.body[0].value


def _definitions(tree):
    """(name, node) of each public name a module's top level binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _references(tree):
    """(name, line) of each name the code refers to."""
    docstrings = {id(node) for node in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield node.value, node.lineno


def test_no_public_module_level_name_is_dead():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    used = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            used.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            outside = [(where, line) for where, line in used.get(name, [])
                       if not (where == path and node.lineno <= line <= node.end_lineno)]
            if not outside:
                dead.append(f"{path.stem}.{name}")
    assert dead == []
