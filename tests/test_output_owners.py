"""Every JSON file the package writes is encoded in one place, and the sidecar named in one.

JSON encoded in several places drifts: one copy indents differently, or
writes NaN where another refuses it. A sidecar written in several places
drifts too: one command forgets a key the others record. A
``json.dumps(...)`` call with an ``indent`` argument in src/ passes here
only inside ``ioutil.write_json``, and the text ``.runconfig.json`` only
inside ``cli.main`` or a docstring.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OWNERS = {("ioutil", "write_json"), ("cli", "main")}
SIDECAR = ".runconfig.json"


def _is_indented_dumps(node):
    if not (isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "dumps") or (
        isinstance(func, ast.Attribute) and func.attr == "dumps")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.body and isinstance(node.body[0], ast.Expr):
                yield id(node.body[0].value)


def stray_json_writers(sources):
    """'<module>:<line>' of each JSON encoding or sidecar name outside its owner."""
    found = set()
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        owned = {id(node) for top in tree.body
                 if isinstance(top, ast.FunctionDef) and (path.stem, top.name) in OWNERS
                 for node in ast.walk(top)}
        docstrings = set(_docstrings(tree))
        for node in ast.walk(tree):
            if id(node) in owned:
                continue
            if _is_indented_dumps(node) or (
                    isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and SIDECAR in node.value and id(node) not in docstrings):
                found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_json_is_encoded_and_the_sidecar_named_only_by_their_owners():
    assert stray_json_writers(sorted((ROOT / "src").rglob("*.py"))) == []


def test_the_check_sees_json_written_outside_its_owners(tmp_path):
    module = tmp_path / "cli.py"
    module.write_text(
        '"""Writes <out>.runconfig.json."""\n'
        "import json\n"
        "def main(out):\n"
        "    json.dumps({}, indent=2)\n"
        "    return out + '.runconfig.json'\n"
        "def cmd_train(out, dumps):\n"
        "    json.dumps({})\n"
        "    text = json.dumps({}, indent=2)\n"
        "    return dumps([], indent=None), f'{out}.runconfig.json'\n"
    )
    assert stray_json_writers([module]) == ["cli.py:8", "cli.py:9"]
