"""Every JSON file the package writes is encoded in one place, the sidecar
named in one, and every CSV read and written through one reader and one writer.

JSON encoded in several places drifts: one copy indents differently, or
writes NaN where another refuses it. A sidecar written in several places
drifts too: one command forgets a key the others record. A
``json.dumps(...)`` call with an ``indent`` argument in src/ passes here
only inside ``ioutil.write_json``, and the text ``.runconfig.json`` only
inside ``cli.main`` or a docstring. A CSV written or read by its own
``csv.writer`` or ``csv.reader`` skips the shared rules (the cell rule,
the header check, finite floats), so those two appear in src/ only
inside ``ioutil.csv_text`` and ``ioutil.read_csv``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OWNERS = {("ioutil", "write_json"), ("cli", "main")}
SIDECAR = ".runconfig.json"
CSV_OWNERS = {("ioutil", "csv_text"), ("ioutil", "read_csv")}


def _is_indented_dumps(node):
    if not (isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "dumps") or (
        isinstance(func, ast.Attribute) and func.attr == "dumps")


def _is_csv_codec(node):
    if isinstance(node, ast.ImportFrom):
        return node.module == "csv" and any(a.name in ("writer", "reader") for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in ("writer", "reader")
            and isinstance(node.value, ast.Name) and node.value.id == "csv")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.body and isinstance(node.body[0], ast.Expr):
                yield id(node.body[0].value)


def _owned(tree, stem, owners):
    """The ids of every node inside a top-level function that owners name."""
    return {id(node) for top in tree.body
            if isinstance(top, ast.FunctionDef) and (stem, top.name) in owners
            for node in ast.walk(top)}


def stray_json_writers(sources):
    """'<module>:<line>' of each JSON encoding or sidecar name outside its owner."""
    found = set()
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        owned = _owned(tree, path.stem, OWNERS)
        docstrings = set(_docstrings(tree))
        for node in ast.walk(tree):
            if id(node) in owned:
                continue
            if _is_indented_dumps(node) or (
                    isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and SIDECAR in node.value and id(node) not in docstrings):
                found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


def stray_csv_codecs(sources):
    """'<module>:<line>' of each csv writer or reader outside csv_text and read_csv."""
    found = set()
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        owned = _owned(tree, path.stem, CSV_OWNERS)
        found.update(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if id(node) not in owned and _is_csv_codec(node))
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


def test_csv_is_written_and_read_only_by_its_owners():
    assert stray_csv_codecs(sorted((ROOT / "src").rglob("*.py"))) == []


def test_the_check_sees_csv_written_outside_its_owners(tmp_path):
    module = tmp_path / "ioutil.py"
    module.write_text(
        '"""Rows go through csv.writer in csv_text."""\n'
        "import csv\n"
        "from csv import Error, writer\n"
        "def csv_text(out):\n"
        "    return csv.writer(out)\n"
        "def read_csv(lines):\n"
        "    return csv.reader(lines)\n"
        "def report_text(out, writer):\n"
        "    writer(out)\n"
        "    return csv.writer(out), csv.Error\n"
        "def main(lines):\n"
        "    return list(csv.reader(lines))\n"
    )
    assert stray_csv_codecs([module]) == ["ioutil.py:10", "ioutil.py:12", "ioutil.py:3"]
