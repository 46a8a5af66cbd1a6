"""Every file the package opens is opened as the context of a with item.

A file object that is not a with item's context is closed by whoever
remembers to: an except clause, a generator's own with, or the caller.
Each of those forgets a path. An ``open(...)`` or ``os.fdopen(...)`` call
in src/ passes here only as the expression of a with item, so the block
that opens a file is the one that closes it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_open_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return (isinstance(func, ast.Attribute) and func.attr == "fdopen"
            and isinstance(func.value, ast.Name) and func.value.id == "os")


def unmanaged_opens(sources):
    """'<module>:<line>' of each open call that is not a with item's context."""
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        managed = {id(item.context_expr) for node in ast.walk(tree)
                   if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _is_open_call(node) and id(node) not in managed]
    return sorted(found)


def test_every_open_in_the_package_is_a_with_item():
    assert unmanaged_opens(sorted((ROOT / "src").rglob("*.py"))) == []


def test_the_check_sees_an_open_outside_a_with(tmp_path):
    module = tmp_path / "leaky.py"
    module.write_text(
        "import os\n"
        "with open('a') as f, os.fdopen(3) as g:\n"
        "    pass\n"
        "stream = open('b')\n"
        "data = os.fdopen(4).read()\n"
        "with wrap(open('c')):\n"
        "    pass\n"
    )
    assert unmanaged_opens([module]) == ["leaky.py:4", "leaky.py:5", "leaky.py:6"]
