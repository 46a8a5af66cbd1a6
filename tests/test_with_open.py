"""Every file the package opens is opened as the context of a with item,
and every file it writes is written by ``ioutil.atomic_write_bytes``.

A file object that is not a with item's context is closed by whoever
remembers to: an except clause, a generator's own with, or the caller.
Each of those forgets a path. An ``open(...)`` or ``os.fdopen(...)`` call
in src/ passes here only as the expression of a with item, so the block
that opens a file is the one that closes it.

A file written in place is left half written by a kill or a full disk.
An ``open(...)`` call in src/ passes here only with the constant mode
``"r"`` or ``"rb"``, and an ``os.open(...)`` or ``os.fdopen(...)`` call
only inside ``atomic_write_bytes``, which writes a temp file and renames
it over the destination.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_builtin_open(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"


def _is_os_call(node, names):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "os")


def _is_open_call(node):
    return _is_builtin_open(node) or _is_os_call(node, ("fdopen",))


def _writes(node):
    """Whether a call may write a file: os.open, os.fdopen, or open in a mode not "r" or "rb"."""
    if _is_os_call(node, ("open", "fdopen")):
        return True
    if not _is_builtin_open(node):
        return False
    mode = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
    return bool(mode) and not (isinstance(mode[0], ast.Constant) and mode[0].value in ("r", "rb"))


def writes_outside_atomic_write(sources):
    """'<module>:<line>' of each call that may write a file outside atomic_write_bytes."""
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        owned = {id(node) for top in tree.body
                 if isinstance(top, ast.FunctionDef)
                 and (path.stem, top.name) == ("ioutil", "atomic_write_bytes")
                 for node in ast.walk(top)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _writes(node) and id(node) not in owned]
    return sorted(found)


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


def test_every_file_the_package_writes_is_written_by_atomic_write_bytes():
    assert writes_outside_atomic_write(sorted((ROOT / "src").rglob("*.py"))) == []


def test_the_check_sees_a_write_outside_atomic_write_bytes(tmp_path):
    module = tmp_path / "ioutil.py"
    module.write_text(
        "import os\n"
        "def atomic_write_bytes(path):\n"
        "    with os.fdopen(os.open(path, 0), 'wb') as f:\n"
        "        pass\n"
        "with open('a') as f, open('b', 'rb') as g, open('c', mode='r') as h:\n"
        "    pass\n"
        "with open('d', 'a') as f, open('e', mode='wb') as g, open('f', MODE) as h:\n"
        "    pass\n"
        "fd = os.open('g', os.O_RDONLY)\n"
        "def other():\n"
        "    return os.fdopen(fd)\n"
    )
    assert writes_outside_atomic_write([module]) == [
        "ioutil.py:11", "ioutil.py:7", "ioutil.py:7", "ioutil.py:7", "ioutil.py:9"]
