"""Every rule message in the package is raised from one place.

A rule checked in two places drifts: the copies come to accept different
values or to word the same rejection differently. The message of each
``raise SchemaError(...)`` or ``raise ValueError(...)`` in src/ is its
constant text, with each replacement field read as ``{}`` and a leading
``"{path}: "`` prefix removed. A message that formats the exception its
``except`` clause caught only wraps another message and is skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RULE_ERRORS = {"SchemaError", "ValueError"}


def _raises(node, caught=frozenset()):
    """(raise node, names of the exceptions caught around it) pairs."""
    if isinstance(node, ast.ExceptHandler) and node.name:
        caught = caught | {node.name}
    if isinstance(node, ast.Raise):
        yield node, caught
    for child in ast.iter_child_nodes(node):
        yield from _raises(child, caught)


def _message(raise_node, caught):
    """The rule message a raise states, or None when it states none."""
    call = raise_node.exc
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in RULE_ERRORS and call.args):
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if not isinstance(arg, ast.JoinedStr):
        return None
    parts = []
    for value in arg.values:
        if isinstance(value, ast.Constant):
            parts.append(value.value)
        elif isinstance(value.value, ast.Name) and value.value.id in caught:
            return None  # a re-raise wrapper around the caught message
        else:
            parts.append("{}")
    return "".join(parts).removeprefix("{}: ")


def rule_messages(sources):
    """Message -> the places that raise it, for every file in sources."""
    places = {}
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        for node, caught in _raises(tree):
            message = _message(node, caught)
            if message is not None:
                places.setdefault(message, []).append(f"{path.stem}:{node.lineno}")
    return places


def test_no_rule_message_is_raised_from_two_places():
    places = rule_messages(sorted((ROOT / "src").rglob("*.py")))
    assert {message: where for message, where in places.items() if len(where) > 1} == {}
