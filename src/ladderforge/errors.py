"""Exception types shared across the package, one per outcome a caller acts on.

- LadderforgeError: base class; the CLI maps it to exit code 2.
- SchemaError: an input, argument or file breaks a documented rule.
- DegenerateCurve: rate-quality curves that cannot be compared; compare
  writes a warning row instead of failing.
- ExternalToolFailure: the encoder failed; exit code 3, with its stderr.

located(where) is the one way a caller names the input at fault: a
SchemaError raised inside its block comes out prefixed with "where: ".
"""

from contextlib import contextmanager


class LadderforgeError(Exception):
    """Base class for all library errors."""


class SchemaError(LadderforgeError):
    """An input, argument or file breaks a documented rule."""


class DegenerateCurve(LadderforgeError):
    """Too few points after dominance pruning, or no shared interval."""


class ExternalToolFailure(LadderforgeError):
    """Encoder or measurement command failed; carries captured stderr."""

    def __init__(self, message: str, stderr: str = ""):
        super().__init__(message)
        self.stderr = stderr


@contextmanager
def located(where):
    """Prefix a SchemaError raised in the block with "where: "; nothing else is caught."""
    try:
        yield
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None
