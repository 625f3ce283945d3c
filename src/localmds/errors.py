"""Exception taxonomy shared by every module, and its one integer-input check.

Library code raises these; the CLI maps them onto exit codes and a
machine-readable error category (see cli.py).
"""


class LocalMdsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LocalMdsError, ValueError):
    """Malformed caller input: bad labels, radii, parameters, or files."""


class EnumerationBudgetError(LocalMdsError, RuntimeError):
    """An exact search exceeded its configured budget.

    Raised instead of silently truncating: a partial enumeration would
    corrupt any selection made from it.
    """


class InvariantError(LocalMdsError, RuntimeError):
    """An internal precondition failed. Signals a bug, not bad input."""


class RuleError(LocalMdsError, RuntimeError):
    """A local rule failed while evaluating one vertex's view."""

    def __init__(self, center: int, message: str):
        self.center = center
        super().__init__(f"rule failed at vertex {center}: {message}")


def require_int(value: object, where: str, minimum: int | None = None) -> int:
    """`value` if it is an int (a bool is not) of at least `minimum`; else InputError naming `where`.

    The one check for every integer a caller hands in: sizes, radii, round
    counts, seeds, budgets, generator parameters and B's constants. Nothing
    is coerced, so 5.7, "5" and True are rejected; text is parsed by the
    readers before it gets here.
    """
    if type(value) is not int:
        raise InputError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{where} must be >= {minimum}, got {value}")
    return value
