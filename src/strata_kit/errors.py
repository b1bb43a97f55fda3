"""Exception hierarchy shared across the package, and helpers for its messages."""

import sys


class StrataKitError(Exception):
    """Base class for all domain errors raised by this package."""


class WeightMismatchError(StrataKitError):
    """Comparison of partitions with different weights."""


class BudgetExceededError(StrataKitError):
    """An enumeration exceeded its configured bound."""


class WraparoundError(StrataKitError):
    """An operation that needs an infinite twist line was given a finite-period one."""


class ShapeError(StrataKitError):
    """Input does not have the shape required by an operation's precondition."""


class InputError(StrataKitError):
    """Malformed input from outside the program, such as a JSON value without
    its documented shape; the command line exits 2 on it.

    ``where`` is the path of the fault, such as ``segments[0].a``; the
    message starts with it unless the fault is in the input as a whole.
    A path built on the empty root starts with a dot, which is dropped.
    """

    def __init__(self, message: str, where: str = "") -> None:
        where = where.lstrip(".")
        super().__init__(f"{where}: {message}" if where else message)


_EXPECTED = {
    int: "integer",
    str: "string",
    list: "a list",
    dict: "an object",
    (int, type(None)): "integer or null",
}


def expect(value, kind, where: str):
    """``value`` if it is of the JSON kind ``kind``, else an InputError at ``where``.

    ``kind`` is a key of the table above; a bool is never an integer.
    """
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise InputError(f"expected {_EXPECTED[kind]}", where)


def line_column(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[pos]``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def too_many_digits() -> str:
    return f"integer has more than {sys.get_int_max_str_digits()} digits"
