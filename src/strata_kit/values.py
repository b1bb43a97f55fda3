"""Immutable value types built on ``__slots__``.

A value class names its fields in ``__slots__``, in constructor order.  Its
instances refuse attribute assignment, compare equal only to instances of
the same class, print in the ``Name(field=value, ...)`` form, and pickle and
copy by calling the constructor again with the field values.

Keyed values also store one flat tuple ``_key`` at construction; equality
and hashing read that key instead of comparing field by field.
"""

from __future__ import annotations


def slot_setters(cls) -> tuple:
    """One writer per slot that ``cls`` declares, in order, for its constructor.

    The writers set a slot directly, past the refusing ``__setattr__``.
    """
    return tuple(getattr(cls, name).__set__ for name in cls.__dict__["__slots__"])


class Value:
    """Base of the immutable records: fields from ``__slots__``, compared in order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__dict__["__slots__"] if not n.startswith("_"))
        cls._setters = slot_setters(cls)

    def _init(self, *values) -> None:
        """Set the declared slots once, in order; the only write a value takes."""
        for put, value in zip(self._setters, values):
            put(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return (self.__class__, self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Keyed(Value):
    """A value whose equality and hash read its structural key ``_key``."""

    __slots__ = ("_key",)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)


set_key = Keyed._key.__set__
