"""Cuspidal lines, their points and Zelevinsky segments.

A cuspidal line is an opaque label (an inertial class of cuspidal
representations) with a dimension and an optional finite twist period e; a
point is a line and an integer twist exponent, reduced mod e when e is finite.
A segment [a, b] on a line is the string of consecutive twists a, ..., b,
stored in absolute coordinates relative to the line's fixed base point, so
equivalence of segments is structural equality.  A segment is never empty:
truncating a segment past its start gives None, not a segment.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Union

from .errors import ShapeError, WraparoundError, expect
from .values import Keyed, Value, set_key, slot_setters


class CuspidalLine(Keyed):
    """A cuspidal line, the inertial class of a cuspidal representation.  ``period``
    is None for an infinite twist orbit and e when the twist action has order e."""

    __slots__ = ("line_id", "dim", "period")

    def __init__(self, line_id: str, dim: int = 1, period: Optional[int] = None) -> None:
        if dim < 1:
            raise ShapeError("cuspidal dimension must be >= 1")
        if period is not None and period < 1:
            raise ShapeError("twist period must be >= 1")
        _set_line_id(self, line_id)
        _set_dim(self, dim)
        _set_period(self, period)
        set_key(self, (line_id, dim, period is not None, period or 0))

    @property
    def infinite_period(self) -> bool:
        return self.period is None

    def reduce(self, t: int) -> int:
        """Reduce an absolute twist exponent mod the period."""
        return t if self.period is None else t % self.period

    def point(self, twist: int) -> "CuspidalLabel":
        """This line's base representation twisted ``twist`` times."""
        p = object.__new__(CuspidalLabel)
        p._init(self, self.reduce(twist))
        return p

    def to_json(self) -> dict:
        return {"line": self.line_id, "dim": self.dim, "period": self.period}

    @classmethod
    def from_json(cls, data, where: str) -> "CuspidalLine":
        """The line named by an object's ``line``, ``dim`` and ``period``
        fields; ``where`` is the object's path."""
        return cls(
            expect(expect(data, dict, where).get("line"), str, f"{where}.line"),
            expect(data.get("dim", 1), int, f"{where}.dim"),
            expect(data.get("period"), (int, type(None)), f"{where}.period"),
        )


_set_line_id, _set_dim, _set_period = slot_setters(CuspidalLine)


class CuspidalLabel(Value):
    """A point on a cuspidal line, built by :meth:`CuspidalLine.point` or
    from the line's fields and the twist."""

    __slots__ = ("line", "twist")

    def __new__(cls, line_id: str, dim: int = 1, period: Optional[int] = None, twist: int = 0):
        return CuspidalLine(line_id, dim, period).point(twist)

    def __reduce__(self):
        return (self.line.point, (self.twist,))


class Segment(Keyed):
    """The segment [a, b] on a cuspidal line, with b >= a in absolute twists.

    It stores the line; a point's twist is folded into the endpoints.  On a
    line of finite period e the start is then reduced into [0, e), so that
    equivalent segments compare equal.  The key is :meth:`sort_key`.
    """

    __slots__ = ("cuspidal", "a", "b")

    def __init__(self, cuspidal: Union[CuspidalLine, CuspidalLabel], a: int, b: int) -> None:
        if b < a:
            raise ShapeError(f"segment needs b >= a, got [{a},{b}]")
        c = cuspidal
        if c.__class__ is CuspidalLabel:
            c, a, b = c.line, a + c.twist, b + c.twist
        if c.period is not None:
            a, b = a % c.period, b - a + a % c.period
        _set_cuspidal(self, c)
        _set_a(self, a)
        _set_b(self, b)
        set_key(self, c._key + (-b, a))

    @property
    def length(self) -> int:
        return self.b - self.a + 1

    @property
    def dim(self) -> int:
        return self.cuspidal.dim

    @property
    def degree(self) -> int:
        return self.dim * self.length

    @property
    def line_id(self) -> str:
        return self.cuspidal.line_id

    @property
    def infinite_period(self) -> bool:
        return self.cuspidal.infinite_period

    def shifted(self, t: int) -> "Segment":
        return Segment(self.cuspidal, self.a + t, self.b + t)

    def sort_key(self) -> tuple:
        """Deterministic structural key; orders by line, then end descending,
        then start ascending (containing segments first among equal ends)."""
        return self._key

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]_{self.cuspidal.line_id}"

    def to_json(self) -> dict:
        return {**self.cuspidal.to_json(), "a": self.a, "b": self.b}

    @classmethod
    def from_json(cls, data, where: str = "") -> "Segment":
        """Decode the object :meth:`to_json` writes; ``where`` is its path."""
        line = CuspidalLine.from_json(data, where)
        a = expect(data.get("a"), int, f"{where}.a")
        return cls(line, a, expect(data.get("b"), int, f"{where}.b"))


_set_cuspidal, _set_a, _set_b = slot_setters(Segment)


def support(seg: Segment) -> Counter:
    """Multiset of (line, reduced twist) points covered by the segment;
    lines of one name but another dim or period share no point."""
    c = seg.cuspidal
    return Counter((c, c.reduce(t)) for t in range(seg.a, seg.b + 1))


class Relation(Value):
    """How two segments sit relative to each other on their lines.

    ``precedes`` means the first segment is linked with the second and
    starts (equivalently ends) strictly earlier; ``juxtaposed`` means
    linked with empty intersection; ``disjoint`` means empty intersection
    (always true across distinct lines).
    """

    __slots__ = (
        "same_line", "precedes", "preceded_by", "linked",
        "juxtaposed", "contains", "contained_in", "disjoint",
    )

    def __init__(
        self, same_line: bool, precedes: bool, preceded_by: bool, linked: bool,
        juxtaposed: bool, contains: bool, contained_in: bool, disjoint: bool,
    ) -> None:
        self._init(
            same_line, precedes, preceded_by, linked,
            juxtaposed, contains, contained_in, disjoint,
        )


# The nine relations ``relate`` can return, one shared value each.
APART = Relation(False, False, False, False, False, False, False, True)
SAME_LINE_APART = Relation(True, False, False, False, False, False, False, True)
EQUAL = Relation(True, False, False, False, False, True, True, False)
CONTAINS = Relation(True, False, False, False, False, True, False, False)
CONTAINED_IN = Relation(True, False, False, False, False, False, True, False)
PRECEDES = Relation(True, True, False, True, False, False, False, False)
PRECEDES_JUXTAPOSED = Relation(True, True, False, True, True, False, False, True)
PRECEDED_BY = Relation(True, False, True, True, False, False, False, False)
PRECEDED_BY_JUXTAPOSED = Relation(True, False, True, True, True, False, False, True)


def relate(s1: Segment, s2: Segment) -> Relation:
    """Relation record for two segments; infinite-period lines only.

    The record is one of the nine shared values above: segments on two
    lines are apart, and on one line the order of the endpoints decides.
    """
    c1, c2 = s1.cuspidal, s2.cuspidal
    if c1.period is not None or c2.period is not None:
        raise WraparoundError("linking undefined with wraparound")
    if c1 is not c2 and c1._key != c2._key:
        return APART
    a1, b1, a2, b2 = s1.a, s1.b, s2.a, s2.b
    if a1 < a2:
        if b2 <= b1:
            return CONTAINS
        if a2 <= b1:
            return PRECEDES
        return PRECEDES_JUXTAPOSED if a2 == b1 + 1 else SAME_LINE_APART
    if a2 < a1:
        if b1 <= b2:
            return CONTAINED_IN
        if a1 <= b2:
            return PRECEDED_BY
        return PRECEDED_BY_JUXTAPOSED if a1 == b2 + 1 else SAME_LINE_APART
    return EQUAL if b1 == b2 else CONTAINS if b2 < b1 else CONTAINED_IN


def top_minus(seg: Segment, beta: int = 1) -> Optional[Segment]:
    """Drop the top beta twists: [a, b] -> [a, b - beta], None if beta >= length."""
    if beta < 1:
        raise ShapeError("beta must be >= 1")
    if beta > seg.length - 1:
        return None
    return Segment(seg.cuspidal, seg.a, seg.b - beta)
