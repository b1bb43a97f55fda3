"""Integer partitions: conjugation, dominance order, addition, Whittaker support sets.

A partition is a weakly decreasing tuple of positive integers; the empty
partition is allowed.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import BudgetExceededError, ShapeError, WeightMismatchError, expect
from .values import Keyed, set_key, slot_setters

DEFAULT_ENUMERATION_BOUND = 40


class Partition(Keyed):
    """A weakly decreasing sequence of positive integers; the key is ``parts``."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()) -> None:
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ShapeError(f"partition parts must be positive, got {p}")
            if i > 0 and parts[i - 1] < p:
                raise ShapeError(f"partition parts must be weakly decreasing: {parts}")
        _set_parts(self, parts)
        set_key(self, parts)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "Partition":
        """Build a partition from an unordered iterable of positive integers."""
        return cls(tuple(sorted(counts, reverse=True)))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed), 0 beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_json(cls, data, where: str = "") -> "Partition":
        """Decode a list of parts; ``where`` is its path, empty at the root."""
        parts = expect(data, list, where)
        return cls(expect(p, int, f"{where}[{i}]") for i, p in enumerate(parts))


(_set_parts,) = slot_setters(Partition)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become rows."""
    if not lam.parts:
        return Partition()
    cols = [0] * lam.parts[0]
    for p in lam.parts:
        for i in range(p):
            cols[i] += 1
    return Partition(tuple(cols))


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Prefix-sum comparison: every partial sum of lam is <= that of mu.

    Only partitions of equal weight are comparable; anything else raises.
    """
    if lam.weight != mu.weight:
        raise WeightMismatchError("incomparable weights")
    # With equal weights the parts past the shorter partition cannot break
    # the order, so one running difference over the common parts decides.
    diff = 0
    for p, q in zip(lam.parts, mu.parts):
        diff += q - p
        if diff < 0:
            return False
    return True


def add(lam: Partition, mu: Partition) -> Partition:
    """Componentwise sum after zero-padding the shorter partition."""
    n = max(lam.length, mu.length)
    return Partition(tuple(lam.part(i) + mu.part(i) for i in range(1, n + 1)))


def whittaker_support(lam: Partition) -> frozenset[int]:
    """Indices {1,...,n} minus the partial sums of the reversed parts.

    Of weight n = weight(lam); undefined for the empty partition.  The
    result has n - length(lam) elements and never contains n itself.
    """
    n = lam.weight
    if n == 0:
        raise ShapeError("undefined for weight 0")
    removed = set()
    acc = 0
    for p in reversed(lam.parts):
        acc += p
        removed.add(acc)
    return frozenset(range(1, n + 1)) - removed


def enumerate_partitions(n: int, bound: int = DEFAULT_ENUMERATION_BOUND) -> list[Partition]:
    """All partitions of n, in decreasing lexicographic order."""
    if n < 0:
        raise ShapeError("n must be nonnegative")
    if n > bound:
        raise BudgetExceededError(f"partition enumeration bound {bound} exceeded by n={n}")
    out: list[Partition] = []
    parts = [n] if n else []
    while True:
        out.append(Partition(tuple(parts)))
        # The next partition in this order: lower the last part above 1 by
        # one, and refill what it and the trailing 1s held greedily with
        # parts no larger than the lowered one.
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return out
        top = parts.pop() - 1
        count, rest = divmod(ones + top + 1, top)
        parts += [top] * count
        if rest:
            parts.append(rest)
