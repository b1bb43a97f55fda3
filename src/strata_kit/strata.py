"""Stratification layer: component enumeration, invariant-ring
presentations, and the point <-> multisegment bijection.

A stratum is indexed by a partition lambda; its components are inertial
classes of multisegments with that highest derivative partition, and each
component's endomorphism ring is presented as the invariant ring of twist
variables under the product of symmetric groups permuting inertially equal
segments.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import BudgetExceededError, ShapeError, WeightMismatchError, WraparoundError, expect
from .multisegments import InertialClass, Multisegment, inertial_class
from .partitions import Partition, conjugate
from .segments import CuspidalLabel, CuspidalLine, Segment
from .values import Value

DEFAULT_COMPONENT_BOUND = 10000


class BlockSpec(Value):
    """Cuspidal lines (a point stands for its line) and a total degree to stratify."""

    __slots__ = ("lines", "n")

    def __init__(self, lines: tuple[Union[CuspidalLine, CuspidalLabel], ...], n: int) -> None:
        if n < 1:
            raise ShapeError("total degree must be >= 1")
        if not lines:
            raise ShapeError("block needs at least one cuspidal line")
        lines = tuple(line.line if line.__class__ is CuspidalLabel else line for line in lines)
        for i, line in enumerate(lines):
            if line in lines[:i]:
                raise ShapeError(
                    f"block repeats the cuspidal line {line.line_id} "
                    f"(dim {line.dim}, period {line.period})"
                )
        self._init(lines, n)

    @property
    def infinite_period(self) -> bool:
        return all(line.infinite_period for line in self.lines)

    @classmethod
    def from_json(cls, data, where: str = "") -> "BlockSpec":
        """Decode ``{"lines": [...], "n": ...}``; ``where`` is its path, empty at the root."""
        lines = expect(expect(data, dict, where).get("lines"), list, f"{where}.lines")
        return cls(
            tuple(CuspidalLine.from_json(d, f"{where}.lines[{i}]") for i, d in enumerate(lines)),
            expect(data.get("n"), int, f"{where}.n"),
        )


class InvariantRingPresentation(Value):
    """Polynomial presentation of a stratum component's endomorphism ring.

    One variable per segment of the class representative; variables of
    inertially equal segments form one symmetric-group orbit, generated by
    its elementary symmetric polynomials.  The top elementary symmetric
    polynomial of each orbit is a unit (the twist variables are invertible),
    recorded in ``units`` rather than by carrying out a localization.
    """

    __slots__ = ("variables", "orbits", "generators", "units")

    def __init__(
        self,
        variables: tuple[str, ...],
        orbits: tuple[tuple[str, ...], ...],
        generators: tuple[str, ...],
        units: tuple[str, ...],
    ) -> None:
        self._init(variables, orbits, generators, units)

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "orbits": [list(o) for o in self.orbits],
            "generators": list(self.generators),
            "units": list(self.units),
        }


class StratumReport(Value):
    """All inertial components of one stratum, with their ring presentations."""

    __slots__ = ("lam", "components")

    def __init__(
        self,
        lam: Partition,
        components: tuple[tuple[InertialClass, InvariantRingPresentation], ...],
    ) -> None:
        self._init(lam, components)

    def to_json(self) -> dict:
        return {
            "lambda": self.lam.to_json(),
            "components": [
                {"class": cls.to_json(), "ring": ring.to_json()}
                for cls, ring in self.components
            ],
        }


def classification_partition(m: Multisegment) -> Partition:
    """Conjugate of the partition of segment lengths weighted by cuspidal dims.

    Equals the highest derivative partition lambda(m); the equality is a
    checked invariant, not an assumption, so this computes via conjugation.
    """
    lengths: list[int] = []
    for s in m.segments:
        lengths.extend([s.length] * s.dim)
    return conjugate(Partition.from_counts(lengths))


def ring_presentation(cls: InertialClass) -> InvariantRingPresentation:
    """Variables grouped by inertial-segment orbit with elementary symmetric
    generators."""
    variables: list[str] = []
    orbits: list[tuple[str, ...]] = []
    generators: list[str] = []
    units: list[str] = []
    index = 0
    for mult in cls.orbit_sizes:
        orbit = tuple(f"X{index + i + 1}" for i in range(mult))
        index += mult
        variables.extend(orbit)
        orbits.append(orbit)
        if mult == 1:
            generators.append(orbit[0])
            units.append(orbit[0])
        else:
            joined = ",".join(orbit)
            for k in range(1, mult + 1):
                generators.append(f"e{k}({joined})")
            units.append(f"e{mult}({joined})")
    return InvariantRingPresentation(
        tuple(variables), tuple(orbits), tuple(generators), tuple(units)
    )


def _split_counts(count: int, dims: Sequence[int]) -> list[list[int]]:
    """ways[i][j]: the number of ways to write j as sum dims[i:] . k over k >= 0,
    for j <= count; the coin-change count, in O(count * len(dims))."""
    ways = [[1] + [0] * count]
    for d in reversed(dims):
        below = ways[0]
        row = below[:d]
        for j in range(d, count + 1):
            row.append(below[j] + row[j - d])
        ways.insert(0, row)
    return ways


def _splits(count: int, dims: Sequence[int], ways: list[list[int]]) -> list[tuple[int, ...]]:
    """Every k with sum dims . k == count, in lexicographic order, each built
    once: a prefix is extended only where ``ways`` says its rest has a split.

    Prefixes grow one line at a time rather than through a recursive
    closure, which would be a reference cycle left for the collector on
    every call.
    """
    prefixes: list[tuple[tuple[int, ...], int]] = [((), count)]
    for i, d in enumerate(dims):
        below = ways[i + 1]
        prefixes = [
            (prefix + (k,), rest - k * d)
            for prefix, rest in prefixes
            for k in range(rest // d + 1)
            if below[rest - k * d]
        ]
    return [prefix for prefix, _ in prefixes]


def components(
    block: BlockSpec, lam: Partition, bound: int = DEFAULT_COMPONENT_BOUND
) -> StratumReport:
    """Inertial components of the stratum lam over the block, with rings.

    The classes are generated from lam directly: lam_l - lam_(l+1) is the
    dim-weighted number of segments of length exactly l, and each way of
    splitting it across the block's lines fixes the length-l segments of a
    class.  The bound caps the number of classes, and it is checked against
    their exact count before any class or split is built.
    """
    if lam.weight != block.n:
        raise WeightMismatchError("incomparable weights")
    if not block.infinite_period:
        raise WraparoundError("component enumeration undefined with wraparound")
    lines = sorted(block.lines, key=lambda line: line._key)
    dims = [line.dim for line in lines]
    counts = [lam.part(length) - lam.part(length + 1) for length in range(1, lam.length + 1)]
    tables = [_split_counts(count, dims) for count in counts]
    total = math.prod(ways[0][count] for count, ways in zip(counts, tables))
    if total > bound:
        raise BudgetExceededError(
            f"component enumeration bound {bound} exceeded: the stratum has {total} classes"
        )
    splits = [_splits(count, dims, ways) for count, ways in zip(counts, tables)]
    # str() omits the dim, so classes over lines of one name can print
    # alike; such ties keep the order of their segment counts, line by line.
    choices = sorted(itertools.product(*splits), key=lambda p: list(zip(*p)))
    # Every class draws its segments from these, one per line and length used.
    rows = [
        [Segment(line, 0, length - 1) for line in lines] if count else []
        for length, count in enumerate(counts, 1)
    ]
    classes = []
    for choice in choices:
        segments: list[Segment] = []
        for row, split in zip(rows, choice):
            for segment, copies in zip(row, split):
                segments += [segment] * copies
        classes.append(InertialClass(Multisegment(segments)))
    return StratumReport(lam, tuple(
        (c, ring_presentation(c))
        for c in sorted(classes, key=lambda c: str(c.representative))
    ))


def point_to_multisegment(
    cls: InertialClass, tokens: Sequence[Optional[int]]
) -> Multisegment:
    """Twist each representative segment by its integer token.

    Tokens follow the variable order of ring_presentation (orbit by orbit);
    assignments differing by a permutation within an orbit give equal
    multisegments.
    """
    segments = cls.representative.segments
    if len(tokens) != len(segments):
        raise ShapeError(
            f"expected {len(segments)} tokens, got {len(tokens)}"
        )
    shifted = []
    for seg, tok in zip(segments, tokens):
        if tok is None:
            raise ShapeError("missing twist token")
        shifted.append(seg.shifted(tok))
    return Multisegment(tuple(shifted))


def _spans(sizes: Iterable[int]) -> list[tuple[int, int]]:
    """(start, stop) of each of the consecutive blocks with the given sizes."""
    ends = list(itertools.accumulate(sizes))
    return list(zip([0] + ends, ends))


def _canonical(sizes: Iterable[int], tokens: Sequence[int]) -> tuple[int, ...]:
    """The tokens sorted within each block."""
    return tuple(itertools.chain.from_iterable(sorted(tokens[lo:hi]) for lo, hi in _spans(sizes)))


def _next_permutation(tokens: list, lo: int, hi: int) -> bool:
    """Step ``tokens[lo:hi]`` to its next permutation in lexicographic order.

    False when it was the last one; it is then reset to the first (sorted).
    """
    i = hi - 2
    while i >= lo and tokens[i] >= tokens[i + 1]:
        i -= 1
    if i >= lo:
        j = hi - 1
        while tokens[j] <= tokens[i]:
            j -= 1
        tokens[i], tokens[j] = tokens[j], tokens[i]
    tokens[i + 1:hi] = tokens[i + 1:hi][::-1]
    return i >= lo


class Orbit(Value):
    """The twist tokens of one point of a stratum component.

    It is the orbit of a token tuple under the product of symmetric groups
    that permute each block of inertially equal segments, the variable
    blocks of ring_presentation.  Only the class and the canonical tokens,
    sorted within each block, are stored; members are computed on demand.
    Orbits are equal when those two fields are, so exactly when they map to
    the same multisegment; ``in``, ``len`` and iteration read the members.
    """

    __slots__ = ("cls", "canonical")

    def __init__(self, cls: InertialClass, canonical: Sequence[int]) -> None:
        """``canonical`` may be any member; it is stored sorted within each block."""
        if len(canonical) != sum(cls.orbit_sizes):
            raise ShapeError(f"expected {sum(cls.orbit_sizes)} tokens, got {len(canonical)}")
        self._init(cls, _canonical(cls.orbit_sizes, canonical))

    def __contains__(self, tokens: object) -> bool:
        if not isinstance(tokens, tuple) or len(tokens) != len(self.canonical):
            return False
        try:
            return _canonical(self.cls.orbit_sizes, tokens) == self.canonical
        except TypeError:  # tokens that do not sort, such as None beside an int
            return False

    def __len__(self) -> int:
        """The product over blocks of the multinomial of each block's repeats."""
        repeats = math.prod(
            math.factorial(len(list(run)))
            for lo, hi in _spans(self.cls.orbit_sizes)
            for _, run in itertools.groupby(self.canonical[lo:hi])
        )
        return self.cls.weyl_order() // repeats

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        """Each member once, in lexicographic order: next-permutation steps
        within each block, the first block outermost."""
        tokens = list(self.canonical)
        last_first = _spans(self.cls.orbit_sizes)[::-1]
        while True:
            yield tuple(tokens)
            if not any(_next_permutation(tokens, lo, hi) for lo, hi in last_first):
                return


def multisegment_to_orbit(m: Multisegment) -> tuple[InertialClass, Orbit]:
    """Recover the inertial class and the orbit of twist tokens of m.

    ``point_to_multisegment(cls, orbit.canonical)`` is the inverse.
    """
    if not m.infinite_period:
        raise WraparoundError("bijection undefined with wraparound")
    cls = inertial_class(m)
    # The representative's order: by line, then longest first.
    by_block = sorted(m.segments, key=lambda s: (s.cuspidal._key, s.a - s.b))
    return cls, Orbit(cls, [s.a for s in by_block])


def tangent_dim(m: Multisegment) -> int:
    """Number of segments, with multiplicity."""
    return len(m)


def ext_dimensions(arg: Union[Multisegment, int]) -> list[int]:
    """Binomial dimensions [C(r,0), ..., C(r,r)] of the exterior algebra on r
    generators, r being the segment count."""
    r = arg if isinstance(arg, int) else tangent_dim(arg)
    if r < 0:
        raise ShapeError("r must be nonnegative")
    return [math.comb(r, i) for i in range(r + 1)]
