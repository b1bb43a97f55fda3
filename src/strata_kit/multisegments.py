"""Multisegments: multisets of segments and their combinatorics.

Covers the degree and highest-derivative partition invariants, the
elementary-operation poset and the degeneration order it generates,
the Moeglin-Waldspurger involution, and inertial classes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Optional

from .errors import BudgetExceededError, InputError, ShapeError, WraparoundError, expect
from .partitions import Partition
from .segments import (
    EMPTY_SEGMENT,
    CuspidalLabel,
    CuspidalLine,
    Segment,
    SegmentLike,
    linked,
    support as segment_support,
    union_and_intersection,
)
from .values import Keyed, Value, set_key, slot_setters

DEFAULT_SUPPORT_BOUND = 10
DEFAULT_NODE_BOUND = 5000


_segment_key = attrgetter("_key")


class Multisegment(Keyed):
    """A multiset of nonempty segments, stored canonically sorted.

    Empty segments are dropped at construction so truncation maps can be
    composed freely.  The key concatenates the segments' keys.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Iterable[SegmentLike] = ()) -> None:
        kept = tuple(sorted([s for s in segments if not s.is_empty], key=_segment_key))
        _set_segments(self, kept)
        # Concatenating beats chaining for the few segments a multisegment has.
        set_key(self, sum(map(_segment_key, kept), ()))

    @classmethod
    def of(cls, *segments: SegmentLike) -> "Multisegment":
        return cls(segments)

    @classmethod
    def single(cls, seg: Segment) -> "Multisegment":
        """``Multisegment.of(seg)`` for one nonempty segment: nothing to drop or sort."""
        m = cls.__new__(cls)
        _set_segments(m, (seg,))
        set_key(m, seg._key)
        return m

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def infinite_period(self) -> bool:
        return all(s.infinite_period for s in self.segments)

    def union(self, other: "Multisegment") -> "Multisegment":
        return Multisegment(self.segments + other.segments)

    def support(self) -> Counter:
        """Multiset union of the member segments' supports."""
        total: Counter = Counter()
        for s in self.segments:
            total.update(segment_support(s))
        return total

    def replace_pair(self, i: int, j: int, new: Iterable[SegmentLike]) -> "Multisegment":
        rest = [s for k, s in enumerate(self.segments) if k not in (i, j)]
        rest.extend(new)
        return Multisegment(rest)

    def __str__(self) -> str:
        return "{" + ",".join(str(s) for s in self.segments) + "}"

    def to_json(self) -> dict:
        return {"segments": [s.to_json() for s in self.segments]}

    @classmethod
    def from_json(cls, data, where: str = "") -> "Multisegment":
        """Decode ``{"segments": [...]}``; ``where`` is its path, empty at the root.

        Segments are checked and built in document order, and the first
        fault is reported with its path, e.g. ``segments[0].a``.
        """
        if not isinstance(data, dict) or "segments" not in data:
            raise InputError('expected a multisegment object {"segments": [...]}', where)
        where += ".segments"
        segments = expect(data["segments"], list, where)
        return cls(Segment.from_json(s, f"{where}[{i}]") for i, s in enumerate(segments))


(_set_segments,) = slot_setters(Multisegment)


def degree(m: Multisegment) -> int:
    """Sum of member degrees."""
    return sum(s.degree for s in m.segments)


def lambda_of(m: Multisegment) -> Partition:
    """Highest derivative partition: part i sums the dims of segments of length >= i."""
    dims_by_length: dict[int, int] = {}
    for s in m.segments:
        n = s.length
        dims_by_length[n] = dims_by_length.get(n, 0) + s.dim
    parts = []
    total = 0
    for i in range(max(dims_by_length, default=0), 0, -1):
        total += dims_by_length.get(i, 0)
        parts.append(total)
    return Partition(tuple(reversed(parts)))


def elementary_reductions(m: Multisegment) -> set[Multisegment]:
    """All one-step degradations: replace a linked pair by its union and intersection."""
    if not m.infinite_period:
        raise WraparoundError("elementary operations undefined with wraparound")
    out: set[Multisegment] = set()
    segs = m.segments
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if linked(segs[i], segs[j]):
                union, inter = union_and_intersection(segs[i], segs[j])
                out.add(m.replace_pair(i, j, (union, inter)))
    return out


class Poset(Value):
    """The reduction poset below a multisegment: nodes and covering edges."""

    __slots__ = ("nodes", "edges")

    def __init__(
        self, nodes: tuple[Multisegment, ...], edges: tuple[tuple[int, int], ...]
    ) -> None:
        self._init(nodes, edges)

    def to_dot(self) -> str:
        lines = ["digraph downset {"]
        for i, node in enumerate(self.nodes):
            lam = lambda_of(node)
            lines.append(f'  n{i} [label="{node} | λ={lam}"];')
        for i, j in self.edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "nodes": [n.to_json() for n in self.nodes],
            "edges": [list(e) for e in self.edges],
        }


def downset(m: Multisegment, node_bound: int = DEFAULT_NODE_BOUND) -> Poset:
    """Transitive closure of elementary reductions starting from m."""
    seen: set[Multisegment] = {m}
    frontier = [m]
    edge_set: set[tuple[Multisegment, Multisegment]] = set()
    while frontier:
        nxt: list[Multisegment] = []
        for node in frontier:
            for child in elementary_reductions(node):
                edge_set.add((node, child))
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
                    if len(seen) > node_bound:
                        raise BudgetExceededError(
                            f"downset node bound {node_bound} exceeded:"
                            f" the search had reached {len(seen)} nodes"
                        )
        frontier = nxt
    nodes = tuple(sorted(seen, key=str))
    index = {n: i for i, n in enumerate(nodes)}
    edges = tuple(sorted((index[p], index[c]) for p, c in edge_set))
    return Poset(nodes, edges)


def degenerates_to(m: Multisegment, m2: Multisegment) -> bool:
    """Whether m2 <= m in the degeneration order: m2 is reached from m by
    elementary reductions, m itself included.

    This is the rank criterion (Zelevinsky; Abeasis-Del Fra): every interval
    [i, j] of a line lies in at least as many segments of m2 as of m, and
    the two have the same support.  The count of m only rises at a start of
    m and falls past an end of m, so those intervals are enough; each point
    then lies in at least as many segments of m2, so equal degrees make the
    supports equal.
    """
    if not (m.infinite_period and m2.infinite_period):
        raise WraparoundError("degeneration order undefined with wraparound")

    def containing(segs, s: Segment, t: Segment) -> int:
        """How many of segs contain [s.a, t.b] on the line of s."""
        return sum(u.cuspidal == s.cuspidal and u.a <= s.a and t.b <= u.b for u in segs)

    return degree(m) == degree(m2) and all(
        containing(m2.segments, s, t) >= containing(m.segments, s, t)
        for s in m.segments
        for t in m.segments
        if s.cuspidal == t.cuspidal and s.a <= t.b
    )


def _dual_one_line(segs: list[Segment]) -> list[Segment]:
    """Moeglin-Waldspurger peeling on a single infinite-period line.

    Repeatedly extract the maximal chain of segments whose ends descend by
    one and whose starts strictly decrease; the twist interval of the
    chain's ends becomes a segment of the dual, and each chain member
    loses its top twist.  The segments are kept as sorted starts bucketed
    by end, so each chain step is one bisection.
    """
    line = segs[0].cuspidal
    starts: dict[int, list[int]] = {}
    for s in segs:
        starts.setdefault(s.b, []).append(s.a)
    for bucket in starts.values():
        bucket.sort()
    out: list[Segment] = []
    while starts:
        b = max(starts)
        e, start = b, b + 1
        peeled: list[tuple[int, int]] = []
        while e in starts:
            bucket = starts[e]
            i = bisect_left(bucket, start)
            if i == 0:
                break
            start = bucket.pop(i - 1)
            if not bucket:
                del starts[e]
            if start < e:
                peeled.append((start, e - 1))
            e -= 1
        out.append(Segment(line, e + 1, b))
        # The chain members lose their top twist once the chain is complete.
        for a, end in peeled:
            insort(starts.setdefault(end, []), a)
    return out


def mw_dual(m: Multisegment) -> Multisegment:
    """The Zelevinsky-dual multisegment, computed by maximal-chain peeling."""
    if not m.infinite_period:
        raise WraparoundError("the involution is undefined with wraparound")
    by_line: dict[CuspidalLine, list[Segment]] = {}
    for s in m.segments:
        by_line.setdefault(s.cuspidal, []).append(s)
    dual: list[Segment] = []
    for segs in by_line.values():
        dual.extend(_dual_one_line(segs))
    return Multisegment(tuple(dual))


class InertialClass(Value):
    """A multisegment up to independent unramified twists of its segments.

    The representative anchors every segment at start twist 0, so that
    inertially equivalent segments become literally equal and two
    multisegments are inertially equivalent exactly when their classes
    compare equal; a segment starting elsewhere raises ``ShapeError``.
    ``orbit_sizes`` is derived from the representative: the lengths of its
    runs of equal segments, which the twists permute.  A given value must
    agree with it.
    """

    __slots__ = ("representative", "orbit_sizes")

    def __init__(
        self, representative: Multisegment, orbit_sizes: Optional[tuple[int, ...]] = None
    ) -> None:
        sizes = []
        for _, run in groupby(representative.segments, _segment_key):
            first, *rest = run
            if first.a:
                raise ShapeError(f"representative segment {first} does not start at twist 0")
            sizes.append(1 + len(rest))
        runs = tuple(sizes)
        if orbit_sizes is not None and tuple(orbit_sizes) != runs:
            raise ShapeError(
                f"orbit sizes {tuple(orbit_sizes)} disagree with the representative's {runs}"
            )
        self._init(representative, runs)

    @property
    def degree(self) -> int:
        return degree(self.representative)

    @property
    def tangent_dim(self) -> int:
        return len(self.representative)

    def weyl_order(self) -> int:
        return math.prod(map(math.factorial, self.orbit_sizes))

    def distinct_segments(self) -> list[tuple[Segment, int]]:
        """Distinct inertial segments of the representative with multiplicities."""
        return [(s, len(list(run))) for s, run in groupby(self.representative.segments)]

    def to_json(self) -> dict:
        return {
            "representative": self.representative.to_json(),
            "orbit_sizes": list(self.orbit_sizes),
        }


def inertial_class(m: Multisegment) -> InertialClass:
    """Collapse each segment to its start-0 inertial representative."""
    return InertialClass(Multisegment(Segment(s.cuspidal, 0, s.length - 1) for s in m.segments))


def enumerate_with_support(
    points: Iterable[CuspidalLabel], bound: int = DEFAULT_SUPPORT_BOUND
) -> list[Multisegment]:
    """All multisegments whose support is exactly the given multiset of twists."""
    pts = list(points)
    if len(pts) > bound:
        raise BudgetExceededError(
            f"support size bound {bound} exceeded: the support has {len(pts)} points"
        )
    if any(p.line.period is not None for p in pts):
        raise WraparoundError("support enumeration undefined with wraparound")
    remaining: Counter = Counter((p.line, p.twist) for p in pts)
    results: list[Multisegment] = []
    acc: list[Segment] = []

    def rec(prev_top: Optional[tuple], prev_start: int) -> None:
        # The highest remaining point is the top of some segment.  Segments
        # with the same top are chosen consecutively with starts that never
        # increase, so each multisegment is generated exactly once.
        if not remaining:
            results.append(Multisegment(tuple(acc)))
            return
        top = max(remaining, key=lambda p: (p[0]._key, p[1]))
        line, t = top
        lowest = prev_start if top == prev_top else t
        a = t
        while remaining[line, a]:
            point = (line, a)
            remaining[point] -= 1
            if not remaining[point]:
                del remaining[point]
            if a <= lowest:
                acc.append(Segment(line, a, t))
                rec(top, a)
                acc.pop()
            a -= 1
        remaining.update((line, u) for u in range(a + 1, t + 1))

    rec(None, 0)
    return sorted(results, key=str)
