"""Multisegments: multisets of segments and their combinatorics.

Covers the degree and highest-derivative partition invariants, the
elementary-operation poset and the degeneration order it generates,
the Moeglin-Waldspurger involution, and inertial classes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from itertools import chain, groupby, product
from operator import attrgetter
from typing import Iterable, Optional

from .errors import BudgetExceededError, InputError, ShapeError, WraparoundError, expect
from .partitions import Partition
from .segments import (
    CuspidalLabel,
    CuspidalLine,
    Segment,
    support as segment_support,
)
from .values import Keyed, Value, set_key, slot_setters

DEFAULT_SUPPORT_BOUND = 10
DEFAULT_NODE_BOUND = 5000


_segment_key = attrgetter("_key")
_line_key = attrgetter("cuspidal._key")


class Multisegment(Keyed):
    """A multiset of segments, stored sorted by key.

    None entries are dropped at construction, so truncations by ``top_minus``
    compose freely.  The key concatenates the segments' keys.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Iterable[Optional[Segment]] = ()) -> None:
        self._fill(sorted([s for s in segments if s is not None], key=_segment_key))

    @classmethod
    def of(cls, *segments: Optional[Segment]) -> "Multisegment":
        return cls(segments)

    @classmethod
    def from_sorted(cls, segments: Iterable[Segment]) -> "Multisegment":
        """The multisegment of segments given in key order, which
        are neither filtered nor sorted.  Given out of order, the result is
        not canonical: it compares unequal to the one the constructor builds.
        """
        m = cls.__new__(cls)
        m._fill(segments)
        return m

    def _fill(self, segments: Iterable[Segment]) -> None:
        """Store the segments and their concatenated keys, in linear time."""
        segments = tuple(segments)
        if len(segments) == 1:  # as kgroup's many segment classes: no copy
            key = segments[0]._key
        else:
            parts: list = []
            for s in segments:
                parts += s._key
            key = tuple(parts)
        _set_segments(self, segments)
        set_key(self, key)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def infinite_period(self) -> bool:
        return all(s.cuspidal.period is None for s in self.segments)

    def union(self, other: "Multisegment") -> "Multisegment":
        return Multisegment(self.segments + other.segments)

    def support(self) -> Counter:
        """Multiset union of the member segments' supports."""
        total: Counter = Counter()
        for s in self.segments:
            total.update(segment_support(s))
        return total

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.segments)) + "}"

    def to_json(self) -> dict:
        return {"segments": [s.to_json() for s in self.segments]}

    @classmethod
    def from_json(cls, data, where: str = "") -> "Multisegment":
        """Decode ``{"segments": [...]}``; ``where`` is its path, empty at the root.

        Segments are checked and built in document order, and the first
        fault is reported with its path, e.g. ``segments[0].a``.  An entry
        whose ``empty`` field is truthy stands for no segment and is skipped.
        """
        if not isinstance(data, dict) or "segments" not in data:
            raise InputError('expected a multisegment object {"segments": [...]}', where)
        where += ".segments"
        segments = expect(data["segments"], list, where)
        return cls(Segment.from_json(s, f"{where}[{i}]") for i, s in enumerate(segments)
                   if not (isinstance(s, dict) and s.get("empty")))


(_set_segments,) = slot_setters(Multisegment)


def degree(m: Multisegment) -> int:
    """Sum of member degrees."""
    return sum(s.degree for s in m.segments)


def lambda_of(m: Multisegment) -> Partition:
    """Highest derivative partition: part i sums the dims of segments of length >= i."""
    dims_by_length: dict[int, int] = {}
    for s in m.segments:
        n = s.b - s.a + 1
        dims_by_length[n] = dims_by_length.get(n, 0) + s.cuspidal.dim
    parts = []
    total = 0
    for i in range(max(dims_by_length, default=0), 0, -1):
        total += dims_by_length.get(i, 0)
        parts.append(total)
    parts.reverse()
    return Partition(parts)


def elementary_reductions(m: Multisegment) -> set[Multisegment]:
    """All one-step degradations: replace a linked pair by its union and intersection.

    Each line's segments are one run of ``m.segments``, with ends descending
    and then starts ascending.  So a pair i < j is linked exactly when it
    shares a line, b_j < b_i and a_j < a_i <= b_j + 1; its union is
    [a_j, b_i] and its intersection [a_i, b_j].  Past the first j with
    b_j + 1 < a_i or on another line, no pair with i is linked.  The other
    segments keep their order, and the union and a nonempty intersection
    are inserted in theirs.
    """
    out: set[Multisegment] = set()
    segs = m.segments
    for i, s in enumerate(segs):
        line, a, b = s.cuspidal, s.a, s.b
        if line.period is not None:
            raise WraparoundError("elementary operations undefined with wraparound")
        for j in range(i + 1, len(segs)):
            t = segs[j]
            if t.b + 1 < a or t.cuspidal is not line and t.cuspidal._key != line._key:
                break
            if t.b < b and t.a < a:
                rest = list(segs)
                del rest[j], rest[i]
                insort(rest, Segment(line, t.a, b), key=_segment_key)
                if a <= t.b:
                    insort(rest, Segment(line, a, t.b), key=_segment_key)
                out.add(Multisegment.from_sorted(rest))
    return out


class Poset(Value):
    """The reduction poset below a multisegment: its nodes, and an edge from
    each node to each of its elementary reductions, which need not be a cover."""

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
    loses its top twist.  The starts are kept sorted in buckets by end, and
    the segments arrive in key order, so each bucket arrives sorted and the
    top end only falls.  Each chain step is one bisection: the member taken
    at end f - 1 is the largest start below the one taken at f, so the
    truncated member [start, f - 1] takes its place in that bucket.
    """
    line = segs[0].cuspidal
    starts: dict[int, list[int]] = {}
    for s in segs:
        starts.setdefault(s.b, []).append(s.a)
    top = segs[0].b
    out: list[Segment] = []
    while starts:
        while top not in starts:
            top -= 1
        bucket = starts[top]
        start = bucket.pop()
        if not bucket:
            del starts[top]
        f = top
        while True:
            below = starts.get(f - 1)
            i = bisect_left(below, start) if below is not None else 0
            if not i:
                if start < f:
                    starts.setdefault(f - 1, []).insert(0, start)
                break
            taken = below[i - 1]
            if start < f:
                below[i - 1] = start
            else:
                del below[i - 1]
                if not below:
                    del starts[f - 1]
            start = taken
            f -= 1
        out.append(Segment(line, f, top))
    return out


def mw_dual(m: Multisegment) -> Multisegment:
    """The Zelevinsky-dual multisegment, computed by maximal-chain peeling
    on each line's run of segments.

    The peeling emits each line's dual in key order, and the runs come in
    the order of their lines, so the dual needs no sort.
    """
    dual: list[Segment] = []
    for _, run in groupby(m.segments, _line_key):
        run = list(run)
        if run[0].cuspidal.period is not None:
            raise WraparoundError("the involution is undefined with wraparound")
        dual += _dual_one_line(run)
    return Multisegment.from_sorted(dual)


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


def _one_line(line: CuspidalLine, twists: list[int]) -> list[tuple[Segment, ...]]:
    """Every multisegment on one line with exactly the given multiset of
    twists, each as its segments in key order.

    The first is every point as its own segment.  The next comes from the
    last segment [a, b] that can start one lower: at a - 1 there is a free
    point, and an earlier segment that also ends at b starts no later.  It
    becomes [a - 1, b], and every point left at or below b becomes its own
    segment again.  Each multisegment is reached exactly once, and none of
    these steps runs into a dead end.
    """
    lo = min(twists)
    free = [0] * (max(twists) - lo + 1)
    for t in twists:
        free[t - lo] += 1
    # The segments the support allows, each built once: seg[b][a] is the
    # segment from offset a to offset b.
    seg: list[list[Optional[Segment]]] = []
    for b in range(len(free)):
        row: list[Optional[Segment]] = [None] * (b + 1)
        a = b
        while a >= 0 and free[a]:
            row[a] = Segment(line, lo + a, lo + b)
            a -= 1
        seg.append(row)
    picked: list[Segment] = []  # in key order
    out: list[tuple[Segment, ...]] = []
    b = len(free) - 1
    while True:
        for t in range(b, -1, -1):
            if free[t]:
                picked += [seg[t][t]] * free[t]
                free[t] = 0
        out.append(tuple(picked))
        while picked:
            s = picked.pop()
            a, b = s.a - lo, s.b - lo
            for u in range(a, b + 1):
                free[u] += 1
            a -= 1
            if a >= 0 and free[a] and (not picked or picked[-1].b > s.b or picked[-1].a < s.a):
                break
        else:
            return out
        for u in range(a, b + 1):
            free[u] -= 1
        picked.append(seg[b][a])


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
    # The integer twists on each line; lines of one key are one line.
    twists: dict[tuple, tuple[CuspidalLine, list[int]]] = {}
    for p in pts:
        twists.setdefault(p.line._key, (p.line, []))[1].append(p.twist)
    # A multisegment is one choice per line, with the lines in key order.
    per_line = [_one_line(line, ts) for _, (line, ts) in sorted(twists.items())]
    return sorted((Multisegment.from_sorted(chain.from_iterable(parts))
                   for parts in product(*per_line)), key=str)
