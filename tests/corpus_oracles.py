"""The earlier implementations of the corpus path, kept as test oracles.

These are the functions the ``corpus`` workload calls, as they were before
they walked segments in key order: ``relate`` builds a fresh ``Relation``
from four comparisons after checking linkability, ``elementary_reductions``
tests every pair with ``linked`` and ``union_and_intersection``, ``mw_dual``
buckets the segments by line in a dict and re-sorts each bucket of starts,
``enumerate_with_support`` recurses through a closure over a Counter of
(line, twist) points, and ``dominance_leq`` compares padded prefix sums.
Each library function must agree with its oracle here: the same value, or
the same error.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from typing import Optional

from strata_kit.errors import BudgetExceededError, WeightMismatchError, WraparoundError
from strata_kit.multisegments import DEFAULT_SUPPORT_BOUND, Multisegment
from strata_kit.partitions import Partition
from strata_kit.segments import Relation, Segment


def _check_linkable(s1, s2) -> None:
    if s1.cuspidal.period is not None or s2.cuspidal.period is not None:
        raise WraparoundError("linking undefined with wraparound")


def linked(s1, s2) -> bool:
    _check_linkable(s1, s2)
    if s1.cuspidal != s2.cuspidal:
        return False
    if s1.a < s2.a:
        return s1.b < s2.b and s2.a <= s1.b + 1
    if s2.a < s1.a:
        return s2.b < s1.b and s1.a <= s2.b + 1
    return False


def relate(s1, s2) -> Relation:
    _check_linkable(s1, s2)
    if s1.cuspidal != s2.cuspidal:
        return Relation(False, False, False, False, False, False, False, True)
    a1, b1, a2, b2 = s1.a, s1.b, s2.a, s2.b
    contains = a1 <= a2 and b2 <= b1
    contained_in = a2 <= a1 and b1 <= b2
    overlap = max(a1, a2) <= min(b1, b2)
    union_is_segment = a2 <= b1 + 1 and a1 <= b2 + 1
    is_linked = union_is_segment and not contains and not contained_in
    return Relation(
        same_line=True,
        precedes=is_linked and a1 < a2,
        preceded_by=is_linked and a2 < a1,
        linked=is_linked,
        juxtaposed=is_linked and not overlap,
        contains=contains,
        contained_in=contained_in,
        disjoint=not overlap,
    )


def _union_and_intersection(s1, s2):
    union = Segment(s1.cuspidal, min(s1.a, s2.a), max(s1.b, s2.b))
    lo, hi = max(s1.a, s2.a), min(s1.b, s2.b)
    return union, Segment(s1.cuspidal, lo, hi) if lo <= hi else None


def elementary_reductions(m: Multisegment) -> set:
    if not m.infinite_period:
        raise WraparoundError("elementary operations undefined with wraparound")
    out = set()
    segs = m.segments
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if linked(segs[i], segs[j]):
                rest = [s for k, s in enumerate(segs) if k not in (i, j)]
                out.add(Multisegment(rest + list(_union_and_intersection(segs[i], segs[j]))))
    return out


def lambda_of(m: Multisegment) -> Partition:
    dims_by_length: dict = {}
    for s in m.segments:
        n = s.length
        dims_by_length[n] = dims_by_length.get(n, 0) + s.dim
    parts = []
    total = 0
    for i in range(max(dims_by_length, default=0), 0, -1):
        total += dims_by_length.get(i, 0)
        parts.append(total)
    return Partition(tuple(reversed(parts)))


def _dual_one_line(segs: list) -> list:
    line = segs[0].cuspidal
    starts: dict = {}
    for s in segs:
        starts.setdefault(s.b, []).append(s.a)
    for bucket in starts.values():
        bucket.sort()
    out = []
    while starts:
        b = max(starts)
        e, start = b, b + 1
        peeled = []
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
        for a, end in peeled:
            insort(starts.setdefault(end, []), a)
    return out


def mw_dual(m: Multisegment) -> Multisegment:
    if not m.infinite_period:
        raise WraparoundError("the involution is undefined with wraparound")
    by_line: dict = {}
    for s in m.segments:
        by_line.setdefault(s.cuspidal, []).append(s)
    dual = []
    for segs in by_line.values():
        dual.extend(_dual_one_line(segs))
    return Multisegment(tuple(dual))


def enumerate_with_support(points, bound: int = DEFAULT_SUPPORT_BOUND) -> list:
    pts = list(points)
    if len(pts) > bound:
        raise BudgetExceededError(
            f"support size bound {bound} exceeded: the support has {len(pts)} points"
        )
    if any(p.line.period is not None for p in pts):
        raise WraparoundError("support enumeration undefined with wraparound")
    remaining: Counter = Counter((p.line, p.twist) for p in pts)
    results = []
    acc = []

    def rec(prev_top: Optional[tuple], prev_start: int) -> None:
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


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    if lam.weight != mu.weight:
        raise WeightMismatchError("incomparable weights")
    acc_l = acc_m = 0
    for i in range(1, max(lam.length, mu.length) + 1):
        acc_l += lam.part(i)
        acc_m += mu.part(i)
        if acc_l > acc_m:
            return False
    return True
