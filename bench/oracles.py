"""Reference answers the benchmark checks the library against.

Nothing here imports strata_kit: every expected value is recomputed from
plain tuples.  A segment is ``(line, dim, a, b)`` and a multisegment is the
sorted tuple of its segments, so two multisegments are equal exactly when
their tuples are.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache


def decode_mseg(payload: dict) -> tuple:
    """Tuple form of a multisegment's JSON (``to_json()`` or CLI output)."""
    out = []
    for s in payload["segments"]:
        if s.get("period") is not None:
            raise ValueError("benchmark inputs use infinite-period lines only")
        out.append((s["line"], s["dim"], s["a"], s["b"]))
    return tuple(sorted(out))


def encode_mseg(ms: tuple) -> dict:
    """Inverse of :func:`decode_mseg`, in the CLI's input format."""
    return {
        "segments": [
            {"line": line, "dim": dim, "period": None, "a": a, "b": b}
            for line, dim, a, b in ms
        ]
    }


def support(ms: tuple) -> Counter:
    return Counter((line, dim, t) for line, dim, a, b in ms for t in range(a, b + 1))


def degree(ms: tuple) -> int:
    return sum(dim * (b - a + 1) for _, dim, a, b in ms)


def lam(ms: tuple) -> tuple:
    """Highest derivative partition from segment lengths: part i sums the
    dims of the segments of length >= i."""
    lengths = [(b - a + 1, dim) for _, dim, a, b in ms]
    top = max((n for n, _ in lengths), default=0)
    return tuple(sum(d for n, d in lengths if n >= i) for i in range(1, top + 1))


def dominated(small: tuple, big: tuple) -> bool:
    """Every prefix sum of ``small`` is at most that of ``big`` (equal weights)."""
    if sum(small) != sum(big):
        raise ValueError("dominance compares partitions of equal weight")
    acc_s = acc_b = 0
    for i in range(max(len(small), len(big))):
        acc_s += small[i] if i < len(small) else 0
        acc_b += big[i] if i < len(big) else 0
        if acc_s > acc_b:
            return False
    return True


def relation(s1: tuple, s2: tuple) -> dict:
    """The fields of ``strata_kit.Relation`` for two segments."""
    if s1[:2] != s2[:2]:
        return dict(same_line=False, precedes=False, preceded_by=False, linked=False,
                    juxtaposed=False, contains=False, contained_in=False, disjoint=True)
    (a1, b1), (a2, b2) = s1[2:], s2[2:]
    contains = a1 <= a2 and b2 <= b1
    contained_in = a2 <= a1 and b1 <= b2
    overlap = max(a1, a2) <= min(b1, b2)
    linked = a2 <= b1 + 1 and a1 <= b2 + 1 and not contains and not contained_in
    return dict(same_line=True, precedes=linked and a1 < a2, preceded_by=linked and a2 < a1,
                linked=linked, juxtaposed=linked and not overlap, contains=contains,
                contained_in=contained_in, disjoint=not overlap)


def reductions(ms: tuple) -> set:
    """All one-step degradations: a linked pair becomes its union and intersection."""
    out = set()
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if not relation(ms[i], ms[j])["linked"]:
                continue
            (line, dim, a1, b1), (_, _, a2, b2) = ms[i], ms[j]
            rest = [s for k, s in enumerate(ms) if k not in (i, j)]
            rest.append((line, dim, min(a1, a2), max(b1, b2)))
            lo, hi = max(a1, a2), min(b1, b2)
            if lo <= hi:
                rest.append((line, dim, lo, hi))
            out.add(tuple(sorted(rest)))
    return out


def closure(ms: tuple) -> tuple[set, set]:
    """(nodes, edges) of the reduction poset below ``ms``."""
    nodes, edges, frontier = {ms}, set(), [ms]
    while frontier:
        nxt = []
        for node in frontier:
            for child in reductions(node):
                edges.add((node, child))
                if child not in nodes:
                    nodes.add(child)
                    nxt.append(child)
        frontier = nxt
    return nodes, edges


def mw_dual(ms: tuple) -> tuple:
    """Moeglin-Waldspurger involution by maximal-chain peeling, line by line."""
    out = []
    for line, dim in sorted({s[:2] for s in ms}):
        rest = Counter((a, b) for ln, d, a, b in ms if (ln, d) == (line, dim))
        while rest:
            top = max(b for _, b in rest)
            end, bound, chain = top, math.inf, []
            while True:
                starts = [a for (a, b), n in rest.items() if n and b == end and a < bound]
                if not starts:
                    break
                bound = max(starts)
                chain.append((bound, end))
                end -= 1
            out.append((line, dim, end + 1, top))
            for a, b in chain:
                rest[(a, b)] -= 1
                if b > a:
                    rest[(a, b - 1)] += 1
            rest = +rest
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _count(points: tuple) -> int:
    """Multisegments on one line whose support is the sorted tuple ``points``.

    The copies of the top point t are the ends of exactly that many segments;
    their starts are chosen as a non-increasing sequence, so each multisegment
    arises once.
    """
    if not points:
        return 1
    left = Counter(points)
    top = points[-1]

    def starts(copies: int, cap: int) -> int:
        if copies == 0:
            return _count(tuple(sorted(left.elements())))
        total = 0
        a = cap
        while all(left[u] > 0 for u in range(a, top + 1)):
            left.subtract(range(a, top + 1))
            total += starts(copies - 1, a)
            left.update(range(a, top + 1))
            a -= 1
        return total

    return starts(left[top], top)


def count_with_support(twists) -> int:
    """Number of multisegments on one line with the given multiset of twists."""
    pts = sorted(twists)
    return _count(tuple(t - pts[0] for t in pts)) if pts else 1


def anchored_supports(max_degree: int) -> list[tuple[int, ...]]:
    """Multisets of d twists in [0, d-1] containing 0, for d = 1..max_degree."""
    from itertools import combinations_with_replacement

    return [
        (0,) + extra
        for d in range(1, max_degree + 1)
        for extra in combinations_with_replacement(range(d), d - 1)
    ]


def inertial_classes(lines: tuple, n: int) -> dict:
    """Inertial classes of degree n over ``lines`` ((line, dim) pairs), by lambda.

    A class is the sorted tuple of its (line, dim, length) segments.
    """
    items = [(line, dim, length) for line, dim in sorted(lines)
             for length in range(1, n // dim + 1)]
    by_lam: dict = {}

    def rec(idx: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            cls = tuple(sorted(acc))
            by_lam.setdefault(lam(tuple((ln, d, 0, k - 1) for ln, d, k in cls)), []).append(cls)
            return
        if idx == len(items):
            return
        line, dim, length = items[idx]
        copies = 0
        while copies * dim * length <= remaining:
            rec(idx + 1, remaining - copies * dim * length, acc + [(line, dim, length)] * copies)
            copies += 1

    rec(0, n, [])
    return by_lam


def partitions(n: int, cap: int | None = None) -> list[tuple]:
    """All partitions of n as weakly decreasing tuples."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, cap), 0, -1) for rest in partitions(n - p, p)]


def distinct_perms(groups: list[list[int]]) -> int:
    """Size of the orbit of a token tuple under permutations within each group."""
    total = 1
    for g in groups:
        total *= math.factorial(len(g))
        for c in Counter(g).values():
            total //= math.factorial(c)
    return total
