import gc
import itertools
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from strata_kit import (
    BudgetExceededError,
    CuspidalLabel,
    InertialClass,
    Multisegment,
    Orbit,
    Partition,
    Segment,
    ShapeError,
    WraparoundError,
    add,
    degenerates_to,
    degree,
    dominance_leq,
    downset,
    elementary_reductions,
    enumerate_with_support,
    inertial_class,
    lambda_of,
    mw_dual,
    top_minus,
)

from conftest import mseg, seg

segments_st = st.builds(
    lambda a, length: seg(a, a + length - 1),
    st.integers(-4, 4),
    st.integers(1, 4),
)
msegs_st = st.lists(segments_st, max_size=4).map(lambda xs: Multisegment.of(*xs))


def brute_force_enumerate_with_support(points):
    """The set-based oracle: every ordering of the segments is generated and
    the duplicates are dropped by a set."""
    remaining = Counter((p.line, p.twist) for p in points)
    results = set()

    def rec(rem, acc):
        if not rem:
            results.add(Multisegment(tuple(acc)))
            return
        base, t = max(rem, key=lambda k: (k[0].line_id, k[0].dim, k[1]))
        a = t
        while True:
            new = rem.copy()
            ok = True
            for u in range(a, t + 1):
                if new[(base, u)] > 0:
                    new[(base, u)] -= 1
                    if new[(base, u)] == 0:
                        del new[(base, u)]
                else:
                    ok = False
                    break
            if not ok:
                break
            acc.append(Segment(base, a, t))
            rec(new, acc)
            acc.pop()
            a -= 1

    rec(remaining, [])
    return sorted(results, key=str)


def brute_force_dual_one_line(segs):
    """The list-scanning oracle for maximal-chain peeling on one line."""
    remaining = list(segs)
    out = []
    while remaining:
        b = max(s.b for s in remaining)
        chain = []
        e = b
        start = None
        while True:
            candidates = [
                i
                for i, s in enumerate(remaining)
                if i not in chain and s.b == e and (start is None or s.a < start)
            ]
            if not candidates:
                break
            pick = max(candidates, key=lambda i: remaining[i].a)
            chain.append(pick)
            start = remaining[pick].a
            e -= 1
        out.append(Segment(remaining[0].cuspidal, b - len(chain) + 1, b))
        peeled = []
        for i, s in enumerate(remaining):
            if i in chain:
                shorter = top_minus(s)
                if shorter is not None:
                    peeled.append(shorter)
            else:
                peeled.append(s)
        remaining = peeled
    return out


def brute_force_mw_dual(m):
    by_line = {}
    for s in m.segments:
        by_line.setdefault(s.cuspidal, []).append(s)
    dual = []
    for segs in by_line.values():
        dual.extend(brute_force_dual_one_line(segs))
    return Multisegment(tuple(dual))


def brute_force_lambda(m):
    """Part i sums the dims of the segments of length >= i."""
    longest = max((s.length for s in m.segments), default=0)
    return Partition(
        tuple(sum(s.dim for s in m.segments if s.length >= i) for i in range(1, longest + 1))
    )


# Supports of up to 8 points on one to three lines of dim 1 or 2, with repeats.
supports_st = st.lists(
    st.tuples(st.sampled_from("rst"), st.integers(1, 2)), min_size=1, max_size=3, unique=True
).flatmap(
    lambda lines: st.lists(
        st.builds(
            lambda line, t: CuspidalLabel(line[0], line[1], twist=t),
            st.sampled_from(lines),
            st.integers(-3, 3),
        ),
        max_size=8,
    )
)


def all_anchored(max_degree):
    """Every multisegment on one dim-1 line whose support is anchored at 0."""
    out = []
    for d in range(1, max_degree + 1):
        for extra in itertools.combinations_with_replacement(range(d), d - 1):
            pts = [CuspidalLabel("r", twist=t) for t in (0,) + extra]
            out.extend(enumerate_with_support(pts))
    return out


class TestMultisegment:
    def test_canonical_storage_and_empty_drop(self):
        m = Multisegment.of(seg(0, 0), None, seg(0, 1))
        assert m.segments == (seg(0, 1), seg(0, 0))
        assert Multisegment.of(seg(0, 1), seg(0, 0)) == m

    def test_degree(self):
        assert degree(mseg((0, 1), (0, 0))) == 3
        assert degree(Multisegment()) == 0
        assert degree(Multisegment.of(seg(0, 2, dim=2))) == 6

    def test_json_round_trip(self):
        m = mseg((0, 1), (2, 2))
        assert Multisegment.from_json(m.to_json()) == m

    def test_single_segment_fast_path_builds_what_of_builds(self):
        for s in (seg(0, 0), seg(-3, 2, "s"), seg(1, 4, dim=2), seg(5, 6, period=3)):
            fast, built = Multisegment.from_sorted((s,)), Multisegment.of(s)
            assert (fast, fast.segments, fast._key) == (built, built.segments, built._key)
            assert (hash(fast), str(fast)) == (hash(built), str(built))

    def test_construction_is_linear_in_the_segment_count(self):
        """20 000 singletons given against key order, and the MW dual of
        [0, 20000], each build in well under a second; building the key by
        concatenating tuples pairwise took about 5 s."""
        singletons = [seg(t, t) for t in range(20000)]
        start = time.perf_counter()
        m = Multisegment(singletons)
        assert time.perf_counter() - start < 1
        assert m.segments == tuple(reversed(singletons))
        start = time.perf_counter()
        dual = mw_dual(mseg((0, 20000)))
        assert time.perf_counter() - start < 1
        assert dual == Multisegment(singletons + [seg(20000, 20000)])


class TestLambda:
    def test_examples(self):
        assert lambda_of(mseg((0, 0), (1, 1))) == Partition.of(2)
        assert lambda_of(mseg((0, 2), (1, 1))) == Partition.of(2, 1, 1)
        assert lambda_of(Multisegment.of(seg(0, 2, dim=3))) == Partition.of(3, 3, 3)
        assert lambda_of(Multisegment()) == Partition()

    def test_weight_is_degree(self):
        for m in all_anchored(6):
            assert lambda_of(m).weight == degree(m)

    @given(msegs_st, msegs_st)
    def test_additive_on_unions(self, m1, m2):
        assert lambda_of(m1.union(m2)) == add(lambda_of(m1), lambda_of(m2))


class TestCanonicalOrder:
    """A multisegment stores its segments in the canonical order."""

    def test_examples(self):
        assert mseg((0, 0), (1, 1)).segments == (seg(1, 1), seg(0, 0))
        assert mseg((0, 1), (0, 0)).segments == (seg(0, 1), seg(0, 0))

    def test_two_lines_grouped(self):
        m = Multisegment.of(seg(0, 0), seg(5, 5, line_id="s"), seg(1, 1))
        order = m.segments
        assert [s.line_id for s in order] == ["r", "r", "s"]
        assert order[0] == seg(1, 1)

    def test_never_precedes_later(self):
        from strata_kit import relate

        for m in all_anchored(6):
            order = m.segments
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    rel = relate(order[i], order[j])
                    assert not rel.precedes
                    if rel.contains:
                        assert order[i].length >= order[j].length


class TestDegeneratesTo:
    def test_examples(self):
        pair, union = mseg((1, 1), (0, 0)), mseg((0, 1))
        assert degenerates_to(pair, union)
        assert not degenerates_to(union, pair)
        assert degenerates_to(pair, pair)
        assert not degenerates_to(pair, mseg((1, 1), (1, 1)))
        # One line's order does not mix with another's.
        other = Multisegment.of(seg(0, 1, line_id="s"), seg(1, 1, line_id="s"))
        assert degenerates_to(pair.union(other), union.union(other))
        assert not degenerates_to(pair.union(other), union.union(mseg((0, 1), line_id="s")))

    def test_agrees_with_downset(self):
        """The rank criterion picks exactly the downset among the multisegments
        of one support, for every one-line support in [0, 5] that holds 0."""
        checked = 0
        for d in range(1, 7):
            for extra in itertools.combinations_with_replacement(range(6), d - 1):
                pool = enumerate_with_support(CuspidalLabel("r", twist=t) for t in (0,) + extra)
                for m in pool:
                    below = {m2 for m2 in pool if degenerates_to(m, m2)}
                    assert set(downset(m).nodes) == below, m
                checked += len(pool)
        assert checked == 1531

    def test_wraparound_rejected(self):
        m = Multisegment.of(seg(0, 0, period=2))
        with pytest.raises(WraparoundError):
            degenerates_to(m, m)


class TestElementaryReductions:
    def test_examples(self):
        assert elementary_reductions(mseg((0, 0), (1, 1))) == {mseg((0, 1))}
        assert elementary_reductions(mseg((0, 1), (0, 0))) == set()
        assert elementary_reductions(mseg((0, 2), (1, 3))) == {mseg((0, 3), (1, 2))}

    def test_degree_preserved(self):
        """A reduction replaces a linked pair by its union and intersection,
        so it keeps the degree and the support, point by point."""
        for m in all_anchored(6):
            for child in elementary_reductions(m):
                assert degree(child) == degree(m)
                assert child.support() == m.support()

    def test_strictly_lowers_lambda(self):
        for m in all_anchored(6):
            lam = lambda_of(m)
            for child in elementary_reductions(m):
                lc = lambda_of(child)
                assert lc != lam
                assert dominance_leq(lc, lam)


class TestDownset:
    def test_examples(self):
        p = downset(mseg((0, 0), (1, 1)))
        assert len(p.nodes) == 2 and len(p.edges) == 1
        p = downset(mseg((0, 2)))
        assert len(p.nodes) == 1 and p.edges == ()
        p = downset(mseg((0, 0), (1, 1), (2, 2)))
        assert set(p.nodes) == {
            mseg((0, 0), (1, 1), (2, 2)),
            mseg((0, 1), (2, 2)),
            mseg((0, 0), (1, 2)),
            mseg((0, 2)),
        }

    def test_unique_top(self):
        for m in all_anchored(5):
            p = downset(m)
            lam = lambda_of(m)
            assert [n for n in p.nodes if lambda_of(n) == lam] == [m]

    def test_edges_are_the_reductions_not_the_covers(self):
        """Each node's out-edges are exactly its elementary reductions, and
        some of them skip a node of the order between their ends."""
        edges = skips = 0
        for m in all_anchored(6):
            p = downset(m)
            children = {n: set() for n in p.nodes}
            for i, j in p.edges:
                children[p.nodes[i]].add(p.nodes[j])
            for node, below in children.items():
                assert below == elementary_reductions(node), node
                edges += len(below)
                skips += sum(any(q != c and degenerates_to(q, c) for q in below) for c in below)
        assert (edges, skips) == (4293, 550)
        top, middle = mseg((1, 2), (1, 1), (0, 0)), mseg((0, 1), (1, 2))
        bottom = mseg((0, 2), (1, 1))
        p = downset(top)
        assert (p.nodes.index(top), p.nodes.index(bottom)) in p.edges
        assert middle in elementary_reductions(top) and degenerates_to(middle, bottom)

    def test_node_bound(self):
        with pytest.raises(BudgetExceededError):
            downset(Multisegment.of(*(seg(i, i) for i in range(6))), node_bound=3)

    def test_dot_deterministic(self):
        m = mseg((0, 0), (1, 1), (2, 2))
        text = downset(m).to_dot()
        assert text == downset(m).to_dot()
        assert text.startswith("digraph")
        assert "->" in text


class TestMwDual:
    def test_examples(self):
        assert mw_dual(mseg((0, 1))) == mseg((0, 0), (1, 1))
        assert mw_dual(mseg((0, 0))) == mseg((0, 0))
        assert mw_dual(mseg((0, 1), (1, 1))) == mseg((1, 1), (1, 1), (0, 0))
        assert mw_dual(mseg((0, 1), (0, 0))) == mseg((1, 1), (0, 0), (0, 0))
        assert mw_dual(mseg((0, 3))) == mseg((0, 0), (1, 1), (2, 2), (3, 3))

    def test_involution_and_support(self):
        for m in all_anchored(6):
            dm = mw_dual(m)
            assert dm.support() == m.support()
            assert degree(dm) == degree(m)
            assert mw_dual(dm) == m

    def test_two_lines_independent(self):
        m = Multisegment.of(seg(0, 1), seg(0, 1, line_id="s"))
        assert mw_dual(m) == Multisegment.of(
            seg(0, 0), seg(1, 1), seg(0, 0, line_id="s"), seg(1, 1, line_id="s")
        )

    def test_wraparound_rejected(self):
        with pytest.raises(WraparoundError):
            mw_dual(Multisegment.of(seg(0, 1, period=2)))


class TestInertialClass:
    def test_twisted_copies(self):
        cls = inertial_class(mseg((0, 1), (5, 6)))
        assert cls.orbit_sizes == (2,)
        assert cls.weyl_order() == 2
        assert cls.representative == mseg((0, 1), (0, 1))

    def test_distinct_lengths(self):
        cls = inertial_class(mseg((0, 1), (0, 0)))
        assert cls.orbit_sizes == (1, 1)
        assert cls.weyl_order() == 1

    def test_triple(self):
        cls = inertial_class(mseg((0, 1), (2, 3), (7, 8)))
        assert cls.orbit_sizes == (3,)
        assert cls.weyl_order() == 6

    def test_equality_characterizes_inertial_equivalence(self):
        assert inertial_class(mseg((0, 1), (5, 6))) == inertial_class(
            mseg((3, 4), (9, 10))
        )
        assert inertial_class(mseg((0, 1))) != inertial_class(
            Multisegment.of(seg(0, 1, line_id="s"))
        )

    def test_constructor_derives_orbit_sizes(self):
        rep = mseg((0, 0), (0, 0))
        cls = InertialClass(rep)
        assert cls == inertial_class(rep) == InertialClass(rep, (2,))
        assert cls.orbit_sizes == (2,) and cls.weyl_order() == 2
        assert set(Orbit(cls, (0, 1))) == {(0, 1), (1, 0)}
        for rep in [
            Multisegment(),
            mseg((0, 1), (0, 1), (0, 0)),
            Multisegment.of(seg(0, 0), seg(0, 0, dim=2), seg(0, 0, line_id="s")),
        ]:
            assert InertialClass(rep) == inertial_class(rep)

    def test_constructor_rejects_unanchored_representative(self):
        rep = mseg((0, 1), (5, 6))
        assert inertial_class(rep).orbit_sizes == (2,)
        with pytest.raises(ShapeError, match=r"segment \[5,6\]_r does not start at twist 0"):
            InertialClass(rep)
        with pytest.raises(ShapeError, match=r"segment \[3,3\]_r does not start"):
            InertialClass(mseg((0, 0), (0, 1), (3, 3)))

    def test_degree_sum(self):
        m = mseg((0, 1), (3, 4), (0, 0))
        cls = inertial_class(m)
        total = sum(mult * s.degree for s, mult in cls.distinct_segments())
        assert total == degree(m) == cls.degree


class TestEnumerateWithSupport:
    def pts(self, *twists, line_id="r"):
        return [CuspidalLabel(line_id, twist=t) for t in twists]

    def test_examples(self):
        assert enumerate_with_support(self.pts(0, 1)) == [
            mseg((0, 1)),
            mseg((0, 0), (1, 1)),
        ] or set(enumerate_with_support(self.pts(0, 1))) == {
            mseg((0, 1)),
            mseg((0, 0), (1, 1)),
        }
        assert enumerate_with_support(self.pts(0)) == [mseg((0, 0))]
        assert len(enumerate_with_support(self.pts(0, 1, 2))) == 4

    def test_supports_match(self):
        pts = self.pts(0, 1, 1, 2)
        for m in enumerate_with_support(pts):
            assert m.support() == Multisegment.of(
                *(seg(t, t) for t in (0, 1, 1, 2))
            ).support()

    def test_no_duplicates_and_deterministic(self):
        pts = self.pts(0, 0, 1, 1, 2)
        out = enumerate_with_support(pts)
        assert len(out) == len(set(out))
        assert out == enumerate_with_support(pts)

    def test_bound(self):
        with pytest.raises(BudgetExceededError):
            enumerate_with_support(self.pts(*range(11)))

    @settings(deadline=None)
    @given(supports_st)
    def test_matches_brute_force(self, points):
        out = enumerate_with_support(points)
        assert out == brute_force_enumerate_with_support(points)
        assert len(set(out)) == len(out)
        for m in out:
            assert mw_dual(m) == brute_force_mw_dual(m)
            assert lambda_of(m) == brute_force_lambda(m)

    @given(st.lists(
        st.builds(
            lambda line, a, length: seg(a, a + length - 1, *line),
            st.sampled_from([("r", 1), ("r", 2), ("s", 1)]),
            st.integers(-2, 2),
            st.integers(1, 3),
        ),
        max_size=4,
    ).map(lambda xs: Multisegment.of(*xs)).filter(lambda m: sum(m.support().values()) <= 8))
    def test_each_multisegment_is_enumerated_from_its_support(self, m):
        """Lines of one name and another dim keep apart in the support."""
        points = [
            CuspidalLabel(c.line_id, c.dim, twist=t)
            for (c, t), count in m.support().items()
            for _ in range(count)
        ]
        assert m in enumerate_with_support(points)

    def test_wraparound_rejected(self):
        with pytest.raises(WraparoundError):
            enumerate_with_support([CuspidalLabel("r", period=2)])

    def test_leaves_no_cyclic_garbage(self):
        # A reference cycle per call is freed only by the collector, and its
        # pauses then land in the calls that follow.
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            enumerate_with_support(self.pts(0, 1, 1, 2, 4) + self.pts(3, line_id="s"))
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
