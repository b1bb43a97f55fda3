import itertools
from collections import Counter

import pytest

from strata_kit import (
    CuspidalLabel,
    CuspidalLine,
    Multisegment,
    Segment,
    ShapeError,
    WraparoundError,
    inertial_class,
    relate,
    top_minus,
)
from strata_kit.segments import support

from conftest import seg


class TestCuspidalLabel:
    def test_twist_reduction(self):
        assert CuspidalLabel("r", period=2, twist=3).twist == 1
        assert CuspidalLabel("r", twist=3).twist == 3

    def test_validation(self):
        with pytest.raises(ShapeError):
            CuspidalLabel("r", dim=0)
        with pytest.raises(ShapeError):
            CuspidalLabel("r", period=0)

    def test_isomorphic(self):
        """Isomorphic points, the same line and reduced twist, compare equal."""
        a = CuspidalLabel("r", period=2, twist=0)
        assert a == CuspidalLabel("r", period=2, twist=2)
        assert a != CuspidalLabel("r", period=2, twist=1)
        assert a != CuspidalLabel("s", period=2, twist=0)


class TestSegment:
    def test_twist_folds_into_endpoints(self):
        s = Segment(CuspidalLabel("r", twist=3), 0, 1)
        assert (s.a, s.b) == (3, 4)
        assert s.cuspidal == CuspidalLine("r")

    def test_validation(self):
        with pytest.raises(ShapeError):
            seg(2, 1)

    def test_invariants(self):
        s = seg(0, 2, dim=2)
        assert (s.length, s.dim, s.degree) == (3, 2, 6)
        s = seg(5, 5)
        assert (s.length, s.dim, s.degree) == (1, 1, 1)

    def test_json_round_trip(self):
        s = seg(0, 2, dim=2, period=3)
        assert Segment.from_json(s.to_json()) == s


class TestSupport:
    def test_infinite(self):
        r = CuspidalLine("r")
        assert support(seg(0, 2)) == Counter({(r, 0): 1, (r, 1): 1, (r, 2): 1})

    def test_wraparound(self):
        r2 = CuspidalLine("r", period=2)
        assert support(seg(0, 2, period=2)) == Counter({(r2, 0): 2, (r2, 1): 1})
        assert support(seg(3, 3, period=2)) == Counter({(r2, 1): 1})

    def test_lines_of_one_name_share_no_point(self):
        """A point is keyed by its whole line: name, dim and period."""
        lines = [seg(0, 1), seg(0, 1, dim=2), seg(0, 1, period=5), seg(0, 1, line_id="s")]
        for s, t in itertools.combinations(lines, 2):
            assert support(s) != support(t)
            assert not set(support(s)) & set(support(t))
        r1, r2 = CuspidalLabel("r", 1), CuspidalLabel("r", 2)
        assert Multisegment.of(Segment(r1, 0, 0)).support() != Multisegment.of(
            Segment(r2, 0, 0)
        ).support()

    def test_multiplicity_above_one_iff_long(self):
        for a in range(3):
            for b in range(a, a + 5):
                s = seg(a, b, period=3)
                has_mult = any(c > 1 for c in support(s).values())
                assert has_mult == (s.length > 3)


class TestEquivalence:
    def test_equivalent(self):
        """Equivalent segments, the same line and twists, compare equal."""
        s1 = seg(0, 1)
        s2 = Segment(CuspidalLabel("r", twist=3), -3, -2)
        assert s1 == s2
        assert seg(0, 1) != seg(0, 2)

    def test_finite_period_equality_is_equivalence(self):
        s1, s2 = seg(0, 1, period=3), seg(3, 4, period=3)
        assert s1 == s2 and hash(s1) == hash(s2)
        assert Segment(CuspidalLabel("r", period=3, twist=2), 2, 3) == seg(1, 2, period=3)
        assert seg(0, 1, period=3) != seg(1, 2, period=3)
        m1 = Multisegment.of(s1, seg(2, 2, period=3))
        m2 = Multisegment.of(seg(5, 5, period=3), s2)
        assert m1 == m2 and hash(m1) == hash(m2)

    def test_inertially_equivalent(self):
        """Inertially equivalent segments have one inertial class."""
        def cls(s):
            return inertial_class(Multisegment.of(s))

        assert cls(seg(0, 1)) == cls(seg(7, 8))
        assert cls(seg(0, 1)) != cls(seg(0, 1, line_id="s"))
        assert cls(seg(0, 1)) != cls(seg(0, 2))


class TestRelate:
    def test_juxtaposed_preceding(self):
        rel = relate(seg(0, 0), seg(1, 1))
        assert rel.precedes and rel.juxtaposed and rel.linked and rel.disjoint

    def test_containment_blocks_linkage(self):
        rel = relate(seg(0, 2), seg(1, 1))
        assert rel.contains and not rel.linked and not rel.precedes

    def test_different_lines(self):
        rel = relate(seg(0, 1), seg(0, 1, line_id="s"))
        assert rel.disjoint
        assert not (rel.same_line or rel.linked or rel.contains)

    def test_overlapping_linked(self):
        rel = relate(seg(0, 2), seg(1, 3))
        assert rel.linked and rel.precedes and not rel.juxtaposed

    def test_far_apart_not_linked(self):
        rel = relate(seg(0, 0), seg(2, 2))
        assert rel.disjoint and not rel.linked

    def test_wraparound_rejected(self):
        with pytest.raises(WraparoundError, match="wraparound"):
            relate(seg(0, 0, period=2), seg(1, 1, period=2))

    def test_precedes_asymmetric(self):
        segs = [seg(a, b) for a in range(-3, 4) for b in range(a, 4)]
        for s1, s2 in itertools.product(segs, segs):
            rel = relate(s1, s2)
            back = relate(s2, s1)
            if s1 == s2:
                assert not rel.precedes
            assert not (rel.precedes and back.precedes)
            assert not (rel.linked and (rel.contains or rel.contained_in))


class TestTruncation:
    def test_top_minus(self):
        assert top_minus(seg(0, 2)) == seg(0, 1)
        assert top_minus(seg(0, 2), 3) is None
        assert top_minus(seg(0, 2), 2) == seg(0, 0)

    def test_composition(self):
        for a in range(3):
            for b in range(a, a + 5):
                for b1 in range(1, 4):
                    for b2 in range(1, 4):
                        once = top_minus(seg(a, b), b1)
                        if once is None:
                            continue
                        twice = top_minus(once, b2)
                        assert twice == top_minus(seg(a, b), b1 + b2)

    def test_preconditions(self):
        with pytest.raises(ShapeError):
            top_minus(seg(0, 1), 0)
