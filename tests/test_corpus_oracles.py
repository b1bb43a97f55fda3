"""The corpus path against its earlier implementations in ``corpus_oracles``:
relations, reductions, the Moeglin-Waldspurger dual, lambda, the support
enumerator and the dominance order give the same values and the same errors."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from strata_kit import (
    BudgetExceededError,
    CuspidalLabel,
    CuspidalLine,
    Multisegment,
    Partition,
    Segment,
    WeightMismatchError,
    WraparoundError,
    dominance_leq,
    elementary_reductions,
    enumerate_partitions,
    enumerate_with_support,
    lambda_of,
    mw_dual,
    relate,
)
from strata_kit import segments

import corpus_oracles as oracle
from conftest import anchored

# r at dims 1 and 2 are two lines of one name; s sorts after both.
LINES = (("r", 1), ("r", 2), ("s", 1))
TWISTS = st.integers(-3, 6)

points_st = st.lists(
    st.builds(lambda line, t: CuspidalLabel(*line, twist=t), st.sampled_from(LINES), TWISTS),
    max_size=8,
)
segments_st = st.builds(
    lambda line, a, length: Segment(CuspidalLabel(*line), a, a + length - 1),
    st.sampled_from(LINES), TWISTS, st.integers(1, 4),
)
msegs_st = st.lists(segments_st, max_size=8).map(Multisegment)

NINE = (
    segments.APART, segments.SAME_LINE_APART, segments.EQUAL, segments.CONTAINS,
    segments.CONTAINED_IN, segments.PRECEDES, segments.PRECEDES_JUXTAPOSED,
    segments.PRECEDED_BY, segments.PRECEDED_BY_JUXTAPOSED,
)


def test_relate_agrees_on_every_ordering_of_the_endpoints():
    # Endpoints in 0..4 give every order of a1, b1, a2, b2, ties included.
    ends = [(a, b) for a in range(5) for b in range(a, 5)]
    seen = set()
    for (a1, b1), (a2, b2) in itertools.product(ends, repeat=2):
        # Two lines built apart, so that equal lines are distinct objects.
        s1 = Segment(CuspidalLabel("r"), a1, b1)
        for s2 in (Segment(CuspidalLabel("r"), a2, b2), Segment(CuspidalLabel("r", 2), a2, b2)):
            got = relate(s1, s2)
            assert got == oracle.relate(s1, s2), (s1, s2)
            assert relate(s2, s1) == oracle.relate(s2, s1), (s2, s1)
            assert got.linked == oracle.linked(s1, s2)
            assert any(got is rel for rel in NINE)
            seen.add(id(got))
    assert len(seen) == len(NINE)


@pytest.mark.parametrize("s1, s2, error", [
    (Segment(CuspidalLabel("r", period=3), 0, 1), Segment(CuspidalLabel("r"), 0, 1),
     WraparoundError),
    (Segment(CuspidalLabel("r"), 0, 1), Segment(CuspidalLabel("s", period=3), 0, 1),
     WraparoundError),
])
def test_relate_raises_like_the_oracle(s1, s2, error):
    with pytest.raises(error) as want:
        oracle.relate(s1, s2)
    with pytest.raises(error) as got:
        relate(s1, s2)
    assert str(got.value) == str(want.value)


@settings(max_examples=300, deadline=None)
@given(msegs_st)
def test_multisegment_functions_agree_with_the_oracles(m):
    assert mw_dual(m) == oracle.mw_dual(m)
    assert repr(mw_dual(m)) == repr(oracle.mw_dual(m))
    assert lambda_of(m) == oracle.lambda_of(m)
    assert elementary_reductions(m) == oracle.elementary_reductions(m)
    for s, t in itertools.permutations(m.segments, 2):
        assert relate(s, t) == oracle.relate(s, t)


@settings(max_examples=200, deadline=None)
@given(points_st)
def test_enumerate_with_support_agrees_with_the_oracle(points):
    got = enumerate_with_support(points)
    assert got == oracle.enumerate_with_support(points)
    assert [repr(m) for m in got] == [repr(m) for m in oracle.enumerate_with_support(points)]


# The second line of a join, in turn: one that sorts before r, one of r's
# name at dim 2, which prints alike, and one that sorts after r.
SECOND_LINES = (CuspidalLine("q"), CuspidalLine("r", 2), CuspidalLine("s"))


def test_dual_and_enumerator_agree_on_every_small_anchored_multisegment():
    """Every one-line multisegment anchored at twist 0 of degree <= 7, alone
    and joined with a segment on a second line: the dual equals the
    oracle's in value and repr and is an involution, and on each support
    the enumerator equals the oracle's, already sorted by ``str``."""
    by_support: dict = {}
    for m in anchored(7):
        twists = tuple(sorted(t for _, t in m.support().elements()))
        by_support.setdefault(twists, []).append(m)
    assert (len(by_support), sum(map(len, by_support.values()))) == (1275, 6200)
    for i, (twists, ms) in enumerate(by_support.items()):
        start = i % 4 - 1
        extra = Segment(SECOND_LINES[i % 3], start, start + i % 2)
        points = [CuspidalLabel("r", twist=t) for t in twists]
        joined = [m.union(Multisegment.of(extra)) for m in ms]
        for got, want in ((points, ms), (points + [extra.cuspidal.point(t)
                                                    for t in range(start, extra.b + 1)], joined)):
            every = enumerate_with_support(got)
            assert every == oracle.enumerate_with_support(got), twists
            names = [str(m) for m in every]
            assert names == sorted(names)
            assert set(want) <= set(every)
        for m in ms + joined:
            dual = mw_dual(m)
            assert dual == oracle.mw_dual(m), m
            assert repr(dual) == repr(oracle.mw_dual(m)), m
            assert mw_dual(dual) == m, m


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(LINES), TWISTS, st.integers(2, 3)), max_size=3))
def test_enumerate_with_support_agrees_on_repeated_points(repeated):
    points = [CuspidalLabel(*line, twist=t) for line, t, k in repeated for _ in range(k)]
    assert enumerate_with_support(points) == oracle.enumerate_with_support(points)


def test_enumerate_with_support_raises_like_the_oracle():
    finite = [CuspidalLabel("r"), CuspidalLabel("r", period=2)]
    for points, bound, error in ((finite, 10, WraparoundError), (finite, 1, BudgetExceededError)):
        with pytest.raises(error) as want:
            oracle.enumerate_with_support(points, bound)
        with pytest.raises(want.type) as got:
            enumerate_with_support(points, bound)
        assert str(got.value) == str(want.value)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.sampled_from(enumerate_partitions(n)),
                        st.sampled_from(enumerate_partitions(n)))))
def test_dominance_leq_agrees_with_the_oracle(pair):
    lam, mu = pair
    assert dominance_leq(lam, mu) == oracle.dominance_leq(lam, mu)
    assert dominance_leq(mu, lam) == oracle.dominance_leq(mu, lam)


def test_dominance_leq_on_unequal_lengths_and_weights():
    for lam, mu in (((3,), (1, 1, 1)), ((2, 2), (3, 1)), ((2, 1, 1), (2, 2)), ((), ())):
        for x, y in ((lam, mu), (mu, lam)):
            x, y = Partition(x), Partition(y)
            assert dominance_leq(x, y) == oracle.dominance_leq(x, y)
    with pytest.raises(WeightMismatchError):
        dominance_leq(Partition.of(2, 1), Partition.of(2, 2))
