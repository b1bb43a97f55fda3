"""The in-order contract: every multisegment that the corpus path builds
with ``Multisegment.from_sorted`` holds its segments in key order, so it is
the multisegment that the sorting constructor builds from them."""

from hypothesis import given, settings, strategies as st

from strata_kit import (
    CuspidalLabel,
    Multisegment,
    Segment,
    downset,
    elementary_reductions,
    enumerate_with_support,
    mw_dual,
)

# r at dims 1 and 2 are two lines of one name; s sorts after both.
LINES = (("r", 1), ("r", 2), ("s", 1))
TWISTS = st.integers(-3, 6)

points_st = st.lists(
    st.builds(lambda line, t: CuspidalLabel(*line, twist=t), st.sampled_from(LINES), TWISTS),
    max_size=7,
)
segments_st = st.builds(
    lambda line, a, length: Segment(CuspidalLabel(*line), a, a + length - 1),
    st.sampled_from(LINES), TWISTS, st.integers(1, 4),
)
msegs_st = st.lists(segments_st, max_size=6).map(Multisegment)


def assert_canonical(m):
    rebuilt = Multisegment(reversed(m.segments))
    assert (m.segments, m._key) == (rebuilt.segments, rebuilt._key), m


@settings(max_examples=150, deadline=None)
@given(points_st)
def test_enumerated_multisegments_are_in_key_order(points):
    for m in enumerate_with_support(points):
        assert_canonical(m)


@settings(max_examples=300, deadline=None)
@given(msegs_st)
def test_duals_and_reductions_are_in_key_order(m):
    assert_canonical(mw_dual(m))
    for child in elementary_reductions(m):
        assert_canonical(child)


@settings(max_examples=100, deadline=None)
@given(st.lists(segments_st, max_size=4).map(Multisegment))
def test_downset_nodes_are_in_key_order(m):
    for node in downset(m).nodes:
        assert_canonical(node)


def test_from_sorted_keeps_the_order_it_is_given():
    segs = [Segment(CuspidalLabel("r"), t, t) for t in range(3)]
    assert Multisegment.from_sorted(segs[::-1]) == Multisegment(segs)
    assert Multisegment.from_sorted(segs) != Multisegment(segs)
