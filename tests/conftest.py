import itertools

import pytest

from strata_kit import CuspidalLabel, Multisegment, Segment, enumerate_with_support


@pytest.fixture
def line():
    return CuspidalLabel("r")


def seg(a, b, line_id="r", dim=1, period=None):
    return Segment(CuspidalLabel(line_id, dim, period), a, b)


def mseg(*pairs, line_id="r", dim=1, period=None):
    return Multisegment.of(*(seg(a, b, line_id, dim, period) for a, b in pairs))


def anchored(max_degree):
    """Every one-line multisegment whose support is d twists in [0, d - 1]
    containing 0, for d <= max_degree."""
    for d in range(1, max_degree + 1):
        for twists in itertools.combinations_with_replacement(range(d), d):
            if twists[0] == 0:
                yield from enumerate_with_support([CuspidalLabel("r", twist=t) for t in twists])
