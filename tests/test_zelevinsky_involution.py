"""``mw_dual`` against the Zelevinsky involution of the Grothendieck ring.

The involution is the ring automorphism that sends the class of a segment
[a, b] to the class of its singletons {[a, a], ..., [b, b]}, and Z(m) to
Z(mw_dual(m)) (Zelevinsky, Ann. Sci. ENS 1980, section 9; Moeglin and
Waldspurger, J. reine angew. Math. 372, 1986).  ``kgroup.expand`` writes
Z(m) in products of segment classes, so the image of Z(m) is built from
the singleton classes of each product, independently of the peeling, and
``check_identity`` compares it with Z(mw_dual(m)).
"""

import itertools
from collections import Counter

from hypothesis import given, settings, strategies as st

from strata_kit import (
    CuspidalLabel,
    Multisegment,
    ProductExpr,
    Segment,
    SumExpr,
    ZClass,
    check_identity,
    enumerate_with_support,
    expand,
    mw_dual,
)


def anchored(max_degree):
    """Every one-line multisegment whose support is d twists in [0, d - 1]
    containing 0, for d <= max_degree."""
    for d in range(1, max_degree + 1):
        for twists in itertools.combinations_with_replacement(range(d), d):
            if twists[0] == 0:
                yield from enumerate_with_support([CuspidalLabel("r", twist=t) for t in twists])


def singletons(s):
    """The image of Z(s) under the involution: the class of s's singletons."""
    return ZClass(Multisegment(Segment(s.cuspidal, t, t) for t in range(s.a, s.b + 1)))


def involution_verdict(m, dual) -> str:
    """How ``check_identity`` judges iota(Z(m)) = Z(dual(m)), or "unbuilt"
    when the expansion of Z(m) keeps a class that is not a segment, whose
    image is not known."""
    terms = expand((m,))
    if not all(len(atom.segments) == 1 for term in terms for atom in term):
        return "unbuilt"
    # Each side a sum with positive coefficients: negative terms move right.
    sides = {True: [], False: [ZClass(dual(m))]}
    for term, coeff in terms.items():
        image = ProductExpr([singletons(atom.segments[0]) for atom in term])
        sides[coeff > 0] += [image] * abs(coeff)
    return check_identity(SumExpr(sides[True]), SumExpr(sides[False])).status


def involution_verdicts(dual) -> Counter:
    """The verdicts on the anchored multisegments of degree <= 6."""
    return Counter(involution_verdict(m, dual) for m in anchored(6))


def test_mw_dual_is_the_involution_on_every_decidable_case():
    verdicts = involution_verdicts(mw_dual)
    assert verdicts["refuted"] == 0
    # 612 multisegments and 381 duals have a component that is neither a
    # segment nor a ladder, which the canonical form keeps opaque.
    assert verdicts == {"verified": 296, "unverifiable": 381, "unbuilt": 612}


def test_a_wrong_dual_is_refuted():
    """Taking m as its own dual is refuted on all 567 built cases where the
    two differ; the other 110 built cases are self-dual."""
    assert involution_verdicts(lambda m: m) == {"refuted": 567, "verified": 110, "unbuilt": 612}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(
    lambda line, a, length: Segment(CuspidalLabel(*line), a, a + length - 1),
    st.sampled_from((("r", 1), ("s", 2))), st.integers(-2, 3), st.integers(1, 3),
), min_size=1, max_size=4).map(Multisegment))
def test_mw_dual_is_never_refuted_on_two_lines(m):
    assert involution_verdict(m, mw_dual) != "refuted"
