import itertools
import math
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from strata_kit import (
    CuspidalLabel,
    DerivativeExpr,
    GradedVirtual,
    Multisegment,
    Partition,
    ProductExpr,
    Segment,
    ShapeError,
    SumExpr,
    WraparoundError,
    ZClass,
    check_identity,
    dominance_leq,
    lambda_of,
    lemcomp_derivative,
    relate,
    resolve_pair,
    top_minus,
    weirdcase_constituents,
)
from strata_kit.expression import parse_expression, parse_identity
from strata_kit.kgroup import (
    OpaqueDerivative,
    _add_term,
    _atom_key,
    _leibniz,
    _sorted_term,
    expand,
    term_derivative,
)

from conftest import anchored, mseg, seg


def term_of(*pairs):
    return _sorted_term(mseg(p) for p in pairs)


def product(*segments):
    return ProductExpr(ZClass(Multisegment.of(s)) for s in segments)


def layers(x):
    """The nonzero components D^g(x) of an element, by degree g, up to the
    largest degree of its terms, past which every known component is zero."""
    high = max((sum(s.degree for a in t for s in a.segments) for t in x.terms), default=0)
    return {g: d.terms for g in range(high + 1) if (d := DerivativeExpr(g, x)).terms}


class TestTotalDerivative:
    """The components D^g of the derivative, read one degree at a time."""

    def test_single_segment(self):
        assert layers(product(seg(0, 1))) == {0: {(mseg((0, 1)),): 1}, 1: {(mseg((0, 0)),): 1}}

    def test_cuspidal(self):
        assert DerivativeExpr(1, product(seg(0, 0))).terms == {(): 1}

    def test_leibniz_pair(self):
        assert layers(product(seg(0, 1), seg(0, 0))) == {
            0: {term_of((0, 1), (0, 0)): 1},
            1: {term_of((0, 0), (0, 0)): 1, (mseg((0, 1)),): 1},
            2: {(mseg((0, 0)),): 1},
        }

    def test_dim_scaling(self):
        assert list(layers(product(seg(0, 1, dim=2)))) == [0, 2]

    def test_top_degree_is_lambda_one(self):
        pool = [seg(a, b) for a in range(3) for b in range(a, 3)]
        for r in range(1, 4):
            for combo in itertools.combinations_with_replacement(pool, r):
                m = Multisegment.of(*combo)
                top, layer = max(layers(product(*combo)).items())
                assert top == lambda_of(m).part(1)
                assert list(layer.values()) == [1]

    def test_iterated_tops_reproduce_lambda(self):
        factors = (seg(0, 2), seg(1, 1), seg(0, 1))
        m = Multisegment.of(*factors)
        parts = []
        current = list(factors)
        while current:
            top, layer = max(layers(product(*current)).items())
            parts.append(top)
            (term,) = layer
            current = [s for atom in term for s in atom.segments]
        assert Partition(tuple(parts)) == lambda_of(m)


def top_layer(m):
    """The top degree of D(Z(m)) and its component there: the highest g, at
    most the degree of m, with D^g(Z(m)) nonzero."""
    x = ZClass(m)
    for g in range(sum(s.degree for s in m.segments), -1, -1):
        layer = DerivativeExpr(g, x)
        if layer.terms:
            return g, layer


class TestHighestDerivative:
    """The top layer of D(Z(m)) is Z(m minus every top twist), in degree lambda_1."""

    def test_examples(self):
        assert top_layer(mseg((0, 1), (0, 0))) == (2, ZClass(mseg((0, 0))))
        assert top_layer(mseg((0, 0))) == (1, ZClass(Multisegment()))
        m = Multisegment.of(seg(0, 2, dim=2))
        assert top_layer(m) == (2, ZClass(Multisegment.of(seg(0, 1, dim=2))))

    def test_iteration_exhausts(self):
        m = mseg((0, 2), (1, 1), (3, 4))
        parts = []
        while m != Multisegment():
            top, layer = top_layer(m)
            m = Multisegment(top_minus(s) for s in m.segments)
            assert check_identity(layer, ZClass(m)).verified
            parts.append(top)
        assert Partition(tuple(parts)) == lambda_of(mseg((0, 2), (1, 1), (3, 4)))


class TestResolvePair:
    def test_examples(self):
        assert resolve_pair(seg(1, 1), seg(0, 0)) == [mseg((1, 1), (0, 0)), mseg((0, 1))]
        assert resolve_pair(seg(2, 3), seg(0, 1)) == [mseg((2, 3), (0, 1)), mseg((0, 3))]
        assert resolve_pair(seg(1, 2), seg(0, 0)) == [mseg((1, 2), (0, 0)), mseg((0, 2))]

    def test_precondition(self):
        with pytest.raises(ShapeError, match="not a juxtaposed preceding pair"):
            resolve_pair(seg(0, 0), seg(1, 1))
        with pytest.raises(ShapeError, match="not a juxtaposed preceding pair"):
            resolve_pair(seg(1, 3), seg(0, 2))

    def test_lambda_comparison(self):
        for d1, d2 in [(seg(1, 1), seg(0, 0)), (seg(2, 3), seg(0, 1))]:
            pair, union = resolve_pair(d1, d2)
            assert dominance_leq(lambda_of(union), lambda_of(pair))
            assert lambda_of(union) != lambda_of(pair)


class TestLemcomp:
    def test_examples(self):
        assert lemcomp_derivative(seg(2, 2), seg(0, 1)) == mseg((2, 2), (0, 0))
        assert lemcomp_derivative(seg(1, 1), seg(0, 0)) == mseg((1, 1))
        assert lemcomp_derivative(seg(3, 3), seg(0, 2)) == mseg((3, 3), (0, 1))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lemcomp_derivative(seg(3, 3), seg(0, 1))
        with pytest.raises(ShapeError):
            lemcomp_derivative(seg(2, 3), seg(0, 1))
        for top in (seg(2, 2, "s"), seg(2, 2, dim=2)):  # another line
            with pytest.raises(ShapeError):
                lemcomp_derivative(top, seg(0, 1))


class TestWeirdcase:
    def test_examples(self):
        assert weirdcase_constituents(1, seg(0, 0)) == [
            mseg((2, 2), (1, 1), (0, 0)),
            mseg((1, 2), (0, 0)),
        ]
        assert weirdcase_constituents(2, seg(0, 1)) == [
            mseg((3, 3), (2, 2), (0, 1)),
            mseg((2, 3), (0, 1)),
        ]
        assert weirdcase_constituents(3, seg(1, 2)) == [
            mseg((4, 4), (3, 3), (1, 2)),
            mseg((3, 4), (1, 2)),
        ]

    def test_degree_conserved(self):
        for alpha in range(1, 5):
            delta = seg(0, alpha - 1, dim=1)
            for m in weirdcase_constituents(alpha, delta):
                assert sum(s.degree for s in m.segments) == delta.degree + 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            weirdcase_constituents(2, seg(0, 0))

    @pytest.mark.parametrize("alpha,a,b", [(1, 0, 0), (4, 3, 3)])
    def test_finite_period_line_raises(self, alpha, a, b):
        """As resolve_pair does, instead of wrapping the constituents round the line."""
        with pytest.raises(WraparoundError):
            weirdcase_constituents(alpha, seg(a, b, period=3))
        with pytest.raises(WraparoundError):
            resolve_pair(seg(alpha, alpha, period=3), seg(a, b, period=3))


class TestCheckIdentity:
    def check(self, lhs, rhs):
        return str(check_identity(parse_expression(lhs), parse_expression(rhs)))

    def test_resolve_identity(self):
        assert self.check("Z[1,1]*Z[0,0]", "Z{[1,1],[0,0]} + Z{[0,1]}") == "verified"
        assert self.check("Z{[1,1],[0,0]} + Z{[0,1]}", "Z[1,1]*Z[0,0]") == "verified"

    def test_unlinked_merge(self):
        assert self.check("Z[0,0]*Z[3,4]", "Z{[0,0],[3,4]}") == "verified"
        assert self.check("Z[0,0]*Z[0,0;s]", "Z{[0,0],[0,0;s]}") == "verified"
        assert self.check("D^1(Z{[0,0],[5,5]})", "Z{[5,5]} + Z{[0,0]}") == "verified"

    def test_refuted(self):
        v = check_identity(parse_expression("Z[0,0]"), parse_expression("Z[1,1]"))
        assert v.status == "refuted"
        assert v.witness_degree == 0
        assert str(v) == "refuted at degree 0"

    def test_unverifiable_product(self):
        """A linked pair is a ladder: its product has the second constituent."""
        assert self.check("Z[0,2]*Z[1,3]", "Z{[0,2],[1,3]}") == "refuted at degree 0"
        assert self.check("Z[0,2]*Z[1,3]", "Z{[0,2],[1,3]} + Z{[0,3],[1,2]}") == "verified"

    def test_unverifiable_finite_period(self):
        c = CuspidalLabel("r", period=3)
        v = check_identity(
            product(Segment(c, 0, 0), Segment(c, 1, 1)),
            product(Segment(c, 0, 1)),
        )
        assert v.status == "unverifiable"
        assert v.reason == "undecomposed product remains at degree 0: Z{[0,0]_r} * Z{[1,1]_r}"

    def test_unverifiable_unknown_derivative(self):
        v = check_identity(
            parse_expression("D^1(Z{[0,2],[1,1],[2,3]})"), parse_expression("Z{[0,1],[1,1]}")
        )
        assert v.status == "unverifiable"
        assert v.reason == (
            "undecomposed product remains at degree 0: ?D^1(Z{[2,3]_r,[0,2]_r,[1,1]_r})"
        )

    def test_negative_derivative_order(self):
        with pytest.raises(ShapeError, match="derivative order"):
            DerivativeExpr(-1, ZClass(mseg((0, 0))))

    def test_lemcomp_identity(self):
        for alpha in range(1, 5):
            lhs = DerivativeExpr(
                1, ZClass(mseg((alpha, alpha), (0, alpha - 1)))
            )
            rhs = ZClass(lemcomp_derivative(seg(alpha, alpha), seg(0, alpha - 1)))
            assert check_identity(lhs, rhs).verified

    def test_weirdcase_displays(self):
        for alpha in (1, 2, 3):
            delta = f"[0,{alpha-1}]"
            inner = "" if alpha == 1 else f"[0,{alpha-2}]"
            z_dm = "Z{%s}" % inner
            pi = f"Z[{alpha+1},{alpha+1}]*Z{{[{alpha},{alpha}],{delta}}}"
            mid = f"Z{{[{alpha},{alpha}]" + (f",{inner}}}" if inner else "}")
            assert (
                self.check(
                    f"D^2({pi})", f"{mid} + Z[{alpha+1},{alpha+1}]*{z_dm}"
                )
                == "verified"
            )
            assert (
                self.check(
                    f"D^2(Z{{[{alpha+1},{alpha+1}],[{alpha},{alpha}]}}*Z{{{delta}}})",
                    f"Z{{{delta}}} + Z[{alpha+1},{alpha+1}]*{z_dm}",
                )
                == "verified"
            )
            assert (
                self.check(
                    f"D^1({pi})",
                    f"Z[{alpha+1},{alpha+1}]*{mid} + Z{{[{alpha},{alpha}],{delta}}}",
                )
                == "verified"
            )

    def test_all_juxtaposed_pairs_small_window(self):
        segs = [seg(a, b) for a in range(3) for b in range(a, 3)]
        for d1, d2 in itertools.product(segs, segs):
            rel = relate(d2, d1)
            if not (rel.precedes and rel.juxtaposed):
                continue
            lhs = ProductExpr((ZClass(Multisegment.of(d1)), ZClass(Multisegment.of(d2))))
            rhs = SumExpr(tuple(ZClass(m) for m in resolve_pair(d1, d2)))
            assert check_identity(lhs, rhs).verified

    def test_graded_virtual_sides(self):
        left, right = product(seg(0, 1), seg(0, 0)), product(seg(0, 0), seg(0, 1))
        for g in range(4):
            assert check_identity(DerivativeExpr(g, left), DerivativeExpr(g, right)).verified


def _seg_text(line, a, b):
    return f"[{a},{b}]" if line == "r" else f"[{a},{b};{line}]"


unlinked_sets_st = st.lists(
    st.tuples(st.sampled_from("rs"), st.integers(0, 4), st.integers(0, 2)).map(
        lambda t: (t[0], t[1], t[1] + t[2])
    ),
    min_size=2,
    max_size=4,
)


@settings(deadline=None)
@given(unlinked_sets_st, st.integers(1, 4), st.integers(-1, 7))
def test_unlinked_class_and_product_get_one_verdict(segs, g, drop):
    """Z{m} of pairwise-unlinked m and the product of its segments are one class."""
    factors = [seg(a, b, line_id=line) for line, a, b in segs]
    assume(not any(relate(x, y).linked for x, y in itertools.combinations(factors, 2)))
    g = min(g, len(segs))
    terms = []
    for chosen in itertools.combinations(range(len(segs)), g):
        parts = [
            "Z" + _seg_text(line, a, b - (i in chosen))
            for i, (line, a, b) in enumerate(segs)
            if i not in chosen or b > a
        ]
        terms.append("*".join(parts) or "Z{}")
    true = not (len(terms) > 1 and 0 <= drop < len(terms))
    if not true:
        del terms[drop]
    rhs = parse_expression(" + ".join(terms))
    texts = [_seg_text(*t) for t in segs]
    merged = parse_expression(f"D^{g}(Z{{{','.join(texts)}}})")
    product = parse_expression(f"D^{g}(" + "*".join("Z" + t for t in texts) + ")")
    v_merged, v_product = check_identity(merged, rhs), check_identity(product, rhs)
    assert (v_merged.status, v_merged.witness_degree) == (
        v_product.status,
        v_product.witness_degree,
    )
    assert v_product.verified == true


product_st = st.lists(
    st.tuples(st.sampled_from("rs"), st.integers(0, 4), st.integers(1, 3)).map(
        lambda t: (t[0], t[1], t[1] + t[2] - 1)
    ),
    min_size=1,
    max_size=4,
)


# Two-segment atoms whose tables have more than two layers: the
# composition-lemma shape {[c,c],[a,c-1]}, with layers 0, 1 and 2, and an
# unlinked pair (nested, or apart with a gap), with layers 0, 1 and 2 too.
# Each is drawn with whether it is unlinked.
pair_atom_st = st.one_of(
    st.tuples(st.sampled_from("rs"), st.integers(0, 3), st.integers(1, 3)).map(
        lambda t: (False, ((t[0], t[1] + t[2], t[1] + t[2]), (t[0], t[1], t[1] + t[2] - 1)))
    ),
    st.tuples(st.sampled_from("rs"), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)).map(
        lambda t: (True, ((t[0], t[1], t[1] + t[2] + t[3] + 1), (t[0], t[1] + 1, t[1] + t[2] + 1)))
    ),
    st.tuples(st.sampled_from("rs"), st.integers(0, 3), st.integers(0, 2), st.integers(2, 3)).map(
        lambda t: (True, ((t[0], t[1], t[1] + t[2]), (t[0], t[1] + t[2] + t[3], t[1] + t[2] + t[3])))
    ),
)


@settings(deadline=None)
@given(product_st, st.lists(pair_atom_st, max_size=2))
def test_derivative_entry_points_agree(segs, pairs):
    """D^g(x) is layer g of the Leibniz rule applied by hand to the segment
    tables of x written in segment classes, the zero element above its top
    degree, and the parser builds x itself.

    Layer 0 of term_derivative writes the term in segment classes, as expand
    does: an unlinked atom as the product of its segments, and the
    composition shape {[c,c],[a,c-1]} as its determinant Z[c,c]*Z[a,c-1] -
    Z[a,c], so it is compared with x written that way.
    """
    def atom(p):
        return ZClass(Multisegment.of(*(seg(a, b, line_id=line) for line, a, b in p)))

    def determinant(p):
        (line, c, _), (_, a, _) = p
        return SumExpr([
            ProductExpr([atom([q]) for q in p]),
            GradedVirtual({(Multisegment.of(seg(a, c, line_id=line)),): -1}),
        ])

    x = ProductExpr([atom([t]) for t in segs] + [atom(p) for _, p in pairs])
    split = ProductExpr(
        [atom([t]) for t in segs]
        + [atom([q]) for unlinked, p in pairs if unlinked for q in p]
        + [determinant(p) for unlinked, p in pairs if not unlinked]
    )
    texts = ["Z" + _seg_text(*t) for t in segs]
    texts += ["Z{%s}" % ",".join(_seg_text(*t) for t in p) for _, p in pairs]
    assert parse_expression("*".join(texts)) == x
    assert DerivativeExpr(0, x) == x
    ((term, coeff),) = x.terms.items()
    assert coeff == 1 and term_derivative(term, 0) == expand(term) == split.terms
    expected: dict = {}
    for t, c in split.terms.items():
        for g, combo in _stepwise_leibniz(map(_segment_table, t)).items():
            for t2, c2 in combo.items():
                _add_term(expected.setdefault(g, {}), t2, c * c2)
    top = max(g for g, combo in expected.items() if combo)
    assert top == len(segs) + 2 * len(pairs)
    for g in range(1, top + 3):
        assert DerivativeExpr(g, x) == GradedVirtual(expected.get(g, {}))
    assert str(DerivativeExpr(top + 1, x)) == "0"


def test_lines_of_one_name_and_two_dims_give_one_term():
    """Atoms that print alike still sort by their structure, not input order."""
    a = ZClass(Multisegment.of(Segment(CuspidalLabel("r", 1), 0, 0)))
    b = ZClass(Multisegment.of(Segment(CuspidalLabel("r", 2), 0, 0)))
    x, y = ProductExpr([a, b]), ProductExpr([b, a])
    assert x == y
    ((term, coeff),) = SumExpr([x, y]).terms.items()
    assert (len(term), coeff) == (2, 2)


LINES = [CuspidalLabel("r", 1), CuspidalLabel("r", 2), CuspidalLabel("s"), CuspidalLabel("r", 1, 3)]
# Classes that all print as {[0,0]_r}: their string order is a tie.
TWINS = [Multisegment.of(Segment(c, 0, 0)) for c in LINES if c.line.line_id == "r"]
atoms_st = st.lists(
    st.one_of(
        st.sampled_from(TWINS),
        st.lists(
            st.tuples(st.sampled_from(LINES), st.integers(0, 1), st.integers(0, 1)),
            max_size=2,
        ).map(lambda segs: Multisegment.of(*(Segment(c, a, a + n) for c, a, n in segs))),
        st.builds(OpaqueDerivative, st.sampled_from(["Z{[0,0]_r}", "Z{[0,1]_r}"]), st.integers(1, 2)),
    ),
    max_size=5,
)


@given(atoms_st, st.data())
def test_sorted_term_ignores_atom_order(atoms, data):
    term = _sorted_term(atoms)
    assert _sorted_term(atoms[::-1]) == term
    assert _sorted_term(data.draw(st.permutations(atoms))) == term
    assert sorted(map(repr, term)) == sorted(repr(a) for a in atoms if a != Multisegment())


@given(atoms_st, st.data())
def test_constructor_makes_terms_canonical(atoms, data):
    """A term given in any order, or with trivial atoms, is stored canonically,
    so products with it equal those of the canonical term."""
    given_term = tuple(data.draw(st.permutations(atoms))) + (Multisegment(),)
    x = GradedVirtual({given_term: 1})
    assert x.terms == {_sorted_term(atoms): 1}
    one = GradedVirtual({(Multisegment(),): 1})
    assert one == GradedVirtual({(): 1})
    assert ProductExpr([one, x]) == ProductExpr([x, one]) == x
    assert SumExpr([x, GradedVirtual({tuple(atoms): -1})]) == GradedVirtual()


def _segment_table(atom):
    """D(Z[a,b]) = Z[a,b] + Z[a,b-1], the second layer in degree dim."""
    (d,) = atom.segments
    lower = top_minus(d)
    return {0: {(atom,): 1}, d.dim: {(Multisegment.of(lower),) if lower else (): 1}}


def _stepwise_leibniz(tables):
    """The Leibniz product one table at a time, each partial product in every
    degree formed and its terms sorted again: the oracle for ``_leibniz``."""
    result = {0: {(): 1}}
    for table in tables:
        nxt = {}
        for g1, x in result.items():
            for g2, y in table.items():
                layer = nxt.setdefault(g1 + g2, {})
                for t1, c1 in x.items():
                    for t2, c2 in y.items():
                        _add_term(layer, tuple(sorted(t1 + t2, key=_atom_key)), c1 * c2)
        result = nxt
    return {g: combo for g, combo in result.items() if combo}


def _multisegment(segs):
    return Multisegment.of(*(seg(a, a + n, line_id=line) for line, a, n in segs))


def _derivative_table(atom):
    """The nonzero layers term_derivative builds for one atom, by degree."""
    high = sum(s.degree for s in atom.segments)
    return {g: layer for g in range(high + 1) if (layer := term_derivative((atom,), g))}


# (line, start, length - 1) of a segment.
_segment_st = st.tuples(st.sampled_from("rs"), st.integers(-2, 3), st.integers(0, 2))
# Derivative tables of atoms, and tables of signed combinations of any terms,
# whose products can cancel.
table_st = st.one_of(
    _segment_st.map(lambda s: _derivative_table(_multisegment([s]))),
    pair_atom_st.map(
        lambda atom: _derivative_table(
            Multisegment.of(*(seg(a, b, line_id=line) for line, a, b in atom[1]))
        )
    ),
    st.dictionaries(
        st.integers(0, 3),
        st.dictionaries(atoms_st.map(_sorted_term), st.sampled_from([-2, -1, 1, 2]), max_size=3),
        max_size=3,
    ),
)


@settings(deadline=None)
@given(st.lists(table_st, max_size=4))
def test_leibniz_builds_exactly_the_asked_for_layer(tables):
    """Each layer of the product, built alone, is that layer of the stepwise
    expansion, also when partial choices are pruned past a limit."""
    expected = _stepwise_leibniz(tables)
    size = math.prod(map(len, tables))
    for g in range(max(expected, default=0) + 2):
        layer = _leibniz(iter(tables), g)
        assert layer == expected.get(g, {})
        # Past the limit, partial choices are pruned, or the product given up.
        for limit in {1, size // 2, max(size - 1, 0)}:
            limited = _leibniz(tables, g, limit)
            assert limited is None or limited == layer


# K-group expressions from the grammar, each drawn with the element the public
# constructors build for it and whether its text is a sum at the top.
def _class_node(segs, braces):
    texts = [_seg_text(line, a, a + n) for line, a, n in segs]
    text = "Z{%s}" % ",".join(texts) if braces else "Z" + texts[0]
    return text, ZClass(_multisegment(segs)), False


def _grouped(node):
    text, _, is_sum = node
    return f"({text})" if is_sum else text


_leaf_st = st.one_of(
    _segment_st.map(lambda s: _class_node([s], braces=False)),
    st.lists(_segment_st, max_size=3).map(lambda segs: _class_node(segs, braces=True)),
)
_node_st = st.recursive(
    _leaf_st,
    lambda node: st.one_of(
        node.map(lambda n: (f"({n[0]})", n[1], False)),
        st.builds(
            lambda g, n: (f"D^{g}({n[0]})", DerivativeExpr(g, n[1]), False),
            st.integers(0, 4),
            node,
        ),
        st.lists(node, min_size=2, max_size=3).map(
            lambda ns: ("*".join(map(_grouped, ns)), ProductExpr(n[1] for n in ns), False)
        ),
        st.lists(node, min_size=2, max_size=3).map(
            lambda ns: (" + ".join(n[0] for n in ns), SumExpr(n[1] for n in ns), True)
        ),
    ),
    max_leaves=6,
)


@settings(deadline=None)
@example(("D^3(Z[0,0]) + D^2(Z[1,1]*Z{})", GradedVirtual(), True))
@example(("((Z[0,0;s]))*D^1(Z{[0,2],[1,1],[2,3]})", ProductExpr([
    ZClass(mseg((0, 0), line_id="s")),
    GradedVirtual({(OpaqueDerivative("Z{[2,3]_r,[0,2]_r,[1,1]_r}", 1),): 1}),
]), False))
@given(_node_st)
def test_parser_builds_what_the_constructors_build(node):
    text, element, _ = node
    parsed = parse_expression(text)
    assert parsed == element
    assert str(parsed) == str(element)
    assert parse_identity(f"Z{{}} = {text}") == (ZClass(Multisegment()), element)


# --------------------------------------------------------------------------
# The expansion table and the verdicts decided on it
# --------------------------------------------------------------------------


class TestExpand:
    def test_segments_and_unlinked_classes(self):
        m = mseg((0, 1))
        assert expand((m,)) == {(m,): 1}
        assert expand((mseg((0, 0), (3, 4)),)) == {term_of((0, 0), (3, 4)): 1}
        assert expand((mseg((0, 2), (1, 1)),)) == {term_of((0, 2), (1, 1)): 1}

    def test_ladders_expand_by_the_determinant(self):
        assert expand((mseg((1, 1), (0, 0)),)) == {term_of((1, 1), (0, 0)): 1, term_of((0, 1)): -1}
        assert expand((mseg((1, 3), (0, 2)),)) == {
            term_of((1, 3), (0, 2)): 1, term_of((0, 3), (1, 2)): -1,
        }
        assert expand((mseg((2, 2), (1, 1), (0, 0)),)) == {
            term_of((2, 2), (1, 1), (0, 0)): 1,
            term_of((2, 2), (0, 1)): -1,
            term_of((1, 2), (0, 0)): -1,
            term_of((0, 2)): 1,
        }
        # Each linked component expands on its own.
        assert expand((mseg((1, 1), (0, 0), (5, 5)),)) == {
            term_of((1, 1), (0, 0), (5, 5)): 1, term_of((0, 1), (5, 5)): -1,
        }

    def test_other_atoms_stay_opaque(self):
        tangle = mseg((0, 2), (1, 1), (2, 3))
        finite = mseg((0, 0), (1, 1), period=3)
        long = Multisegment.of(*(seg(i, i + 1) for i in range(7)))
        placeholder = OpaqueDerivative("Z{[0,0]_r}", 1)
        for atom in (tangle, finite, long, placeholder):
            assert expand((atom,)) == {(atom,): 1}
        assert expand((tangle.union(mseg((9, 9))),)) == {term_of((9, 9)) + (tangle,): 1}
        # The finite-period segments of a class form one atom.
        mixed = finite.union(mseg((1, 1), (0, 0)))
        assert expand((mixed,)) == {
            _sorted_term(term + (finite,)): c for term, c in expand((mseg((1, 1), (0, 0)),)).items()
        }

    def test_long_ladder_stays_opaque(self):
        m = Multisegment.of(*(seg(i, i + 2) for i in range(12)))
        assert expand((m,)) == {(m,): 1}
        assert check_identity(ZClass(m), product(*m.segments)).status == "unverifiable"
        unknown = OpaqueDerivative(f"Z{m}", 1)
        assert DerivativeExpr(1, ZClass(m)) == GradedVirtual({(unknown,): 1})

    def test_many_short_ladders_stay_opaque_together(self):
        """A class of k unlinked two-segment ladders has 2^k expanded terms;
        past one longest ladder's 720 the ladders stay opaque side by side."""
        ladders = [mseg((10 * i, 10 * i + 1), (10 * i + 1, 10 * i + 2)) for i in range(12)]
        m = Multisegment([s for ladder in ladders for s in ladder.segments])
        assert expand((m,)) == {_sorted_term(ladders): 1}
        assert len(expand((Multisegment(m.segments[:18]),))) == 2 ** 9
        assert check_identity(ZClass(m), ProductExpr(map(ZClass, ladders))).verified
        assert str(check_identity(ZClass(m), ZClass(mseg((0, 0))))) == "refuted at degree 0"
        (term,) = DerivativeExpr(1, ZClass(m)).terms
        assert isinstance(term[0], OpaqueDerivative)

    def test_product_of_two_longest_ladders_stays_opaque(self):
        for line in ("r", "s"):
            a = Multisegment.of(*(seg(i, i + 6) for i in range(6)))
            b = Multisegment.of(*(seg(i + 20, i + 26, line_id=line) for i in range(6)))
            x = ProductExpr([ZClass(a), ZClass(b)])
            assert expand((a.union(b),)) == {_sorted_term([a, b]): 1}
            assert expand(_sorted_term([a, b])) == {_sorted_term([a, b]): 1}
            assert check_identity(x, ZClass(a.union(b))).verified
            assert str(check_identity(x, ZClass(mseg((0, 0))))) == "refuted at degree 0"
            (term,) = DerivativeExpr(1, x).terms
            assert isinstance(term[0], OpaqueDerivative)

    def test_large_derivatives_stay_unknown(self):
        """A derivative layer is built from at most 720 * 2^6 products, the
        complete derivative of one longest ladder; a larger one is unknown."""
        points = product(*(seg(2 * i, 2 * i) for i in range(18)))
        assert len(DerivativeExpr(1, points).terms) == 18
        (term,) = DerivativeExpr(9, points).terms
        assert isinstance(term[0], OpaqueDerivative)
        ladders = [mseg((10 * i, 10 * i + 1), (10 * i + 1, 10 * i + 2)) for i in range(9)]
        m = ZClass(Multisegment([s for ladder in ladders for s in ladder.segments]))
        leibniz = SumExpr(
            ProductExpr([DerivativeExpr(1, ZClass(x)) if x == y else ZClass(x) for x in ladders])
            for y in ladders
        )
        assert check_identity(DerivativeExpr(1, m), leibniz).verified
        (term,) = DerivativeExpr(9, m).terms
        assert isinstance(term[0], OpaqueDerivative)

    def test_products_of_sums_are_bounded_before_multiplying(self):
        """A product may form at most 720 * 2^6 = 46 080 products of terms:
        14 two-term factors (16 384) multiply out, 16 (65 536) are refused."""

        def sums(n):
            return [SumExpr([product(seg(3 * i, 3 * i)), product(seg(3 * i + 1, 3 * i + 1))])
                    for i in range(n)]

        x = ProductExpr(sums(14))
        assert len(x.terms) == 2 ** 14
        assert str(check_identity(x, ZClass(mseg((0, 0))))) == "refuted at degree 0"
        with pytest.raises(ShapeError, match="^product of 16 factors would form 65536 terms, "
                                             "more than 46080$"):
            ProductExpr(sums(16))
        text = "*".join(f"(Z[{3 * i},{3 * i}]+Z[{3 * i + 1},{3 * i + 1}])" for i in range(14))
        assert parse_expression(text) == x
        with pytest.raises(ShapeError, match="product of 16 factors"):
            parse_expression(f"{text}*(Z[42,42]+Z[43,43])*(Z[45,45]+Z[46,46])")

    def test_derivative_limit_is_shared_across_a_combination(self):
        """D^g of a combination gives each of its n terms 1/n of the limit,
        so a term past its share stays unknown, while the same term alone
        is differentiated."""
        alone = product(*(seg(3 * i, 3 * i) for i in range(10)))
        assert len(DerivativeExpr(5, alone).terms) == math.comb(10, 5)
        pairs = ProductExpr(
            SumExpr([product(seg(3 * i, 3 * i)), product(seg(3 * i + 1, 3 * i + 1))])
            for i in range(10)
        )
        layer = DerivativeExpr(5, pairs).terms
        assert len(layer) == 2 ** 10
        assert all(isinstance(term[0], OpaqueDerivative) for term in layer)
        # D^1 drops one factor's singleton, either of its two.
        layer = DerivativeExpr(1, pairs).terms
        assert len(layer) == 10 * 2 ** 9 and set(layer.values()) == {2}


@pytest.mark.parametrize("shift", range(7))
def test_dropped_leibniz_term_is_refuted_at_every_shift(shift):
    def z(a, b):
        return f"Z[{a + shift},{b + shift}]"

    v = check_identity(
        parse_expression(f"D^1({z(4, 4)}*{z(8, 10)}*{z(5, 5)})"),
        parse_expression(f"{z(5, 5)}*{z(8, 10)} + {z(4, 4)}*{z(8, 10)}"),
    )
    assert str(v) == "refuted at degree 0"


def _ladders(max_len, hi):
    """Every ladder of 1..max_len segments on one line with ends in [0, hi]."""
    points = range(hi, -1, -1)
    for k in range(1, max_len + 1):
        for starts in itertools.combinations(points, k):
            for ends in itertools.combinations(points, k):
                if all(a <= b for a, b in zip(starts, ends)):
                    yield Multisegment.of(*(seg(a, b) for a, b in zip(starts, ends)))


def test_ladder_highest_derivatives_reproduce_lambda():
    """On every ladder, the top layer of D(Z(m)) is Z(m minus its top twists),
    and the top degrees taken in turn are the partition lambda_of(m): the
    determinant agrees with the highest-derivative theorem."""
    checked = 0
    for ladder in _ladders(4, 6):
        m, parts = ladder, []
        while m != Multisegment():
            top, layer = top_layer(m)
            m = Multisegment(top_minus(s) for s in m.segments)
            assert check_identity(layer, ZClass(m)).verified, ladder
            parts.append(top)
        assert Partition(tuple(parts)) == lambda_of(ladder), ladder
        checked += 1
    assert checked == 1204


def highest_derivative_outcome(m) -> str:
    """Whether D^{lambda_1}(Z(m)) is verified equal to Z(m minus its top
    twists) and D^{lambda_1 + 1}(Z(m)) is 0 ("holds"), or not ("fails"), or
    whether the derivative is an opaque ?D ("opaque")."""
    top = lambda_of(m).part(1)
    layer = DerivativeExpr(top, ZClass(m))
    if any(isinstance(a, OpaqueDerivative) for term in layer.terms for a in term):
        return "opaque"
    lower = ZClass(Multisegment(top_minus(s) for s in m.segments))
    holds = check_identity(layer, lower).verified and str(DerivativeExpr(top + 1, ZClass(m))) == "0"
    return "holds" if holds else "fails"


def test_highest_derivative_of_every_small_anchored_multisegment():
    """The highest-derivative theorem on every one-line multisegment of
    degree <= 6 anchored at twist 0: it holds wherever the canonical form
    knows the derivative, and the 612 classes with a component that is
    neither a segment nor a ladder keep an opaque ?D."""
    outcomes = Counter(map(highest_derivative_outcome, anchored(6)))
    assert outcomes == {"holds": 677, "opaque": 612}


@pytest.mark.parametrize("dim", [1, 2])
def test_public_views_agree_with_check_identity(dim):
    """resolve_pair, lemcomp_derivative and weirdcase_constituents state
    identities that the expansion verifies."""
    for a, n, extra in itertools.product(range(-2, 2), range(3), range(3)):
        c = a + n + 1
        delta, top = seg(a, c - 1, dim=dim), seg(c, c, dim=dim)
        d1 = seg(c, c + extra, dim=dim)
        assert check_identity(
            product(d1, delta), SumExpr(ZClass(m) for m in resolve_pair(d1, delta))
        ).verified
        shape = ZClass(Multisegment.of(top, delta))
        assert check_identity(
            DerivativeExpr(dim, shape), ZClass(lemcomp_derivative(top, delta))
        ).verified
        assert check_identity(
            ProductExpr([product(seg(c + 1, c + 1, dim=dim)), shape]),
            SumExpr(ZClass(m) for m in weirdcase_constituents(c, delta)),
        ).verified


# Segments (line, start, length - 1), each with the factor it joins on the
# left side and on the right side of an identity, and whether it is a factor
# of the extra right-hand term with its top twist kept or dropped.
_regrouped_st = st.lists(
    st.tuples(
        st.sampled_from("rs"), st.integers(0, 4), st.integers(0, 2),
        st.integers(0, 2), st.integers(0, 2), st.sampled_from([None, 0, 1]),
    ),
    min_size=1,
    max_size=5,
)
RENAMES = [{"r": "s", "s": "r"}, {"r": "t", "s": "q"}]


@settings(deadline=None)
@example(
    [("r", 4, 0, 0, 0, 0), ("r", 8, 2, 1, 1, 1), ("r", 5, 0, 2, 2, 0)], 1, -1, 2, RENAMES[1]
)
@given(
    _regrouped_st, st.integers(0, 3), st.sampled_from([-1, 0, 1]), st.integers(-3, 6),
    st.sampled_from(RENAMES),
)
def test_status_invariant_under_shift_and_renaming(segs, g, sign, shift, names):
    """D^g of one product of segments grouped into classes in two ways, the
    right side plus or minus one more product, gets one status and witness
    degree after every twist shifts by one constant and the lines are
    renamed.  The example is D^1(Z[4,4]*Z[8,10]*Z[5,5]) = Z[5,5]*Z[8,10] +
    Z[4,4]*Z[8,10], written as D^1 of the left side less Z[4,4]*Z[8,9]*Z[5,5]."""
    def verdict(shift, names):
        def segment(line, a, n, drop=0):
            s = seg(a + shift, a + n + shift, names[line])
            return top_minus(s) if drop else s

        sides = []
        for side in (3, 4):
            groups: dict[int, list] = {}
            for row in segs:
                groups.setdefault(row[side], []).append(segment(*row[:3]))
            sides.append(DerivativeExpr(g, ProductExpr(
                ZClass(Multisegment.of(*group)) for group in groups.values()
            )))
        extra = [
            ZClass(Multisegment.of(segment(*row[:3], drop=row[5])))
            for row in segs if row[5] is not None
        ]
        coeff = GradedVirtual({(): sign})
        v = check_identity(sides[0], SumExpr([sides[1], ProductExpr([coeff, *extra])]))
        return v.status, v.witness_degree

    assert verdict(shift, names) == verdict(0, {"r": "r", "s": "s"})
