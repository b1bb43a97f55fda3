import itertools

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
    highest_derivative_of_product,
    lambda_of,
    lemcomp_derivative,
    relate,
    resolve_pair,
    total_derivative,
    weirdcase_constituents,
)
from strata_kit.cli import _Parser, parse_expression
from strata_kit.kgroup import (
    OpaqueDerivative,
    _add_term,
    _atom_key,
    _leibniz,
    _sorted_term,
    atom_derivative,
)

from conftest import mseg, seg


def term_of(*pairs):
    return _sorted_term(mseg(p) for p in pairs)


def product(*segments):
    return ProductExpr(ZClass(Multisegment.of(s)) for s in segments)


class TestTotalDerivative:
    def test_single_segment(self):
        gv = total_derivative(product(seg(0, 1)))
        assert gv.layer(0) == {(mseg((0, 1)),): 1}
        assert gv.layer(1) == {(mseg((0, 0)),): 1}
        assert gv.degrees() == [0, 1]

    def test_cuspidal(self):
        gv = total_derivative(product(seg(0, 0)))
        assert gv.layer(1) == {(): 1}

    def test_leibniz_pair(self):
        gv = total_derivative(product(seg(0, 1), seg(0, 0)))
        assert gv.layer(0) == {term_of((0, 1), (0, 0)): 1}
        assert gv.layer(1) == {term_of((0, 0), (0, 0)): 1, (mseg((0, 1)),): 1}
        assert gv.layer(2) == {(mseg((0, 0)),): 1}

    def test_dim_scaling(self):
        gv = total_derivative(product(seg(0, 1, dim=2)))
        assert gv.degrees() == [0, 2]

    def test_unknown_class_raises(self):
        with pytest.raises(ShapeError, match="no known derivative"):
            total_derivative(ZClass(mseg((0, 1), (1, 2))))
        with pytest.raises(ShapeError, match="degree-0 element"):
            total_derivative(total_derivative(product(seg(0, 1))))

    def test_top_degree_is_lambda_one(self):
        pool = [seg(a, b) for a in range(3) for b in range(a, 3)]
        for r in range(1, 4):
            for combo in itertools.combinations_with_replacement(pool, r):
                m = Multisegment.of(*combo)
                gv = total_derivative(product(*combo))
                assert gv.top_degree() == lambda_of(m).part(1)
                assert len(gv.layer(gv.top_degree())) == 1
                assert list(gv.layer(gv.top_degree()).values()) == [1]

    def test_iterated_tops_reproduce_lambda(self):
        factors = (seg(0, 2), seg(1, 1), seg(0, 1))
        m = Multisegment.of(*factors)
        parts = []
        current = list(factors)
        while current:
            gv = total_derivative(product(*current))
            top = gv.top_degree()
            parts.append(top)
            (term,) = gv.layer(top)
            current = [s for atom in term for s in atom.segments]
        assert Partition(tuple(parts)) == lambda_of(m)


class TestHighestDerivative:
    def test_examples(self):
        assert highest_derivative_of_product(mseg((0, 1), (0, 0))) == (
            Partition.of(2, 1),
            mseg((0, 0)),
        )
        assert highest_derivative_of_product(mseg((0, 0))) == (
            Partition.of(1),
            Multisegment(),
        )
        m = Multisegment.of(seg(0, 2, dim=2))
        assert highest_derivative_of_product(m) == (
            Partition.of(2, 2, 2),
            Multisegment.of(seg(0, 1, dim=2)),
        )

    def test_iteration_exhausts(self):
        m = mseg((0, 2), (1, 1), (3, 4))
        lam = lambda_of(m)
        for _ in range(lam.length):
            _, m = highest_derivative_of_product(m)
        assert m == Multisegment()


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
        v = check_identity(
            parse_expression("Z[0,2]*Z[1,3]"), parse_expression("Z{[0,2],[1,3]}")
        )
        assert v.status == "unverifiable"

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
            parse_expression("D^1(Z{[0,1],[1,2]})"), parse_expression("Z{[0,1],[1,1]}")
        )
        assert v.status == "unverifiable"
        assert v.reason == "undecomposed product remains at degree 0: ?D^1(Z{[1,2]_r,[0,1]_r})"

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
        left = total_derivative(product(seg(0, 1), seg(0, 0)))
        right = total_derivative(product(seg(0, 0), seg(0, 1)))
        assert check_identity(left, right).verified


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
    """D^g(x) is layer g of total_derivative(x), the zero element above its
    top degree, and the parser builds x itself.

    Layer 0 of total_derivative writes an unlinked atom as the product of
    its segments, so layer 0 is compared with x written that way.
    """
    def atom(p):
        return ZClass(Multisegment.of(*(seg(a, b, line_id=line) for line, a, b in p)))

    x = ProductExpr([atom([t]) for t in segs] + [atom(p) for _, p in pairs])
    split = ProductExpr(
        [atom([t]) for t in segs]
        + [atom([q]) for unlinked, p in pairs if unlinked for q in p]
        + [atom(p) for unlinked, p in pairs if not unlinked]
    )
    texts = ["Z" + _seg_text(*t) for t in segs]
    texts += ["Z{%s}" % ",".join(_seg_text(*t) for t in p) for _, p in pairs]
    assert parse_expression("*".join(texts)) == x
    total = total_derivative(x)
    top = total.top_degree()
    assert top == len(segs) + 2 * len(pairs)
    assert DerivativeExpr(0, x) == x
    assert GradedVirtual({0: total.layer(0)}) == split
    for g in range(1, top + 3):
        assert DerivativeExpr(g, x) == GradedVirtual({0: total.layer(g)})
    assert str(DerivativeExpr(top + 1, x)) == "0"


def test_lines_of_one_name_and_two_dims_give_one_term():
    """Atoms that print alike still sort by their structure, not input order."""
    a = ZClass(Multisegment.of(Segment(CuspidalLabel("r", 1), 0, 0)))
    b = ZClass(Multisegment.of(Segment(CuspidalLabel("r", 2), 0, 0)))
    x, y = ProductExpr([a, b]), ProductExpr([b, a])
    assert x == y
    ((term, coeff),) = SumExpr([x, y]).layer(0).items()
    assert (len(term), coeff) == (2, 2)


LINES = [CuspidalLabel("r", 1), CuspidalLabel("r", 2), CuspidalLabel("s"), CuspidalLabel("r", 1, 3)]
# Classes that all print as {[0,0]_r}: their string order is a tie.
TWINS = [Multisegment.of(Segment(c, 0, 0)) for c in LINES if c.line_id == "r"]
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
    x = GradedVirtual({0: {given_term: 1}})
    assert x.layers == {0: {_sorted_term(atoms): 1}}
    one = GradedVirtual({0: {(Multisegment(),): 1}})
    assert one == GradedVirtual({0: {(): 1}})
    assert ProductExpr([one, x]) == ProductExpr([x, one]) == x
    assert SumExpr([x, GradedVirtual({0: {tuple(atoms): -1}})]) == GradedVirtual()


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


# (line, start, length - 1) of a segment.
_segment_st = st.tuples(st.sampled_from("rs"), st.integers(-2, 3), st.integers(0, 2))
# Derivative tables of atoms, and tables of signed combinations of any terms,
# whose products can cancel.
table_st = st.one_of(
    _segment_st.map(lambda s: atom_derivative(_multisegment([s]))),
    pair_atom_st.map(
        lambda atom: atom_derivative(
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
    expansion; without a degree, every layer is."""
    expected = _stepwise_leibniz(tables)

    def nonzero(layers):
        return {g: combo for g, combo in layers.items() if combo}

    assert nonzero(_leibniz(iter(tables))) == expected
    for g in range(max(expected, default=0) + 2):
        layers = nonzero(_leibniz(tables, g))
        assert layers.keys() <= {g}
        assert layers.get(g, {}) == expected.get(g, {})


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
@example(("((Z[0,0;s]))*D^1(Z{[0,1],[1,2]})", ProductExpr([
    ZClass(mseg((0, 0), line_id="s")),
    GradedVirtual({0: {(OpaqueDerivative("Z{[1,2]_r,[0,1]_r}", 1),): 1}}),
]), False))
@given(_node_st)
def test_parser_builds_what_the_constructors_build(node):
    text, element, _ = node
    parsed = parse_expression(text)
    assert parsed == element
    assert str(parsed) == str(element)
    assert _Parser(f"Z{{}} = {text}").identity() == (ZClass(Multisegment()), element)
