"""The K-group expression parser: what it builds, where it reports a fault,
and agreement with the character-level oracle in ``char_parser``."""

import pytest
from hypothesis import given, settings, strategies as st

from strata_kit.expression import (
    _TOKEN,
    ExpressionSyntaxError,
    _Parser,
    parse_expression,
    parse_identity,
)
from strata_kit.kgroup import DerivativeExpr, ProductExpr, SumExpr, ZClass

from char_parser import CharParser
from conftest import mseg


class TestParseExpression:
    def test_atoms(self):
        z01, z00 = ZClass(mseg((0, 1))), ZClass(mseg((0, 0)))
        assert parse_expression("Z[0,1]") == z01
        assert parse_expression("Z{[0,1],[2,2]}") == ZClass(mseg((0, 1), (2, 2)))
        assert parse_expression("D^1(Z[0,1]*Z[0,0])") == DerivativeExpr(
            1, ProductExpr((z01, z00))
        )
        assert parse_expression("Z[0,1]+Z[0,0]") == SumExpr((z01, z00))
        assert parse_expression("Z[0,1]*Z[0,0]") == ProductExpr((z01, z00))
        assert parse_expression("(Z[0,1])") == z01

    def test_named_line_and_negatives(self):
        expr = parse_expression("Z[-2,-1;sigma]")
        ((atom,),) = expr.layer(0)
        (seg,) = atom.segments
        assert (seg.a, seg.b, seg.line_id) == (-2, -1, "sigma")

    def test_whitespace_insensitive(self):
        assert parse_expression(" Z[0,1] * Z[0,0] ") == parse_expression("Z[0,1]*Z[0,0]")

    def test_whitespace_between_every_pair_of_tokens(self):
        """Space, tab and newline may stand between any two tokens, inside
        segments, derivatives and multisegment braces too."""
        tokens = [
            "D", "^", "2", "(", "Z", "[", "0", ",", "1", ";", "s", "]", "*",
            "Z", "{", "[", "0", ",", "0", "]", ",", "[", "1", ",", "1", "]", "}", ")",
            "+", "(", "Z", "[", "-1", ",", "0", "]", "*", "Z", "{", "}", ")",
        ]
        s01, z00 = ZClass(mseg((0, 1), line_id="s")), ZClass(mseg((0, 0), (1, 1)))
        expected = SumExpr((
            DerivativeExpr(2, ProductExpr((s01, z00))),
            ZClass(mseg((-1, 0))),
        ))
        for space in (" ", "\t", "\n", " \t\n "):
            text = space.join(tokens)
            assert parse_expression(text) == expected
            assert parse_identity(f"{text} ={space}{text}") == (expected, expected)

    def test_leading_zeros_and_negative_zero(self):
        assert parse_expression("D^01(Z[0,1])") == parse_expression("D^1(Z[0,1])")
        assert parse_expression("Z[-0,0]") == parse_expression("Z[0,0]")

    def test_fault_on_a_later_line_has_that_lines_column(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_identity("Z[0,0] =\n\t Z [ 1 , x ]")
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            "syntax error at line 2, column 11: expected an integer", 2, 11,
        )

    def test_error_position(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("Z[0,1")
        assert exc.value.column == 6
        assert exc.value.line == 1
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("Z[0,1] ^")
        with pytest.raises(ExpressionSyntaxError, match="derivative order") as exc:
            parse_expression("D^ -1(Z[0,0])")
        assert exc.value.column == 4



# Segment text: well formed, with whitespace of several kinds, signs, digits
# of another script (U+0663) and identifiers with digits and underscores;
# then, in three of four examples, one cut, insertion or overwrite that may
# bring in a digit that is not decimal (U+00B2) or an integer too long.
_space_st = st.text(" \t\n\u00a0\u2003", max_size=2)
_int_text_st = st.from_regex(r"-?[0-9\u0663]{1,3}", fullmatch=True)
_well_formed_segment_st = st.tuples(
    _space_st, st.just("["), _space_st, _int_text_st, _space_st, st.just(","), _space_st,
    _int_text_st, _space_st,
    st.one_of(
        st.just(""),
        st.tuples(st.just(";"), _space_st, st.text("rs_1\u0663\u00b2", min_size=1, max_size=4), _space_st)
        .map("".join),
    ),
    st.just("]"),
).map("".join)
_segment_text_st = _well_formed_segment_st.flatmap(
    lambda text: st.one_of(
        st.just(text),
        st.integers(0, len(text)).map(lambda cut: text[:cut]),
        st.builds(
            lambda i, k, piece: text[:i] + piece + text[i + k :],
            st.integers(0, len(text)),
            st.integers(0, 1),
            st.sampled_from(["", "-", "+", "\u00b2", "_", ",", ";", "]", "[", " ", "1" * 4301]),
        ),
        st.just(text + " ]*Z[0,0]"),
    )
)


def _read_segment(read, text):
    """(segment, end position) or (message, line, column) of one way to read."""
    parser = _Parser(text)
    try:
        return read(parser), parser.tok.pos
    except ExpressionSyntaxError as exc:
        return str(exc), exc.line, exc.column


def _read_segment_chars(text):
    parser = CharParser(text)
    try:
        return parser._segment(), parser.pos
    except ExpressionSyntaxError as exc:
        return str(exc), exc.line, exc.column


@settings(deadline=None)
@given(_segment_text_st)
def test_segment_pattern_agrees_with_characters(text):
    """The one-match segment token and the token-by-token reading from its
    '[' give the same segment and end, or fail with the same message at the
    same line and column, and so does the character-level oracle; every
    segment they read is one match."""
    one = _read_segment(_Parser._segment, text)
    assert one == _read_segment_chars(text)
    start = len(text) - len(text.lstrip())
    if text.startswith("[", start):
        assert _read_segment(lambda p: p._segment_tokens(start), text) == one
    if len(one) == 2:
        assert _TOKEN.match(text).lastgroup == "seg"


# Identities from the grammar, with integers that may be empty, signs
# alone, non-decimal or too long, and then one cut, insertion or overwrite.
_int_token_st = st.sampled_from(["0", "1", "-2", "3", "\u00b2", "\u0663", "-", "", "1" * 4301])
_segment_token_st = st.one_of(
    st.builds("[{},{}]".format, _int_token_st, _int_token_st),
    st.builds("[{},{};{}]".format, _int_token_st, _int_token_st, st.sampled_from(["s", "s_1", ""])),
)


def _atoms(expr):
    return st.one_of(
        _segment_token_st.map("Z{}".format),
        st.lists(_segment_token_st, max_size=2).map(lambda segs: "Z{%s}" % ",".join(segs)),
        st.builds("D^{}({})".format, _int_token_st, expr),
        expr.map("({})".format),
    )


_expression_st = st.recursive(
    _segment_token_st.map("Z{}".format),
    lambda expr: st.one_of(
        _atoms(expr),
        st.lists(_atoms(expr), min_size=2, max_size=3).map("*".join),
        st.lists(_atoms(expr), min_size=2, max_size=3).map(" + ".join),
    ),
    max_leaves=5,
)
identity_text_st = st.builds("{} = {}".format, _expression_st, _expression_st).flatmap(
    lambda text: st.builds(
        lambda i, k, piece: text[:i] + piece + text[i + k :],
        st.integers(0, len(text)),
        st.integers(0, 2),
        st.sampled_from(["", "\n", "Z[", "D^", "(", ")", "]", "}", ",", ";", "=", "*", "-", "\u00b2"]),
    )
)


def _parsed(read):
    """The sides ``read()`` returns and their printed forms, or its syntax
    error's (message, line, column)."""
    try:
        sides = read()
    except ExpressionSyntaxError as exc:
        return str(exc), exc.line, exc.column
    sides = sides if isinstance(sides, tuple) else (sides,)
    return sides, [str(side) for side in sides]


@settings(deadline=None)
@given(identity_text_st, _expression_st)
def test_parser_agrees_with_character_oracle(identity, expression):
    """The token parser gives the character-level oracle's element, or its
    syntax error at the same line and column, for identities and for
    single expressions.  The oracle multiplies every 'Z[a,b]' as a ZClass,
    so this also checks SegmentProduct against the general product."""
    assert _parsed(lambda: parse_identity(identity)) == _parsed(CharParser(identity).identity)
    assert _parsed(lambda: parse_expression(expression)) == _parsed(CharParser(expression).parse)
