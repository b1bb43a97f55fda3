"""The K-group expression language of ``kgroup-check``.

identity := expr '=' expr; expr := prod ('+' prod)*;
prod := atom ('*' atom)*;
atom := 'Z[' int ',' int (';' ident)? ']' | 'Z{' mseg '}'
      | 'D^' int '(' expr ')' | '(' expr ')', with derivative order >= 0.

Each rule builds its element with the public constructors of ``kgroup`` alone.
"""

from __future__ import annotations

import re

from .errors import InputError, StrataKitError, line_column, too_many_digits
from .kgroup import DerivativeExpr, GradedVirtual, ProductExpr, SegmentProduct, SumExpr, ZClass
from .multisegments import Multisegment
from .segments import CuspidalLine, Segment

DEFAULT_LINE_ID = "r"
# Brackets may nest this deep in an expression; a JSON input that nests too
# deep for the decoder is reported at its first bracket past this depth.
MAX_NESTING = 100

# One token past any whitespace.  Groups: 1 a well-formed segment '[a,b]' or
# '[a,b;line]', 2 its 'Z' and the space after it, or '', 3-5 a, b, line;
# 6 an integer; 7 ';' and a line name, 8 the name; 9 any other character;
# none at the end.  \s, \d and \w are str.isspace, isdecimal, isalnum or '_'.
_TOKEN = re.compile(r"\s*(?:(?P<seg>(Z?\s*)\[\s*(-?\d+)\s*,\s*(-?\d+)\s*(?:;\s*(\w+)\s*)?\])"
                    r"|(?P<int>-?\d+)|(?P<name>;\s*(\w+))|(?P<op>.))?")


class ExpressionSyntaxError(InputError):
    """Syntax error in a K-group expression, with 1-based position info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"syntax error at line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Parser:
    """Recursive-descent parser for the grammar above.  ``tok`` is the current
    token, one match of ``_TOKEN``, and ``op`` its character if it is one."""

    def __init__(self, src: str) -> None:
        self.src = src
        self.depth = 0
        self._advance(0)

    def _advance(self, pos: int) -> None:
        """Make the token at ``pos``, past any whitespace, the current one."""
        self.tok = tok = _TOKEN.match(self.src, pos)
        self.op = tok[9]

    def _error(self, message: str, pos: int | None = None) -> ExpressionSyntaxError:
        """The fault at ``pos``, by default where the current token starts."""
        if pos is None:
            pos = self.tok.start(self.tok.lastindex) if self.tok.lastindex else len(self.src)
        return ExpressionSyntaxError(message, *line_column(self.src, pos))

    def _expect(self, op: str) -> None:
        if self.op != op:
            raise self._error(f"expected {op!r}")
        self._advance(self.tok.end())

    def _int(self) -> int:
        tok = self.tok
        if tok.lastgroup != "int":
            raise self._error("expected an integer")
        self._advance(tok.end())
        try:
            return int(tok[6])
        except ValueError:
            raise self._error(too_many_digits(), tok.start(6)) from None

    def _segment_token(self) -> Segment:
        """The segment the current token spells; reading it again token by
        token names an integer in it that is too long."""
        tok = self.tok
        try:
            a, b = int(tok[3]), int(tok[4])
        except ValueError:
            return self._segment_tokens(tok.end(2))
        self._advance(tok.end())
        return self._make_segment(tok[5] or DEFAULT_LINE_ID, a, b, tok.end(2))

    def _segment_tokens(self, bracket: int) -> Segment:
        """The segment whose '[' is at ``bracket``, read one token at a time."""
        self._advance(bracket + 1)
        a = self._int()
        self._expect(",")
        b = self._int()
        line_id = DEFAULT_LINE_ID
        if self.tok.lastgroup == "name":
            line_id = self.tok[8]
            self._advance(self.tok.end())
        elif self.op == ";":
            self._advance(self.tok.end())
            raise self._error("expected an identifier")
        self._expect("]")
        return self._make_segment(line_id, a, b, bracket)

    def _segment(self) -> Segment:
        """The segment at the current token, inside 'Z{...}'."""
        if self.tok.lastgroup == "seg" and not self.tok[2]:
            return self._segment_token()
        if self.op != "[":
            raise self._error("expected '['")
        return self._segment_tokens(self.tok.start(9))

    def _make_segment(self, line_id: str, a: int, b: int, bracket: int) -> Segment:
        try:
            return Segment(CuspidalLine(line_id), a, b)
        except StrataKitError as exc:
            raise self._error(str(exc), bracket) from None

    def _enclosed(self) -> GradedVirtual:
        """'(' expr ')', at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING}")
        self._expect("(")
        self.depth += 1
        inner = self.expression()
        self._expect(")")
        self.depth -= 1
        return inner

    def _atom(self) -> GradedVirtual:
        """Any atom but a well-formed 'Z[a,b]', which ``_product`` reads."""
        if self.op == "(":
            return self._enclosed()
        if self.op == "D":
            self._advance(self.tok.end())
            self._expect("^")
            tok = self.tok
            degree = self._int()
            if degree < 0:
                raise self._error("derivative order must be >= 0", tok.start(6))
            return DerivativeExpr(degree, self._enclosed())
        if self.op == "Z":
            self._advance(self.tok.end())
            if self.op == "{":
                self._advance(self.tok.end())
                segs = [] if self.op == "}" else [self._segment()]
                while segs and self.op == ",":
                    self._advance(self.tok.end())
                    segs.append(self._segment())
                self._expect("}")
                return ZClass(Multisegment(segs))
            if self.op == "[":  # a malformed segment: reading it names the fault
                return ZClass(Multisegment.of(self._segment()))
            raise self._error("expected '[' or '{' after 'Z'")
        raise self._error("expected an atom")

    def _product(self) -> GradedVirtual:
        """The factors 'Z[a,b]' form one SegmentProduct; the others multiply it."""
        plain: list[Segment] = []
        factors: list[GradedVirtual] = []
        while True:
            if self.tok.lastgroup == "seg" and self.tok[2]:
                plain.append(self._segment_token())
            else:
                factors.append(self._atom())
            if self.op != "*":
                break
            self._advance(self.tok.end())
        if plain:
            factors.insert(0, SegmentProduct(plain))
        return factors[0] if len(factors) == 1 else ProductExpr(factors)

    def expression(self) -> GradedVirtual:
        terms = [self._product()]
        while self.op == "+":
            self._advance(self.tok.end())
            terms.append(self._product())
        return terms[0] if len(terms) == 1 else SumExpr(terms)

    def read(self, count: int) -> list[GradedVirtual]:
        """The ``count`` expressions, joined by '=', that make up the whole text."""
        sides = [self.expression()]
        while len(sides) < count:
            self._expect("=")
            sides.append(self.expression())
        if self.tok.lastindex:
            raise self._error("unexpected trailing input")
        return sides


def parse_expression(src: str) -> GradedVirtual:
    """Parse a K-group expression string into the element it denotes."""
    return _Parser(src).read(1)[0]


def parse_identity(src: str) -> tuple[GradedVirtual, GradedVirtual]:
    """Parse an identity 'lhs = rhs' into the elements of its two sides."""
    return tuple(_Parser(src).read(2))
