"""The character-level K-group expression parser, kept as the test oracle.

It reads the grammar of ``strata_kit.expression`` one character at a time,
skipping whitespace before every token, and builds the same elements on the
general path: every ``Z[a,b]`` is a ``ZClass`` and every product a
``ProductExpr``, where the library's parser forms the plain ``Z[a,b]`` factors
of a product as one ``SegmentProduct``.  ``CharParser(text).identity()`` and
``.parse()`` must agree with ``parse_identity`` and ``parse_expression``: the
same element, or the same syntax error at the same line and column.
"""

from __future__ import annotations

from strata_kit.errors import StrataKitError, line_column, too_many_digits
from strata_kit.expression import DEFAULT_LINE_ID, MAX_NESTING, ExpressionSyntaxError
from strata_kit.kgroup import DerivativeExpr, ProductExpr, SumExpr, ZClass
from strata_kit.multisegments import Multisegment
from strata_kit.segments import CuspidalLabel, Segment


class CharParser:
    def __init__(self, src: str) -> None:
        self.src = src
        self.pos = 0
        self.depth = 0

    def _fail(self, message: str, pos=None) -> None:
        pos = self.pos if pos is None else pos
        raise ExpressionSyntaxError(message, *line_column(self.src, pos))

    def _skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _expect(self, token: str) -> None:
        self._skip_ws()
        if not self.src.startswith(token, self.pos):
            self._fail(f"expected {token!r}")
        self.pos += len(token)

    def _int(self) -> int:
        self._skip_ws()
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
        while self.pos < len(self.src) and self.src[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start or self.src[start:self.pos] == "-":
            self.pos = start
            self._fail("expected an integer")
        try:
            return int(self.src[start : self.pos])
        except ValueError:
            self.pos = start
            self._fail(too_many_digits())
            raise  # unreachable

    def _ident(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.src) and (
            self.src[self.pos].isalnum() or self.src[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self._fail("expected an identifier")
        return self.src[start : self.pos]

    def _segment(self) -> Segment:
        self._skip_ws()
        bracket = self.pos
        self._expect("[")
        a = self._int()
        self._expect(",")
        b = self._int()
        line_id = DEFAULT_LINE_ID
        if self._peek() == ";":
            self._expect(";")
            line_id = self._ident()
        self._expect("]")
        try:
            return Segment(CuspidalLabel(line_id), a, b)
        except StrataKitError as exc:
            self._fail(str(exc), bracket)
            raise  # unreachable

    def _enclosed(self):
        self._skip_ws()
        if self.depth == MAX_NESTING:
            self._fail(f"nesting deeper than {MAX_NESTING}")
        self._expect("(")
        self.depth += 1
        inner = self.expression()
        self._expect(")")
        self.depth -= 1
        return inner

    def _atom(self):
        ch = self._peek()
        if ch == "(":
            return self._enclosed()
        if ch == "D":
            self._expect("D")
            self._expect("^")
            self._skip_ws()
            start = self.pos
            degree = self._int()
            if degree < 0:
                self.pos = start
                self._fail("derivative order must be >= 0")
            return DerivativeExpr(degree, self._enclosed())
        if ch == "Z":
            self._expect("Z")
            ch = self._peek()
            if ch == "[":
                return ZClass(Multisegment.of(self._segment()))
            if ch == "{":
                self._expect("{")
                segs = []
                if self._peek() != "}":
                    segs.append(self._segment())
                    while self._peek() == ",":
                        self._expect(",")
                        segs.append(self._segment())
                self._expect("}")
                return ZClass(Multisegment.of(*segs))
            self._fail("expected '[' or '{' after 'Z'")
        self._fail("expected an atom")

    def _product(self):
        factors = [self._atom()]
        while self._peek() == "*":
            self._expect("*")
            factors.append(self._atom())
        return factors[0] if len(factors) == 1 else ProductExpr(factors)

    def expression(self):
        terms = [self._product()]
        while self._peek() == "+":
            self._expect("+")
            terms.append(self._product())
        return terms[0] if len(terms) == 1 else SumExpr(terms)

    def _end(self) -> None:
        self._skip_ws()
        if self.pos != len(self.src):
            self._fail("unexpected trailing input")

    def parse(self):
        x = self.expression()
        self._end()
        return x

    def identity(self):
        lhs = self.expression()
        self._expect("=")
        rhs = self.expression()
        self._end()
        return lhs, rhs
