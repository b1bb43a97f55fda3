"""Batch command-line front end.

Verbs: lambda, dual, poset, strata, ring, ext, kgroup-check, enumerate.
Inputs are inline JSON, file paths, or identity expressions; outputs are
JSON (compact, key-order deterministic), plain tables, or DOT.  Exit codes:
0 success, 1 domain error (message names the violated precondition),
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import BudgetExceededError, InputError, StrataKitError, expect
from .kgroup import (
    GradedVirtual,
    Term,
    _add_term,
    _atom_key,
    _class,
    _derivative,
    _multiply,
    _wrap,
    check_identity,
)
from .multisegments import (
    DEFAULT_SUPPORT_BOUND,
    DEFAULT_NODE_BOUND,
    Multisegment,
    _single,
    downset,
    enumerate_with_support,
    inertial_class,
    lambda_of,
    mw_dual,
)
from .partitions import Partition
from .segments import CuspidalLabel, Segment
from .strata import (
    DEFAULT_COMPONENT_BOUND,
    BlockSpec,
    components,
    ext_dimensions,
    ring_presentation,
)

DEFAULT_LINE_ID = "r"
BUDGET_ENV_VAR = "STRATAKIT_BUDGET"

# One token past any whitespace.  Groups: 1 a well-formed segment '[a,b]' or
# '[a,b;line]', 2 its 'Z' and the space after it, or '', 3-5 a, b, line;
# 6 an integer; 7 ';' and a line name, 8 the name; 9 any other character;
# none at the end.  \s, \d and \w are str.isspace, isdecimal, isalnum or '_'.
_TOKEN = re.compile(r"\s*(?:(?P<seg>(Z?\s*)\[\s*(-?\d+)\s*,\s*(-?\d+)\s*(?:;\s*(\w+)\s*)?\])"
                    r"|(?P<int>-?\d+)|(?P<name>;\s*(\w+))|(?P<op>.))?")
# Brackets may nest this deep in an expression; a JSON input that nests too
# deep for the decoder is reported at its first bracket past this depth.
MAX_NESTING = 100
# A JSON string, or a bracket outside strings.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


def _too_long() -> str:
    return f"integer has more than {sys.get_int_max_str_digits()} digits"


class ExpressionSyntaxError(InputError):
    """Syntax error in a K-group expression, with 1-based position info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"syntax error at line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Parser:
    """Recursive-descent parser for the K-group expression grammar.

    identity := expr '=' expr; expr := prod ('+' prod)*;
    prod := atom ('*' atom)*;
    atom := 'Z[' int ',' int (';' ident)? ']' | 'Z{' mseg '}'
          | 'D^' int '(' expr ')' | '(' expr ')', with derivative order >= 0.
    Every element the grammar denotes lives in degree 0, so each rule
    returns the combination of terms it denotes, and ``parse`` and
    ``identity`` wrap each side once.  ``tok`` is the current token, one
    match of ``_TOKEN``, and ``op`` its character if it is a single one.
    """

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
        return ExpressionSyntaxError(message, *_position(self.src, pos))

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
            raise self._error(_too_long(), tok.start(6)) from None

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
            return Segment(CuspidalLabel(line_id), a, b)
        except StrataKitError as exc:
            raise self._error(str(exc), bracket) from None

    def _enclosed(self) -> dict[Term, int]:
        """'(' expr ')', at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING}")
        self._expect("(")
        self.depth += 1
        inner = self.expression()
        self._expect(")")
        self.depth -= 1
        return inner

    def _atom(self) -> dict[Term, int]:
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
            return _derivative(degree, self._enclosed())
        if self.op == "Z":
            self._advance(self.tok.end())
            if self.op == "{":
                self._advance(self.tok.end())
                segs: list[Segment] = []
                if self.op != "}":
                    segs.append(self._segment())
                    while self.op == ",":
                        self._advance(self.tok.end())
                        segs.append(self._segment())
                self._expect("}")
                return _class(Multisegment.of(*segs))
            if self.op == "[":  # a malformed segment: reading it names the fault
                return _class(Multisegment.of(self._segment()))
            raise self._error("expected '[' or '{' after 'Z'")
        raise self._error("expected an atom")

    def _product(self) -> dict[Term, int]:
        """The factors 'Z[a,b]' form one sorted term; only the others multiply it."""
        plain: list[Multisegment] = []
        factors: list[dict[Term, int]] = []
        while True:
            if self.tok.lastgroup == "seg" and self.tok[2]:
                plain.append(_single(self._segment_token()))
            else:
                factors.append(self._atom())
            if self.op != "*":
                break
            self._advance(self.tok.end())
        if plain:
            factors.insert(0, {tuple(sorted(plain, key=_atom_key)): 1})
        return factors[0] if len(factors) == 1 else _multiply({}, factors)

    def expression(self) -> dict[Term, int]:
        # Every rule returns a new combination, so the sum can grow the first.
        acc = self._product()
        while self.op == "+":
            self._advance(self.tok.end())
            for term, coeff in self._product().items():
                _add_term(acc, term, coeff)
        return acc

    def _end(self) -> None:
        if self.tok.lastindex:
            raise self._error("unexpected trailing input")

    def parse(self) -> GradedVirtual:
        combo = self.expression()
        self._end()
        return _wrap({0: combo})

    def identity(self) -> tuple[GradedVirtual, GradedVirtual]:
        lhs = self.expression()
        self._expect("=")
        rhs = self.expression()
        self._end()
        return _wrap({0: lhs}), _wrap({0: rhs})


def parse_expression(src: str) -> GradedVirtual:
    """Parse a K-group expression string into the element it denotes."""
    return _Parser(src).parse()


def _position(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[pos]``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=False)


def _read_input(arg: str) -> str:
    """Treat the argument as a file path when one exists, else as inline text."""
    if os.path.isfile(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read {arg}: not UTF-8 text") from exc
    return arg


def _too_deep(text: str) -> InputError:
    """The JSON error for the first bracket of ``text`` nested past MAX_NESTING."""
    depth = 0
    for token in _JSON_TOKEN.finditer(text):
        if token[0] in "[{":
            depth += 1
            if depth > MAX_NESTING:
                break
        elif token[0] in "]}":
            depth -= 1
    line, column = _position(text, token.start())
    return InputError(
        f"invalid JSON at line {line}, column {column}: nesting deeper than {MAX_NESTING}"
    )


def _load_json(arg: str):
    text = _read_input(arg)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # the only other fault: an integer too long
        raise InputError(f"invalid JSON: {_too_long()}") from exc
    except RecursionError as exc:
        raise _too_deep(text) from exc


def _load_multisegment(arg: str) -> Multisegment:
    return Multisegment.from_json(_load_json(arg))


def _budget(args, fallback: int) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"{BUDGET_ENV_VAR} must be an integer") from exc
    return fallback


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_lines(value, indent: str = "") -> list[str]:
    if isinstance(value, dict):
        lines = []
        for key, sub in value.items():
            if isinstance(sub, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_table_lines(sub, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {sub}")
        return lines
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return [indent + " ".join(str(x) for x in value)]
        lines = []
        for x in value:
            lines.append(f"{indent}-")
            lines.extend(_table_lines(x, indent + "  "))
        return lines
    return [f"{indent}{value}"]


def _render(args, payload) -> str:
    if args.format == "table":
        return "\n".join(_table_lines(payload))
    return _dumps(payload)


def _cmd_lambda(args) -> None:
    m = _load_multisegment(args.input)
    _emit(args, _render(args, lambda_of(m).to_json()))


def _cmd_dual(args) -> None:
    m = _load_multisegment(args.input)
    _emit(args, _render(args, mw_dual(m).to_json()))


def _cmd_poset(args) -> None:
    m = _load_multisegment(args.input)
    poset = downset(m, node_bound=_budget(args, DEFAULT_NODE_BOUND))
    if args.dot:
        _emit(args, poset.to_dot())
    else:
        _emit(args, _render(args, poset.to_json()))


def _cmd_strata(args) -> None:
    block = BlockSpec.from_json(expect(_load_json(args.block), dict, "--block"))
    lam = Partition.from_json(expect(_load_json(args.lam), list, "--lambda"))
    report = components(block, lam, bound=_budget(args, DEFAULT_COMPONENT_BOUND))
    _emit(args, _render(args, report.to_json()))


def _cmd_ring(args) -> None:
    data = _load_json(args.cls)
    if isinstance(data, dict) and "representative" in data:
        m = Multisegment.from_json(data["representative"], "representative")
    elif isinstance(data, dict) and "segments" in data:
        m = Multisegment.from_json(data)
    else:
        raise InputError("expected an inertial class or multisegment object")
    _emit(args, _render(args, ring_presentation(inertial_class(m)).to_json()))


def _cmd_ext(args) -> None:
    if args.r is not None:
        dims = ext_dimensions(args.r)
    else:
        dims = ext_dimensions(_load_multisegment(args.mseg))
    _emit(args, _render(args, dims))


def _cmd_kgroup_check(args) -> None:
    lhs, rhs = _Parser(_read_input(args.identity)).identity()
    _emit(args, str(check_identity(lhs, rhs)))


def _support_point(entry, where: str) -> CuspidalLabel:
    """A line object with a ``twist`` field, or a ``[line, twist]`` pair."""
    if isinstance(entry, dict):
        line = CuspidalLabel.from_json(entry, where)
        twist = expect(entry.get("twist"), int, f"{where}.twist")
        return CuspidalLabel(line.line_id, line.dim, line.period, twist)
    if isinstance(entry, list) and len(entry) == 2:
        line_id = expect(entry[0], str, f"{where}[0]")
        return CuspidalLabel(line_id, twist=expect(entry[1], int, f"{where}[1]"))
    raise InputError("expected an object with a twist, or a [line, twist] pair", where)


def _cmd_enumerate(args) -> None:
    data = _load_json(args.support)
    if not isinstance(data, list):
        raise InputError("expected a JSON array of support points")
    points = [_support_point(entry, f"[{i}]") for i, entry in enumerate(data)]
    out = enumerate_with_support(points, bound=_budget(args, DEFAULT_SUPPORT_BOUND))
    _emit(args, _render(args, [m.to_json() for m in out]))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "table"), default="json")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=int, help="override the enumeration bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strata-kit",
        description="Exact combinatorics of segments, multisegments, and strata.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("lambda", help="highest derivative partition of a multisegment")
    p.add_argument("input", help="multisegment JSON or a path to it")
    _add_common(p)
    p.set_defaults(func=_cmd_lambda)

    p = subs.add_parser("dual", help="Zelevinsky-dual multisegment")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=_cmd_dual)

    p = subs.add_parser("poset", help="elementary-reduction poset below a multisegment")
    p.add_argument("input")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_poset)

    p = subs.add_parser("strata", help="inertial components of a stratum")
    p.add_argument("--block", required=True, help="block JSON or a path to it")
    p.add_argument("--lambda", dest="lam", required=True, help="partition JSON")
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_strata)

    p = subs.add_parser("ring", help="invariant-ring presentation of a component")
    p.add_argument("--class", dest="cls", required=True, help="class or multisegment JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_ring)

    p = subs.add_parser("ext", help="Ext dimensions [C(r,i)]")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int, help="number of segments")
    group.add_argument("--mseg", help="multisegment JSON or a path to it")
    _add_common(p)
    p.set_defaults(func=_cmd_ext)

    p = subs.add_parser("kgroup-check", help="check a Grothendieck-group identity")
    p.add_argument("identity", help="expression of the form 'lhs = rhs'")
    p.add_argument("--out", help="write the verdict to this path instead of stdout")
    p.set_defaults(func=_cmd_kgroup_check)

    p = subs.add_parser("enumerate", help="all multisegments with a given support")
    p.add_argument("--support", required=True, help="JSON array of support points")
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc} (raise it with --budget or {BUDGET_ENV_VAR})", file=sys.stderr)
        return 1
    except StrataKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
