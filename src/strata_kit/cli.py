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
import math
import os
import re
import sys

from .errors import (BudgetExceededError, InputError, ShapeError, StrataKitError, expect,
                     line_column, too_many_digits)
# parse_expression is re-exported: criterion 7 imports it from here.
from .expression import MAX_NESTING, parse_expression, parse_identity  # noqa: F401
from .kgroup import check_identity
from .multisegments import (
    DEFAULT_SUPPORT_BOUND,
    DEFAULT_NODE_BOUND,
    Multisegment,
    downset,
    enumerate_with_support,
    inertial_class,
    lambda_of,
    mw_dual,
)
from .partitions import Partition
from .segments import CuspidalLabel, CuspidalLine
from .strata import (
    DEFAULT_COMPONENT_BOUND,
    BlockSpec,
    components,
    ext_dimensions,
    ring_presentation,
)

BUDGET_ENV_VAR = "STRATAKIT_BUDGET"
# The most parts that ``lambda``, points that ``dual`` and variable names
# that ``strata`` and ``ring`` may print; it admits one segment of 100 001
# twists.
DEFAULT_OUTPUT_BOUND = 200_000

# A JSON string, or a bracket outside strings.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


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
        except OSError as exc:
            raise InputError(f"cannot read {arg}: {exc.strerror or exc}") from exc
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
    line, column = line_column(text, token.start())
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
        raise InputError(f"invalid JSON: {too_many_digits()}") from exc
    except RecursionError as exc:
        raise _too_deep(text) from exc


def _load_multisegment(arg: str) -> Multisegment:
    return Multisegment.from_json(_load_json(arg))


def _read_budget(args) -> None:
    """Set ``args.budget`` from STRATAKIT_BUDGET when ``--budget`` is absent;
    a negative value from either is a usage error, raised before any work."""
    name = "--budget"
    if args.budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is None:
            return
        try:
            args.budget = int(env)
        except ValueError as exc:
            raise InputError(f"{BUDGET_ENV_VAR} must be an integer") from exc
        name = BUDGET_ENV_VAR
    if args.budget < 0:
        raise InputError(f"{name} must be nonnegative, got {args.budget}")


def _budget(args, fallback: int) -> int:
    return fallback if args.budget is None else args.budget


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
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


def _check_output(bound: int, size: int, what: str) -> None:
    """Refuse, before any work, an output of ``size`` past the bound."""
    if size > bound:
        raise BudgetExceededError(f"output size bound {bound} exceeded: {what}")


def _cmd_lambda(args) -> None:
    m = _load_multisegment(args.input)
    parts = max((s.length for s in m.segments), default=0)
    _check_output(_budget(args, DEFAULT_OUTPUT_BOUND), parts,
                  f"the partition would have {parts} parts")
    _emit(args, _render(args, lambda_of(m).to_json()))


def _cmd_dual(args) -> None:
    m = _load_multisegment(args.input)
    points = sum(s.length for s in m.segments)
    _check_output(_budget(args, DEFAULT_OUTPUT_BOUND), points, f"the support has {points} points")
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
    if lam.weight == block.n and block.infinite_period:
        # A class with k_i segments of length l on line i, where
        # sum(dim_i * k_i) = c_l = lam_l - lam_(l+1), names k_i variables
        # in each of the k_i generators of that orbit.  By Cauchy-Schwarz,
        # sum(k_i ** 2) >= c_l ** 2 / sum(dim_i ** 2).
        parts = lam.parts + (0,)
        squares = sum((p - q) ** 2 for p, q in zip(parts, parts[1:]))
        names = -(-squares // sum(line.dim ** 2 for line in block.lines))
        # The budget bounds the class count first, far below this bound by
        # default, so here it can only raise the bound.
        _check_output(max(_budget(args, 0), DEFAULT_OUTPUT_BOUND), names,
                      f"each class would print at least {names} variable names")
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
    cls = inertial_class(m)
    names = sum(k * k for k in cls.orbit_sizes)  # k generators of k variables per orbit
    _check_output(_budget(args, DEFAULT_OUTPUT_BOUND), names,
                  f"the presentation would print at least {names} variable names")
    _emit(args, _render(args, ring_presentation(cls).to_json()))


def _cmd_ext(args) -> None:
    r = args.r if args.r is not None else len(_load_multisegment(args.mseg))
    # The row's largest entry, C(r, r // 2), must print within the digit limit;
    # 2**r / (r + 1) <= C(r, r // 2) < 2**r, so only r near log2(top) needs C.
    limit = sys.get_int_max_str_digits()
    top = 10 ** limit  # the least integer with more than ``limit`` digits
    if limit and r >= top.bit_length() and (
        r >= top.bit_length() + r.bit_length() or math.comb(r, r // 2) >= top
    ):
        raise ShapeError(f"C({r}, {r // 2}) cannot print: {too_many_digits()}")
    _emit(args, _render(args, ext_dimensions(r)))


def _cmd_kgroup_check(args) -> None:
    lhs, rhs = parse_identity(_read_input(args.identity))
    _emit(args, str(check_identity(lhs, rhs)))


def _support_point(entry, where: str) -> CuspidalLabel:
    """A line object with a ``twist`` field, or a ``[line, twist]`` pair."""
    if isinstance(entry, dict):
        line = CuspidalLine.from_json(entry, where)
        return line.point(expect(entry.get("twist"), int, f"{where}.twist"))
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
    sub.add_argument("--budget", type=int, help="override the size bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strata-kit",
        description="Exact combinatorics of segments, multisegments, and strata.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("lambda", help="highest derivative partition of a multisegment")
    p.add_argument("input", help="multisegment JSON or a path to it")
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_lambda)

    p = subs.add_parser("dual", help="Zelevinsky-dual multisegment")
    p.add_argument("input")
    _add_common(p)
    _add_budget(p)
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
    _add_budget(p)
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
        if hasattr(args, "budget"):
            _read_budget(args)
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
