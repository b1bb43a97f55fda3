"""Idioms kept out of the package: ``sum(xs, ())`` concatenates tuples in
time quadratic in their count."""

import ast
from pathlib import Path

import strata_kit

PACKAGE = Path(strata_kit.__file__).resolve().parent


def concatenating_sums(tree) -> list[int]:
    """The line of every ``sum(..., ())`` or ``sum(..., start=())`` call."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "sum":
            start = node.args[1:2] + [k.value for k in node.keywords if k.arg == "start"]
            if any(isinstance(s, ast.Tuple) and not s.elts for s in start):
                lines.append(node.lineno)
    return lines


def test_no_sum_concatenates_tuples():
    found = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
             for line in concatenating_sums(ast.parse(path.read_text(encoding="utf-8")))]
    # (file, line) of every sum that starts from the empty tuple
    assert found == []


def test_the_check_finds_the_idiom():
    source = "sum(map(f, xs), ())\nsum(xs, start=())\nsum(xs)\nsum(xs, 0)\nsum(xs, (0,))\n"
    assert concatenating_sums(ast.parse(source)) == [1, 2]
