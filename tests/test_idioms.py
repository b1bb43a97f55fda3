"""Idioms kept out of the package: ``sum(xs, ())`` and a ``+=`` loop on a
name bound to ``()`` concatenate tuples in time quadratic in their count, and
a cache from ``functools`` keeps values past the call that made them (tables
live for one call only)."""

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
            if any(is_empty_tuple(s) for s in start):
                lines.append(node.lineno)
    return lines


def is_empty_tuple(node) -> bool:
    return isinstance(node, ast.Tuple) and not node.elts


def growing_tuples(tree) -> list[int]:
    """The line of every ``x += ...`` on a name that the same function binds
    to ``()``, by ``x = ()`` or by ``x: T = ()``."""
    lines = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and is_empty_tuple(node.value):
                bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and is_empty_tuple(node.value) \
                    and isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        lines.update(node.lineno for node in ast.walk(func)
                     if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                     and isinstance(node.target, ast.Name) and node.target.id in bound)
    return sorted(lines)


CACHES = {"cache", "lru_cache", "cached_property"}


def caches(tree) -> list[int]:
    """The line of every mention of a ``functools`` cache, by its name or as
    an attribute, such as ``@lru_cache(8)``, ``@functools.cache`` or
    ``from functools import cached_property``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in CACHES \
                or isinstance(node, ast.Attribute) and node.attr in CACHES:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools" \
                and any(alias.name in CACHES for alias in node.names):
            lines.add(node.lineno)
    return sorted(lines)


def package_findings(check) -> list[tuple[str, int]]:
    """(file, line) of every finding of ``check`` in the package."""
    return [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            for line in check(ast.parse(path.read_text(encoding="utf-8")))]


def test_no_sum_concatenates_tuples():
    assert package_findings(concatenating_sums) == []


def test_no_tuple_grows_by_augmented_assignment():
    assert package_findings(growing_tuples) == []


def test_no_cache():
    assert package_findings(caches) == []


def test_the_check_finds_the_cache():
    source = (
        "import functools\n"
        "from functools import lru_cache, reduce\n"      # line 2
        "from functools import cached_property as cp\n"  # line 3
        "@functools.cache\n"                              # line 4
        "def f(x): return x\n"
        "@lru_cache(maxsize=8)\n"                         # line 6
        "def g(x): return x\n"
        "class C:\n"
        "    @functools.cached_property\n"                # line 9
        "    def h(self): return 1\n"
        "table = {}\n"
        "reduce(max, [1])\n"
        "def cache_key(x): return x\n"
    )
    assert caches(ast.parse(source)) == [2, 3, 4, 6, 9]


def test_the_check_finds_the_idiom():
    source = "sum(map(f, xs), ())\nsum(xs, start=())\nsum(xs)\nsum(xs, 0)\nsum(xs, (0,))\n"
    assert concatenating_sums(ast.parse(source)) == [1, 2]


def test_the_check_finds_the_growing_tuple():
    source = (
        "def plain(xs):\n"
        "    acc = ()\n"
        "    for x in xs:\n"
        "        acc += x\n"            # line 4
        "def annotated(xs):\n"
        "    acc: tuple = ()\n"
        "    for x in xs:\n"
        "        acc += (x,)\n"         # line 8
        "def as_list(xs):\n"
        "    acc: list = []\n"
        "    n = 0\n"
        "    for x in xs:\n"
        "        acc += x\n"
        "        n += 1\n"
        "def passed_in(acc):\n"
        "    acc += (1,)\n"
        "def rebound():\n"
        "    acc: tuple\n"
        "    acc = (1,)\n"
        "    acc += (2,)\n"
    )
    assert growing_tuples(ast.parse(source)) == [4, 8]
