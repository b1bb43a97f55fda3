"""The README's ``>>>`` example runs as written, and every call its module
table names exists, so neither can go stale."""

import doctest
import importlib
import re
from pathlib import Path

import strata_kit

README = Path(__file__).resolve().parent.parent / "README.md"
# A row of the module table: the module and the rest of the row.
MODULE_ROW = re.compile(r"^\| `(strata_kit\.\w+)` \|(.*)\|$", re.M)
# A name called in a backticked span; `D^g(` is grammar, not a name.
CALLED_NAME = re.compile(r"(?<![\w.^])([A-Za-z_][\w.]*)\(")


def test_readme_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = [b for b in re.findall(r"```python\n(.*?)```", text, re.S) if b.startswith(">>>")]
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert (runner.failures, runner.tries) == (0, len(test.examples))
    assert runner.tries > 0


def resolves(dotted: str, module) -> bool:
    """Whether a dotted name is an attribute of the module, of the package,
    or of one of the classes the module defines."""
    owners = [module, strata_kit] + [
        value for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    for owner in owners:
        for part in dotted.split("."):
            if not hasattr(owner, part):
                break
            owner = getattr(owner, part)
        else:
            return True
    return False


def test_module_table_names_resolve():
    rows = MODULE_ROW.findall(README.read_text(encoding="utf-8"))
    assert [name for name, _ in rows] == [
        "strata_kit.partitions", "strata_kit.segments", "strata_kit.multisegments",
        "strata_kit.kgroup", "strata_kit.strata", "strata_kit.expression", "strata_kit.cli",
    ]
    called = [
        (name, dotted)
        for name, cells in rows
        for span in re.findall(r"`([^`]*)`", cells)
        for dotted in CALLED_NAME.findall(span)
    ]
    assert len(called) > 20
    missing = [(name, dotted) for name, dotted in called
               if not resolves(dotted, importlib.import_module(name))]
    assert missing == []
