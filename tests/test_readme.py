"""The README's ``>>>`` example runs as written, so it cannot go stale."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = [b for b in re.findall(r"```python\n(.*?)```", text, re.S) if b.startswith(">>>")]
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert (runner.failures, runner.tries) == (0, len(test.examples))
    assert runner.tries > 0
