"""Golden files: verdicts and CLI bytes pinned as readable text.

``golden/kgroup_identities.jsonl`` holds seeded Grothendieck-group identities,
500 for each of the seeds 7, 0 and 3 of the benchmark's identity generator,
each with whether it is true and the exact verdict string ``check_identity``
gives.  ``golden/cli.jsonl`` holds CLI invocations with their exact stdout,
stderr and exit code: the criterion-11 corpus in json and table format, and
one input for each documented exit-1 and exit-2 message.
``golden/corpus.jsonl`` pins the corpus path: the MW dual, lambda, elementary
reductions and downset sizes of the one-line multisegments of small support.
A change that means to alter a verdict, a message or a row edits exactly
those lines.
"""

import itertools
import json
from pathlib import Path

import pytest

from strata_kit import (
    CuspidalLabel,
    downset,
    elementary_reductions,
    enumerate_with_support,
    lambda_of,
    mw_dual,
)
from strata_kit.cli import parse_expression, run
from strata_kit.kgroup import check_identity

GOLDEN = Path(__file__).parent / "golden"


def _records(name):
    with open(GOLDEN / name, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_kgroup_identity_verdicts():
    mismatched = []
    for i, rec in enumerate(_records("kgroup_identities.jsonl"), 1):
        lhs, rhs = rec["identity"].split(" = ")
        verdict = str(check_identity(parse_expression(lhs), parse_expression(rhs)))
        if verdict != rec["verdict"]:
            mismatched.append((i, rec["verdict"], verdict))
    # (line, golden verdict, verdict now) of the first few that differ
    assert not mismatched, (len(mismatched), mismatched[:5])


def test_kgroup_identity_verdicts_never_contradict_the_truth():
    records = _records("kgroup_identities.jsonl")
    assert len(records) == 1500
    for rec in records:
        assert not (rec["true"] and rec["verdict"] != "verified"), rec
        assert not (not rec["true"] and rec["verdict"] == "verified"), rec


CLI_RECORDS = _records("cli.jsonl")


@pytest.mark.parametrize(
    "rec", CLI_RECORDS, ids=[f"{i:02d}-{r['argv'][0]}" for i, r in enumerate(CLI_RECORDS)]
)
def test_cli_bytes(rec, capsys, monkeypatch, tmp_path):
    """``{tmp}`` stands for a directory that holds a file that is not UTF-8."""
    (tmp_path / "not_utf8.txt").write_bytes(b"\xff\xfe[")
    for name, value in rec.get("env", {}).items():
        monkeypatch.setenv(name, value)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in rec["argv"]]
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.replace(str(tmp_path), "{tmp}")) == (
        rec["code"], rec["stdout"], rec["stderr"]
    )


def test_corpus_rows():
    """``golden/corpus.jsonl`` holds every one-line multisegment whose support
    is d twists in [0, d - 1] containing 0, for d <= 6, in the order
    ``enumerate_with_support`` returns them per support: its dual, lambda and
    sorted elementary reductions, and for d <= 5 the size of its downset."""
    rows = []
    for d in range(1, 7):
        for extra in itertools.combinations_with_replacement(range(d), d - 1):
            support = [0, *extra]
            for m in enumerate_with_support([CuspidalLabel("r", twist=t) for t in support]):
                row = {"support": support, "m": str(m), "dual": str(mw_dual(m)),
                       "lambda": str(lambda_of(m)),
                       "reductions": sorted(map(str, elementary_reductions(m)))}
                if d <= 5:
                    poset = downset(m)
                    row["nodes"], row["edges"] = len(poset.nodes), len(poset.edges)
                rows.append(row)
    golden = _records("corpus.jsonl")
    assert len(rows) == len(golden) == 1289
    mismatched = [
        (i, want, got) for i, (want, got) in enumerate(zip(golden, rows), 1) if want != got
    ]
    # (line, golden row, row now) of the first few that differ
    assert not mismatched, (len(mismatched), mismatched[:3])
