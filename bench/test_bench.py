"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads  # first: it puts the checkout's src/ on sys.path
import layers
import oracles
import run
from workloads import sk

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_catalogue_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_emits_every_metric_with_its_unit(name):
    for trace, spec in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result, record = run.run(name, seed=5, seconds=0.3, trace=trace, tiny=True)
        assert result["correct"] and result["failed"] == 0, record["first_failures"]
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_lambda_is_counted_as_a_failure():
    api = workloads.make_api()
    real = api.lambda_of
    api.lambda_of = lambda m: sk.add(real(m), sk.Partition.of(1))
    result, record = run.run("corpus", seed=1, seconds=0.3, trace=False, tiny=True, api=api)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert record["fail_frac"] == 1.0


def test_false_identity_reported_verified_is_counted_as_a_failure():
    api = workloads.make_api()
    api.check_identity = lambda lhs, rhs: sk.Verdict("verified")
    result, record = run.run("kgroup", seed=1, seconds=0.3, trace=False, tiny=True, api=api)
    assert 0 < result["failed"] < result["attempted"]
    assert 0 < record["fail_frac"] < 1


@pytest.mark.parametrize("name", ["corpus", "strata", "kgroup"])
def test_two_traced_runs_give_identical_counts(name):
    first, _ = run.run(name, seed=2, seconds=0.3, trace=True, tiny=True)
    second, _ = run.run(name, seed=2, seconds=0.3, trace=True, tiny=True)
    counts = [n for n, unit, _ in layers.PER_LAYER if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts}
    assert any(first["metrics"][n]["value"] for n in counts)


def test_oracle_counts_match_the_acceptance_corpus():
    supports = oracles.anchored_supports(8)
    assert len(supports) == 4707
    assert sum(oracles.count_with_support(s) for s in supports) == 30399
    classes = oracles.inertial_classes((("r", 1), ("s", 2)), 12)
    assert len(classes) == 77 and sum(map(len, classes.values())) == 246


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(10000)))[0] == 99.9
    assert run.tail(list(range(50)))[0] == 90.0


def test_fails_without_a_library_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
