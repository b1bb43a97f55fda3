"""Per-layer measurement: spans around library calls, and per-call cProfile.

Both wrap only the calls the benchmark's own files make into the library's
public functions; the library itself is not instrumented.  Spans give each
public function's busy time.  Counts and each module's self time come from
a separate run in which every public function has its own ``cProfile``
profiler, enabled only while that function runs, so a count such as the
multisegments built inside ``enumerate_with_support`` is attributed to the
call that built them.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import sk  # imports strata_kit from the checkout's src/
from strata_kit import kgroup  # noqa: E402

LAYER_MODULES = ("partitions", "segments", "multisegments", "kgroup", "strata", "cli")

# (name, unit, better) of every per-layer metric, in the order of BENCHMARK.json.
PER_LAYER = [
    ("segments.relate.calls", "count", "lower"),
    ("segments.base.calls", "count", "lower"),
    ("segments.constructed", "count", "lower"),
    ("segments.relate.busy_s", "s", "lower"),
    ("segments.self_s", "s", "lower"),
    ("dataclasses.self_s", "s", "lower"),
    ("multisegments.constructed", "count", "lower"),
    ("multisegments.enumerate.built", "count", "lower"),
    ("multisegments.enumerate.kept", "count", "higher"),
    ("multisegments.enumerate.kept_ratio", "ratio", "higher"),
    ("multisegments.enumerate_with_support.busy_s", "s", "lower"),
    ("multisegments.mw_dual.busy_s", "s", "lower"),
    ("multisegments.elementary_reductions.busy_s", "s", "lower"),
    ("multisegments.downset.busy_s", "s", "lower"),
    ("multisegments.lambda_of.busy_s", "s", "lower"),
    ("multisegments.self_s", "s", "lower"),
    ("partitions.dominance_leq.busy_s", "s", "lower"),
    ("partitions.self_s", "s", "lower"),
    ("strata.components.built", "count", "lower"),
    ("strata.components.kept", "count", "higher"),
    ("strata.components.kept_ratio", "ratio", "higher"),
    ("strata.components.busy_s", "s", "lower"),
    ("strata.roundtrip.busy_s", "s", "lower"),
    ("strata.self_s", "s", "lower"),
    ("kgroup.rewrite_attempts", "count", "lower"),
    ("kgroup.normalize.calls", "count", "lower"),
    ("kgroup.term_derivative.calls", "count", "lower"),
    ("kgroup.verdicts.verified", "count", "higher"),
    ("kgroup.verdicts.refuted", "count", "higher"),
    ("kgroup.verdicts.unverifiable", "count", "lower"),
    ("kgroup.check_identity.busy_s", "s", "lower"),
    ("kgroup.self_s", "s", "lower"),
    ("cli.parse_expression.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.interpreter_floor_ms", "ms", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    *[(f"cli.{verb}.p50_ms", "ms", "lower") for verb in
      ("lambda", "dual", "poset", "strata", "ring", "ext", "kgroup-check", "enumerate")],
    ("trace.overhead_frac", "ratio", "lower"),
]


class Spans:
    """Spans (name, start, end, parent, op id) kept in memory, written at the end.

    The parent of a library-call span is the index of its op's span; op
    spans have parent -1.
    """

    def __init__(self) -> None:
        self.records: list = []
        self.current = -1
        self.op_id = -1

    def begin_op(self, label: str) -> None:
        self.op_id += 1
        self.current = len(self.records)
        self.records.append([label, perf_counter(), None, -1, self.op_id])

    def end_op(self) -> None:
        self.records[self.current][2] = perf_counter()

    def wrap(self, name: str, fn):
        records = self.records

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                records.append((name, start, perf_counter(), self.current, self.op_id))

        return traced

    def busy(self, *names: str) -> float:
        return sum(r[2] - r[1] for r in self.records if r[0] in names)

    def durations(self, name: str) -> list:
        return [r[2] - r[1] for r in self.records if r[0] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.records}, fh)


class Profiles:
    """One cProfile profiler per public function, enabled only around its calls."""

    def __init__(self) -> None:
        self.by_name: dict = {}

    def wrap(self, name: str, fn):
        prof = self.by_name.setdefault(name, cProfile.Profile())

        def profiled(*args, **kwargs):
            prof.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                prof.disable()

        return profiled

    def stats(self, *names: str) -> dict:
        """Merged raw stats: (file, line, function) -> (cc, nc, tt, ct, callers)."""
        merged: dict = {}
        for name, prof in self.by_name.items():
            if names and name not in names:
                continue
            prof.create_stats()
            for key, (cc, nc, tt, ct, _) in prof.stats.items():
                old = merged.get(key, (0, 0, 0.0, 0.0, None))
                merged[key] = (old[0] + cc, old[1] + nc, old[2] + tt, old[3] + ct, None)
        return merged


def _key(fn) -> tuple | None:
    """cProfile's key for a Python function, or None if the library lacks it."""
    code = getattr(fn, "__code__", None)
    return cProfile.label(code) if code is not None else None


def _calls(stats: dict, fn) -> int:
    key = _key(fn)
    return stats[key][1] if key in stats else 0


def _constructor(cls):
    """The function run once per instance of a library dataclass."""
    return getattr(cls, "__post_init__", None) or cls.__init__


def module_self_seconds(stats: dict) -> Counter:
    """Self time per library module, plus dataclasses (module and generated code)."""
    package = Path(sk.__file__).resolve().parent
    out: Counter = Counter()
    for (filename, _, _), (_, _, tt, _, _) in stats.items():
        if filename == "<string>" or filename == dataclasses.__file__:
            out["dataclasses"] += tt
        elif filename.endswith(".py") and Path(filename).resolve().parent == package:
            out[Path(filename).stem] += tt
    return out


def _ratio(kept: float, built: float) -> float:
    return kept / built if built else 0.0


def layer_metrics(spans: Spans, profiles: Profiles | None, counts: Counter,
                  probes: dict, overhead: float) -> dict:
    """Every per-layer metric; layers a workload never calls read 0."""
    values: dict = {}
    if profiles is not None:
        stats = profiles.stats()
        built = profiles.stats("multisegments.enumerate_with_support")
        classes = profiles.stats("strata.components")
        self_s = module_self_seconds(stats)
        enum_built = _calls(built, _constructor(sk.Multisegment))
        comp_built = _calls(classes, getattr(sk, "inertial_class", None))
        values.update({
            "segments.relate.calls": _calls(stats, sk.relate),
            "segments.base.calls": _calls(stats, getattr(sk.CuspidalLabel, "base", None)),
            "segments.constructed": _calls(stats, _constructor(sk.Segment)),
            "multisegments.constructed": _calls(stats, _constructor(sk.Multisegment)),
            "multisegments.enumerate.built": enum_built,
            "strata.components.built": comp_built,
            "kgroup.rewrite_attempts": _calls(stats, getattr(kgroup, "_try_rewrite_pair", None)),
            "kgroup.normalize.calls": _calls(stats, getattr(kgroup, "normalize", None)),
            "kgroup.term_derivative.calls": _calls(stats, getattr(kgroup, "term_derivative", None)),
            "dataclasses.self_s": self_s["dataclasses"],
        })
        values.update({f"{mod}.self_s": self_s[mod] for mod in LAYER_MODULES})
        values["multisegments.enumerate.kept_ratio"] = _ratio(
            counts["multisegments.enumerate.kept"], enum_built)
        values["strata.components.kept_ratio"] = _ratio(
            counts["strata.components.kept"], comp_built)
    for name in ("multisegments.enumerate.kept", "strata.components.kept",
                 "kgroup.verdicts.verified", "kgroup.verdicts.refuted",
                 "kgroup.verdicts.unverifiable"):
        values[name] = counts[name]
    for name in ("segments.relate", "multisegments.enumerate_with_support",
                 "multisegments.mw_dual", "multisegments.elementary_reductions",
                 "multisegments.downset", "multisegments.lambda_of",
                 "partitions.dominance_leq", "strata.components",
                 "kgroup.check_identity", "cli.parse_expression"):
        values[f"{name}.busy_s"] = spans.busy(name)
    values["strata.roundtrip.busy_s"] = spans.busy(
        "strata.point_to_multisegment", "strata.multisegment_to_orbit")
    for name, unit, _ in PER_LAYER:
        if name.endswith(".p50_ms") and name.startswith("cli."):
            samples = spans.durations(name[: -len(".p50_ms")])
            values[name] = statistics.median(samples) * 1e3 if samples else 0.0
    values.update(probes)
    values["trace.overhead_frac"] = overhead
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}

