"""strata-kit benchmark: one closed-loop workload per run, stdlib only.

    python3 bench/run.py --workload corpus --seed 1 --seconds 12 --trace 0

With ``--trace 0`` it runs the workload's ops until their own time reaches
``--seconds`` reference seconds (see REFERENCE_S) and reports the
end-to-end metrics; with ``--trace 1`` it replays the workload's fixed trace
set three times (plain, spans, per-call cProfile) and reports the per-layer
metrics.  Every output is checked by the oracles in ``oracles.py``, outside
the timed intervals.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
JSON record of the run (Python, nproc, seed, commit, sample count, the
percentile behind ``op_tail_ms``, ``fail_frac`` and the wall-time figures).
Without a strata_kit under the checkout's ``src/`` it exits 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import oracles

try:
    import workloads
    from workloads import OUT_DIR, SRC, WORKLOADS, cli_argv, make_api, run_child
except ImportError as exc:  # no strata_kit under src/: main() reports it and exits 2
    workloads, LOAD_ERROR = None, exc

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = [
    ("ops_per_s", "op/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MiB"),
]
IMPORT_PROBES = 9
CLI_PROBES = 7
# Stop a timed loop after this much wall time even if op time is short of
# --seconds, so that a run always ends within its limit.
WALL_CAP_S = 120.0
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import strata_kit; "
    "print(time.perf_counter() - t, strata_kit.__file__)"
)
# CPU speed on a shared host swings by a fifth from one second to the next,
# so end-to-end times are given in reference seconds: each wall time is
# multiplied by REFERENCE_S / the wall time of a fixed computation that the
# benchmark owns (the reduction poset of REFERENCE, in oracles.py), timed
# just before the op.  What runs in a child process is scaled instead by
# CHILD_REFERENCE_S / the wall time of `python -c pass`, which tracks the
# speed of process start-up far better.  No change to the library can move
# either reference.
REFERENCE = tuple(sorted(("r", 1, a, a + 2) for a in (0, 0, 1, 2, 3)))
REFERENCE_S = 0.001
CHILD_REFERENCE_S = 0.05
RESCALE_EVERY_S = 0.05


def reference_scale() -> float:
    """REFERENCE_S over the reference computation's wall time, gc off."""
    gc.disable()
    try:
        start = perf_counter()
        oracles.closure(REFERENCE)
        took = perf_counter() - start
    finally:
        gc.enable()
    return REFERENCE_S / took


def child_scale() -> float:
    """CHILD_REFERENCE_S over the wall time of a child that does nothing."""
    return CHILD_REFERENCE_S / run_child([sys.executable, "-c", "pass"]).seconds


class RefClock:
    """Converts op wall times to reference seconds, re-timing the reference
    (``measure``) before an op once RESCALE_EVERY_S of op time has passed."""

    def __init__(self, measure) -> None:
        self.measure = measure
        self.scale = 1.0
        self.since = math.inf

    def rescale(self) -> None:
        if self.since >= RESCALE_EVERY_S:
            self.scale = self.measure()
            self.since = 0.0

    def convert(self, wall: float) -> float:
        self.since += wall
        return wall * self.scale


def probe_seconds(argv: list, probes: int) -> list:
    """Wall seconds of ``probes`` runs of a child, after one discarded run."""
    times = []
    for _ in range(probes + 1):
        res = run_child(argv)
        if res.code != 0:
            raise RuntimeError(f"{argv[1:]} exited {res.code}: {res.stderr.decode()[-500:]}")
        times.append(res.seconds)
    return times[1:]


def import_seconds(probes: int) -> tuple[float, float]:
    """Median time to import strata_kit in a fresh interpreter, in reference
    and in wall seconds.  A first, discarded import writes __pycache__, as an
    install would."""
    ref, wall = [], []
    for _ in range(probes + 1):
        scale = child_scale()
        res = run_child([sys.executable, "-c", IMPORT_CODE])
        if res.code != 0:
            raise RuntimeError(f"import probe failed: {res.stderr.decode()[-500:]}")
        seconds, where = res.stdout.decode().split(maxsplit=1)
        if Path(where.strip()).resolve().parent != SRC / "strata_kit":
            raise RuntimeError(f"import probe loaded {where.strip()}, not {SRC}")
        ref.append(float(seconds) * scale)
        wall.append(float(seconds))
    return statistics.median(ref[1:]), statistics.median(wall[1:])


def tail(latencies: list) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest of p99.9/p99/p90
    that leaves at least ten samples beyond it, else p90."""
    ordered = sorted(latencies)
    n = len(ordered)
    for permille in (999, 990, 900):
        rank = -(-permille * n // 1000)  # nearest rank, in exact integer arithmetic
        if n - rank >= 10 or permille == 900:
            return permille / 10, ordered[max(rank, 1) - 1], n - rank


def attempt(wl, api, inp, failures: list, check: bool = True):
    """Run one op, then its oracle unless ``check`` is false; returns
    (op wall seconds, output or None)."""
    start = perf_counter()
    try:
        out = wl.op(api, inp)
    except Exception:
        seconds = perf_counter() - start
        failures.append(f"op raised: {traceback.format_exc(limit=3)}")
        return seconds, None
    seconds = perf_counter() - start
    if not check:
        return seconds, out
    detail = str(inp)[:300]
    try:
        ok = wl.check(inp, out)
    except Exception:
        ok = False
        detail += "\noracle raised: " + traceback.format_exc(limit=3)
    if not ok:
        failures.append(f"wrong answer on {wl.label(inp)}: {detail}")
        return seconds, None
    return seconds, out


def timed_loop(wl, api, seconds: float) -> tuple[list, list, list]:
    """Closed loop until the ops' own time reaches ``seconds`` reference
    seconds; returns per-op reference and wall seconds, and the failures."""
    ref, wall, failures = [], [], []
    clock = RefClock(reference_scale if wl.in_process else child_scale)
    busy, wall_start = 0.0, perf_counter()
    for inp in wl.inputs():
        clock.rescale()
        took, _ = attempt(wl, api, inp, failures)
        ref.append(clock.convert(took))
        wall.append(took)
        busy += ref[-1]
        if busy >= seconds or perf_counter() - wall_start > WALL_CAP_S:
            break
    return ref, wall, failures


def peak_rss_mib(wl) -> float:
    if wl.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return wl.peak_rss_kib / 1024


def latency_metrics(latencies: list) -> dict:
    q, value, beyond = tail(latencies)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": value * 1e3,
            "op_tail_percentile": q, "op_tail_samples_beyond": beyond}


def end_to_end(wl, api, seconds: float, tiny: bool) -> tuple[dict, dict, int, list]:
    setup, setup_wall = import_seconds(2 if tiny else IMPORT_PROBES)
    if not wl.in_process:
        wl.warm()
    ref, wall, failures = timed_loop(wl, api, seconds)
    values = latency_metrics(ref)
    values.update(setup_s=setup, peak_rss_mb=peak_rss_mib(wl))
    wall_values = latency_metrics(wall)
    record = {
        "samples": len(ref),
        "op_tail_percentile": values["op_tail_percentile"],
        "op_tail_samples_beyond": values["op_tail_samples_beyond"],
        "fail_frac": len(failures) / len(ref),
        "wall": {**{k: wall_values[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
                 "setup_s": setup_wall, "op_seconds": sum(wall)},
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, record, len(ref), failures


def replay(wl, api, inputs: list, spans=None, failures=None, counts=None) -> float:
    """Seconds spent in the ops of ``inputs``, run once each; checks outputs
    when ``failures`` is given and tallies them when ``counts`` is given."""
    wall = 0.0
    for inp in inputs:
        if spans is not None:
            spans.begin_op(wl.label(inp))
        took, out = attempt(wl, api, inp, [] if failures is None else failures,
                            check=failures is not None)
        wall += took
        if spans is not None:
            spans.end_op()
        if counts is not None and out is not None:
            wl.tally(inp, out, counts)
    return wall


def per_layer(wl, tiny: bool) -> tuple[dict, dict, int, list]:
    import layers

    inputs = wl.trace_inputs()
    if not wl.in_process:
        wl.warm()
    failures, counts = [], Counter()
    plain = replay(wl, make_api(), inputs, failures=failures, counts=counts)
    spans = layers.Spans()
    traced = replay(wl, make_api(spans.wrap), inputs, spans=spans)
    profiles = None
    if wl.in_process:
        profiles = layers.Profiles()
        traced = replay(wl, make_api(profiles.wrap), inputs)
    probes = 1 if tiny else CLI_PROBES
    probe_values = {
        "cli.interpreter_floor_ms": statistics.median(
            probe_seconds([sys.executable, "-c", "pass"], probes)) * 1e3,
        "cli.startup_ms": statistics.median(probe_seconds(cli_argv("--help"), probes)) * 1e3,
    }
    metrics = layers.layer_metrics(spans, profiles, counts, probe_values, traced / plain - 1)
    spans.write(OUT_DIR / f"spans-{wl.name}.json")
    record = {"samples": len(inputs), "plain_s": plain, "traced_s": traced,
              "spans": len(spans.records),
              "fail_frac": len(failures) / len(inputs)}
    return metrics, record, len(inputs), failures


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        api=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, record)."""
    wl = WORKLOADS[workload](seed, tiny)
    if trace:
        metrics, record, attempted, failures = per_layer(wl, tiny)
    else:
        metrics, record, attempted, failures = end_to_end(wl, api or make_api(), seconds, tiny)
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "first_failures": failures[:3],
    })
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "strata", "kgroup", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if workloads is None:
        print(f"error: cannot load strata_kit from the checkout's src/: {LOAD_ERROR}",
              file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:7s} {name:45s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:7s} {'fail_frac':45s} {record['fail_frac']:>14.6g} ratio")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
