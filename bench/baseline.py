"""Run every workload on several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 0 1 --trace --out bench/baseline.json

Each run is a separate ``run.py`` process, one at a time.  The table gives,
per workload and metric, the median over seeds and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "record": json.loads(lines[-2])["record"]}


def summary(runs: list) -> dict:
    table: dict = {}
    for r in runs:
        for name, m in r["metrics"].items():
            key = (r["record"]["workload"], name)
            table.setdefault(key, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    out: dict = {}
    for (workload, name), entry in table.items():
        values = entry["values"]
        median = statistics.median(values)
        row = {"unit": entry["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row["spread"] = (q3 - q1) / median if median else 0.0
        out.setdefault(workload, {})[name] = row
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    parser.add_argument("--out", type=Path, help="write every run and the summary here")
    args = parser.parse_args()

    runs = [one_run(w["name"], seed, args.seconds, trace)
            for w in SPEC["workloads"] for trace in ((0, 1) if args.trace else (0,))
            for seed in args.seeds]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    table = summary(runs)
    for workload, rows in table.items():
        for name, row in rows.items():
            spread = row.get("spread")
            flag = ""
            if spread is not None and name in bounds and name != "setup_s":
                flag = " OVER BOUND" if spread > bounds[name] else (
                    " over a third of bound" if spread > bounds[name] / 3 else "")
            shown = f"{spread:8.4f}" if spread is not None else "       -"
            print(f"{workload:7s} {name:45s} {row['median']:>14.6g} {row['unit']:6s}"
                  f" spread {shown}{flag}")
    failed = sum(r["failed"] for r in runs)
    print(f"runs {len(runs)}, failed ops {failed}, all correct {all(r['correct'] for r in runs)}")
    if args.out:
        first = runs[0]["record"]
        args.out.write_text(json.dumps({
            "commit": first["commit"], "python": first["python"], "nproc": first["nproc"],
            "seconds": args.seconds, "seeds": args.seeds, "summary": table, "runs": runs,
        }, indent=1) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
