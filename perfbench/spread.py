"""Run workloads over several seeds, one fresh process at a time, and report
each end-to-end metric's median and run-to-run spread.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --seconds 20

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median, the figure a metric's bound in BENCHMARK.json must exceed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("diff-transition", "lp-pivot", "dpll-hard", "solve-large")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=False,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, wall = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {
                "unit": first["unit"],
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else None,
                "min": min(values),
                "max": max(values),
                "values": values,
            }
        summary[workload] = {
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "failed_shares": sorted({r["failed"] / r["attempted"] for r in runs}),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            s = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:16} {name:24} {m['median']:14.6g} {m['unit']:6} spread {s}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
