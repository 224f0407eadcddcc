"""Run a workload once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Each run is a separate `run.py` process, one at a time. For every metric it
prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the quartile distance as
a share of the median; and the share of failed operations over all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    correct = True
    for seed in args.seeds:
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
        values_text = " ".join(
            f"{name}={entry['value']:.4f}" for name, entry in result["metrics"].items())
        print(f"seed {seed} ({time.monotonic() - started:.1f} s): {values_text}", flush=True)
    print(f"{args.workload}: runs={len(args.seeds)} correct={correct} "
          f"failed={failed}/{attempted}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name}\tmedian={median:.4f} {units[name]}\tq1={q1:.4f}\tq3={q3:.4f}"
              f"\tspread={spread:.4f}\tmin={min(vals):.4f}\tmax={max(vals):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
