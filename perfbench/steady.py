"""Steadiness check: repeated runs of each workload, with spreads.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Run from the root of a checkout.  Runs the benchmark command of
BENCHMARK.json ``--runs`` times on every workload, untraced, for the
file's ``run_seconds``, one process at a time, alternating between the
workloads, with seeds ``--first-seed``, ``--first-seed + 1``, ...
For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  It also prints the share of
failed operations per run, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for index in range(args.runs):
        seed = args.first_seed + index
        for workload in workloads:
            command = [*spec["command"], "--workload", workload,
                       "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} wall_s="
                  f"{result['metrics']['wall_s']['value']:.3f}", flush=True)

    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, failed share per run "
              f"{shares}, all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else 0.0
            print(f"  {metric:28s} {mid:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[metric]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
