"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --workload nonexist --runs 10 --first-seed 100

Runs the benchmark once per seed (first-seed, first-seed+1, ...) with the
``run_seconds`` of BENCHMARK.json, then prints for each end-to-end metric the
median, the quartiles and the quartile distance as a share of the median,
beside the metric's bound and a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:<12} median {med:.6g} {metric['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / med:.4f}  bound {metric['bound']}  third {metric['bound'] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
