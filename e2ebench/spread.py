#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --seeds 1-10

Runs run.py once per (seed, workload) for every workload and the run
seconds in BENCHMARK.json, interleaving the workloads so that a slow phase
of the host falls on all of them, and prints each metric's median, quartiles
and spread (interquartile distance over the median) next to its bound. A
spread above a third of the bound is flagged.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {w["name"]: [] for w in spec["workloads"]}
    for seed in args.seeds:
        for workload, rows in runs.items():
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: {proc.stderr.strip()}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            rows.append(values)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    print(f"\n{'workload':20} {'metric':13} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, rows in runs.items():
        for name, bound in bounds.items():
            values = [row[name] for row in rows]
            if len(values) < 2:
                continue
            q1, median, q3 = metrics.quantiles_of(values)
            spread = metrics.spread(values)
            flag = "" if spread <= bound / 3 else "  > bound/3"
            print(f"{workload:20} {name:13} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {bound:6.2f}{flag}")


if __name__ == "__main__":
    main()
