"""Repeat the benchmark over consecutive seeds and summarise the spread.

    python3 perfbench/repeat.py --workload NAME [--runs 10]

Runs perfbench/run.py once per seed 1, 2, ..., one run at a time, with
run_seconds from BENCHMARK.json and tracing off, and prints one JSON
object: per metric the ten (or --runs) values, their median, first
and third quartiles (statistics.quantiles, n=4), and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
The per-item statistics of the detail line are summarised the same way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    values, correct = {}, []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed",
                                str(seed), "--seconds", str(seconds),
                                "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        detail, result = map(json.loads, proc.stdout.splitlines()[-2:])
        correct.append(result["correct"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in detail.get("items", {}).items():
            values.setdefault(name, []).append(v)
        print("seed %d done" % seed, file=sys.stderr)
    summary = {}
    for name, vals in values.items():
        row = {"values": vals, "median": statistics.median(vals)}
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            row.update(q1=q1, q3=q3)
            if row["median"]:
                row["spread"] = (q3 - q1) / row["median"]
        if name in bounds:
            row["bound"] = bounds[name]
        summary[name] = row
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "seeds": [1, args.runs],
                      "all_correct": all(correct), "metrics": summary},
                     indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
