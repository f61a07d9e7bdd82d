#!/usr/bin/env python3
"""Runs benchmark workloads N times and reports each metric's spread.

    python3 perfbench/spread.py --workload ostd-cma --runs 10 [--seconds S]
        [--save FILE] [--against FILE]

Run i (untraced) uses seed i, from 1.  For every metric the tool
prints the median, the quartiles as statistics.quantiles(values, n=4)
gives them, the range, and the spread (q3 - q1) / median next to the
bound BENCHMARK.json sets for it.  --save writes the raw values as JSON;
--against compares this set's medians with a saved set's, which is the
check that two sets of runs of the same code agree within the bounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit("run failed (exit %d): %s" % (done.returncode,
                                                       " ".join(cmd)))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("warning: %s seed %d reported correct=false" % (workload, seed),
              file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)

    collected = {}
    worst = 0.0
    for workload in args.workload:
        values = {}
        for seed in range(1, args.runs + 1):
            for name, value in run_once(workload, seed, seconds).items():
                values.setdefault(name, []).append(value)
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        collected[workload] = values
        print("\n%s: %d runs of %g s, seeds 1..%d" % (
            workload, args.runs, seconds, args.runs))
        print("%-34s %12s %12s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound",
            "verdict"))
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            m = e2e.get(name)
            verdict = ""
            bound = ""
            if m is not None:
                bound = "%.3f" % m["bound"]
                if spread <= m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "within bound, above a third"
                else:
                    verdict = "TOO NOISY"
                worst = max(worst, spread / m["bound"])
                old = saved.get(workload, {}).get(name)
                if old:
                    old_med = statistics.median(old)
                    change = (med - old_med) / old_med if old_med else 0.0
                    worse = change if m["better"] == "lower" else -change
                    verdict += "; vs saved median %+.3f%s" % (
                        change, " WORSE THAN BOUND" if worse > m["bound"]
                        else "")
            print("%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
                name, med, q1, q3, min(vals), max(vals), spread, bound,
                verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(collected, f, indent=1)
    print("\nlargest spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
