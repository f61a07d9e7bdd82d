#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds perfbench/ (and with it the library sources under src/) into
.bench_build/perfbench, runs one workload, and passes the benchmark's
output through: its last stdout line is the JSON result.  --smoke runs
every workload at tiny sizes, traced and untraced, and asserts that each
metric BENCHMARK.json names is printed with its unit and that every
output check passes.  See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cps_perfbench")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("osd-plan", "ostd-cma", "query-service")


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fra.hpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD, "-j", jobs])


def step(cmd):
    # Build output goes to stderr: stdout's last line is the result.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def run(args, capture=False):
    cmd = [BINARY] + args
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    spec = load_spec()
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            label = "%s --trace %s" % (workload, trace)
            done = run(["--workload", workload, "--seed", "1", "--seconds",
                        "1", "--trace", trace, "--smoke"], capture=True)
            if done.returncode != 0:
                problems.append(label + ": exit code %d" % done.returncode)
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(label + ": output checks failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(label + ": metrics or units differ from "
                                "BENCHMARK.json")
            for name, unit in expected[trace].items():
                if ("%s " % name) not in done.stdout:
                    problems.append(label + ": %s not printed" % name)
            print("%-28s ok=%s attempted=%d" % (label, result["correct"],
                                                result["attempted"]))
    for p in problems:
        print("SMOKE FAILURE: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"],
                        help="timed window (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and assert "
                             "the output contract")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    if args.workload is None:
        fail("--workload is required")
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
