#!/usr/bin/env python3
"""Byte-for-byte comparison of the figure, ablation and extension benches.

    python3 tools/compare_outputs.py OLD_BUILD NEW_BUILD [--threads N]
    python3 tools/compare_outputs.py BUILD --threads 1 4

Runs every `bench_fig*`, `bench_ablation_*` and `bench_extension_*`
binary under `<build>/bench/` twice: once from each of two build trees,
or twice from one tree at two `--threads` values.  Each run gets its own
empty working directory, so the outputs a bench writes relative to its
working directory (bench_out/, deployment CSVs, grids) cannot mix.  Then
it compares, byte for byte, each run pair's stdout and every `.csv`,
`.pgm`, `.cpsgrid` and `_timeline.jsonl` file the two runs wrote.  The
one stdout line that may differ is the `threads: N` banner, which reports
the pool size and so differs by design when the pool size is what is
being compared.  Timeline samples carry sequence numbers and slot
indices, not times, and timer histograms never enter them (DESIGN.md
§12), so a timeline is deterministic.  The metrics JSON sidecars and
trace files are not compared: they hold wall-clock values.

Prints every file that differs or exists on one side only, and exits 1 on
any difference or failed run, 2 on a usage error, 0 when everything is
identical.  CPS_* environment variables are not passed to the benches, so
both sides run with the same settings.  Uses only the standard library.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

PREFIXES = ("bench_fig", "bench_ablation_", "bench_extension_")
COMPARED = (".csv", ".pgm", ".cpsgrid", "_timeline.jsonl")
THREADS_LINE = re.compile(rb"^threads: \d+\n", re.MULTILINE)
RUN_TIMEOUT_S = 600


def benches(build):
    bench_dir = os.path.join(build, "bench")
    if not os.path.isdir(bench_dir):
        print("error: no bench/ directory in " + build, file=sys.stderr)
        sys.exit(2)
    names = set()
    for name in os.listdir(bench_dir):
        path = os.path.join(bench_dir, name)
        if (name.startswith(PREFIXES) and os.path.isfile(path)
                and os.access(path, os.X_OK)):
            names.add(name)
    return names


def run(binary, workdir, threads):
    """Runs one bench in workdir; returns (ok, stdout, {relpath: bytes})."""
    os.makedirs(workdir)
    cmd = [os.path.abspath(binary)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("CPS_")}
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
        ok = done.returncode == 0
        out = done.stdout
        if not ok:
            sys.stderr.write(done.stderr.decode(errors="replace"))
    except subprocess.TimeoutExpired:
        ok, out = False, b""
    files = {}
    for root, _, names in os.walk(workdir):
        for name in names:
            if name.endswith(COMPARED):
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    files[os.path.relpath(path, workdir)] = f.read()
    return ok, THREADS_LINE.sub(b"", out), files


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("builds", nargs="+", metavar="BUILD",
                        help="one or two CMake build trees")
    parser.add_argument("--threads", nargs="+", type=int, default=[],
                        metavar="N", help="pool size for both sides, or "
                        "one per side")
    args = parser.parse_args()

    if len(args.builds) > 2 or len(args.threads) > 2:
        parser.error("at most two build trees and two --threads values")
    builds = args.builds * (3 - len(args.builds))
    threads = (args.threads * (3 - len(args.threads)) if args.threads
               else [None, None])
    if builds[0] == builds[1] and threads[0] == threads[1]:
        parser.error("one build tree needs two different --threads values")

    names = [benches(b) for b in builds]
    differences = []
    for name in sorted(names[0] ^ names[1]):
        differences.append("%s: built in one tree only" % name)

    workroot = tempfile.mkdtemp(prefix="compare_outputs_")
    try:
        for name in sorted(names[0] & names[1]):
            results = []
            for side in (0, 1):
                workdir = os.path.join(workroot, "side%d" % side, name)
                binary = os.path.join(builds[side], "bench", name)
                results.append(run(binary, workdir, threads[side]))
            (ok_a, out_a, files_a), (ok_b, out_b, files_b) = results
            found = []
            if not (ok_a and ok_b):
                found.append("run failed on side %s" % (
                    "both" if not (ok_a or ok_b) else "1" if not ok_a else "2"))
            if out_a != out_b:
                found.append("stdout")
            for path in sorted(set(files_a) | set(files_b)):
                if path not in files_a or path not in files_b:
                    found.append("%s (written on one side only)" % path)
                elif files_a[path] != files_b[path]:
                    found.append(path)
            print("%-36s %s (%d files)" % (
                name, "DIFFERS" if found else "identical", len(files_a)))
            differences += ["%s: %s" % (name, f) for f in found]
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    side = lambda i: "%s%s" % (builds[i], "" if threads[i] is None
                               else " --threads %d" % threads[i])
    if differences:
        print("\n%d difference(s) between %s and %s:" % (
            len(differences), side(0), side(1)))
        for d in differences:
            print("  " + d)
        return 1
    print("\nall outputs identical between %s and %s" % (side(0), side(1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
