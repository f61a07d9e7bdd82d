#!/usr/bin/env python3
"""Mutation check: every listed mutant must fail the test named for it.

    python3 tools/run_mutants.py           # every mutant in tests/mutants/
    python3 tools/run_mutants.py --only ID [ID ...]

Copies the sources into a temporary directory and configures one build
there.  It first builds and runs every named test unmutated (each must
pass, or a failing mutant would prove nothing).  Then, for each mutant, it
replaces `pattern` (which must occur exactly once in `file`) by
`replacement`, builds only the named test, runs it, and restores the file.
A mutant whose test still passes has survived: the branch it changes is
one that no test can see.  Exits 1 if any mutant survives or fails to
build, 2 on a setup error.  Uses only the standard library.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "tests", "mutants", "mutants.json")
FIELDS = ("id", "file", "pattern", "replacement", "test")
TEST_TIMEOUT_S = 600
SKIP = ("build", "build-*", ".git", ".bench_build", ".perfbench_out",
        "bench_out", "perf_selftest")


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def load(path):
    with open(path, encoding="utf-8") as f:
        mutants = json.load(f)
    ids = set()
    for m in mutants:
        missing = [k for k in FIELDS if k not in m]
        if missing:
            fail("mutant %s lacks %s" % (m.get("id", "?"), ", ".join(missing)))
        if m["id"] in ids:
            fail("duplicate mutant id " + m["id"])
        ids.add(m["id"])
    return mutants


def quiet(cmd, timeout=None):
    """Runs cmd, returning (returncode, combined output); None on timeout."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %s s" % timeout
    return done.returncode, done.stdout


def configure(src, build):
    cmd = ["cmake", "-S", src, "-B", build, "-DCMAKE_BUILD_TYPE=Release",
           "-DCPS_OBS=ON"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    code, out = quiet(cmd)
    if code != 0:
        print(out, file=sys.stderr)
        fail("configure failed")


def build_test(build, test, jobs):
    return quiet(["cmake", "--build", build, "-j", str(jobs), "--target",
                  test])


def run_test(build, test):
    # A mutant that hangs its test is killed too: the timeout is a failure.
    return quiet(["ctest", "--test-dir", build, "-R", "^%s$" % test,
                  "--no-tests=error"], timeout=TEST_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", metavar="ID",
                    help="run only these mutant ids")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                    help="parallel build jobs")
    args = ap.parse_args()

    mutants = load(MUTANTS)
    if args.only:
        unknown = set(args.only) - {m["id"] for m in mutants}
        if unknown:
            fail("unknown mutant id(s): " + ", ".join(sorted(unknown)))
        mutants = [m for m in mutants if m["id"] in args.only]

    work = tempfile.mkdtemp(prefix="cps_mutants_")
    src = os.path.join(work, "src")
    build = os.path.join(work, "build")
    try:
        shutil.copytree(ROOT, src, symlinks=True,
                        ignore=shutil.ignore_patterns(*SKIP))
        configure(src, build)

        for test in sorted({m["test"] for m in mutants}):
            code, out = build_test(build, test, args.jobs)
            if code == 0:
                code, out = run_test(build, test)
            if code != 0:
                print(out, file=sys.stderr)
                fail("%s does not pass unmutated" % test)
            print("baseline  %-40s passes" % test, flush=True)

        bad = []
        for m in mutants:
            path = os.path.join(src, m["file"])
            with open(path, encoding="utf-8") as f:
                original = f.read()
            count = original.count(m["pattern"])
            if count != 1:
                print("ERROR     %-40s pattern occurs %d times in %s"
                      % (m["id"], count, m["file"]), flush=True)
                bad.append(m["id"])
                continue
            with open(path, "w", encoding="utf-8") as f:
                f.write(original.replace(m["pattern"], m["replacement"]))
            try:
                code, out = build_test(build, m["test"], args.jobs)
                if code != 0:
                    verdict = "ERROR     %-40s does not build" % m["id"]
                    bad.append(m["id"])
                else:
                    code, out = run_test(build, m["test"])
                    if code == 0:
                        verdict = "SURVIVED  %-40s %s passes" % (m["id"],
                                                               m["test"])
                        bad.append(m["id"])
                    else:
                        verdict = "killed    %-40s by %s" % (m["id"],
                                                             m["test"])
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(original)
            print(verdict, flush=True)

        print("%d mutant(s), %d killed" % (len(mutants),
                                           len(mutants) - len(bad)))
        return 1 if bad else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
