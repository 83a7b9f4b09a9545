#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload summation_4096 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck          # determinism + holdout-seed check
    python3 perfbench/run.py --record-reference   # rewrite perfbench/reference.txt

The first call configures and compiles the simulator sources under src/ and
the perfbench binary into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls rebuild incrementally. Build output goes
to standard error, so the last line of standard output is the binary's JSON
result. Without the simulator sources the build fails and nothing is printed
on standard output.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("summation_4096", "plan_search", "critpath_1024")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.txt")
# Seeds used while the benchmark was written are 1-10; this one was not.
HOLDOUT_SEED = 20261017
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench"], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def source_id():
    """Git commit when the checkout has one, plus a digest of the sources."""
    commit = "none"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    commit = f.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src:%s" % (commit[:12], digest.hexdigest()[:12])


def run(binary, workload, seed, seconds, trace, echo=True):
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", REFERENCE, "--out-dir", results,
           "--commit", source_id()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout


def selfcheck(binary, seconds):
    """Same seed twice -> identical digests; holdout seed -> every check passes."""
    ok = True
    for workload in WORKLOADS:
        digests = []
        for _ in range(2):
            code, out = run(binary, workload, 1, seconds, 0, echo=False)
            line = [l for l in out.splitlines() if l.startswith("digest ")]
            digests.append(line[0].split()[1] if code == 0 and line else None)
        same = digests[0] is not None and digests[0] == digests[1]
        code, out = run(binary, workload, HOLDOUT_SEED, seconds, 0,
                        echo=False)
        result = json.loads(out.splitlines()[-1]) if code == 0 else {}
        holdout = result.get("correct") is True and result.get("failed") == 0
        print("%-15s digests %s %s  holdout seed %d: %s" % (
            workload, digests[0], "==" if same else "!=", HOLDOUT_SEED,
            "all checks passed" if holdout else "FAILED"))
        ok = ok and same and holdout
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (args.selfcheck or args.record_reference) and None in (
            args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    try:
        if args.record_reference:
            return subprocess.run([binary, "--record-reference",
                                   REFERENCE]).returncode
        if args.selfcheck:
            return 0 if selfcheck(binary, args.seconds or 5) else 1
        code, _ = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
        return code
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
