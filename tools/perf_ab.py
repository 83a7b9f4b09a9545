#!/usr/bin/env python3
"""Paired A/B runs of the repo benchmark: a base commit against the working tree.

    tools/perf_ab.py --workload summation_4096 --seed 11 --seconds 50 --pairs 10
    tools/perf_ab.py --workload plan_search --seed 11 --seconds 50 --base HEAD~1
    tools/perf_ab.py --self-test

The base commit is exported with `git archive` into WORK_DIR/base — an export rather
than a `git worktree`, so nothing is registered in the repository's .git and
an interrupted run leaves no stale worktree behind; the working tree is run
in place. Without --base the base is HEAD when the working tree has
uncommitted changes and HEAD~1 when it has none (the change is committed).
A base whose tree equals the working tree is refused: that run would compare
the change against itself. Each side builds perfbench into its own CARGO_TARGET_DIR
(WORK_DIR/base_build, WORK_DIR/head_build), so neither build sees the
other's objects. Then N pairs of `perfbench/run.py` runs with identical
arguments are made, alternating which side runs first, so slow drift of the
host (thermal, neighbours) falls on both sides alike.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the change/base ratio of the medians, how many pairs the
change won (ties count for neither) and a verdict:

  gain        the change won >= 9/10 of the pairs and the medians differ, in
              the better direction, by more than the base's interquartile
              range
  regression  the change's median is worse than the base's by more than the
              metric's bound
  unresolved  a side's interquartile range is wider than the bound (relative
              to the base median), so "within bound" would not be shown;
              overridden when every change run beats every base run
  within      none of the above: no worse than the bound

Exit status: 0 when every run succeeded and no metric regressed, 1 on a
regression or a failed run, 2 on a usage or build error.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC_LINE = re.compile(r"^metric\s+(\S+)\s+(\S+)\s+(\S+)\s*$")
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def count_wins(base, change, direction):
    """Pairs the change won; ties count for neither side."""
    return sum(1 for b, c in zip(base, change) if better(c, b, direction))


def verdict(base, change, direction, bound):
    """Classifies one metric's paired samples (see the module docstring)."""
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = count_wins(base, change, direction)
    improvement = (c_med - b_med) if direction == "higher" else (b_med - c_med)
    if wins >= math.ceil(WIN_SHARE * len(base)) and improvement > b_q3 - b_q1:
        return "gain"
    scale = abs(b_med) if b_med != 0 else 1.0
    if -improvement / scale > bound:
        return "regression"
    all_better = all(better(c, b, direction) for c in change for b in base)
    spread = max(b_q3 - b_q1, c_q3 - c_q1) / scale
    if spread > bound and not all_better:
        return "unresolved"
    return "within"


def parse_run(stdout):
    """metric name -> value, plus the JSON summary's correct/failed fields."""
    metrics = {}
    host = ""
    for line in stdout.splitlines():
        if line.startswith("host "):
            host = line[len("host "):]
        match = METRIC_LINE.match(line)
        if match:
            try:
                metrics[match.group(1)] = float(match.group(2))
            except ValueError:
                pass  # "n/a (...)" rows
    lines = stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    return metrics, summary, host


def export_base(rev, dest):
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)


def differs_from(rev):
    """True when the working tree (tracked or untracked) differs from rev."""
    if git("diff", "--quiet", rev, "--").returncode != 0:
        return True
    return bool(git("ls-files", "--others", "--exclude-standard").stdout)


def run_side(checkout, build, args):
    """Metrics of one perfbench run, or None after printing its stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return parse_run(proc.stdout)


def report(end_to_end, samples, pairs):
    print("%-18s %-5s %-34s %-34s %-7s %-6s %s" % (
        "metric", "unit", "base median [q1, q3]", "change median [q1, q3]",
        "ratio", "wins", "verdict"))
    regressed = False
    for spec in end_to_end:
        name = spec["name"]
        base = [run[name] for run in samples["base"] if name in run]
        change = [run[name] for run in samples["head"] if name in run]
        if len(base) != pairs or len(change) != pairs:
            print("%-18s missing from some runs" % name)
            continue
        b = quartiles(base)
        c = quartiles(change)
        kind = verdict(base, change, spec["better"], spec["bound"])
        regressed = regressed or kind == "regression"
        print("%-18s %-5s %-34s %-34s %-7s %-6s %s" % (
            name, spec["unit"],
            "%.4g [%.4g, %.4g]" % (b[1], b[0], b[2]),
            "%.4g [%.4g, %.4g]" % (c[1], c[0], c[2]),
            "%.3f" % (c[1] / b[1]) if b[1] else "n/a",
            "%d/%d" % (count_wins(base, change, spec["better"]), pairs),
            kind))
    return regressed


def main_ab(args):
    work = os.path.abspath(args.work_dir)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    base_checkout = os.path.join(work, "base")
    sides = {
        "base": (base_checkout, os.path.join(work, "base_build")),
        "head": (ROOT, os.path.join(work, "head_build")),
    }
    if args.base is None:
        args.base = "HEAD" if differs_from("HEAD") else "HEAD~1"
    if not differs_from(args.base):
        print("perf_ab: the working tree equals %s; nothing to compare "
              "(pass --base)" % args.base, file=sys.stderr)
        return 2
    try:
        export_base(args.base, base_checkout)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perf_ab: cannot export %s: %s" % (args.base, error),
              file=sys.stderr)
        return 2
    samples = {"base": [], "head": []}
    hosts = {}
    failed = 0
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            result = run_side(*sides[side], args)
            if result is None:
                print("pair %d: %s run failed" % (i + 1, side),
                      file=sys.stderr)
                return 1 if samples["base"] else 2
            metrics, summary, host = result
            hosts.setdefault(side, host)
            failed += summary.get("failed", 0)
            if summary.get("correct") is not True:
                print("pair %d: %s run reported incorrect output" % (
                    i + 1, side), file=sys.stderr)
                failed += 1
            samples[side].append(metrics)
            print("pair %2d %-4s op_ms_p50 %s" % (
                i + 1, side, metrics.get("op_ms_p50", "n/a")),
                file=sys.stderr)
    print("workload %s seed %d seconds %d pairs %d base %s" % (
        args.workload, args.seed, args.seconds, args.pairs, args.base))
    for side in ("base", "head"):
        print("host %-4s %s" % (side, hosts.get(side, "")))
    regressed = report(end_to_end, samples, args.pairs)
    print("failed operations: %d" % failed)
    return 1 if regressed or failed else 0


def self_test():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    # Ties count for neither side; direction decides what "won" means.
    assert count_wins([1, 2, 3], [0, 2, 4], "lower") == 1
    assert count_wins([1, 2, 3], [0, 2, 4], "higher") == 1
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    # A clear latency gain: every pair won, medians 20 apart, base IQR ~0.4.
    faster = [b - 20.0 for b in base]
    assert verdict(base, faster, "lower", 0.25) == "gain"
    # 8/10 wins is not a gain even with a large median difference.
    mixed = faster[:8] + [200.0, 200.0]
    assert count_wins(base, mixed, "lower") == 8
    assert verdict(base, mixed, "lower", 0.25) != "gain"
    # Small consistent win, but no larger than the base's own spread.
    nudged = [b - 0.1 for b in base]
    assert count_wins(base, nudged, "lower") == 10
    assert verdict(base, nudged, "lower", 0.25) == "within"
    # Worse beyond the bound in the metric's own direction.
    assert verdict(base, [b * 1.3 for b in base], "lower", 0.25) == \
        "regression"
    assert verdict(base, [b * 0.7 for b in base], "higher", 0.25) == \
        "regression"
    assert verdict(base, [b * 1.3 for b in base], "higher", 0.25) == "gain"
    # Spread wider than the bound: unresolved, not "within".
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 90.0,
             110.0]
    assert verdict(noisy, list(noisy), "lower", 0.25) == "unresolved"
    # ...unless every change run beats every base run.
    skewed = [50.0, 51.0, 52.0, 53.0, 54.0, 100.0, 150.0, 160.0, 170.0,
              180.0]
    assert verdict(skewed, list(skewed), "lower", 0.25) == "unresolved"
    assert verdict(skewed, [49.0] * 10, "lower", 0.25) == "within"
    # perfbench output parsing: metric rows, "n/a" rows, host, JSON summary.
    metrics, summary, host = parse_run(
        "perfbench workload=x\nhost nproc=\"4\"\n"
        "metric op_ms_p50                    181.9 ms\n"
        "metric op_ms_p90                    n/a (needs >= 100 operations)\n"
        "layer  sim.events                   4.67e+06 count\n"
        '{"correct": true, "failed": 0}\n')
    assert metrics == {"op_ms_p50": 181.9}, metrics
    assert summary == {"correct": True, "failed": 0}
    assert host == 'nproc="4"'
    print("perf_ab self-test: all assertions passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base",
                        help="commit to compare the working tree against "
                        "(default HEAD, or HEAD~1 on a clean tree)")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".perf_ab"),
                        help="base export and both build directories")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds) or args.pairs < 1:
        parser.error("--workload, --seed and --seconds are required")
    return main_ab(args)


if __name__ == "__main__":
    sys.exit(main())
