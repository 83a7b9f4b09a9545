#!/usr/bin/env python3
"""Diff a bench JSON result against its committed baseline.

Two formats:

  gbench   google-benchmark JSON (bench_simulator --smoke
           --benchmark_out=... --benchmark_out_format=json).
           Gate: any drift in the simulated counters (sim_ms, sim_events)
           fails — those are bit-reproducible and machine independent.
           Wall clock (real_time) is not compared: a baseline recorded on
           another machine is no wall-clock reference. tools/perf_ab.py
           --smoke-bench gates it against the base commit built on the
           same host.

  planner  deep-equality JSON (bench_planner --smoke --json=...,
           bench_recovery --smoke --json=..., telemetry dumps). Every value
           in the file is simulated, so any difference fails.

Failures come in two kinds with distinct exit codes, so CI can tell "the
file changed shape" (a key/benchmark/counter vanished or appeared, a type
or array length changed — usually a schema change that needs a baseline
refresh) from "a value drifted" (same shape, different number — usually a
simulation behaviour change):

  0  clean
  1  value mismatch only
  2  usage error or unreadable input
  3  structural mismatch (missing/extra key, type change, length change)

  tools/bench_compare.py BASELINE CURRENT --format=gbench
  tools/bench_compare.py BASELINE CURRENT --format=planner
  tools/bench_compare.py --self-test
"""

import argparse
import json
import sys

SIM_COUNTERS = ("sim_ms", "sim_events")

# Failure kinds. STRUCTURAL means the documents disagree about what exists
# (keys, benchmarks, counters, types, array lengths); VALUE means a shared
# leaf holds a different value.
STRUCTURAL = "structural"
VALUE = "value"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def index_gbench(doc):
    """name -> benchmark entry, skipping aggregate rows (mean/median/stddev)."""
    out = {}
    for entry in doc.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        out[entry["name"]] = entry
    return out


def compare_gbench(baseline, current, out=sys.stdout):
    base = index_gbench(baseline)
    cur = index_gbench(current)
    failures = []
    compared_counters = 0

    for name, base_entry in sorted(base.items()):
        cur_entry = cur.get(name)
        if cur_entry is None:
            failures.append(
                (STRUCTURAL,
                 f"{name}: benchmark in baseline, missing from current run")
            )
            continue

        # Bit-exactness gate: simulated counters must not move at all. Any
        # drift means simulated behaviour changed, not just machine speed.
        for counter in SIM_COUNTERS:
            if counter not in base_entry:
                continue
            if counter not in cur_entry:
                failures.append(
                    (STRUCTURAL, f"{name}: counter {counter} disappeared")
                )
                continue
            compared_counters += 1
            b, c = base_entry[counter], cur_entry[counter]
            if b != c:
                failures.append(
                    (VALUE,
                     f"{name}: {counter} drifted {b!r} -> {c!r} "
                     "(simulated values must be bit-identical)")
                )

    if compared_counters == 0:
        failures.append(
            (STRUCTURAL,
             "no sim_ms/sim_events counters compared - wrong filter or "
             "empty baseline?")
        )
    print(f"  ({compared_counters} simulated counters compared bit-exactly)",
          file=out)
    return failures


def diff_json(base, cur, path, failures):
    """Deep equality with a readable path to each difference."""
    if type(base) is not type(cur):
        failures.append(
            (STRUCTURAL,
             f"{path}: type changed {type(base).__name__} -> "
             f"{type(cur).__name__}")
        )
    elif isinstance(base, dict):
        for key in sorted(set(base) | set(cur)):
            if key not in base:
                failures.append(
                    (STRUCTURAL,
                     f"{path}.{key}: key not in baseline (new field - "
                     "baseline refresh needed?)")
                )
            elif key not in cur:
                failures.append(
                    (STRUCTURAL,
                     f"{path}.{key}: key missing from current (field "
                     "removed?)")
                )
            else:
                diff_json(base[key], cur[key], f"{path}.{key}", failures)
    elif isinstance(base, list):
        if len(base) != len(cur):
            failures.append(
                (STRUCTURAL, f"{path}: length {len(base)} -> {len(cur)}")
            )
        for i, (b, c) in enumerate(zip(base, cur)):
            diff_json(b, c, f"{path}[{i}]", failures)
    elif base != cur:
        failures.append((VALUE, f"{path}: value {base!r} -> {cur!r}"))


def compare_planner(baseline, current, out=sys.stdout):
    failures = []
    diff_json(baseline, current, "$", failures)
    if not failures:
        n = len(baseline.get("healthy", [])) + len(baseline.get("chunked", []))
        print(f"  results deep-equal to baseline ({n} search rows)", file=out)
    return failures


def exit_code(failures):
    if any(kind == STRUCTURAL for kind, _ in failures):
        return 3
    return 1 if failures else 0


def self_test():
    """pytest-style assertions over the comparison core; exits nonzero on
    the first broken invariant. CI runs this before trusting the gates."""

    def diff(base, cur):
        failures = []
        diff_json(base, cur, "$", failures)
        return failures

    # Identical documents: clean.
    doc = {"a": [1, 2.5, "x"], "b": {"c": None}}
    assert diff(doc, json.loads(json.dumps(doc))) == []
    assert exit_code([]) == 0

    # Pure value drift: kind VALUE, exit 1.
    failures = diff({"a": 1.0}, {"a": 2.0})
    assert failures == [(VALUE, "$.a: value 1.0 -> 2.0")], failures
    assert exit_code(failures) == 1

    # Missing key: STRUCTURAL, exit 3 — even mixed with value drift.
    failures = diff({"a": 1, "b": 2}, {"a": 5})
    kinds = {kind for kind, _ in failures}
    assert kinds == {STRUCTURAL, VALUE}, failures
    assert exit_code(failures) == 3
    assert any("missing from current" in msg for _, msg in failures), failures

    # New key in current: STRUCTURAL with the refresh hint.
    failures = diff({"a": 1}, {"a": 1, "z": 9})
    assert exit_code(failures) == 3
    assert any("not in baseline" in msg for _, msg in failures), failures

    # Type and length changes: STRUCTURAL.
    assert exit_code(diff({"a": 1}, {"a": "1"})) == 3
    assert exit_code(diff({"a": [1, 2]}, {"a": [1]})) == 3

    # int vs float is a type change in JSON terms, not a value drift.
    assert exit_code(diff({"a": 1}, {"a": 1.0})) == 3

    # Nested paths stay readable.
    failures = diff({"r": {"s": [{"t": 3}]}}, {"r": {"s": [{"t": 4}]}})
    assert failures == [(VALUE, "$.r.s[0].t: value 3 -> 4")], failures

    # gbench: missing benchmark and vanished counter are STRUCTURAL;
    # counter drift is VALUE.
    class Sink:
        def write(self, _):
            pass

    def gbench(names_to_counters):
        return {
            "benchmarks": [
                dict({"name": name, "real_time": 1.0}, **counters)
                for name, counters in names_to_counters.items()
            ]
        }

    base = gbench({"bm_a": {"sim_ms": 10, "sim_events": 4}})
    failures = compare_gbench(base, gbench({}), out=Sink())
    assert exit_code(failures) == 3, failures

    drifted = gbench({"bm_a": {"sim_ms": 11, "sim_events": 4}})
    failures = compare_gbench(base, drifted, out=Sink())
    assert failures and exit_code(failures) == 1, failures

    vanished = gbench({"bm_a": {"sim_events": 4}})
    failures = compare_gbench(base, vanished, out=Sink())
    assert exit_code(failures) == 3, failures

    # Wall clock is not gated: a 10x real_time slowdown passes.
    slow = gbench({"bm_a": {"sim_ms": 10, "sim_events": 4}})
    slow["benchmarks"][0]["real_time"] = 10.0
    assert compare_gbench(base, slow, out=Sink()) == []

    # Aggregate rows are skipped when indexing.
    base["benchmarks"].append(
        {"name": "bm_a_mean", "run_type": "aggregate", "sim_ms": 99}
    )
    assert sorted(index_gbench(base)) == ["bm_a"]

    print("bench_compare self-test: all assertions passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--format", choices=("gbench", "planner"))
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in assertions over the comparison core and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current or not args.format:
        parser.error("BASELINE, CURRENT and --format are required")

    baseline = load(args.baseline)
    current = load(args.current)

    print(f"comparing {args.current} against baseline {args.baseline} "
          f"[{args.format}]")
    if args.format == "gbench":
        failures = compare_gbench(baseline, current)
    else:
        failures = compare_planner(baseline, current)

    if failures:
        structural = [msg for kind, msg in failures if kind == STRUCTURAL]
        drift = [msg for kind, msg in failures if kind == VALUE]
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        if structural:
            print(f"  structure ({len(structural)}):", file=sys.stderr)
            for msg in structural:
                print(f"    {msg}", file=sys.stderr)
        if drift:
            print(f"  values ({len(drift)}):", file=sys.stderr)
            for msg in drift:
                print(f"    {msg}", file=sys.stderr)
        return exit_code(failures)
    print("bench comparison clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
