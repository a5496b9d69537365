#!/usr/bin/env python3
"""Checks benchmark/run.py's one-run output contract for every workload.

  python3 scripts/check_bench_output.py [--seconds 2]
      runs `benchmark/run.py --workload W --seconds S --trace 1` for every
      workload in BENCHMARK.json, plus `--trace 0` for steady, and checks
      the last stdout line of each
  python3 scripts/check_bench_output.py --self-test
      checks the checker against hand-made good and bad lines

A run's last stdout line must parse as strict JSON (NaN and Infinity are
rejected: json.dumps writes them as bare words no strict reader accepts),
report `correct` true, carry exactly the metric names BENCHMARK.json lists
under `per_layer` (traced) or `end_to_end` (untraced), and give every
metric a finite number. run.py only logs a per-layer row whose mechanism is
gone ("was not measured") and drops it from the line, so a deleted
mechanism fails here until a benchmark change drops its row too.
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reject_constant(word):
    raise ValueError(f"non-finite constant {word}")


def problems(line, expected_names):
    """What is wrong with one result line, as a list of messages."""
    try:
        doc = json.loads(line, parse_constant=_reject_constant)
    except ValueError as e:
        return [f"not strict JSON: {e}"]
    if not isinstance(doc, dict):
        return ["not a JSON object"]
    found = []
    if doc.get("correct") is not True:
        found.append(f"correct is {doc.get('correct')!r}, not true")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    missing = sorted(set(expected_names) - set(metrics))
    extra = sorted(set(metrics) - set(expected_names))
    if missing:
        found.append(f"missing metrics: {', '.join(missing)}")
    if extra:
        found.append(f"unexpected metrics: {', '.join(extra)}")
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            found.append(f"{name}: value {value!r} is not a finite number")
    return found


def check_run(workload, trace, seconds, spec):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    cmd = [sys.executable, os.path.join(ROOT, "benchmark", "run.py"),
           "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    found = [] if proc.returncode == 0 else [f"exit status {proc.returncode}"]
    found += problems(lines[-1], names) if lines else ["no stdout"]
    label = f"{workload} --trace {trace}"
    for p in found:
        print(f"FAIL: {label}: {p}", file=sys.stderr)
    if not found:
        print(f"    {label}: {len(names)} finite metrics ok")
    return not found


def self_test():
    names = ["a", "b"]
    good = '{"correct": true, "metrics": {"a": {"value": 1}, "b": {"value": 0.5}}}'
    bad = {
        "non-finite": '{"correct": true, "metrics": {"a": {"value": NaN}, '
                      '"b": {"value": 1}}}',
        "infinite": '{"correct": true, "metrics": {"a": {"value": Infinity}, '
                    '"b": {"value": 1}}}',
        "incorrect": '{"correct": false, "metrics": {"a": {"value": 1}, '
                     '"b": {"value": 1}}}',
        "row dropped": '{"correct": true, "metrics": {"a": {"value": 1}}}',
        "row added": '{"correct": true, "metrics": {"a": {"value": 1}, '
                     '"b": {"value": 1}, "c": {"value": 1}}}',
        "not a number": '{"correct": true, "metrics": {"a": {"value": "1"}, '
                        '"b": {"value": true}}}',
        "not a result": "build finished",
    }
    ok = problems(good, names) == []
    for what, line in bad.items():
        if not problems(line, names):
            print(f"FAIL: self-test accepted a line with {what}", file=sys.stderr)
            ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(0 if self_test() else 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs = [(w["name"], 1) for w in spec["workloads"]] + [("steady", 0)]
    results = [check_run(w, trace, args.seconds, spec) for w, trace in runs]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
