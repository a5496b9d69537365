#!/usr/bin/env python3
"""Compares two full-set reports of benchmark/run.py (written with --out).

  python3 benchmark/compare.py BEFORE.json AFTER.json

For every workload and end-to-end metric it prints both medians and
quartiles, the bound from BENCHMARK.json and a verdict:

  better      the after side wins at least 9 of 10 paired reps (ties count
              for neither) and the medians differ by more than the before
              side's quartile spread
  worse       the after median is worse than the before median by more than
              the bound
  within      neither of the above
  unresolved  either side's quartile spread exceeds the bound, so a move of
              that size cannot be told from noise (unless every after rep
              reads better than every before rep)

Reps pair by index: run.py runs them round-robin, so rep i of both sets
saw comparable host conditions. fail_ratio is worse on any increase. Last,
the three per-layer metrics that moved most on each workload.
"""
import json
import statistics
import sys

from run import load_spec, quartiles


def verdict(before, after, bound, lower_is_better):
    """One of better / worse / within / unresolved (see the module doc)."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(before), statistics.median(after)
    q1_a, q3_a = quartiles(before)
    q1_b, q3_b = quartiles(after)
    pairs = list(zip(before, after))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3_a - q1_a:
        return "better"
    spread = max((q3_a - q1_a) / med_a if med_a else 0.0,
                 (q3_b - q1_b) / med_b if med_b else 0.0)
    if spread > bound:
        every_run_better = all(sign * (a - b) > 0 for a in before for b in after)
        return "within" if every_run_better else "unresolved"
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    return "worse" if worse_by > bound else "within"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        sys.exit(2)
    with open(sys.argv[1]) as f:
        before = json.load(f)
    with open(sys.argv[2]) as f:
        after = json.load(f)
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer_better = {m["name"]: m["better"] for m in spec["per_layer"]}
    if before.get("seed") != after.get("seed") or before.get("scale") != after.get("scale"):
        print("warning: the reports differ in seed or scale", file=sys.stderr)

    worse = 0
    for name in before["workloads"]:
        a, b = before["workloads"][name], after["workloads"].get(name)
        if b is None:
            print(f"{name}: missing from {sys.argv[2]}")
            continue
        for metric, definition in bounds.items():
            if metric not in a["end_to_end"] or metric not in b["end_to_end"]:
                continue
            xa, xb = a["end_to_end"][metric], b["end_to_end"][metric]
            result = verdict(xa["samples"], xb["samples"], definition["bound"],
                             definition["better"] == "lower")
            worse += result == "worse"
            print(f"{name:14} {metric:12} {xa['median']:.4g} [{xa['q1']:.4g}, {xa['q3']:.4g}]"
                  f" -> {xb['median']:.4g} [{xb['q1']:.4g}, {xb['q3']:.4g}] {xa['unit']}"
                  f"  bound {definition['bound']:.0%}  {result}")
        ratio_a, ratio_b = a["fail_ratio"], b["fail_ratio"]
        fail_verdict = "worse" if ratio_b > ratio_a else "within"
        worse += fail_verdict == "worse"
        print(f"{name:14} {'fail_ratio':12} {a['failed']}/{a['attempted']} -> "
              f"{b['failed']}/{b['attempted']}  {fail_verdict}")

    print("\nper-layer metrics that moved most (after vs before):")
    for name in before["workloads"]:
        la = before["workloads"][name]["per_layer"]
        lb = after["workloads"].get(name, {}).get("per_layer", {})
        moves = [((lb[k] - la[k]) / abs(la[k]), k) for k in la
                 if k in lb and la[k] != 0 and lb[k] != la[k]]
        moves.sort(key=lambda move: -abs(move[0]))
        cells = []
        for change, key in moves[:3]:
            direction = layer_better.get(key, "?")
            cells.append(f"{key} {change:+.1%} ({direction} is better)")
        print(f"{name:14} " + "; ".join(cells))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
