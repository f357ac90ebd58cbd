#!/usr/bin/env python3
"""perf_diff -- compare two perf-ledger runs, workload by workload.

    python3 bench/ledger/perf_diff.py BASE.json NEW.json
    python3 bench/ledger/perf_diff.py --self-test

BASE.json and NEW.json are files written by `perf_ledger --json`. For each
workload in both, every end-to-end metric of BENCHMARK.json gets a line:
base and new medians, the change, the metric's bound, and a verdict.

  counted metrics (deterministic for a seed: bytes, messages, supersteps,
  recall) are gated exactly: any change is better or worse.
  timed metrics are "unresolved" when either side's q1-q3 spread exceeds
  the bound -- unless every new sample beats every base sample -- else
  worse/better when the median moved past the bound, else same.

Then the per-layer deltas: the layer times that are part of wall_s are
ranked by their share of the wall_s change, and every other layer metric
that moved is listed by its relative change.

Exit status: 1 when any verdict is "worse", 0 otherwise, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# The metrics' units, directions and bounds, at the repository root.
BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)
TOP = 12  # layer deltas listed per workload


def load_spec(path: str) -> tuple[dict, dict]:
    """(end-to-end name -> spec, per-layer name -> spec) from BENCHMARK.json."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


def rel_spread(metric: dict) -> float:
    value = metric["value"]
    if value == 0:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(value)


def relative_change(base: float, new: float) -> float:
    if base == new:
        return 0.0
    if base == 0:
        return math.copysign(math.inf, new)
    return (new - base) / abs(base)


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """better / same / worse / unresolved for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * relative_change(base["value"], new["value"])
    if base.get("counted") and new.get("counted"):
        if worsening == 0:
            return "same"
        return "worse" if worsening > 0 else "better"
    if max(rel_spread(base), rel_spread(new)) > bound:
        base_samples = base.get("samples") or [base["value"]]
        new_samples = new.get("samples") or [new["value"]]
        if better == "lower" and max(new_samples) < min(base_samples):
            return "better"
        if better == "higher" and min(new_samples) > max(base_samples):
            return "better"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def diff_workload(name: str, base: dict, new: dict, e2e: dict, layers: dict,
                  top: int, out) -> list[str]:
    """Print one workload's comparison; return its verdicts."""
    bm, nm = base["metrics"], new["metrics"]
    verdicts = []
    print(f"== {name}", file=out)
    if not new.get("correct", True) or new.get("failed", 0):
        print(f"   NEW run failed verification: {new.get('errors')}", file=out)
        verdicts.append("worse")
    print(f"   {'metric':<16} {'base':>12} {'new':>12} {'delta':>9} {'bound':>7}  verdict",
          file=out)
    for metric, spec in e2e.items():
        if metric not in bm or metric not in nm:
            continue
        v = verdict(bm[metric], nm[metric], spec["better"], spec["bound"])
        verdicts.append(v)
        change = relative_change(bm[metric]["value"], nm[metric]["value"])
        bound = "exact" if bm[metric].get("counted") else f"{spec['bound']:.0%}"
        print(f"   {metric:<16} {bm[metric]['value']:>12.6g} {nm[metric]['value']:>12.6g} "
              f"{change:>+9.2%} {bound:>7}  {v}", file=out)

    wall_delta = nm["wall_s"]["value"] - bm["wall_s"]["value"] if "wall_s" in bm else 0.0
    in_wall = []
    moved = []
    for metric in sorted(set(bm) & set(nm)):
        if metric in e2e:
            continue
        b, n = bm[metric]["value"], nm[metric]["value"]
        if bm[metric].get("in_wall"):
            in_wall.append((n - b, metric, b, n))
        elif b != n:
            moved.append((relative_change(b, n), metric, b, n))
    in_wall.sort(key=lambda row: -abs(row[0]))
    print(f"   layer times by share of the wall_s change ({wall_delta:+.4f} s):", file=out)
    for delta, metric, b, n in in_wall[:top]:
        share = f"{delta / wall_delta:+7.1%}" if wall_delta else "      -"
        print(f"     {share}  {metric:<28} {b:.4g} -> {n:.4g} s ({delta:+.4f})", file=out)
    moved.sort(key=lambda row: -abs(row[0]))
    print("   other layer metrics that moved:", file=out)
    for change, metric, b, n in moved[:top]:
        direction = ""
        if metric in layers:
            lower_better = layers[metric]["better"] == "lower"
            direction = " (better)" if (change < 0) == lower_better else " (worse)"
        print(f"     {change:>+9.2%}  {metric:<28} {b:.6g} -> {n:.6g}{direction}", file=out)
    return verdicts


def diff(base: dict, new: dict, e2e: dict, layers: dict, top: int, out) -> int:
    verdicts = []
    for name, record in base["workloads"].items():
        if name in new["workloads"]:
            verdicts += diff_workload(name, record, new["workloads"][name], e2e, layers,
                                      top, out)
    counts = {v: verdicts.count(v) for v in ("worse", "unresolved", "better", "same")}
    print("summary: " + ", ".join(f"{n} {v}" for v, n in counts.items()), file=out)
    return 1 if counts["worse"] else 0


# ---------------------------------------------------------------- self-test


def _metric(value, spread=0.0, counted=False, in_wall=False):
    return {"value": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2),
            "samples": [value * (1 - spread / 2), value, value * (1 + spread / 2)],
            "counted": counted, "in_wall": in_wall}


def _ledger(wall, multiply, pack=0.5, bytes_total=1000.0, wall_spread=0.02, rate=1e9):
    return {"workloads": {"w": {"correct": True, "failed": 0, "metrics": {
        "wall_s": _metric(wall, wall_spread),
        "bytes_total": _metric(bytes_total, counted=True),
        "core.multiply_s": _metric(multiply, in_wall=True),
        "core.pack_s": _metric(pack, in_wall=True),
        "distmat.multiply_rate": _metric(rate),
    }}}}


def self_test() -> int:
    import io

    e2e = {"wall_s": {"better": "lower", "bound": 0.1},
           "bytes_total": {"better": "lower", "bound": 0.01}}
    layers = {"core.multiply_s": {"better": "lower"}, "core.pack_s": {"better": "lower"},
              "distmat.multiply_rate": {"better": "higher"}}
    base = _ledger(2.0, 1.0)
    # (label, new ledger, expected exit status, metric, expected verdict)
    cases = [
        ("identical runs", _ledger(2.0, 1.0), 0, "wall_s", "same"),
        ("wall +20% from the multiply", _ledger(2.4, 1.4, rate=0.7e9), 1, "wall_s", "worse"),
        ("wall -20%", _ledger(1.6, 0.6), 0, "wall_s", "better"),
        ("spread wider than the bound", _ledger(2.4, 1.4, wall_spread=0.3), 0, "wall_s",
         "unresolved"),
        ("one counted byte more", _ledger(2.0, 1.0, bytes_total=1001.0), 1, "bytes_total",
         "worse"),
    ]
    failures = []
    for label, new, want_rc, metric, want in cases:
        out = io.StringIO()
        rc = diff(base, new, e2e, layers, 5, out)
        text = out.getvalue()
        got = next(line for line in text.splitlines()
                   if line.split()[:1] == [metric]).split()[-1]
        if rc != want_rc or got != want:
            failures.append(f"{label}: exit {rc}, {metric} {got}; want exit {want_rc}, {want}")
        if label.endswith("from the multiply"):
            ranked = [line.split() for line in text.splitlines() if "->" in line]
            if not ranked or ranked[0][1] != "core.multiply_s" or ranked[0][0] != "+100.0%":
                failures.append(f"{label}: slowdown not attributed to core.multiply_s")
            if not any(row[1] == "distmat.multiply_rate" and row[-1] == "(worse)"
                       for row in ranked):
                failures.append(f"{label}: multiply_rate drop not listed as worse")
    for failure in failures:
        print(f"perf_diff self-test FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"perf_diff self-test: {len(cases)} synthetic comparisons behaved")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="ledger JSON of the parent")
    parser.add_argument("new", nargs="?", help="ledger JSON of the change")
    parser.add_argument("--self-test", action="store_true",
                        help="check the verdicts on synthetic ledgers")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        parser.print_usage(sys.stderr)
        return 2
    try:
        e2e, layers = load_spec(BENCHMARK)
        with open(args.base, encoding="utf-8") as handle:
            base = json.load(handle)
        with open(args.new, encoding="utf-8") as handle:
            new = json.load(handle)
    except (OSError, ValueError, KeyError) as err:
        print(f"perf_diff: {err}", file=sys.stderr)
        return 2
    return diff(base, new, e2e, layers, TOP, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
