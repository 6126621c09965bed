#!/usr/bin/env python3
"""Compares two sets of benchmark results, one row per (workload, metric).

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files `run.py --out DIR` writes (one per
run; traced runs carry the per-layer metrics). Runs pair up by seed, or
by seed order where the seeds differ. Each row gives both sides' median
and quartiles, the pairs NEW won, and a verdict:

- improved: NEW wins at least 9 in 10 pairs (ties count for neither) and
  the medians differ by more than BASE's interquartile range;
- worse: NEW's median is worse than BASE's by more than the metric's
  bound in BENCHMARK.json, or, for a metric without a bound, BASE wins
  at least 9 in 10 pairs by more than its own interquartile range;
- unresolved: BASE's own spread is wider than the bound (or, without a
  bound, the medians differ by more than that spread) and neither rule
  above decides;
- unchanged: otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{(workload, metric): {seed: value}} plus {metric: unit}."""
    values, units = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as fh:
            result = json.load(fh)
        prov = result["provenance"]
        # End-to-end metrics come from untraced runs only.
        group = "layers" if prov["trace"] else "metrics"
        for name, m in result[group].items():
            values.setdefault((prov["workload"], name), {})[prov["seed"]] = m["value"]
            units[name] = m["unit"]
    return values, units


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def pairs(a, b):
    """Pairs by shared seed, else by position in seed order."""
    shared = sorted(set(a) & set(b))
    if shared:
        return [(a[s], b[s]) for s in shared]
    return list(zip((a[s] for s in sorted(a)), (b[s] for s in sorted(b))))


def verdict(a, b, lower_better, bound):
    xa, xb = sorted(a.values()), sorted(b.values())
    q1a, meda, q3a = quartiles(xa)
    _, medb, _ = quartiles(xb)
    iqr = q3a - q1a
    sign = 1.0 if lower_better else -1.0
    paired = pairs(a, b)
    won = sum(1 for va, vb in paired if sign * (va - vb) > 0)
    lost = sum(1 for va, vb in paired if sign * (vb - va) > 0)
    gain = sign * (meda - medb)  # > 0 when NEW is better
    if paired and won >= 0.9 * len(paired) and gain > iqr:
        return "improved", won, len(paired)
    scale = abs(meda) or 1.0
    if bound is not None:
        if -gain / scale > bound:
            return "worse", won, len(paired)
        if iqr / scale > bound:
            better_all = all(sign * (va - vb) > 0 for va in xa for vb in xb)
            return ("unchanged" if better_all else "unresolved"), won, len(paired)
        return "unchanged", won, len(paired)
    if paired and lost >= 0.9 * len(paired) and -gain > iqr:
        return "worse", won, len(paired)
    if abs(gain) > iqr:
        return "unresolved", won, len(paired)
    return "unchanged", won, len(paired)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    base, units = load(args.base)
    new, new_units = load(args.new)
    units.update(new_units)
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        lower = better.get(metric, "lower") == "lower"
        v, won, n = verdict(base[key], new[key], lower, bounds.get(metric))
        qa, qb = quartiles(sorted(base[key].values())), quartiles(sorted(new[key].values()))
        rows.append((workload, metric, units.get(metric, ""), qa, qb, f"{won}/{n}", v))
    if not rows:
        print("no (workload, metric) measured on both sides", file=sys.stderr)
        return 1
    fmt = "{:<12} {:<32} {:<6} {:>36} {:>36} {:>6}  {}"
    q = lambda t: f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"
    print(fmt.format("workload", "metric", "unit", "base median [q1, q3]",
                     "new median [q1, q3]", "won", "verdict"))
    for workload, metric, unit, qa, qb, won, v in rows:
        print(fmt.format(workload, metric, unit, q(qa), q(qb), won, v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
