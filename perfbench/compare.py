"""Compare benchmark results of two commits.

    python3 perfbench/compare.py RESULTS_PARENT RESULTS_CHANGE

Each argument is a directory of result files written by `run.py --out`.
Runs of the two sides are paired by workload and seed.  For every workload
and end-to-end metric one row gives each side's median and quartiles, the
share of pairs the change wins (ties count for neither), and a verdict:

- improved:   the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's spread (distance between quartiles);
- unresolved: the parent's spread, as a share of its median, is wider than
              the metric's bound, and not every run of the change reads
              better than every run of the parent;
- regressed:  the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json;
- unchanged:  otherwise.

Traced results get one row per workload and per-layer metric (those the
workload exercises) with both medians and the relative change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: {metric: value}}}"""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        result = json.loads(path.read_text())
        meta = result["meta"]
        runs.setdefault((meta["workload"], meta["trace"]), {})[meta["seed"]] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    q1, med_a, q3 = quartiles(parent)
    med_b = statistics.median(change)
    gain = sign * (med_a - med_b)
    scale = abs(med_a) or 1.0
    if pairs and win_share >= 0.9 and gain > q3 - q1:
        return "improved", win_share
    all_better = all(sign * (a - b) > 0 for a in parent for b in change)
    if (q3 - q1) / scale > bound and not all_better:
        return "unresolved", win_share
    if -gain > bound * scale:
        return "regressed", win_share
    return "unchanged", win_share


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = (load(Path(a)) for a in argv)
    fmt = "{:12s} {:16s} {:>30s} {:>30s} {:>6s}  {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "wins", "verdict"))
    for w in spec["workloads"]:
        a, b = parent.get((w["name"], 0), {}), change.get((w["name"], 0), {})
        seeds = sorted(set(a) & set(b))
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            va = [a[s][m["name"]] for s in sorted(a)]
            vb = [b[s][m["name"]] for s in sorted(b)]
            pairs = [(a[s][m["name"]], b[s][m["name"]]) for s in seeds]
            verdict_, win_share = verdict(va, vb, pairs, m["better"], m["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            print(fmt.format(w["name"], m["name"],
                             f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]",
                             f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]",
                             f"{win_share:.0%}", f"{verdict_} (n={len(seeds)} pairs)"))
    print()
    fmt = "{:12s} {:40s} {:>14s} {:>14s} {:>9s}"
    print(fmt.format("workload", "per-layer metric", "parent median", "change median", "delta"))
    for w in spec["workloads"]:
        a, b = parent.get((w["name"], 1), {}), change.get((w["name"], 1), {})
        if not a or not b:
            continue
        for m in spec["per_layer"]:
            med_a = statistics.median(r[m["name"]] for r in a.values())
            med_b = statistics.median(r[m["name"]] for r in b.values())
            if not med_a and not med_b:
                continue  # the layer does no work in this workload
            delta = f"{(med_b - med_a) / med_a:+.1%}" if med_a else "-"
            print(fmt.format(w["name"], m["name"], f"{med_a:.6g}", f"{med_b:.6g}", delta))
    return 0


if __name__ == "__main__":
    sys.exit(main())
