"""Compare two sets of benchmark results per end-to-end metric and workload.

    python3 perfbench/compare.py parent.jsonl change.jsonl
    python3 perfbench/compare.py results.jsonl

Each file holds the lines `run.py --record FILE` appended; only end-to-end
(--trace 0) records count. With one file, print each metric's median,
quartiles and spread (interquartile range over median) and flag spreads above
a third of the metric's bound. With two, print both sides and a verdict per
(metric, workload), one row per workload, against the bound in BENCHMARK.json:

  better      every change run beats every parent run, or the change wins at
              least 9 in 10 same-seed pairs and the medians differ by more
              than the parent's interquartile range
  unresolved  otherwise, if either side's spread exceeds the bound
  worse       the change's median is worse than the parent's by more than the bound
  unchanged   none of the above
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict[tuple[str, str], dict[int, float]]:
    """(metric, workload) -> {seed: value} from one results file."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"] != 0:
            continue
        for name, metric in record["result"]["metrics"].items():
            out.setdefault((name, record["workload"]), {})[record["seed"]] = metric["value"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0  # sign * (change - parent) > 0 means better
    p, c = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = quartiles(c)[1]
    gain = sign * (c_med - p_med)
    if (min(c) > max(p)) if better == "higher" else (max(c) < min(p)):
        return "better"
    if max(spread(p), spread(c)) > bound:
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "worse"
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    if seeds and wins >= 0.9 * len(seeds) and gain > p_q3 - p_q1:
        return "better"
    return "unchanged"


def _fmt(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", metavar="results.jsonl")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one results file, or a parent and a change file")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    sets = [load(path) for path in args.files]
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better, bound {bound:.0%})")
        for workload in workloads:
            sides = [s.get((name, workload), {}) for s in sets]
            if not all(sides):
                print(f"  {workload:16s} no results")
                continue
            if len(sides) == 1:
                values = list(sides[0].values())
                flag = "steady" if spread(values) < bound / 3 else "SPREAD ABOVE BOUND/3"
                print(
                    f"  {workload:16s} n={len(values):2d}  median [q1, q3] {_fmt(values)}"
                    f"  spread {spread(values):.1%}  {flag}"
                )
                continue
            parent, change = sides
            print(
                f"  {workload:16s} parent n={len(parent):2d} {_fmt(list(parent.values()))}"
                f"  change n={len(change):2d} {_fmt(list(change.values()))}"
                f"  -> {verdict(parent, change, metric['better'], bound)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
