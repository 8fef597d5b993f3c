"""Compare two sets of benchmark results: a parent commit and a change.

Usage, from the root of a checkout:

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py`` appends to ``perfbench/_out/results.jsonl``
(untraced runs only are used).  Runs of the two sides are paired by
workload and seed, in the order they started.  For every end-to-end
metric in BENCHMARK.json the rule of choosing-metrics section 8 applies:

* a gain needs at least 10 pairs, run alternately (the side that starts
  first changes from one pair to the next), wins in at least 9/10 of the
  pairs (ties count for neither side), and a difference of medians
  larger than the parent's interquartile spread;
* otherwise, a regression is a change median worse than the parent
  median by more than the metric's bound;
* otherwise, where the parent's own spread (interquartile range over
  median) is wider than the bound, the metric is "unresolved" unless
  every change run beats every parent run.

One row is printed per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> Dict[Tuple[str, int], List[dict]]:
    runs: Dict[Tuple[str, int], List[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"] == 0 and record["result"]["correct"]:
                runs.setdefault((record["workload"], record["seed"]), []).append(record)
    for group in runs.values():
        group.sort(key=lambda r: r["started"])
    return runs


def pairs(parent: Dict, change: Dict) -> Dict[str, List[Tuple[dict, dict]]]:
    out: Dict[str, List[Tuple[dict, dict]]] = {}
    for key in sorted(set(parent) & set(change)):
        out.setdefault(key[0], []).extend(zip(parent[key], change[key]))
    for matched in out.values():
        matched.sort(key=lambda pc: min(pc[0]["started"], pc[1]["started"]))
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def verdict(metric: dict, matched: List[Tuple[dict, dict]], alternating: bool) -> str:
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p = [pc[0]["result"]["metrics"][name]["value"] for pc in matched]
    c = [pc[1]["result"]["metrics"][name]["value"] for pc in matched]
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    gain = sign * (cm - pm) / pm  # positive when the change is better
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    text = f"{name} {pm:.4g}->{cm:.4g} ({gain:+.1%}, wins {wins}/{len(p)})"
    if (len(p) >= 10 and alternating and wins >= 0.9 * len(p)
            and sign * (cm - pm) > p3 - p1):
        return text + " gain"
    if gain < -bound:
        return text + " REGRESSED"
    if (p3 - p1) / pm > bound and not min(sign * x for x in c) > max(sign * x for x in p):
        return text + " unresolved"
    return text + " no change"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    matched = pairs(load(argv[0]), load(argv[1]))
    if not matched:
        print("no workload and seed appears in both files", file=sys.stderr)
        return 1
    for workload in sorted(matched):
        runs = matched[workload]
        first = [pc[0]["started"] < pc[1]["started"] for pc in runs]
        alternating = all(a != b for a, b in zip(first, first[1:]))
        cells = [verdict(m, runs, alternating) for m in spec["end_to_end"]]
        print(f"{workload}: {len(runs)} pairs, alternating {'yes' if alternating else 'no'}; "
              + "; ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
