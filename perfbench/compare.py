"""Compare two sets of benchmark runs: a parent commit and a change.

Each input file holds the standard output of any number of
``perfbench/run.py`` runs, appended together; only the lines that start
with ``perfbench-record`` are read.  Usage:

    python3 perfbench/compare.py parent.log change.log

For every workload and end-to-end metric it prints each side's median
and quartiles over the runs (one value per run), the metric's bound from
``BENCHMARK.json`` and a verdict:

- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: the change wins at least nine tenths of the runs paired by
  seed and its median beats the parent's by more than the parent's own
  quartile spread;
- ``unresolved``: neither, and the parent's quartile spread is wider than
  the bound (unless every change run beats every parent run);
- ``unchanged``: otherwise.

It also prints the raw median seconds without a verdict, and flags
every workload and seed whose ``result_digest`` or counters differ
between the two sides, and any failed operations.
Exits 1 when a metric is worse or a digest differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

RECORD_PREFIX = "perfbench-record "
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: str) -> List[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        if line.startswith(RECORD_PREFIX):
            records.append(json.loads(line[len(RECORD_PREFIX):]))
    return records


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Dict[int, float], change: Dict[int, float],
            bound: float, lower_is_better: bool = True) -> str:
    """Verdict for one metric; ``parent``/``change`` map seed -> value."""
    sign = 1.0 if lower_is_better else -1.0
    p1, pmed, p3 = quartiles(list(parent.values()))
    cmed = statistics.median(change.values())
    if sign * (cmed - pmed) > bound * abs(pmed):
        return "worse"
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    if seeds and wins >= 0.9 * len(seeds) \
            and sign * (pmed - cmed) > (p3 - p1):
        return "better"
    if (p3 - p1) > bound * abs(pmed):
        every = (max(change.values()) < min(parent.values())
                 if lower_is_better
                 else min(change.values()) > max(parent.values()))
        return "better" if every else "unresolved"
    return "unchanged"


def compare(parent: List[dict], change: List[dict], spec: dict) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    sides = {"parent": parent, "change": change}
    by_side = {side: defaultdict(dict) for side in sides}
    for side, records in sides.items():
        for rec in records:
            if rec["trace"]:
                continue
            by_side[side][rec["workload"]][rec["seed"]] = rec
    print(f"{'workload':24s} {'metric':12s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'bound':>6s} verdict")
    for workload in sorted(set(by_side["parent"]) | set(by_side["change"])):
        p_runs = by_side["parent"].get(workload, {})
        c_runs = by_side["change"].get(workload, {})
        if not p_runs or not c_runs:
            print(f"{workload:24s} missing on one side")
            status = 1
            continue
        for name, metric in bounds.items():
            p = {s: r["metrics"][name]["value"] for s, r in p_runs.items()}
            c = {s: r["metrics"][name]["value"] for s, r in c_runs.items()}
            v = verdict(p, c, metric["bound"],
                        metric["better"] == "lower")
            status |= v == "worse"
            fmt = "/".join(f"{x:.4g}" for x in quartiles(list(p.values())))
            cfmt = "/".join(f"{x:.4g}" for x in quartiles(list(c.values())))
            print(f"{workload:24s} {name:12s} {fmt:>30s} {cfmt:>30s} "
                  f"{metric['bound']:6.2f} {v}")
        p = {s: statistics.median(r["wall_s"]) for s, r in p_runs.items()}
        c = {s: statistics.median(r["wall_s"]) for s, r in c_runs.items()}
        fmt = "/".join(f"{x:.4g}" for x in quartiles(list(p.values())))
        cfmt = "/".join(f"{x:.4g}" for x in quartiles(list(c.values())))
        print(f"{workload:24s} {'wall_s raw':12s} {fmt:>30s} {cfmt:>30s} "
              f"{'-':>6s} (host-speed dependent; no verdict)")
        for seed in sorted(set(p_runs) & set(c_runs)):
            pr, cr = p_runs[seed], c_runs[seed]
            if pr["result_digest"] != cr["result_digest"]:
                status = 1
                print(f"  {workload} seed {seed}: result_digest differs "
                      f"({pr['result_digest'][:16]} -> "
                      f"{cr['result_digest'][:16]})")
            for key in sorted(set(pr["counts"]) | set(cr["counts"])):
                a, b = pr["counts"].get(key), cr["counts"].get(key)
                if a != b:
                    print(f"  {workload} seed {seed}: counter {key} "
                          f"{a} -> {b}")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs.values())
            if failed:
                attempted = sum(r["attempted"] for r in runs.values())
                print(f"  {workload} {side}: {failed} of {attempted} "
                      f"operations failed")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    return compare(load_records(args.parent), load_records(args.change),
                   spec)


if __name__ == "__main__":
    sys.exit(main())
