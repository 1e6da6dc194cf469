"""Compare two ``python -m perfbench --out`` files, parent first.

    python3 perfbench/compare.py PARENT.json CHANGE.json

One row per workload x end-to-end metric: each side's median and min/max,
the change in the worse direction as a share of the parent's median, the
metric's bound, and a verdict — never a combined score:

- ``worse``: the change's median is worse than the parent's by more than
  the bound, and the run-to-run spread cannot explain it;
- ``unresolved``: a side's spread (max - min over its median) is wider
  than the bound, so "unchanged" cannot be claimed either;
- ``ok`` otherwise.

Exits 1 on any ``worse`` row, or when ``ok_ops_share`` fell at all on a
workload run with the same seed on both sides (it is exact per seed).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if os.path.abspath(sys.path[0]) == HERE:
    sys.path[0] = os.path.dirname(HERE)

from perfbench import metrics  # noqa: E402


def _spread(values: list[float]) -> float:
    median = statistics.median(values)
    return (max(values) - min(values)) / abs(median) if median else 0.0


def compare(parent: dict, change: dict) -> list[dict]:
    """Rows for every workload and end-to-end metric present on both sides."""
    rows = []
    same_seed = parent.get("seed") == change.get("seed")
    for workload, before in parent["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            continue
        for metric in metrics.END_TO_END:
            a = before["end_to_end"][metric.name]["values"]
            b = after["end_to_end"][metric.name]["values"]
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric.better == "lower" else -1.0
            worsening = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
            if metric.better == "lower":
                apart = min(b) > max(a)
            else:
                apart = max(b) < min(a)
            noisy = max(_spread(a), _spread(b)) > metric.bound
            if worsening > metric.bound and (apart or not noisy):
                verdict = "worse"
            elif metric.name == "ok_ops_share" and same_seed and med_b < med_a:
                verdict = "worse"
            elif noisy:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "parent": (med_a, min(a), max(a)),
                    "change": (med_b, min(b), max(b)),
                    "worsening": worsening,
                    "bound": metric.bound,
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    def side(triple) -> str:
        return f"{triple[0]:.6g} [{triple[1]:.6g}..{triple[2]:.6g}]"

    lines = [
        f"{'workload':<24} {'metric':<22} {'unit':<10} {'parent median [min..max]':<36} "
        f"{'change median [min..max]':<36} {'worse by':>9} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<24} {row['metric']:<22} {row['unit']:<10} {side(row['parent']):<36} "
            f"{side(row['change']):<36} {row['worsening']:>+9.2%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as a, open(argv[1], encoding="utf-8") as b:
        rows = compare(json.load(a), json.load(b))
    print(render(rows))
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
