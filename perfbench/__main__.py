"""Run every workload and print every metric by name, with its unit.

    PYTHONPATH=src python -m perfbench [--seed 55] [--repeats N] [--only W]
                                       [--trace] [--out FILE] [--seconds T]

Each repeat of each workload is a fresh worker process.  The printed value
is the median over ``--repeats``, with min/max beside it.  With ``--trace``
the first repeat also runs the traced pass and the per-layer metrics are
printed.  Exits 1 if a checker fails on any workload's history, 2 if the
determinism self-check fails (a simulated number differed between two
passes of one seed) or a worker died.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from perfbench import calib, metrics, run
from perfbench.workloads import COMMON_SCALE, RUN_SECONDS, WORKLOADS


def spec() -> dict:
    """The BENCHMARK.json document, from the registry."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
        ],
    }


def measure(workload: str, seed: int, seconds: float, repeats: int, trace: bool) -> dict:
    """``repeats`` measurements of one workload, merged."""
    calib_s = calib.host_calibration()
    results = []
    for index in range(repeats):
        result = run.run_workload(workload, seed, seconds, trace=trace and index == 0)
        if results:
            run.same_simulation(results[0]["untraced"], result["untraced"], f"repeat {index + 1}")
        results.append(result)
    first = results[0]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": first["attempted"],
        "failed": first["failed"],
        "latency_samples": first["latency_samples"],
        "events": first["untraced"]["stats"]["sim.clock.events"],
        "host.calib_s": calib_s,
        "end_to_end": {
            name: {"unit": metrics.UNITS[name], "values": [r["end_to_end"][name] for r in results]}
            for name in metrics.END_TO_END_NAMES
        },
        "per_layer": first.get("per_layer"),
    }


def report(name: str, measured: dict) -> str:
    lines = [
        f"{name}: attempted={measured['attempted']} no_reply={measured['failed']} "
        f"latency_samples={measured['latency_samples']} events={measured['events']} "
        f"host.calib_s={measured['host.calib_s']:.3f} "
        f"checks={'ok' if measured['correct'] else 'FAILED'}"
    ]
    for metric, entry in measured["end_to_end"].items():
        values = entry["values"]
        lines.append(
            f"  {metric:<40} {statistics.median(values):>14.6g} {entry['unit']:<10}"
            f" [{min(values):.6g} .. {max(values):.6g}] n={len(values)}"
        )
    for metric, value in (measured["per_layer"] or {}).items():
        lines.append(f"  {metric:<40} {value:>14.6g} {metrics.UNITS[metric]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=55)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--only", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None, help="write the results as JSON (compare.py input)")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument(
        "--write-spec", metavar="FILE", default=None, help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(args.write_spec, "w", encoding="utf-8") as handle:
            json.dump(spec(), handle, indent=2)
            handle.write("\n")
        return 0

    document = {
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "common_scale": COMMON_SCALE,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    status = 0
    for name in [args.only] if args.only else list(WORKLOADS):
        try:
            measured = measure(name, args.seed, args.seconds, args.repeats, args.trace)
        except run.BenchError as error:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
            return 2
        document["workloads"][name] = measured
        print(report(name, measured), flush=True)
        if not measured["correct"]:
            status = 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
