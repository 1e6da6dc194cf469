"""CLI entry point: python -m repro.experiments <id>|all [--fast] [--csv DIR] [--trace]."""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from repro.experiments import EXPERIMENTS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which table/figure to reproduce ('all' runs every one)",
    )
    parser.add_argument("--fast", action="store_true", help="shrunken sweep for quick runs")
    parser.add_argument("--csv", metavar="DIR", default=None, help="also write CSV output")
    parser.add_argument("--plot", action="store_true", help="render the series as an ASCII chart")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for experiments whose sweep points are "
        "independent simulations (default 1 = serial, today's behavior)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions plus "
        "event-loop counters (use with --jobs 1: workers are not profiled)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable request tracing; dump spans + per-node metric snapshots "
        "to results/<experiment>_trace.json and print a latency breakdown",
    )
    args = parser.parse_args(argv)

    jobs = args.jobs
    if jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.trace and jobs > 1:
        # Worker processes do not inherit the parent's ObsCapture, so their
        # spans would be silently lost; tracing forces a serial run.
        print("--trace captures spans in-process; ignoring --jobs, running serially")
        jobs = 1

    from repro.bench.profiling import maybe_profiled

    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in targets:
        with maybe_profiled(args.profile, label=name):
            if args.trace:
                result = _run_traced(name, args.fast)
            else:
                result = _invoke(name, args.fast, jobs)
        print(result.to_text())
        if args.plot:
            from repro.experiments.plotting import plot_result

            print()
            print(plot_result(result))
        print()
        if args.csv is not None:
            path = result.write_csv(args.csv)
            print(f"wrote {path}")
    return 0


def _invoke(name: str, fast: bool, jobs: int):
    """Call an experiment driver, passing ``jobs`` only to the drivers
    whose ``run`` accepts it."""
    fn = EXPERIMENTS[name]
    params = inspect.signature(fn).parameters
    kwargs = {}
    if jobs > 1 and "jobs" in params:
        kwargs["jobs"] = jobs
    return fn(fast, **kwargs)


def _run_traced(name: str, fast: bool, directory: str = "results"):
    """Run one experiment under an ObsCapture: every cluster the driver
    builds gets tracing enabled, and the combined spans + metric snapshots
    land in ``results/<name>_trace.json``."""
    from repro.obs import ObsCapture
    from repro.obs.report import breakdown_table

    with ObsCapture(trace=True) as capture:
        result = EXPERIMENTS[name](fast)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}_trace.json")
    with open(path, "w") as f:
        json.dump(
            {"experiment": name, "clusters": [obs.snapshot() for obs in capture.observed]},
            f,
            indent=1,
        )
    spans = sum(len(obs.tracer.finished) for obs in capture.observed)
    print(f"trace: {len(capture.observed)} cluster(s), {spans} span(s) -> {path}")
    for obs in capture.observed:
        if obs.tracer.finished:
            print(breakdown_table(obs.tracer))
            break
    else:
        print("trace: no simulated requests (model-only experiment)")
    print()
    return result


if __name__ == "__main__":
    sys.exit(main())
