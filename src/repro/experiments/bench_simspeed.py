"""Simulator speed baseline: events/sec on the MultiPaxos saturation run.

The empirical prong's cost is dominated by the event loop, so this bench
tracks the simulator's core speed metric — **simulated events executed
per wall-clock second** — on a fixed saturation workload (MultiPaxos,
9-node LAN, 64 closed-loop clients over 1000 keys, the ``fig09`` sweep's
hottest cell).  Because the fast paths are pinned bit-identical by the
golden equivalence suite (``tests/test_equivalence_golden.py``), the
event *count* for a given seed is a constant; only the wall clock moves.

The cell reports its batching counter too (same-timestamp event
draining, the bit-identical fast path that is on by default).

The bench also times a small sweep grid twice through
:func:`repro.bench.parallel.run_grid` — serially and with worker
processes — and asserts the two produce byte-identical results, the
determinism contract that makes ``--jobs N`` safe to use anywhere.

The results land in ``BENCH_simspeed.json``::

    python -m repro.experiments bench_simspeed [--fast]

``check_no_regression()`` is the CI gate: events/sec must stay above
``FLOOR_EVENTS_PER_SEC``, the parallel grid must match the serial grid
exactly, and (on multi-core machines) fanning out must not be slower
than running serially.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.parallel import run_grid
from repro.bench.workload import WorkloadSpec
from repro.experiments.common import ExperimentResult
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.protocols.paxos import MultiPaxos
from repro.sim.clock import EventLoop

SEED = 55
CONCURRENCY = 64
OUTPUT_FILE = "BENCH_simspeed.json"

# Measured at commit ad6dbfd (before the fast-path work) on the reference
# 1-CPU container, exact same workload: 1,989,306 events in 572.4s.  The
# optimized loop must stay >= 3x this.
PREOPT_EVENTS_PER_SEC = 3475.0
TARGET_SPEEDUP = 3.0
# Absolute floor of the gate; what a given machine actually measures is
# the ``saturation`` row of the BENCH_simspeed.json it wrote.
FLOOR_EVENTS_PER_SEC = 60000.0


def _cell(duration: float) -> dict:
    """The timed cell: MultiPaxos at saturation on the 9-node LAN, fixed seed."""
    config = Config.lan(3, 3, seed=SEED)
    deployment = Deployment(config).start(MultiPaxos)
    bench = ClosedLoopBenchmark(
        deployment,
        WorkloadSpec(keys=1000, write_ratio=0.5),
        concurrency=CONCURRENCY,
    )
    events_before = EventLoop.total_events_fired
    batched_before = EventLoop.total_events_batched
    started = time.perf_counter()
    result = bench.run(duration=duration, warmup=0.1 * duration, settle=0.1 * duration)
    wall = time.perf_counter() - started
    events = EventLoop.total_events_fired - events_before
    return {
        "n": config.n,
        "duration_virtual_s": duration,
        "wall_s": round(wall, 3),
        "events": events,
        "events_per_sec": round(events / wall, 1),
        "events_per_op": round(events / result.completed, 2) if result.completed else None,
        "events_batched": EventLoop.total_events_batched - batched_before,
        "completed_ops": result.completed,
        "throughput_ops_s": round(result.throughput, 1),
    }


def _grid_cell(seed: int) -> dict:
    """One job of the parallelism grid (module-level: picklable)."""
    deployment = Deployment(Config.lan(3, 3, seed=seed)).start(MultiPaxos)
    result = ClosedLoopBenchmark(
        deployment, WorkloadSpec(keys=100, write_ratio=0.5), concurrency=8
    ).run(duration=0.5, warmup=0.1, settle=0.05)
    return {
        "seed": seed,
        "completed": result.completed,
        "throughput": repr(result.throughput),
        "mean_ms": repr(result.latency.mean),
    }


def _timed_grid(seeds, workers: int) -> tuple[float, list[dict]]:
    started = time.perf_counter()
    results = run_grid([(_grid_cell, (seed,)) for seed in seeds], workers=workers)
    return time.perf_counter() - started, results


def run(fast: bool = False, output: str = OUTPUT_FILE, jobs: int = 1) -> ExperimentResult:
    duration = 1.5 if fast else 5.0
    cpu_count = os.cpu_count() or 1
    # More workers than cores just adds scheduler churn (and on 1-CPU
    # machines, pool overhead): clamp, but record what was asked for.
    requested = jobs if jobs > 1 else min(4, cpu_count)
    workers = max(1, min(requested, cpu_count))

    cell = _cell(duration)
    speedup = cell["events_per_sec"] / PREOPT_EVENTS_PER_SEC

    seeds = (7, 19, 101, 211)
    serial_wall, serial_results = _timed_grid(seeds, workers=1)
    parallel_wall, parallel_results = _timed_grid(seeds, workers=workers)
    identical = serial_results == parallel_results

    payload = {
        "experiment": "bench_simspeed",
        "mode": "fast" if fast else "full",
        "seed": SEED,
        "concurrency": CONCURRENCY,
        "cpu_count": cpu_count,
        "saturation": cell,
        "preopt_events_per_sec": PREOPT_EVENTS_PER_SEC,
        "speedup_vs_preopt": round(speedup, 2),
        "parallel": {
            "grid_jobs": len(seeds),
            "requested_workers": requested,
            "workers": workers,
            "serial_wall_s": round(serial_wall, 3),
            "parallel_wall_s": round(parallel_wall, 3),
            "parallel_speedup": round(serial_wall / parallel_wall, 2)
            if parallel_wall
            else None,
            "results_identical": identical,
        },
    }
    with open(output, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")

    result = ExperimentResult(
        experiment="bench_simspeed",
        title=(
            f"Simulator speed baseline (MultiPaxos saturation, "
            f"{CONCURRENCY} clients, {duration:g}s virtual)"
        ),
        headers=["metric", "value"],
    )
    result.rows.append(["events/s", cell["events_per_sec"]])
    result.rows.append(["speedup vs pre-opt", round(speedup, 2)])
    result.rows.append(["events batched", cell["events_batched"]])
    result.rows.append(["simulated events", cell["events"]])
    result.rows.append(["ops/s (virtual)", cell["throughput_ops_s"]])
    result.rows.append(["wall (s)", cell["wall_s"]])
    result.rows.append(["grid serial wall (s)", round(serial_wall, 3)])
    result.rows.append([f"grid wall, {workers} workers (s)", round(parallel_wall, 3)])
    result.rows.append(["cpu_count", cpu_count])
    result.notes.append(
        f"{cell['events_per_sec']:,.0f} events/s = {speedup:.1f}x the pre-optimization "
        f"baseline ({PREOPT_EVENTS_PER_SEC:,.0f} events/s at the same workload)"
    )
    result.notes.append(
        "parallel grid results identical to serial: " + str(identical)
    )
    if requested != workers:
        result.notes.append(
            f"--jobs {requested} clamped to {workers} (cpu_count {cpu_count})"
        )
    if cpu_count == 1:
        result.notes.append(
            "single-CPU machine: worker processes cannot beat serial wall "
            "clock here; the parallel numbers above measure pool overhead only"
        )
    result.notes.append(f"wrote {output}")
    return result


def check_no_regression(path: str = OUTPUT_FILE) -> None:
    """CI gate for the simulator-speed baseline.

    Fails (``SystemExit``) if events/sec fell below the floor, if the
    parallel grid diverged from the serial grid, or — on a multi-core
    machine — if fanning out was slower than running serially (skipped on
    single-core machines, where a worker pool can only add overhead).  Runs as
    ``python -c "from repro.experiments.bench_simspeed import check_no_regression; check_no_regression()"``.
    """
    if not os.path.exists(path):
        raise SystemExit(f"simspeed baseline {path!r} not found — run the bench first")
    with open(path) as f:
        payload = json.load(f)
    cell = payload.get("saturation") or {}
    parallel = payload.get("parallel") or {}
    failures = []
    events_per_sec = cell.get("events_per_sec", 0.0)
    if events_per_sec < FLOOR_EVENTS_PER_SEC:
        failures.append(
            f"events/s {events_per_sec:,.0f} < floor {FLOOR_EVENTS_PER_SEC:,.0f} "
            f"(pre-opt baseline {PREOPT_EVENTS_PER_SEC:,.0f} x target "
            f"{TARGET_SPEEDUP:g}x, halved for machine-speed cushion)"
        )
    if not parallel.get("results_identical"):
        failures.append("parallel grid results diverged from the serial run")
    if payload.get("cpu_count", 1) > 1:
        serial = parallel.get("serial_wall_s") or 0.0
        fanned = parallel.get("parallel_wall_s") or 0.0
        if fanned > serial * 1.1:
            failures.append(
                f"parallel grid wall {fanned:.2f}s > 1.1x serial {serial:.2f}s "
                f"on a {payload['cpu_count']}-CPU machine"
            )
    if failures:
        raise SystemExit("simspeed regression: " + "; ".join(failures))
    print(
        f"simspeed baseline ok: {events_per_sec:,.0f} events/s "
        f"({payload.get('speedup_vs_preopt')}x pre-opt), parallel grid identical"
    )
