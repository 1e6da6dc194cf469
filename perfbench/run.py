"""Run one workload once: the ``BENCHMARK.json`` command.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Every pass runs in a fresh worker process (``worker.py``).  ``--trace 0``
measures the end-to-end metrics with tracing off, plus five set-up probes
for ``setup_s``.  ``--trace 1`` runs the untraced pass and then the same
pass with the span wrappers installed, requires the two to agree on every
simulated number and count (tracing must not perturb the simulation), and
reports the per-layer metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.abspath(sys.path[0]) == HERE:
    del sys.path[0]  # the script directory: its modules are perfbench.*
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import metrics  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5  # timed, after one discarded warm-up probe
WORKER_TIMEOUT_S = 150
# str hashes are salted per process, and the salt alone moves this
# simulator's host time by up to 25 % (dict layouts keyed by addresses and
# message names) while changing no simulated result.  One fixed salt for
# every worker keeps that out of wall_s.
WORKER_ENV = {
    **os.environ,
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": os.pathsep.join((os.path.join(ROOT, "src"), ROOT)),
}


class BenchError(Exception):
    """The run produced no usable result (worker crash, or the determinism
    self-check failed)."""


def _worker(workload: str, seed: int, seconds: float, *flags: str) -> tuple[dict, float]:
    """Run ``perfbench.worker`` once; returns (its JSON result, spawn
    timestamp)."""
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), *flags,
    ]
    spawned_at = time.time()
    done = subprocess.run(
        command, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        raise BenchError(f"worker {' '.join(flags) or 'run'} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), spawned_at


def _setup_probes(workload: str, seed: int, seconds: float) -> list[float]:
    """Spawn -> load driver constructed, in fresh processes; the first
    probe (cold page cache, cold ``__pycache__``) is discarded."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        probe, spawned_at = _worker(workload, seed, seconds, "--probe")
        samples.append(probe["ready_at"] - spawned_at)
    return samples[1:]


def same_simulation(a: dict, b: dict, what: str) -> None:
    """Hard failure when two passes of one seed differ in any simulated
    number or count: tracing perturbed the simulation, or state leaked."""
    def view(r: dict) -> dict:
        merged = {**r["sim"], **r["counts"], "sim.clock.events": r["stats"]["sim.clock.events"]}
        return {key: merged[key] for key in metrics.DETERMINISTIC}

    va, vb = view(a), view(b)
    if va != vb:
        diff = {k: (va[k], vb[k]) for k in va if va[k] != vb[k]}
        raise BenchError(f"determinism self-check failed ({what}): {diff}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, probes: bool = True) -> dict:
    """One complete measurement of ``workload``; see the module docstring."""
    setup = _setup_probes(workload, seed, seconds) if probes else []
    untraced, _ = _worker(workload, seed, seconds)
    end_to_end = {
        "wall_s": untraced["wall_s"],
        "peak_rss_mb": untraced["peak_rss_mb"],
        **{name: untraced["sim"][name] for name in metrics.END_TO_END_NAMES if name in untraced["sim"]},
    }
    if setup:
        end_to_end["setup_s"] = statistics.median(setup)
    check = untraced["check"]
    out = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "correct": check["linearizable"] and check["consensus_ok"] and check["txn_atomic"],
        "attempted": untraced["counts"]["attempted"],
        "failed": untraced["counts"]["no_reply"],
        "latency_samples": untraced["sim"]["latency_samples"],
        "setup_samples": setup,
        "end_to_end": end_to_end,
        "untraced": untraced,
    }
    if trace:
        trace_out = os.path.join(OUT_DIR, f"{workload}.trace.json")
        traced, _ = _worker(workload, seed, seconds, "--trace", "--trace-out", trace_out)
        same_simulation(untraced, traced, "traced vs untraced")
        passes = {
            "untraced": {
                **untraced["stats"],
                "host.import_s": untraced["setup"]["import_s"],
                "host.build_s": untraced["setup"]["build_s"],
            },
            "traced": {
                **traced["traced_stats"],
                "host.trace_overhead_ratio": traced["wall_s"] / untraced["wall_s"],
            },
        }
        out["per_layer"] = {m.name: passes[m.source][m.name] for m in metrics.PER_LAYER}
        out["traced"] = traced
        out["correct"] = out["correct"] and all(
            traced["check"][k] for k in ("linearizable", "consensus_ok", "txn_atomic")
        )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
    return out


def result_line(result: dict, trace: bool) -> str:
    """The contract's last line: every end-to-end metric with ``--trace 0``,
    every per-layer metric with ``--trace 1``."""
    values = result["per_layer"] if trace else result["end_to_end"]
    names = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {n: {"value": values[n], "unit": metrics.UNITS[n]} for n in names},
        }
    )


def describe(result: dict, trace: bool) -> str:
    lines = [
        f"{result['workload']} seed={result['seed']} seconds={result['seconds']:g}: "
        f"attempted={result['attempted']} no_reply={result['failed']} "
        f"latency_samples={result['latency_samples']} "
        f"checks={'ok' if result['correct'] else 'FAILED'}"
    ]
    values = result["per_layer"] if trace else result["end_to_end"]
    for name, value in values.items():
        lines.append(f"  {name:<40} {value:>16.6g} {metrics.UNITS[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, trace, probes=not trace)
    except (BenchError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(describe(result, trace))
    print(result_line(result, trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
