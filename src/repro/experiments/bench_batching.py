"""Batching benchmark baseline: throughput-at-knee, batched vs unbatched.

Closed-loop saturation sweeps for the single-leader protocols (Paxos,
FPaxos, Raft) on a 9-node LAN, once with batching off and once with the
leader coalescing up to B commands per log entry (plus a bounded
pipeline).  The headline number this baseline tracks: with B = 16 a
MultiPaxos leader's knee throughput rises ≥ 3x, because the quorum
exchange amortizes across the batch (batched Equations 1-6,
:mod:`repro.core.load`).

The results land in ``BENCH_batching.json`` so CI can diff the baseline::

    python -m repro.experiments bench_batching [--fast]

``check_no_regression()`` is the CI gate: it fails if any protocol's
batched knee falls below its unbatched knee.
"""

from __future__ import annotations


from repro.bench.parallel import DeploymentFactory
from repro.bench.workload import WorkloadSpec
from repro.core.protocol_models import BatchedPaxosModel, PaxosModel
from repro.core.topology import lan
from repro.experiments.common import ExperimentResult, check_gate, sweep, write_baseline
from repro.paxi.config import Config
from repro.protocols.fpaxos import FPaxos
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft

PROTOCOLS = {
    "paxos": MultiPaxos,
    "fpaxos": FPaxos,
    "raft": Raft,
}

BATCH_SIZE = 16
BATCH_WINDOW = 0.001  # seconds of virtual time
PIPELINE_DEPTH = 8
SEED = 55
OUTPUT_FILE = "BENCH_batching.json"


def _config(batched: bool) -> Config:
    if batched:
        return Config.lan(
            3,
            3,
            seed=SEED,
            batch_size=BATCH_SIZE,
            batch_window=BATCH_WINDOW,
            pipeline_depth=PIPELINE_DEPTH,
        )
    return Config.lan(3, 3, seed=SEED)


def _model_knees() -> dict[str, float]:
    topo = lan(9)
    return {
        "unbatched": PaxosModel(topo).max_throughput(),
        "batched": BatchedPaxosModel(
            topo, batch_size=BATCH_SIZE, batch_window=BATCH_WINDOW
        ).max_throughput(),
    }


def run(fast: bool = False, output: str = OUTPUT_FILE, jobs: int = 1) -> ExperimentResult:
    concurrencies = (16, 96) if fast else (8, 32, 64, 128, 192)
    duration = 0.25 if fast else 0.6
    spec = WorkloadSpec(keys=1000, write_ratio=0.5)
    result = ExperimentResult(
        experiment="bench_batching",
        title=(
            f"Batching baseline (9-node LAN, B={BATCH_SIZE}, "
            f"window={BATCH_WINDOW * 1e3:.0f}ms, pipeline={PIPELINE_DEPTH})"
        ),
        headers=["protocol", "mode", "clients", "ops/s", "mean_ms", "p99_ms"],
    )
    payload: dict = {
        "experiment": "bench_batching",
        "mode": "fast" if fast else "full",
        "batch_size": BATCH_SIZE,
        "batch_window_s": BATCH_WINDOW,
        "pipeline_depth": PIPELINE_DEPTH,
        "seed": SEED,
        "protocols": {},
    }
    model = _model_knees()
    for name, factory in PROTOCOLS.items():
        knees: dict[str, float] = {}
        curves: dict[str, list[dict]] = {}
        for mode in ("unbatched", "batched"):
            make = DeploymentFactory(factory, _config(batched=(mode == "batched")))
            knees[mode], curves[mode] = sweep(
                result, f"{name}:{mode}", make, spec, concurrencies, duration,
                row=(name, mode), jobs=jobs,
            )
        speedup = knees["batched"] / knees["unbatched"] if knees["unbatched"] else 0.0
        payload["protocols"][name] = {
            "knee_unbatched": round(knees["unbatched"], 1),
            "knee_batched": round(knees["batched"], 1),
            "speedup": round(speedup, 3),
            "curves": curves,
        }
        result.notes.append(
            f"{name}: knee {knees['unbatched']:.0f} -> {knees['batched']:.0f} ops/s "
            f"({speedup:.2f}x)"
        )
    payload["model"] = {
        "knee_unbatched": round(model["unbatched"], 1),
        "knee_batched": round(model["batched"], 1),
        "speedup": round(model["batched"] / model["unbatched"], 3),
    }
    result.notes.append(
        f"model (batched Table 2): knee {model['unbatched']:.0f} -> "
        f"{model['batched']:.0f} ops/s ({model['batched'] / model['unbatched']:.2f}x)"
    )
    write_baseline(payload, output)
    result.notes.append(f"wrote {output}")
    return result


def check_no_regression(path: str = OUTPUT_FILE) -> None:
    """CI gate: batched throughput must not fall below unbatched."""
    check_gate(path, "batching", _failures, _summary, required=("protocols",))


def _failures(payload: dict):
    for name, entry in sorted(payload["protocols"].items()):
        batched = entry.get("knee_batched", 0.0)
        unbatched = entry.get("knee_unbatched", 0.0)
        if batched < unbatched:
            yield f"{name}: batched knee {batched:.0f} < unbatched {unbatched:.0f}"


def _summary(payload: dict) -> str:
    return ", ".join(
        f"{name} {entry['speedup']:.2f}x" for name, entry in sorted(payload["protocols"].items())
    )
