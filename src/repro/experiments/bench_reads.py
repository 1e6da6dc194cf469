"""Read-path benchmark baseline: knee throughput per read mode.

Closed-loop saturation sweeps for the single-leader protocols (Paxos,
FPaxos, Raft) on a 9-node LAN under a read-heavy workload (W = 0.1), once
per read path: ``leader`` (every read is a full consensus round — the
seed's behavior), ``lease`` (leader leases), ``quorum`` (read-quorum
polls), and ``local`` (bounded staleness; the only non-linearizable mode).
The headline numbers this baseline tracks:

- the **knee lift** of each optimized mode over the leader-read baseline
  (lease and quorum reads stay linearizable yet approach the relaxed-read
  ceiling ``1 / (W * ts)``);
- the **leader-load reduction**: the busiest node's share of cluster busy
  time shrinks as reads leave the leader's queue;
- **sim-vs-model conformance**: each mode's knee against the matching
  formula in :mod:`repro.core.reads` / :mod:`repro.core.relaxed`.

The results land in ``BENCH_reads.json`` so CI can diff the baseline::

    python -m repro.experiments bench_reads [--fast]

``check_no_regression()`` is the CI gate: it fails if any protocol's lease
or quorum knee falls below its leader-read knee, or if a linearizable mode
drifts more than 25% from its model.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.parallel import DeploymentFactory
from repro.bench.workload import WorkloadSpec
from repro.core.protocol_models import PaxosModel
from repro.core.reads import LeaseReadPaxosModel, QuorumReadPaxosModel
from repro.core.relaxed import RelaxedPaxosModel
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

#: Sweep modes: payload key -> WorkloadSpec.read_mode.
MODES = {
    "leader": None,
    "lease": "lease",
    "quorum": "quorum",
    "local": "local",
}

WRITE_RATIO = 0.1  # read-heavy: where the read path dominates the knee
LEASE_DURATION = 0.5
MAX_CLOCK_SKEW = 0.01
SEED = 77
OUTPUT_FILE = "BENCH_reads.json"

#: CI gate: linearizable-mode knees must sit within this fraction of the
#: model's prediction (the payload records it for the reader; the gate
#: reads this constant).
MODEL_BAND = 0.25


def _config(mode: str) -> Config:
    params = {}
    if mode == "lease":
        params = {"lease_duration": LEASE_DURATION, "max_clock_skew": MAX_CLOCK_SKEW}
    return Config.lan(3, 3, seed=SEED, **params)


def _model_knees() -> dict[str, float]:
    topo = lan(9)
    return {
        "leader": PaxosModel(topo).max_throughput(),
        "lease": LeaseReadPaxosModel(topo, write_ratio=WRITE_RATIO).max_throughput(),
        "quorum": QuorumReadPaxosModel(topo, write_ratio=WRITE_RATIO).max_throughput(),
        "local": RelaxedPaxosModel(topo, write_ratio=WRITE_RATIO).max_throughput(),
    }


def _leader_share(factory: type, config: Config, spec: WorkloadSpec, duration: float) -> float:
    """Busiest node's share of cluster busy time under moderate load —
    the leader-load-reduction observable."""
    deployment = DeploymentFactory(factory, config)()
    bench = ClosedLoopBenchmark(deployment, spec, concurrency=24)
    bench.run(duration, warmup=duration * 0.2, settle=0.05)
    busy = [
        deployment.replica(nid)._server.stats.busy_seconds
        for nid in deployment.config.node_ids
    ]
    total = sum(busy)
    return max(busy) / total if total else 0.0


def run(fast: bool = False, output: str = OUTPUT_FILE, jobs: int = 1) -> ExperimentResult:
    concurrencies = (16, 96) if fast else (8, 32, 64, 128, 192)
    duration = 0.25 if fast else 0.6
    base_spec = WorkloadSpec(keys=1000, write_ratio=WRITE_RATIO)
    result = ExperimentResult(
        experiment="bench_reads",
        title=(
            f"Read-path baseline (9-node LAN, W={WRITE_RATIO}, "
            f"lease={LEASE_DURATION}s, skew<={MAX_CLOCK_SKEW}s)"
        ),
        headers=["protocol", "mode", "clients", "ops/s", "mean_ms", "p99_ms"],
    )
    payload: dict = {
        "experiment": "bench_reads",
        "mode": "fast" if fast else "full",
        "write_ratio": WRITE_RATIO,
        "lease_duration_s": LEASE_DURATION,
        "max_clock_skew_s": MAX_CLOCK_SKEW,
        "model_band": MODEL_BAND,
        "seed": SEED,
        "protocols": {},
    }
    model = _model_knees()
    for name, factory in PROTOCOLS.items():
        knees: dict[str, float] = {}
        shares: dict[str, float] = {}
        curves: dict[str, list[dict]] = {}
        for mode, read_mode in MODES.items():
            spec = replace(base_spec, read_mode=read_mode)
            config = _config(mode)
            knees[mode], curves[mode] = sweep(
                result, f"{name}:{mode}", DeploymentFactory(factory, config), spec,
                concurrencies, duration, row=(name, mode), jobs=jobs,
            )
            shares[mode] = _leader_share(factory, config, spec, duration)
        entry: dict = {"curves": curves}
        for mode in MODES:
            lift = knees[mode] / knees["leader"] if knees["leader"] else 0.0
            conformance = knees[mode] / model[mode] if model[mode] else 0.0
            entry[mode] = {
                "knee": round(knees[mode], 1),
                "lift": round(lift, 3),
                "leader_share": round(shares[mode], 3),
                "model_knee": round(model[mode], 1),
                "model_conformance": round(conformance, 3),
            }
        payload["protocols"][name] = entry
        result.notes.append(
            f"{name}: knee leader {knees['leader']:.0f} -> lease {knees['lease']:.0f} "
            f"({knees['lease'] / knees['leader']:.2f}x), quorum {knees['quorum']:.0f} "
            f"({knees['quorum'] / knees['leader']:.2f}x), local {knees['local']:.0f}; "
            f"leader busy share {shares['leader']:.2f} -> lease {shares['lease']:.2f}, "
            f"quorum {shares['quorum']:.2f}"
        )
    payload["model"] = {mode: round(knee, 1) for mode, knee in model.items()}
    result.notes.append(
        "model knees: "
        + ", ".join(f"{mode} {knee:.0f}" for mode, knee in model.items())
    )
    write_baseline(payload, output)
    result.notes.append(f"wrote {output}")
    return result


def check_no_regression(path: str = OUTPUT_FILE) -> None:
    """CI gate over ``BENCH_reads.json``.

    Fails (``SystemExit``) when a lease or quorum knee drops below the
    leader-read knee, when quorum reads stop reducing the leader's busy
    share (lease reads deliberately keep reads at the leader — their gate
    is the knee lift), or when a linearizable mode's knee drifts outside
    ``MODEL_BAND`` of its model (full runs only — fast runs are too short
    to hold the band).
    """
    check_gate(path, "reads", _failures, _summary, required=("protocols",))


def _failures(payload: dict):
    strict = payload.get("mode") == "full"
    for name, entry in sorted(payload["protocols"].items()):
        leader = entry.get("leader", {})
        for mode in ("lease", "quorum"):
            stats = entry.get(mode, {})
            if stats.get("knee", 0.0) < leader.get("knee", 0.0):
                yield (
                    f"{name}: {mode} knee {stats.get('knee', 0):.0f} < "
                    f"leader knee {leader.get('knee', 0):.0f}"
                )
            if mode == "quorum" and stats.get("leader_share", 1.0) > leader.get(
                "leader_share", 0.0
            ):
                yield (
                    f"{name}: {mode} leader share {stats.get('leader_share', 1.0):.2f} "
                    f"exceeds leader-mode share {leader.get('leader_share', 0.0):.2f}"
                )
            if strict:
                conformance = stats.get("model_conformance", 0.0)
                if not (1.0 - MODEL_BAND) <= conformance <= (1.0 + MODEL_BAND):
                    yield (
                        f"{name}: {mode} knee is {conformance:.2f}x the model "
                        f"(band {1.0 - MODEL_BAND:.2f}-{1.0 + MODEL_BAND:.2f})"
                    )


def _summary(payload: dict) -> str:
    return ", ".join(
        f"{name} lease {entry['lease']['lift']:.2f}x / quorum {entry['quorum']['lift']:.2f}x"
        for name, entry in sorted(payload["protocols"].items())
    )
