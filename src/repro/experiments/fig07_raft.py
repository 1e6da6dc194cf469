"""Figure 7: Paxi/Paxos versus etcd/Raft.

The paper validates Paxi by showing its Paxos implementation and etcd's
Raft converge to similar maximum throughput (~8,000 ops/s with 9 replicas),
with Paxi a bit faster below saturation.  We run our Raft implementation —
the etcd stand-in, on the same substrate — against MultiPaxos.
"""

from __future__ import annotations

from repro.bench.parallel import DeploymentFactory
from repro.bench.workload import WorkloadSpec
from repro.experiments.common import ExperimentResult, sweep
from repro.paxi.config import Config
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft


def run(fast: bool = False) -> ExperimentResult:
    concurrencies = (2, 16, 96) if fast else (1, 2, 4, 8, 16, 32, 64, 96, 128)
    duration = 0.25 if fast else 1.0
    spec = WorkloadSpec(keys=1000)
    systems = {
        "Paxi/Paxos": MultiPaxos,
        "etcd/Raft (reimpl.)": Raft,
    }
    result = ExperimentResult(
        experiment="fig07",
        title="Single-leader consensus: Paxi/Paxos vs Raft (9 replicas, LAN)",
        headers=["system", "clients", "ops/s", "mean_ms", "p99_ms"],
    )
    peaks = {}
    for name, factory in systems.items():
        make = DeploymentFactory(factory, Config.lan(3, 3, seed=33))
        peaks[name], _curve = sweep(result, name, make, spec, concurrencies, duration, row=(name,))
    ratio = peaks["etcd/Raft (reimpl.)"] / peaks["Paxi/Paxos"]
    result.notes.append(
        f"max throughput: Paxos={peaks['Paxi/Paxos']:.0f}/s, "
        f"Raft={peaks['etcd/Raft (reimpl.)']:.0f}/s (ratio {ratio:.2f}; paper: both ~8000/s)"
    )
    return result
