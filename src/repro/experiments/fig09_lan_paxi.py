"""Figure 9: experimental performance in the LAN (Paxi).

Closed-loop saturation sweeps for the five protocols of the paper's LAN
experiment — Paxos, FPaxos, WPaxos, EPaxos, WanKeeper — on 9 nodes with a
uniformly random workload over 1000 keys and 50% reads.  The headline
ordering to reproduce: WanKeeper > WPaxos > Paxos >= FPaxos > EPaxos in
max throughput, with the single-leader protocols bottlenecked near 8k/s.
"""

from __future__ import annotations

from repro.bench.parallel import DeploymentFactory
from repro.bench.sweep import closed_loop_sweep, max_throughput
from repro.bench.workload import WorkloadSpec
from repro.experiments.common import ExperimentResult
from repro.paxi.config import Config
from repro.protocols.epaxos import EPaxos
from repro.protocols.fpaxos import FPaxos
from repro.protocols.paxos import MultiPaxos
from repro.protocols.wankeeper import WanKeeper
from repro.protocols.wpaxos import WPaxos

PROTOCOLS = {
    "Paxos": MultiPaxos,
    "FPaxos": FPaxos,
    "WPaxos": WPaxos,
    "EPaxos": EPaxos,
    "WanKeeper": WanKeeper,
}


def run(fast: bool = False, jobs: int = 1) -> ExperimentResult:
    concurrencies = (8, 64, 160) if fast else (1, 4, 16, 48, 96, 160, 224)
    duration = 0.25 if fast else 0.8
    spec = WorkloadSpec(keys=1000, write_ratio=0.5)
    result = ExperimentResult(
        experiment="fig09",
        title="Experimental LAN performance (9 nodes, uniform 1000 keys, 50% reads)",
        headers=["protocol", "clients", "ops/s", "mean_ms", "p99_ms"],
    )
    peaks: dict[str, float] = {}
    for name, factory in PROTOCOLS.items():
        make = DeploymentFactory(factory, Config.lan(3, 3, seed=55))
        points = closed_loop_sweep(
            make,
            spec,
            concurrencies,
            duration=duration,
            warmup=duration * 0.2,
            settle=0.05,
            workers=jobs,
        )
        for p in points:
            result.rows.append(
                [name, p.concurrency, round(p.throughput), p.mean_latency_ms, p.p99_latency_ms]
            )
        result.series[name] = [(p.throughput, p.mean_latency_ms) for p in points]
        peaks[name] = max_throughput(points)
    ordering = sorted(peaks, key=peaks.get, reverse=True)
    result.notes.append(
        "max throughput: " + ", ".join(f"{n}={peaks[n]:.0f}/s" for n in ordering)
    )
    result.notes.append(
        f"ordering: {' > '.join(ordering)} "
        "(paper: WanKeeper > WPaxos > Paxos ~ FPaxos > EPaxos)"
    )
    result.notes.append(
        f"WPaxos/Paxos = {peaks['WPaxos'] / peaks['Paxos']:.2f} (paper ~1.55x, sub-linear)"
    )
    result.notes.append(_model_cross_check(peaks))
    return result


def _model_cross_check(peaks: dict[str, float]) -> str:
    """Analytic capacities next to the measured ones (the two-pronged
    cross-validation the paper's abstract promises)."""
    from repro.core.protocol_models import (
        PaxosModel,
        WanKeeperModel,
        WPaxosModel,
    )
    from repro.core.topology import lan

    topo = lan(9)
    modeled = {
        "Paxos": PaxosModel(topo).max_throughput(),
        "WPaxos": WPaxosModel(topo, 3, 3, locality=1 / 3).max_throughput(),
        "WanKeeper": WanKeeperModel(topo, 3, 3, locality=1 / 3).max_throughput(),
    }
    parts = [
        f"{name}: model {modeled[name]:.0f} vs measured {peaks[name]:.0f}"
        for name in modeled
    ]
    return "model cross-check (same ordering expected): " + "; ".join(parts)
