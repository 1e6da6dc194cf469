"""Figure 4: the four queueing models versus a reference Paxi/Paxos run.

The paper drives its Paxos implementation at controlled arrival rates and
overlays the latency-throughput curves predicted by M/M/1, M/D/1, M/G/1,
and G/G/1; M/D/1 and M/G/1 track the implementation almost exactly, which
is why the rest of the analysis uses M/D/1.  We reproduce the comparison
with open-loop (Poisson) load against the simulated Paxos.
"""

from __future__ import annotations

from repro.bench.openloop import OpenLoopEngine, PoissonArrivals
from repro.bench.workload import WorkloadSpec
from repro.core.protocol_models import PaxosModel
from repro.core.queueing import ALL_MODELS, make_model
from repro.core.topology import lan
from repro.experiments.common import ExperimentResult
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.protocols.paxos import MultiPaxos


def run(fast: bool = False) -> ExperimentResult:
    model = PaxosModel(lan(9))
    service_time = model.round_service_time()
    service_sigma = service_time * 0.2
    network_ms = model.network_delay_ms()
    peak = model.max_throughput()
    fractions = (0.4, 0.7, 0.9) if fast else (0.2, 0.35, 0.5, 0.625, 0.75, 0.85, 0.92, 0.97)
    duration = 0.3 if fast else 1.0

    result = ExperimentResult(
        experiment="fig04",
        title="Queueing models vs Paxi/Paxos reference (latency ms vs ops/s)",
        headers=["throughput", *ALL_MODELS, "Paxi"],
    )
    for fraction in fractions:
        rate = peak * fraction
        row: list[float] = [round(rate)]
        for name in ALL_MODELS:
            queue = make_model(name, service_time, service_sigma)
            latency_ms = (queue.wait_time(rate) + service_time) * 1e3 + network_ms
            row.append(round(latency_ms, 3))
            result.series.setdefault(name, []).append((rate, latency_ms))
        measured = _measure_paxi(rate, duration)
        row.append(round(measured, 3))
        result.series.setdefault("Paxi", []).append((rate, measured))
        result.rows.append(row)

    errors = {
        name: _mean_abs_error(result.series[name], result.series["Paxi"])
        for name in ALL_MODELS
    }
    best = min(errors, key=errors.get)
    result.notes.append(
        "mean |model - Paxi| ms: "
        + ", ".join(f"{name}={err:.3f}" for name, err in errors.items())
    )
    result.notes.append(f"closest model: {best} (paper adopts M/D/1; M/G/1 ties)")
    return result


def _measure_paxi(rate: float, duration: float) -> float:
    deployment = Deployment(Config.lan(3, 3, seed=21)).start(MultiPaxos)
    bench = OpenLoopEngine(
        deployment, WorkloadSpec(keys=1000), PoissonArrivals(rate), sites=["LAN"]
    )
    outcome = bench.run(duration=duration, warmup=duration * 0.3, settle=0.05)
    return outcome.latency.mean


def _mean_abs_error(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    return sum(abs(ya - yb) for (_x, ya), (_x2, yb) in zip(a, b)) / len(a)
