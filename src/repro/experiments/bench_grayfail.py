"""Gray-failure resilience: fail-slow leader, detection, planned handoff.

A crashed leader is the *easy* failure — followers stop hearing from it,
elect, and move on.  A **gray** failure is the hard one: the leader keeps
answering, just six times slower, so naive timeout-based failover never
fires while the whole group runs at the degraded node's pace
(``repro.core.grayfail.degraded_leader_capacity``).  This benchmark pins
the three-way comparison on a 5-node LAN under closed-loop saturation:

1. **Healthy knee** — baseline capacity with the detector armed.  The
   run doubles as the false-positive gate: zero handoffs may occur on a
   clean cluster.

2. **Undetected fail-slow** — the leader's CPU degrades 6x mid-run with
   only the fixed election timeout watching.  Heartbeats keep flowing
   (late, but flowing), so no failover happens and throughput collapses
   to <= ``UNDETECTED_CEILING`` of the knee — tracking the window-blended
   capacity model within ``MODEL_BAND``.

3. **Detected + handoff** — same fault with the φ-accrual/slowdown
   detector enabled: followers observe stretched heartbeat emission
   delays, vote the leader degraded, and the leader hands its lease to a
   healthy successor with no availability gap.  Throughput must recover
   to >= ``RECOVERED_FLOOR`` of the knee, complete at least one planned
   handoff, and the full history must stay linearizable.

MultiPaxos is always gated; the full run repeats the matrix for Raft
(same gates — the handoff protocol is term-based there but the economics
are identical).  Results land in ``BENCH_grayfail.json``;
``check_no_regression()`` is the CI gate::

    python -m repro.experiments bench_grayfail [--fast]
    python -c "from repro.experiments.bench_grayfail import check_no_regression; check_no_regression()"

The cluster uses the slowed service profile (``t_in = t_out = 100us``,
~1,400 rounds/s knee on 5 nodes) so a 6x CPU degradation dwarfs network
latency and the runs stay cheap.
"""

from __future__ import annotations

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.parallel import DeploymentFactory
from repro.bench.workload import WorkloadSpec
from repro.core.grayfail import (
    degraded_leader_capacity,
    slowdown_detection_heartbeats,
)
from repro.experiments.common import ExperimentResult, check_gate, write_baseline
from repro.paxi.config import Config
from repro.paxi.ids import NodeID
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft
from repro.sim.server import ServiceProfile

OUTPUT_FILE = "BENCH_grayfail.json"

#: Per-protocol seeds (leader election order is seed-dependent; these
#: place the initial leader on node 1.1 so the fault targets it).
SEEDS = {"multipaxos": 21, "raft": 33}

#: Slowed per-node costs: CPU dominates the round trip, so a CPU-factor
#: fault translates almost directly into a throughput factor.
PROFILE = ServiceProfile(t_in=100e-6, t_out=100e-6)

#: The gray fault: the initial leader's CPU slows 6x at t=0.9s and stays
#: slow past the end of the measurement window.
VICTIM = NodeID(1, 1)
CPU_FACTOR = 6.0
FAULT_AT = 0.9
FAULT_DURATION = 4.0

#: Closed-loop saturation (same shape as bench_overload's knee probe).
CONCURRENCY = 48
DURATION = 2.3
WARMUP = 0.2
SETTLE = 0.2

#: Gates.  The payload records them for the reader; the CI check reads
#: these constants, never the payload's copy.
UNDETECTED_CEILING = 0.40  # fail-slow with no detector, fraction of knee
RECOVERED_FLOOR = 0.85  # fail-slow with detector + handoff
MAX_CLEAN_HANDOFFS = 0  # false-positive budget on the healthy run
MODEL_BAND = 0.25  # undetected run vs blended capacity model

#: Detector defaults the model section reports against.
SLOW_RATIO = 2.5
HEARTBEAT_INTERVAL = 0.02


def _blended_model_fraction() -> float:
    """Window-averaged capacity fraction the *undetected* run should hit:
    full speed until the fault lands, ``1/CPU_FACTOR`` after (the leader
    is the sequencer, so the group inherits its slowdown whole)."""
    measure_start = SETTLE + WARMUP
    healthy = max(0.0, FAULT_AT - measure_start) / DURATION
    degraded_capacity = degraded_leader_capacity(1.0, CPU_FACTOR)
    return healthy + (1.0 - healthy) * degraded_capacity


def _run_cell(protocol, seed: int, detector: bool, fail_slow: bool) -> dict:
    """One benchmark cell: optionally degrade the leader, saturate the
    cluster, verify, and count handoffs."""
    params = dict(lease_duration=0.2, max_clock_skew=0.005)
    if detector:
        params["detector"] = True
    else:
        params["election_timeout"] = 0.15
    deployment = DeploymentFactory(
        protocol, Config.lan(1, 5, seed=seed, profile=PROFILE, **params)
    )()
    if fail_slow:
        deployment.fail_slow(
            VICTIM, duration=FAULT_DURATION, cpu_factor=CPU_FACTOR, at=FAULT_AT
        )
    bench = ClosedLoopBenchmark(
        deployment, WorkloadSpec(keys=100), concurrency=CONCURRENCY, sites=["LAN"]
    )
    result = bench.run(DURATION, warmup=WARMUP, settle=SETTLE)
    linearizable, consensus_ok = deployment.verify()
    handoffs = sum(r.handoffs_completed for r in deployment.replicas.values())
    return {
        "throughput": round(result.throughput, 1),
        "handoffs": handoffs,
        "linearizable": linearizable,
        "consensus_ok": consensus_ok,
    }


def _protocol_matrix(protocol, seed: int, result: ExperimentResult) -> dict:
    name = protocol.__name__.lower()
    clean = _run_cell(protocol, seed, detector=True, fail_slow=False)
    knee = clean["throughput"]
    undetected = _run_cell(protocol, seed, detector=False, fail_slow=True)
    detected = _run_cell(protocol, seed, detector=True, fail_slow=True)

    undetected_ratio = undetected["throughput"] / knee if knee else 0.0
    detected_ratio = detected["throughput"] / knee if knee else 0.0
    model_fraction = _blended_model_fraction()
    model_error = (
        abs(undetected_ratio - model_fraction) / model_fraction
        if model_fraction
        else 0.0
    )

    for label, cell, ratio in (
        ("healthy", clean, 1.0),
        ("fail-slow, fixed timeout", undetected, undetected_ratio),
        ("fail-slow, detector+handoff", detected, detected_ratio),
    ):
        result.rows.append(
            [
                name,
                label,
                cell["throughput"],
                round(ratio, 3),
                cell["handoffs"],
                "ok" if cell["linearizable"] and cell["consensus_ok"] else "VIOLATION",
            ]
        )

    return {
        "seed": seed,
        "knee": knee,
        "clean": clean,
        "undetected": {**undetected, "over_knee": round(undetected_ratio, 3),
                       "model_over_knee": round(model_fraction, 3),
                       "model_error": round(model_error, 4)},
        "detected": {**detected, "over_knee": round(detected_ratio, 3)},
    }


def run(fast: bool = False, output: str = OUTPUT_FILE, jobs: int = 1) -> ExperimentResult:
    del jobs  # cells share the victim node; sequential keeps them honest
    protocols = [(MultiPaxos, SEEDS["multipaxos"])]
    if not fast:
        protocols.append((Raft, SEEDS["raft"]))

    result = ExperimentResult(
        experiment="bench_grayfail",
        title=(
            f"Gray-failure resilience (5-node LAN, leader CPU x{CPU_FACTOR:.0f} "
            f"at t={FAULT_AT}s, closed-loop c={CONCURRENCY})"
        ),
        headers=["protocol", "run", "throughput", "over_knee", "handoffs", "safety"],
    )

    matrices = {}
    for protocol, seed in protocols:
        matrices[protocol.__name__.lower()] = _protocol_matrix(protocol, seed, result)

    detect_hbs = slowdown_detection_heartbeats(CPU_FACTOR, SLOW_RATIO)
    payload = {
        "experiment": "bench_grayfail",
        "mode": "fast" if fast else "full",
        "fault": {
            "victim": str(VICTIM),
            "cpu_factor": CPU_FACTOR,
            "at_s": FAULT_AT,
            "duration_s": FAULT_DURATION,
        },
        "gates": {
            "undetected_ceiling": UNDETECTED_CEILING,
            "recovered_floor": RECOVERED_FLOOR,
            "max_clean_handoffs": MAX_CLEAN_HANDOFFS,
            "model_band": MODEL_BAND,
        },
        "model": {
            "degraded_leader_fraction": round(1.0 / CPU_FACTOR, 4),
            "blended_window_fraction": round(_blended_model_fraction(), 4),
            "slowdown_detection_heartbeats": detect_hbs,
            "slowdown_detection_latency_s": round(
                detect_hbs * HEARTBEAT_INTERVAL * CPU_FACTOR, 3
            ),
        },
        "protocols": matrices,
    }
    write_baseline(payload, output)

    for name, matrix in matrices.items():
        result.notes.append(
            f"{name}: knee {matrix['knee']:.0f}/s; undetected fail-slow "
            f"{matrix['undetected']['over_knee']:.2f}x (ceiling {UNDETECTED_CEILING}); "
            f"detector+handoff {matrix['detected']['over_knee']:.2f}x "
            f"(floor {RECOVERED_FLOOR}), {matrix['detected']['handoffs']} handoff(s)"
        )
    result.notes.append(
        f"model: slowdown channel fires after ~{detect_hbs} stretched heartbeats"
    )
    result.notes.append(f"wrote {output}")
    return result


def check_no_regression(path: str = OUTPUT_FILE) -> None:
    """CI gate over ``BENCH_grayfail.json``.

    Fails (``SystemExit``) when an undetected fail-slow leader does *not*
    collapse throughput (the gray-failure hazard this bench demonstrates),
    when the detector+handoff run fails to recover to the floor, completes
    no handoff, or breaks linearizability, when the clean run hands off
    spuriously, or when the undetected collapse drifts off the capacity
    model.
    """
    check_gate(path, "grayfail", _failures, _summary)


def _failures(payload: dict):
    protocols = payload.get("protocols") or {}
    if "multipaxos" not in protocols:
        yield "multipaxos matrix missing from payload"
    for name, matrix in protocols.items():
        clean = matrix.get("clean") or {}
        undetected = matrix.get("undetected") or {}
        detected = matrix.get("detected") or {}
        if clean.get("handoffs", 0) > MAX_CLEAN_HANDOFFS:
            yield (
                f"{name}: {clean.get('handoffs')} handoff(s) on a healthy cluster "
                f"(false-positive budget {MAX_CLEAN_HANDOFFS})"
            )
        if undetected.get("over_knee", 0.0) > UNDETECTED_CEILING:
            yield (
                f"{name}: undetected fail-slow at {undetected.get('over_knee', 0.0):.2f}x "
                f"knee above ceiling {UNDETECTED_CEILING:.2f} — gray failure not reproduced"
            )
        if undetected.get("model_error", 0.0) > MODEL_BAND:
            yield (
                f"{name}: undetected collapse off the capacity model by "
                f"{undetected.get('model_error', 0.0):.1%} (band {MODEL_BAND:.0%})"
            )
        if detected.get("over_knee", 0.0) < RECOVERED_FLOOR:
            yield (
                f"{name}: detector+handoff recovered only "
                f"{detected.get('over_knee', 0.0):.2f}x knee (floor {RECOVERED_FLOOR:.2f})"
            )
        if detected.get("handoffs", 0) < 1:
            yield f"{name}: no planned handoff completed under fail-slow"
        for label, cell in (("clean", clean), ("undetected", undetected),
                            ("detected", detected)):
            if not (cell.get("linearizable", False) and cell.get("consensus_ok", False)):
                yield f"{name}/{label}: safety violation"


def _summary(payload: dict) -> str:
    return ", ".join(
        f"{name} undetected {m.get('undetected', {}).get('over_knee', 0.0):.2f}x / "
        f"recovered {m.get('detected', {}).get('over_knee', 0.0):.2f}x"
        for name, m in payload["protocols"].items()
    )
