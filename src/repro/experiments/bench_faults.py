"""Fault-recovery baseline: MTTR and availability under reboot/wipe.

The crash-recovery subsystem's headline numbers, tracked as a committed
baseline the way ``bench_batching`` tracks throughput knees.  For the
single-leader protocols we power-cycle (``reboot``) or disk-wipe
(``wipe``) the leader mid-run and record the per-50 ms completed-ops
timeline, once in-memory and once with a durable WAL:

- **MTTR**: seconds from fault injection until throughput first regains
  80% of its pre-fault mean (includes the outage itself);
- **availability**: fraction of post-warmup buckets at >= 50% of healthy
  throughput;
- **dip depth/width**: the worst bucket after the fault, and how long the
  sub-80% valley lasts.

A rebooted durable leader replays its WAL and resumes; a wiped one (and
any in-memory victim) rejoins as a learner via snapshot transfer while the
cluster elects a replacement — so wipe MTTR tracks the failover delay
while reboot MTTR tracks the outage itself.

Failover timing comes from the φ-accrual detector with the Jacobson
adaptive election timeout (``params: detector=True`` — see
``repro.paxi.detector``), not a hand-tuned ``election_timeout``: the
timeout is learned from observed heartbeat intervals (SRTT + 4·RTTVAR,
scaled by ``ADAPTIVE_MULTIPLIER``), so the same benchmark
config stays honest if the heartbeat cadence or topology changes.

The results land in ``BENCH_faults.json``::

    python -m repro.experiments bench_faults [--fast]

``check_no_regression()`` is the CI gate: every scenario must have
recovered (finite MTTR) with availability above 50%.
"""

from __future__ import annotations

from repro.bench.parallel import run_grid
from repro.bench.workload import WorkloadGenerator, WorkloadSpec
from repro.experiments.common import ExperimentResult, check_gate, write_baseline
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft

PROTOCOLS = {"paxos": MultiPaxos, "raft": Raft}
FAULTS = ("reboot", "wipe")
MODES = ("memory", "durable")

BUCKET = 0.05
FAULT_AT = 0.8
DOWNTIME = 0.15
CLIENTS = 8
SEED = 73
OUTPUT_FILE = "BENCH_faults.json"


def _config(mode: str) -> Config:
    # Failover is driven by the φ-accrual detector and the Jacobson
    # adaptive election timeout (repro.paxi.detector) rather than a
    # hand-tuned fixed election_timeout: followers learn the heartbeat
    # cadence during the healthy phase, so the timeout tracks the actual
    # deployment instead of a magic constant.
    params: dict = {"detector": True}
    if mode == "durable":
        params.update(
            durability="fsync", snapshot_interval=25, catchup_snapshot_gap=16
        )
    return Config.lan(3, 3, seed=SEED, **params)


def _current_leader(deployment: Deployment):
    for node_id, replica in deployment.replicas.items():
        if getattr(replica, "state", None) == "leader" or getattr(
            replica, "active", False
        ):
            return node_id
    return deployment.config.node_ids[0]


def _drive(factory, mode: str, fault: str, run_for: float) -> dict[int, int]:
    """Run a closed-loop workload, inject ``fault`` on the leader at
    FAULT_AT, and return the completed-ops timeline in BUCKET buckets."""
    deployment = Deployment(_config(mode)).start(factory)
    deployment.run_for(0.3)  # let the initial election settle
    start = deployment.now
    buckets: dict[int, int] = {}
    streams = deployment.cluster.streams
    spec = WorkloadSpec(keys=50, write_ratio=0.5)
    for index in range(CLIENTS):
        client = deployment.new_client()
        client.retry_timeout = 0.25
        generator = WorkloadGenerator(
            spec, streams.stream(f"faults-{index}"), name=f"c{index}"
        )
        _loop(deployment, client, generator, start, run_for, buckets)
    deployment.run_until(start + FAULT_AT)
    victim = _current_leader(deployment)
    if fault == "reboot":
        deployment.reboot(victim, downtime=DOWNTIME)
    else:
        deployment.wipe(victim, downtime=DOWNTIME)
    deployment.run_until(start + run_for)
    caught_up = not getattr(deployment.replicas[victim], "recovering", False)
    return buckets, caught_up


def _loop(deployment, client, generator, start, run_for, buckets) -> None:
    def issue() -> None:
        command = generator.next_command(deployment.now)

        def done(_reply, _latency: float) -> None:
            elapsed = deployment.now - start
            if elapsed < run_for:
                buckets[int(elapsed / BUCKET)] = buckets.get(int(elapsed / BUCKET), 0) + 1
                issue()

        client.invoke(command, on_done=done)

    issue()


def _metrics(buckets: dict[int, int], run_for: float) -> dict:
    n = int(run_for / BUCKET)
    series = [buckets.get(i, 0) for i in range(n)]
    warm_b = int(0.2 / BUCKET)  # ramp-up buckets excluded from baselines
    fault_b = int(FAULT_AT / BUCKET)
    healthy = sum(series[warm_b:fault_b]) / max(1, fault_b - warm_b)
    recovered_b = next(
        (i for i in range(fault_b, n) if series[i] >= 0.8 * healthy), None
    )
    dip_window = series[fault_b : min(n, fault_b + int(1.0 / BUCKET))]
    available = [b >= 0.5 * healthy for b in series[warm_b:]]
    return {
        "healthy_ops": round(healthy / BUCKET, 1),
        "mttr_s": None if recovered_b is None else round((recovered_b - fault_b) * BUCKET, 3),
        "dip_floor_frac": round(min(dip_window) / healthy, 3) if healthy else None,
        "dip_width_s": round(
            ((recovered_b if recovered_b is not None else n) - fault_b) * BUCKET, 3
        ),
        "availability": round(sum(available) / len(available), 3),
    }


def run(fast: bool = False, output: str = OUTPUT_FILE, jobs: int = 1) -> ExperimentResult:
    run_for = 2.4 if fast else 3.2
    protocols = {"paxos": MultiPaxos} if fast else PROTOCOLS
    result = ExperimentResult(
        experiment="bench_faults",
        title=(
            f"Fault recovery baseline (9-node LAN, leader fault @{FAULT_AT}s, "
            f"{DOWNTIME * 1e3:.0f}ms outage)"
        ),
        headers=["protocol", "fault", "mode", "healthy_ops", "mttr_s", "dip_floor", "avail"],
    )
    payload: dict = {
        "experiment": "bench_faults",
        "mode": "fast" if fast else "full",
        "bucket_s": BUCKET,
        "fault_at_s": FAULT_AT,
        "downtime_s": DOWNTIME,
        "seed": SEED,
        "scenarios": {},
    }
    # Each scenario is an independent simulation, so the grid fans out over
    # worker processes; results come back in grid order either way.
    grid = [
        (name, fault, mode)
        for name in protocols
        for fault in FAULTS
        for mode in MODES
    ]
    outcomes = run_grid(
        [(_drive, (protocols[name], mode, fault, run_for)) for name, fault, mode in grid],
        workers=jobs,
    )
    for (name, fault, mode), (timeline, caught_up) in zip(grid, outcomes):
        metrics = _metrics(timeline, run_for)
        metrics["victim_caught_up"] = caught_up
        payload["scenarios"][f"{name}:{fault}:{mode}"] = metrics
        result.rows.append(
            [
                name,
                fault,
                mode,
                metrics["healthy_ops"],
                metrics["mttr_s"],
                metrics["dip_floor_frac"],
                metrics["availability"],
            ]
        )
        result.series[f"{name}:{fault}:{mode}"] = [
            (i * BUCKET, float(timeline.get(i, 0)))
            for i in range(int(run_for / BUCKET))
        ]
    for name in protocols:
        reboot_d = payload["scenarios"][f"{name}:reboot:durable"]
        wipe_d = payload["scenarios"][f"{name}:wipe:durable"]
        result.notes.append(
            f"{name} (durable): MTTR reboot {reboot_d['mttr_s']}s / wipe "
            f"{wipe_d['mttr_s']}s — cluster availability tracks the outage "
            "plus failover, while the victim's WAL replay (reboot) or "
            "snapshot state transfer (wipe) completes off the critical path"
        )
    write_baseline(payload, output)
    result.notes.append(f"wrote {output}")
    return result


def check_no_regression(path: str = OUTPUT_FILE) -> None:
    """CI gate: every scenario recovered, with availability above 50%."""
    check_gate(path, "faults", _failures, _summary, required=("scenarios",))


def _failures(payload: dict):
    for name, metrics in sorted(payload["scenarios"].items()):
        if metrics.get("mttr_s") is None:
            yield f"{name}: never recovered to 80% of healthy throughput"
        elif metrics.get("availability", 0.0) < 0.5:
            yield f"{name}: availability {metrics['availability']:.0%} < 50%"
        elif metrics.get("victim_caught_up") is False:
            yield f"{name}: fault victim never finished catching up"


def _summary(payload: dict) -> str:
    return ", ".join(
        f"{name} mttr={metrics['mttr_s']}s" for name, metrics in sorted(payload["scenarios"].items())
    )
