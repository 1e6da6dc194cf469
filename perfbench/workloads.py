"""The five benchmark workloads.

Each builder takes the seed and returns a :class:`Cell`: a started
deployment (or sharded cluster) plus its load driver, using only the
public API of ``repro``.  Virtual durations are the ISSUE-11 sizes times
one common factor (:data:`COMMON_SCALE`) — never a per-workload factor —
and scale linearly with ``--seconds`` so the work per run is fixed by
``(seed, seconds)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.openloop import OpenLoopEngine, PoissonArrivals
from repro.bench.shard_bench import ShardedClosedLoopBenchmark, ShardedDeploymentFactory
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.protocols.epaxos import EPaxos
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft
from repro.shard.placement import ShardSpec

#: One factor applied to every workload's virtual duration, sized so a
#: pass at ``--seconds 10`` takes 7-9 s of host wall on the 2-core
#: reference box: a ``--trace 1`` run (calibration + untraced + traced
#: pass) then takes ~30 s and 114 driver runs fit their 3420 s cap with
#: room for the box's slow spells.
COMMON_SCALE = 0.6
#: ``run_seconds`` in BENCHMARK.json; ``--seconds`` scales virtual time by
#: ``seconds / RUN_SECONDS``.
RUN_SECONDS = 10
#: Node outage length in the fault plan (virtual s); not scaled, because a
#: failover takes what it takes however long the run is.
DOWNTIME = 0.5


def virtual_factor(seconds: float) -> float:
    return COMMON_SCALE * seconds / RUN_SECONDS


@dataclass
class Cell:
    """One built workload, ready for a single measured pass."""

    target: object  # Deployment or ShardedCluster (both quack alike)
    groups: list  # the Deployment(s) underneath, for stats and checkers
    bench: object  # the load driver; ``run(duration, warmup, settle)``
    virtual_s: float  # measured window at factor 1.0
    drain_s: float  # idle virtual time after the window, before checking
    #: ``(attempted, ok)`` logical operations once the run has drained.
    tally: Callable[["Cell", object], tuple[int, int]]
    #: Called with (cell, settle, duration) just before the run starts.
    arm: Callable[["Cell", float, float], None] | None = None
    #: Free-form per-workload observations (fault plan, catch-up time...).
    notes: dict = field(default_factory=dict)

    def run(self, factor: float):
        duration = self.virtual_s * factor
        warmup = settle = 0.1 * duration
        if self.arm is not None:
            self.arm(self, settle, duration)
        result = self.bench.run(duration=duration, warmup=warmup, settle=settle)
        self.target.run_for(self.drain_s)
        return result

    def clients(self) -> list:
        return [client for group in self.groups for client in group.clients]


# ----------------------------------------------------------------------
# Outcome accounting (every request issued is either ok or not)
# ----------------------------------------------------------------------


def _tally_requests(cell: Cell, result) -> tuple[int, int]:
    """Single-command workloads: one logical op per client request.  A
    request still pending after the drain never got a reply."""
    clients = cell.clients()
    ok = sum(client.completed for client in clients)
    lost = sum(client.failed for client in clients) + cell.target.history.in_flight
    return ok + lost, ok


def _tally_txn_mix(cell: Cell, result) -> tuple[int, int]:
    """Sharded mix: a logical op is a single command or one transaction.
    An aborted transaction is a decided outcome but not a useful one, so
    it counts as attempted and not ok."""
    bench = cell.bench
    ok = bench.singles_completed + bench.txns_committed
    lost = sum(client.failed for client in cell.clients()) + cell.target.history.in_flight
    return ok + bench.txns_aborted + lost, ok


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def _single(config: Config, protocol, spec: WorkloadSpec, clients: int, virtual_s: float) -> Cell:
    deployment = Deployment(config).start(protocol)
    bench = ClosedLoopBenchmark(deployment, spec, concurrency=clients)
    return Cell(deployment, [deployment], bench, virtual_s, 0.2, _tally_requests)


def lan_paxos_sat(seed: int) -> Cell:
    return _single(
        Config.lan(3, 3, seed),
        MultiPaxos,
        WorkloadSpec(keys=1000, write_ratio=0.5),
        clients=64,
        virtual_s=4.0,
    )


def lan_epaxos_conflict(seed: int) -> Cell:
    return _single(
        Config.lan(3, 3, seed),
        EPaxos,
        WorkloadSpec(keys=1000, write_ratio=0.5, conflict_ratio=0.4),
        clients=64,
        virtual_s=1.0,
    )


def lan_raft_durable_reads(seed: int) -> Cell:
    return _single(
        Config.lan(
            3,
            3,
            seed,
            durability="group",
            batch_size=16,
            batch_window=0.001,
            pipeline_depth=8,
            lease_duration=0.5,
            max_clock_skew=0.01,
        ),
        Raft,
        WorkloadSpec(keys=1000, write_ratio=0.1, read_mode="lease"),
        clients=128,
        virtual_s=6.0,
    )


def _leader_of(deployment: Deployment):
    for node_id, replica in deployment.replicas.items():
        if getattr(replica, "state", None) == "leader" or getattr(replica, "active", False):
            return node_id
    return deployment.config.node_ids[0]


def _arm_fault_plan(cell: Cell, settle: float, duration: float) -> None:
    """Reboot whoever leads a third of the way in, wipe a follower that
    has not been down yet at two thirds, and watch (1 ms polls, only while
    it is catching up) how long the wiped node takes to rejoin."""
    deployment = cell.target
    loop = deployment.cluster.loop
    notes = cell.notes

    def reboot_leader() -> None:
        victim = _leader_of(deployment)
        notes["rebooted"] = str(victim)
        deployment.reboot(victim, downtime=DOWNTIME)

    def wipe_follower() -> None:
        leader = _leader_of(deployment)
        victim = next(
            n
            for n in reversed(deployment.config.node_ids)
            if n != leader and str(n) != notes.get("rebooted")
        )
        notes["wiped"] = str(victim)
        deployment.wipe(victim, downtime=DOWNTIME)
        loop.call_after(DOWNTIME, poll_catchup, victim, deployment.now + DOWNTIME)

    def poll_catchup(victim, restarted_at: float) -> None:
        replica = deployment.replicas.get(victim)
        if replica is not None and not getattr(replica, "recovering", False):
            notes["catchup_virtual_ms"] = (deployment.now - restarted_at) * 1e3
        elif deployment.now - restarted_at < 2.0:
            loop.call_after(0.001, poll_catchup, victim, restarted_at)

    loop.call_at(settle + duration / 3.0, reboot_leader)
    loop.call_at(settle + 2.0 * duration / 3.0, wipe_follower)


def fault_openloop_checked(seed: int) -> Cell:
    config = Config.lan(
        3,
        3,
        seed,
        durability="fsync",
        snapshot_interval=25,
        detector=True,
        catchup_snapshot_gap=16,
    )
    deployment = Deployment(config).start(MultiPaxos)
    deployment.cluster.obs.tracer.enabled = True
    engine = OpenLoopEngine(
        deployment,
        WorkloadSpec(keys=50, write_ratio=0.5),
        PoissonArrivals(2000),
        request_timeout=1.0,
        retry_timeout=0.25,
    )
    return Cell(deployment, [deployment], engine, 6.0, 1.0, _tally_requests, arm=_arm_fault_plan)


def shard_txn_mix(seed: int) -> Cell:
    cluster = ShardedDeploymentFactory(
        MultiPaxos,
        Config.lan(3, 3, seed, batch_size=16, batch_window=0.001, pipeline_depth=8),
        ShardSpec(count=4, buckets=64, leaders="spread"),
    )()
    bench = ShardedClosedLoopBenchmark(
        cluster,
        WorkloadSpec(keys=1000, write_ratio=0.5),
        concurrency=256,
        txn_ratio=0.2,
        txn_keys=2,
    )
    return Cell(cluster, list(cluster.groups), bench, 0.6, 0.2, _tally_txn_mix)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Cell]
    why: str  # one line; copied into BENCHMARK.json


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lan_paxos_sat",
            lan_paxos_sat,
            "MultiPaxos 9-node LAN at saturation (64 closed-loop clients): ~50 cheap events/op, "
            "so the engine (clock, server, network, random) does most of the work",
        ),
        Workload(
            "lan_epaxos_conflict",
            lan_epaxos_conflict,
            "EPaxos, 40% conflicting keys: protocol handlers and the dependency graph dominate "
            "and the engine is a minority, so an engine optimisation predicts almost no change",
        ),
        Workload(
            "lan_raft_durable_reads",
            lan_raft_durable_reads,
            "Raft, 90% lease reads beside batched group-commit writes (128 clients): the "
            "leader-log layer used differently, on the second god class",
        ),
        Workload(
            "fault_openloop_checked",
            fault_openloop_checked,
            "Open-loop Poisson 2000/s while the leader is rebooted and a follower wiped: "
            "elections, detector, WAL recovery, catch-up, request tracing, idle elsewhere",
        ),
        Workload(
            "shard_txn_mix",
            shard_txn_mix,
            "Four MultiPaxos groups on one loop, 256 clients, 20% two-key 2PC transactions: "
            "routing, lock/decide traffic and aborts, so ok_ops_share is a live number",
        ),
    )
}
