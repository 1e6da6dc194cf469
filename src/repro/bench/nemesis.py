"""Nemesis: seeded, composable fault schedules (paper section 4.2).

The paper motivates Paxi's fault injection by how laborious tools like
Jepsen and Chaos Monkey are to drive: "testing for availability ... requires
laborious manual work to simulate all combinations of failures".  A
:class:`Nemesis` automates that combination search — it draws a random
schedule of crashes, drops, slow links, flaky links, and partitions from a
seed, applies it to a deployment, and reports the schedule so any failing
combination replays exactly.

Used by the property-based safety tests and available to users::

    nemesis = Nemesis(seed=7, horizon=2.0)
    schedule = nemesis.unleash(deployment)   # returns the applied events
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID

KINDS = ("crash", "drop", "slow", "flaky", "partition")

#: Every kind a Nemesis understands.  ``KINDS`` (the default draw) keeps
#: its historical value so seeded schedules replay unchanged; the rest are
#: opt-in: ``reboot`` power-cycles the victim (volatile state lost, disk
#: survives), ``wipe`` destroys the disk too (full state transfer on
#: rejoin), ``skew`` steps the victim's clock by ``delta`` seconds (aimed
#: at leader-lease safety margins), and ``lease_expiry_during_partition``
#: isolates one node for longer than ``lease_duration`` so any lease it
#: holds or granted expires while it is cut off — the classic stale-read
#: window for broken lease implementations.  ``rebalance`` moves a random
#: placement bucket between shards mid-run; only meaningful on a sharded
#: cluster, where :class:`repro.shard.nemesis.ShardNemesis` draws and
#: applies it (a plain single-group :meth:`Nemesis.unleash` skips it).
#: ``burst`` multiplies the arrival rate of every registered open-loop
#: workload engine (``Deployment.rate_controllers``) by a seeded
#: ``multiplier`` over its window — the load-side fault that triggers
#: retry storms and metastable collapse; it is not an outage, so it
#: composes freely with ``preserve_quorum=True``.  ``fail_slow`` degrades
#: one node (CPU service-rate multiplier plus optional NIC loss/jitter)
#: without taking it down — the gray failure that feeds every fixed
#: timeout just in time; it is not an outage either.
#: ``partial_partition`` is the asymmetric network fault: a subset of
#: peers loses the path *to* the victim while the victim's outbound
#: traffic still flows; conservatively bookkept as an outage of the
#: victim so ``preserve_quorum`` stays honest.
ALL_KINDS = KINDS + (
    "reboot",
    "wipe",
    "skew",
    "lease_expiry_during_partition",
    "rebalance",
    "burst",
    "fail_slow",
    "partial_partition",
)

#: Fault kinds that take a node fully out of service while they last.
_OUTAGE_KINDS = frozenset({"crash", "reboot", "wipe"})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, fully describing how to replay it."""

    kind: str
    start: float
    duration: float
    victim: NodeID | None = None  # crash
    src: NodeID | None = None  # drop / slow / flaky
    dst: NodeID | None = None
    probability: float = 0.5  # flaky
    group: tuple[NodeID, ...] = ()  # partition minority
    delta: float = 0.0  # skew: clock step in seconds (may be negative)
    shard: int | None = None  # which consensus group a fault targets
    bucket: int | None = None  # rebalance: placement bucket to move
    to_shard: int | None = None  # rebalance: destination group
    multiplier: float = 1.0  # burst: arrival-rate scale over the window
    cpu_factor: float = 1.0  # fail_slow: service-cost multiplier
    nic_loss: float = 0.0  # fail_slow: per-packet drop probability
    nic_jitter: float = 0.0  # fail_slow: mean extra per-packet delay (s)

    def __str__(self) -> str:
        if self.kind == "fail_slow":
            return (
                f"fail_slow({self.victim}, cpu x{self.cpu_factor:.1f}, "
                f"loss {self.nic_loss:.2f}) @{self.start:.2f}s for {self.duration:.2f}s"
            )
        if self.kind == "partial_partition":
            return (
                f"partial_partition({list(self.group)} -/-> {self.victim}) "
                f"@{self.start:.2f}s for {self.duration:.2f}s"
            )
        if self.kind == "rebalance":
            return (
                f"rebalance(bucket {self.bucket} -> shard {self.to_shard}) "
                f"@{self.start:.2f}s"
            )
        if self.kind == "burst":
            return (
                f"burst(x{self.multiplier:.2f}) "
                f"@{self.start:.2f}s for {self.duration:.2f}s"
            )
        target = self.victim or (f"{self.src}->{self.dst}" if self.src else self.group)
        where = f" [shard {self.shard}]" if self.shard is not None else ""
        return f"{self.kind}({target}){where} @{self.start:.2f}s for {self.duration:.2f}s"


@dataclass
class Nemesis:
    """Draws and applies a random fault schedule.

    Parameters
    ----------
    seed:
        Schedule seed; the same seed over the same node set produces the
        same schedule.
    horizon:
        Time window (virtual seconds) the events are scattered over.
    events:
        How many faults to draw.
    kinds:
        Fault classes to draw from; restrict e.g. to ``("drop", "flaky")``
        for protocols without crash recovery.
    spare:
        Nodes never crashed or isolated (e.g. a leader whose failover is
        out of scope, or enough nodes to preserve quorums).
    max_partition_size:
        Largest minority a partition may cut off.
    preserve_quorum:
        When True (the default) the scheduler never lets more than a
        minority of nodes be simultaneously down (crashed, rebooting,
        wiped) or isolated by a partition, so a live majority always
        exists and progress remains possible.  Set to False to probe
        availability loss deliberately.
    """

    seed: int = 0
    horizon: float = 1.0
    events: int = 3
    kinds: Sequence[str] = KINDS
    spare: Sequence[NodeID] = ()
    max_partition_size: int = 2
    max_duration: float = 0.4
    preserve_quorum: bool = True
    #: Lease window assumed by ``lease_expiry_during_partition`` draws:
    #: the victim's isolation lasts 1.5-2.5x this, guaranteeing expiry
    #: mid-partition.  Match it to the deployment's ``lease_duration``.
    lease_duration: float = 0.5
    #: Largest clock step (seconds, either sign) a ``skew`` draw applies.
    #: Set it above the deployment's ``max_clock_skew`` to probe outside
    #: the lease safety envelope.
    skew_magnitude: float = 0.05
    #: ``burst`` draws multiply the open-loop arrival rate by a uniform
    #: value in [burst_min, burst_max] over the event window.
    burst_min: float = 1.5
    burst_max: float = 4.0
    #: ``fail_slow`` draws degrade the victim's CPU by a uniform factor in
    #: [fail_slow_min, fail_slow_max] and drop its packets with a uniform
    #: probability in [0, fail_slow_loss].
    fail_slow_min: float = 3.0
    fail_slow_max: float = 10.0
    fail_slow_loss: float = 0.15

    def __post_init__(self) -> None:
        unknown = set(self.kinds) - set(ALL_KINDS)
        if unknown:
            raise ValueError(
                f"unknown fault kinds {sorted(unknown)!r}; "
                f"valid kinds are {list(ALL_KINDS)}"
            )

    def schedule(self, nodes: Sequence[NodeID]) -> list[FaultEvent]:
        """Draw the fault schedule for ``nodes`` without applying it."""
        rng = random.Random(self.seed)
        eligible = [n for n in nodes if n not in set(self.spare)]
        if not eligible:
            return []
        max_down = (len(nodes) - 1) // 2  # largest minority: a majority stays up
        outages: list[tuple[float, float, frozenset[NodeID]]] = []

        def breaks_quorum(start: float, end: float, victims: set[NodeID]) -> bool:
            """Would downing ``victims`` over [start, end) ever leave fewer
            than a majority of nodes up?  Checked at every instant the
            down-set changes inside the window (its composition only shifts
            at outage starts), so overlapping-but-disjoint-in-time faults
            are not double counted."""
            points = [start] + [s for s, e, _ in outages if start < s < end]
            for t in points:
                down = set(victims)
                for s, e, vs in outages:
                    if s <= t < e:
                        down |= vs
                if len(down) > max_down:
                    return True
            return False

        out: list[FaultEvent] = []
        for _ in range(self.events):
            kind = rng.choice(list(self.kinds))
            start = rng.uniform(0.0, self.horizon)
            duration = rng.uniform(0.05, self.max_duration)
            if kind in _OUTAGE_KINDS:
                victim = rng.choice(eligible)
                if self.preserve_quorum and breaks_quorum(
                    start, start + duration, {victim}
                ):
                    continue  # would take a majority out: drop this draw
                outages.append((start, start + duration, frozenset({victim})))
                out.append(FaultEvent(kind, start, duration, victim=victim))
            elif kind == "partition":
                size = rng.randint(1, min(self.max_partition_size, len(eligible)))
                minority = tuple(rng.sample(eligible, size))
                if self.preserve_quorum and breaks_quorum(
                    start, start + duration, set(minority)
                ):
                    continue
                outages.append((start, start + duration, frozenset(minority)))
                out.append(FaultEvent(kind, start, duration, group=minority))
            elif kind == "rebalance":
                # Needs placement knowledge a plain node-set schedule does
                # not have; ShardNemesis draws these itself.
                continue
            elif kind == "burst":
                # A load surge is not an outage: no node goes down, so it
                # never interacts with the quorum-preservation bookkeeping.
                multiplier = rng.uniform(self.burst_min, self.burst_max)
                out.append(FaultEvent(kind, start, duration, multiplier=multiplier))
            elif kind == "skew":
                # A clock step is not an outage: the node keeps serving,
                # only its lease arithmetic is (possibly) compromised.
                victim = rng.choice(eligible)
                delta = rng.uniform(-self.skew_magnitude, self.skew_magnitude)
                out.append(FaultEvent(kind, start, 0.0, victim=victim, delta=delta))
            elif kind == "fail_slow":
                # A gray failure is not an outage: the victim keeps serving
                # (and heartbeating), just slowly, so quorum bookkeeping
                # never sees it — which is precisely what makes it nasty.
                victim = rng.choice(eligible)
                cpu_factor = rng.uniform(self.fail_slow_min, self.fail_slow_max)
                nic_loss = rng.uniform(0.0, self.fail_slow_loss)
                out.append(
                    FaultEvent(
                        kind,
                        start,
                        duration,
                        victim=victim,
                        cpu_factor=cpu_factor,
                        nic_loss=nic_loss,
                    )
                )
            elif kind == "partial_partition":
                victim = rng.choice(eligible)
                others = [n for n in nodes if n != victim]
                size = rng.randint(1, min(self.max_partition_size, len(others)))
                sources = tuple(rng.sample(others, size))
                # One-way cut, but bookkept as an outage of the victim: if
                # the unreachable subset mattered for quorum the victim is
                # effectively down, so stay conservative.
                if self.preserve_quorum and breaks_quorum(
                    start, start + duration, {victim}
                ):
                    continue
                outages.append((start, start + duration, frozenset({victim})))
                out.append(
                    FaultEvent(kind, start, duration, victim=victim, group=sources)
                )
            elif kind == "lease_expiry_during_partition":
                victim = rng.choice(eligible)
                duration = self.lease_duration * rng.uniform(1.5, 2.5)
                if self.preserve_quorum and breaks_quorum(
                    start, start + duration, {victim}
                ):
                    continue
                outages.append((start, start + duration, frozenset({victim})))
                out.append(
                    FaultEvent(kind, start, duration, victim=victim, group=(victim,))
                )
            else:
                src = rng.choice(list(nodes))
                dst = rng.choice([n for n in nodes if n != src])
                out.append(
                    FaultEvent(
                        kind,
                        start,
                        duration,
                        src=src,
                        dst=dst,
                        probability=rng.uniform(0.2, 0.8),
                    )
                )
        out.sort(key=lambda e: e.start)
        return out

    def unleash(self, deployment: Deployment, at: float | None = None) -> list[FaultEvent]:
        """Draw a schedule and inject it into ``deployment``.

        ``at`` offsets every event (default: the deployment's current
        time).  Returns the applied events for logging/replay.
        """
        base = deployment.now if at is None else at
        events = self.schedule(list(deployment.config.node_ids))
        for event in events:
            start = base + event.start
            if event.kind == "crash":
                deployment.crash(event.victim, event.duration, at=start)
            elif event.kind == "reboot":
                deployment.reboot(event.victim, event.duration, at=start)
            elif event.kind == "wipe":
                deployment.wipe(event.victim, event.duration, at=start)
            elif event.kind == "drop":
                deployment.drop(event.src, event.dst, event.duration, at=start)
            elif event.kind == "slow":
                deployment.slow(event.src, event.dst, event.duration, at=start)
            elif event.kind == "flaky":
                deployment.flaky(
                    event.src, event.dst, event.duration, event.probability, at=start
                )
            elif event.kind == "skew":
                deployment.skew(event.victim, event.delta, at=start)
            elif event.kind == "fail_slow":
                deployment.fail_slow(
                    event.victim,
                    event.duration,
                    cpu_factor=event.cpu_factor,
                    nic_loss=event.nic_loss,
                    nic_jitter=event.nic_jitter,
                    at=start,
                )
            elif event.kind == "partial_partition":
                deployment.partial_partition(
                    event.victim, event.group, event.duration, at=start
                )
            elif event.kind == "rebalance":
                continue  # sharded-cluster fault; see repro.shard.nemesis
            elif event.kind == "burst":
                # Applied to whatever open-loop engines registered with the
                # deployment; a closed-loop run has none and skips it.
                for controller in deployment.rate_controllers:
                    controller.apply_burst(start, event.duration, event.multiplier)
            else:  # partition / lease_expiry_during_partition
                everyone = set(deployment.config.node_ids) | {
                    client.address for client in deployment.clients
                }
                minority = set(event.group)
                deployment.cluster.partition(
                    [minority, everyone - minority], event.duration, at=start
                )
        return events
