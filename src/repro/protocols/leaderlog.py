"""The leader-based replicated log: what MultiPaxos/FPaxos and Raft share.

The paper evaluates Paxos and Raft side by side as "essentially the same
protocol with a single stable leader driving the command replication"
(Fig. 7).  :class:`LeaderLog` owns, once, every mechanism that only needs
*a log with a leader epoch*: the three read paths, lease and detector
construction from ``params``, election timing, leader observation and the
planned handoff, and the pipeline bound between batcher and log.  A
protocol supplies the log (``docs/WRITING_A_PROTOCOL.md`` lists the
hooks).  Recovery and catch-up stay with the protocols — state transfer
(Paxos) and nextIndex repair (Raft) are different mechanisms, not copies.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable

from repro.paxi.deployment import Deployment
from repro.paxi.detector import (
    DEGRADED,
    HEALTHY,
    AdaptiveTimeout,
    NodeHealthMonitor,
)
from repro.paxi.ids import NodeID
from repro.paxi.lease import FollowerGrant, LeaderLease
from repro.paxi.message import Batch, ClientReply, ClientRequest, Message
from repro.paxi.protocol import Protocol
from repro.paxi.quorum import MajorityQuorum, Quorum
from repro.protocols.log import RequestInfo


@dataclass(frozen=True, slots=True)
class ReadQuery(Message):
    """Quorum read: ask a peer for its log frontier."""

    rid: int = 0


@dataclass(frozen=True, slots=True)
class ReadReply(Message):
    """Quorum read: the peer's highest accepted/appended index."""

    rid: int = 0
    frontier: int = 0


@dataclass(frozen=True, slots=True)
class HandoffRequest(Message):
    """Follower -> leader: "you look degraded; consider handing off".

    Sent (rate-limited) by a follower whose φ-accrual monitor classifies
    the leader as *degraded* — alive, heartbeating, but stretched well
    past its healthy cadence.  The sender implicitly volunteers as the
    successor: its request arriving at all is evidence it is reachable.
    ``epoch`` is the leader's ballot or term as the follower sees it.
    """

    SIZE_BYTES = 40

    epoch: Any = None


@dataclass(frozen=True, slots=True)
class Handoff(Message):
    """Old leader -> successor: "I have stopped replicating, released my
    lease and stepped down from ``epoch``; campaign now with my consent"."""

    SIZE_BYTES = 60

    epoch: Any = None


class LeaderLog(Protocol):
    """A replica of a log replicated by one leader per epoch.

    Subclasses implement the log and supply the hooks declared first in
    the class body — the whole interface.  Two behaviours differ between
    the protocols and are kept as plain attributes: ``relaxed_reads``
    (MultiPaxos's param: untagged reads are served locally) and
    ``election_timer_free_runs`` (Raft re-arms the election timer while
    leading or recovering; MultiPaxos lets it lapse until the next leader
    message).

    Recognized config params (shared by MultiPaxos, FPaxos and Raft):

    - ``leader``: node that campaigns at start-up (default: first node);
    - ``heartbeat_interval``: seconds between leader heartbeats (0.02);
    - ``election_timeout``: base follower timeout before campaigning (the
      default is the protocol's);
    - ``retransmit_timeout``: retry period for protocol retransmissions,
      the handoff drain deadline and ``Handoff`` re-sends (default 0.3);
    - ``lease_duration``: leader lease length in seconds on each node's own
      clock (default ``None`` = leases disabled).  Enables
      ``read_mode="lease"`` reads served from the leader's local store
      while a grant quorum's promises are in force (see
      :mod:`repro.paxi.lease` and ``docs/READS.md``);
    - ``max_clock_skew``: bound on per-node clock drift the lease math
      discounts (default 0.0; a ``skew`` fault larger than this voids the
      lease safety argument — by design, for the adversarial tests);
    - ``detector``: enable the φ-accrual failure detector (default False).
      Followers grade the leader's sender-stamped heartbeats; elections
      switch from the fixed ``election_timeout`` to a Jacobson adaptive
      timeout, a spurious expiry is vetoed while φ still reads healthy, and
      a *degraded* (alive-but-slow) leader is handed off without an
      availability gap;
    - ``phi_threshold``: suspicion level at which a silent leader counts as
      failed (default 8.0 — a 1-in-10^8 silence); ``phi_window`` (64) and
      ``detector_min_samples`` (8) size the accrual window;
    - ``slow_ratio``: heartbeat-cadence stretch (recent mean over frozen
      healthy baseline) at which the leader counts as degraded and a
      handoff is solicited (default 2.5);
    - ``adaptive_multiplier`` (4.0) / ``adaptive_ceiling`` (2.0 s): the
      election delay is the adaptive estimate times the multiplier, and
      the estimate never exceeds the ceiling;
    - ``handoff``: allow the planned-handoff reaction (default True when
      the detector is on; False detects but never reacts);
    - ``handoff_votes``: distinct followers that must report degradation
      within ``handoff_vote_window`` seconds (default 0.5) before the
      leader steps aside (default 2, so one follower behind a bad link
      cannot trigger a handoff on its own); ``handoff_cooldown`` (1.0 s)
      spaces successive handoffs.

    Per-command read paths (``Command.read_mode``, reachable through
    ``Session(consistency=...)``): ``"lease"`` as above (falls back to a
    full consensus round when the lease is invalid), ``"quorum"`` polls a
    read quorum for its log frontier and serves after the local state
    machine has applied through it (linearizable, leader off the critical
    path), ``"local"`` serves from any replica's store (bounded staleness).
    """

    # -- the interface a protocol supplies (attribute or property) -------
    active: bool  #: True while this replica leads; the handoff clears it
    epoch: Any  #: the ballot/term this replica leads or campaigns under
    last_log_index: int  #: highest index accepted/appended locally
    last_applied: int  #: highest index executed on the state machine
    in_flight: int  #: proposals not yet committed (the pipeline bound)

    @abc.abstractmethod
    def _submit(self, m: ClientRequest) -> None:
        """The consensus path of ``on_request``: propose when leading,
        forward to the believed leader or park otherwise."""

    @abc.abstractmethod
    def _propose(self, command: Any, request: Any) -> None:
        """Append one entry (a command or ``Batch``) and replicate it."""

    @abc.abstractmethod
    def _campaign(self) -> None:
        """Start an election for a higher epoch."""

    @abc.abstractmethod
    def _step_down(self, epoch: Any) -> None:
        """Adopt a newer ``epoch`` from a message: the one place the
        ballot or term rises.  It hands pending requests on with
        :meth:`_forward_pending`."""

    @abc.abstractmethod
    def _handoff_ready(self, successor: NodeID) -> bool:
        """The drain reached ``_handoff_point`` and ``successor`` can win."""

    @abc.abstractmethod
    def _recover(self) -> None:
        """Rebuild a restarted incarnation (WAL replay, learner mode)."""

    def _superseded(self, epoch: Any) -> bool:
        """A newer leader's epoch than ``epoch`` has been seen."""
        return epoch < self.epoch

    def _read_hint(self, local: bool) -> NodeID | None:
        """Leader hint carried by read replies."""
        return self.leader_hint

    def read_quorum(self) -> Quorum:
        """Replicas a quorum read polls.  Must intersect every commit
        quorum so a committed write's frontier is visible to at least one
        polled member (a majority here; ``n - q2 + 1`` in FPaxos)."""
        return MajorityQuorum(self.config.node_ids)

    relaxed_reads = False
    election_timer_free_runs = False

    def __init__(
        self,
        deployment: Deployment,
        node_id: NodeID,
        *,
        stream: str,
        election_timeout: float | None,
    ) -> None:
        """``stream`` names this protocol's RNG streams (``<stream>-<id>``
        for election jitter, ``<stream>-read-<id>`` for read sampling);
        ``election_timeout`` is the protocol's default when the config
        sets none (``None`` = no failover without the detector)."""
        super().__init__(deployment, node_id)
        params = self.config.params
        self.initial_leader: NodeID = params.get("leader", self.config.node_ids[0])
        self.heartbeat_interval: float | None = params.get("heartbeat_interval", 0.02)
        self.election_timeout: float | None = params.get(
            "election_timeout", election_timeout
        )
        self.retransmit_timeout: float = params.get("retransmit_timeout", 0.3)
        self.leader_hint: NodeID | None = self.initial_leader
        #: Learner mode after a wipe (or a reboot without a disk).
        self.recovering = False
        self._parked: list[ClientRequest] = []  # held while nobody here can propose
        self._election_handle = None
        self._stream = stream
        self._rng = deployment.cluster.streams.stream(f"{stream}-{node_id}")

        self.batcher = self.make_batcher(self.propose_batch)
        self.pipeline_depth: int | None = self.config.pipeline_depth
        self._proposal_queue: deque[list[ClientRequest]] = deque()

        # Leader leases and the non-default read paths (all strictly
        # opt-in: with lease_duration unset and no read_mode commands,
        # none of this machinery sends a byte or draws a random number).
        self.lease_duration: float | None = params.get("lease_duration")
        self.max_clock_skew: float = params.get("max_clock_skew", 0.0)
        if self.lease_duration is not None:
            self._lease: LeaderLease | None = LeaderLease(
                self.clock,
                self.lease_duration,
                self.max_clock_skew,
                len(self.config.node_ids) // 2 + 1,
                self.id,
            )
            self._grant: FollowerGrant | None = FollowerGrant(
                self.clock, self.lease_duration
            )
            if self.restart_reason is not None:
                # Whatever we granted before the restart is forgotten:
                # block every candidate for one full duration.
                self._grant.grant_unknown()
        else:
            self._lease = None
            self._grant = None
        #: Lease reads wait until this index has been applied: everything
        #: a new leader adopted from (or appended to fence) its predecessor.
        self._read_barrier = 0
        self._pending_lease_reads: list[ClientRequest] = []
        self._read_waiters: dict[Hashable, list[ClientRequest]] = {}
        self._quorum_reads: dict[int, list] = {}  # rid -> [request, quorum, frontier]
        self._next_read_id = 0
        self._rinse_waiters: list[list] = []  # [frontier, request]
        self._read_rng = None  # lazily created: default runs never draw from it

        # Gray-failure detection and planned handoff (strictly opt-in:
        # with ``detector`` unset nothing below allocates a timer, sends a
        # message, or draws a random number).
        self.detector_enabled: bool = bool(params.get("detector", False))
        self.handoff_enabled: bool = bool(params.get("handoff", True))
        self.handoff_votes_needed: int = params.get("handoff_votes", 2)
        self.handoff_vote_window: float = params.get("handoff_vote_window", 0.5)
        self.handoff_cooldown: float = params.get("handoff_cooldown", 1.0)
        if self.detector_enabled:
            self._monitor: NodeHealthMonitor | None = NodeHealthMonitor(
                phi_threshold=params.get("phi_threshold", 8.0),
                slow_ratio=params.get("slow_ratio", 2.5),
                window=params.get("phi_window", 64),
                min_samples=params.get("detector_min_samples", 8),
            )
            self._adaptive: AdaptiveTimeout | None = AdaptiveTimeout(
                initial=self.election_timeout or 0.15,
                floor=2.0 * (self.heartbeat_interval or 0.02),
                ceiling=params.get("adaptive_ceiling", 2.0),
            )
            self.adaptive_multiplier: float = params.get("adaptive_multiplier", 4.0)
        else:
            self._monitor = None
            self._adaptive = None
        self._handing_off = False  # leader: drain in progress
        self._handoff_point = 0  # leader: log frontier the drain waits for
        self._handoff_successor: NodeID | None = None
        self._handoff_votes: dict[NodeID, float] = {}  # suspecting follower -> at
        self._handoff_cooldown_until = 0.0
        self._handoff_request_after = 0.0  # follower-side solicit rate limit
        self._handoff_grant: NodeID | None = None  # consent token for next campaign
        self.handoffs_completed = 0  # old-leader side
        self.handoffs_received = 0  # successor side
        self.handoff_requests_sent = 0

        self.register(ReadQuery, self.on_read_query)
        self.register(ReadReply, self.on_read_reply)
        self.register(HandoffRequest, self.on_handoff_request)
        self.register(Handoff, self.on_handoff)

    def _start(self) -> None:
        """Last step of a subclass constructor: recover a restarted
        incarnation, or campaign (bootstrap leader) / arm the timer."""
        if self.restart_reason is not None:
            self._recover()
        elif self.id == self.initial_leader:
            self.set_timer(0.0, self._campaign)
        elif self._failover_enabled:
            self._reset_election_timer()

    @property
    def _failover_enabled(self) -> bool:
        """Whether this replica arms election timers at all: a fixed
        ``election_timeout``, or the detector's adaptive timeout."""
        return self.election_timeout is not None or self._monitor is not None

    # ------------------------------------------------------------------
    # Client requests: read dispatch, then the protocol's consensus path
    # ------------------------------------------------------------------

    def on_request(self, src: Hashable, m: ClientRequest) -> None:
        if m.command.is_read:
            mode = m.command.read_mode
            if mode == "local" or (mode is None and self.relaxed_reads):
                self._serve_local_read(m)
                return
            if mode == "quorum" and not self.recovering:
                self._start_quorum_read(m)
                return
            if mode == "lease" and self._try_lease_read(m):
                return
            # lease invalid (or this replica isn't the leaseholder): fall
            # through to the full consensus round — always linearizable.
        self._submit(m)

    def _submit_group(self, group: list[ClientRequest]) -> None:
        """Propose ``group`` now, or queue it behind the pipeline bound."""
        if self.pipeline_depth is not None and self.in_flight >= self.pipeline_depth:
            self._proposal_queue.append(group)
            return
        self._propose_group(group)

    def _propose_group(self, group: list[ClientRequest]) -> None:
        if len(group) == 1:
            m = group[0]
            self._propose(m.command, RequestInfo.of(m))
        else:
            self._propose(
                Batch(tuple(m.command for m in group)),
                tuple(RequestInfo.of(m) for m in group),
            )

    def _release_pipeline(self) -> None:
        while self._proposal_queue and (
            self.pipeline_depth is None or self.in_flight < self.pipeline_depth
        ):
            self._propose_group(self._proposal_queue.popleft())

    def _forward_pending(self, *, keep_own: bool = True) -> None:
        """Hand what nobody here will propose to ``leader_hint``: parked
        requests, then those caught mid-batch or queued behind the pipeline
        bound (their admission withdrawn).  A planned handoff in progress
        is moot.  Nothing moves while this replica leads.  While it is its
        own hint it keeps them (``keep_own``: MultiPaxos, which parks such
        requests while it campaigns) or drops them for the clients'
        retries to find the leader (Raft, whose ``_submit`` drops too)."""
        hint = self.leader_hint
        if self.active or (keep_own and hint == self.id):
            return
        if self._handing_off:
            self._handing_off = False
            self._handoff_successor = None
        pending: list[ClientRequest] = self.batcher.drain() if self.batcher is not None else []
        while self._proposal_queue:
            pending.extend(self._proposal_queue.popleft())
        for m in pending:
            self.replies.withdraw(m)
        parked, self._parked = self._parked, []
        if hint is not None and hint != self.id:
            for m in parked + pending:
                self.send(hint, m)

    # ------------------------------------------------------------------
    # Local reads (bounded staleness, session tokens)
    # ------------------------------------------------------------------

    def _serve_local_read(self, m: ClientRequest) -> None:
        """Answer from the local state machine.  A session token
        (``min_version``) defers the reply until this replica has executed
        that many writes to the key, giving read-your-writes and monotonic
        reads without a consensus round."""
        key = m.command.key
        if self.store.version(key) < m.command.min_version:
            self._read_waiters.setdefault(key, []).append(m)
            return
        self._serve_read_from_store(m, local=True)

    def _drain_read_waiters(self, key: Hashable) -> None:
        waiters = self._read_waiters.get(key)
        if not waiters:
            return
        ready = [m for m in waiters if self.store.version(key) >= m.command.min_version]
        if ready:
            self._read_waiters[key] = [m for m in waiters if m not in ready]
            for m in ready:
                self._serve_local_read(m)

    def _serve_read_from_store(self, m: ClientRequest, local: bool = False) -> None:
        key = m.command.key
        self.send(
            m.client,
            ClientReply(
                request_id=m.request_id,
                ok=True,
                value=self.store.read(key),
                replied_by=self.id,
                leader_hint=self._read_hint(local),
                version=self.store.version(key),
            ),
        )

    # ------------------------------------------------------------------
    # Linearizable read paths: leader leases and quorum reads
    # ------------------------------------------------------------------

    def _lease_valid(self) -> bool:
        """Whether this node's leader lease currently permits serving
        local reads.  Override hook: the adversarial tests plant broken
        variants here and let the linearizability checker catch them."""
        return self._lease is not None and self._lease.valid

    def _lease_stamp(self) -> int:
        """Open a lease grant round for an outgoing broadcast (0 = leases
        are off, and the field stays at its wire-neutral default)."""
        return self._lease.stamp() if self._lease is not None else 0

    def _lease_blocks(self, candidate: Hashable, released_by: NodeID | None = None) -> bool:
        """A live lease forbids promising to / voting for ``candidate``:
        either this node granted someone else and the grant hasn't expired
        on its own clock, or this node is the leaseholder itself and the
        counted grants (skew-padded, because granters run their refusal
        windows on their own clocks) are still in force.

        ``released_by`` is a planned-handoff consent token: a grant held
        by exactly that node releases early, because the holder stopped
        serving lease reads before it signed the successor's campaign.
        The leaseholder-side window never releases this way — only its
        owner knows when it truly stopped serving."""
        if self._grant is not None and self._grant.blocks(candidate):
            if released_by is None or not self._grant.releases(released_by):
                return True
        return (
            self._lease is not None
            and candidate != self.id
            and self.clock.now < self._lease.valid_until + self.max_clock_skew
        )

    def _try_lease_read(self, m: ClientRequest) -> bool:
        """Serve (or park) a lease read; False = caller must fall back."""
        if not self.active or not self._lease_valid():
            return False
        if self.last_applied >= self._read_barrier:
            self._serve_read_from_store(m)
        else:
            self._pending_lease_reads.append(m)
        return True

    def _start_quorum_read(self, m: ClientRequest) -> None:
        """PQR-style quorum read: poll a read quorum for its log frontier;
        any replica (not just the leader) coordinates."""
        quorum = self.read_quorum()
        quorum.ack(self.id)
        frontier = self.last_log_index
        if quorum.satisfied():  # single-node cluster
            self._finish_quorum_read(m, frontier)
            return
        self._next_read_id += 1
        rid = self._next_read_id
        self._quorum_reads[rid] = [m, quorum, frontier]
        self.multicast(self._read_targets(quorum.size - 1), ReadQuery(rid=rid))

    def _read_targets(self, needed: int) -> list[NodeID]:
        """Random sample of peers so concurrent readers spread the member
        work instead of piling onto the same replicas."""
        peers = self.peers
        if needed >= len(peers):
            return peers
        if self._read_rng is None:
            self._read_rng = self.deployment.cluster.streams.stream(
                f"{self._stream}-read-{self.id}"
            )
        return self._read_rng.sample(peers, needed)

    def on_read_query(self, src: Hashable, m: ReadQuery) -> None:
        if self.recovering:
            return  # an incomplete log would under-report the frontier
        self.send(src, ReadReply(rid=m.rid, frontier=self.last_log_index))

    def on_read_reply(self, src: Hashable, m: ReadReply) -> None:
        state = self._quorum_reads.get(m.rid)
        if state is None:
            return
        state[2] = max(state[2], m.frontier)
        quorum = state[1]
        quorum.ack(src)
        if quorum.satisfied():
            del self._quorum_reads[m.rid]
            self._finish_quorum_read(state[0], state[2])

    def _finish_quorum_read(self, m: ClientRequest, frontier: int) -> None:
        """Rinse: a committed write is in the log of at least one polled
        member, so the highest frontier bounds it — serve only after the
        local state machine has applied through that index."""
        if self.last_applied >= frontier:
            self._serve_read_from_store(m)
        else:
            self._rinse_waiters.append([frontier, m])

    def _drain_read_backlog(self) -> None:
        """Execution advanced: settle rinse waiters and barrier-parked
        lease reads (re-admitting the latter if the lease lapsed)."""
        if self._rinse_waiters:
            still: list[list] = []
            for waiter in self._rinse_waiters:
                if self.last_applied >= waiter[0]:
                    self._serve_read_from_store(waiter[1])
                else:
                    still.append(waiter)
            self._rinse_waiters = still
        if self._pending_lease_reads:
            pending, self._pending_lease_reads = self._pending_lease_reads, []
            for m in pending:
                if not self.active or not self._lease_valid():
                    self.on_request(m.client, m)  # fall back to consensus
                elif self.last_applied >= self._read_barrier:
                    self._serve_read_from_store(m)
                else:
                    self._pending_lease_reads.append(m)

    # ------------------------------------------------------------------
    # Election timing
    # ------------------------------------------------------------------

    def _reset_election_timer(self) -> None:
        if not self._failover_enabled:
            return
        if self._election_handle is not None:
            self._election_handle.cancel()
        delay = self._election_delay() * (1.0 + self._rng.random())
        self._election_handle = self.set_timer(delay, self._election_expired)

    def _election_delay(self) -> float:
        """Base follower timeout before campaigning.  With the detector on
        this is the Jacobson estimate over observed heartbeat cadence (so
        it self-tunes to the topology instead of being hand-set); the
        fixed ``election_timeout`` otherwise."""
        adaptive = self._adaptive
        if adaptive is not None and adaptive.samples >= 4:
            return adaptive.timeout * self.adaptive_multiplier
        return self.election_timeout if self.election_timeout is not None else 0.15

    def _election_expired(self) -> None:
        if self.active or self.recovering:
            if self.election_timer_free_runs:
                self._reset_election_timer()
            return
        # A live lease grant forbids campaigning: our campaign would be
        # refused anyway, so wait out the window instead.  φ veto: the
        # timer fired but the accrual evidence says the leader is fine (an
        # unlucky jitter streak, not a failure); degraded and silent
        # leaders fall through to the campaign.
        blocked = self._grant is not None and self._grant.blocks(self.id)
        if not blocked and not self._leader_reads_healthy():
            self._campaign()
        self._reset_election_timer()

    def _leader_reads_healthy(self) -> bool:
        if self._monitor is None:
            return False
        leader = self.leader_hint
        return (
            leader is not None
            and leader != self.id
            and self._monitor.samples(leader) > 0
            and self._monitor.assess(leader, self.clock.now) == HEALTHY
        )

    # ------------------------------------------------------------------
    # Gray-failure detection and planned leader handoff
    # ------------------------------------------------------------------

    def _observe_leader(self, src: NodeID, epoch: Any, delay: float | None) -> None:
        """Heartbeat receipt: feed the φ-accrual monitor and the adaptive
        timeout, then grade the leader.  A *degraded* verdict (alive but
        stretched past ``slow_ratio``) solicits a planned handoff instead
        of waiting for an election that a still-heartbeating leader will
        never trigger."""
        now = self.clock.now
        interval = self._monitor.observe(src, now, delay=delay)
        if interval is not None and self._adaptive is not None:
            self._adaptive.observe(interval)
        if not self.handoff_enabled or self.active or self.recovering:
            return
        if self.now < self._handoff_request_after:
            return
        if self._monitor.assess(src, now) != DEGRADED:
            return
        self._handoff_request_after = self.now + self.handoff_vote_window / 2.0
        self.handoff_requests_sent += 1
        self.send(src, HandoffRequest(epoch=epoch))

    def on_handoff_request(self, src: Hashable, m: HandoffRequest) -> None:
        """Leader side: tally degradation reports; once enough distinct
        followers agree within the vote window, hand off to the latest
        reporter (its request arriving proves it is reachable)."""
        if (
            not self.active
            or self.recovering
            or self._handing_off
            or m.epoch != self.epoch
            or not self.handoff_enabled
        ):
            return
        now = self.now
        if now < self._handoff_cooldown_until:
            return
        horizon = now - self.handoff_vote_window
        self._handoff_votes = {
            peer: at for peer, at in self._handoff_votes.items() if at >= horizon
        }
        self._handoff_votes[src] = now
        if len(self._handoff_votes) >= self.handoff_votes_needed:
            self._begin_handoff(src)

    def _begin_handoff(self, successor: NodeID) -> None:
        """Handoff phase 1: stop proposing and drain to a transfer point.

        The transfer point is the current log frontier — leadership moves
        only once the protocol reports the drain complete
        (``_handoff_ready``: everything at or below the point committed,
        so no entry this leader may already have answered a client for
        can be lost in the transition; Raft additionally waits for the
        successor to hold it all).  Requests arriving during the drain
        park and follow the successor once it takes over."""
        self._handing_off = True
        self._handoff_successor = successor
        self._handoff_votes = {}
        self._handoff_cooldown_until = self.now + self.handoff_cooldown
        if self.batcher is not None:
            self.batcher.flush()
        while self._proposal_queue:
            self._propose_group(self._proposal_queue.popleft())
        self._handoff_point = self.last_log_index
        if not self._maybe_complete_handoff():
            # Liveness fallback: if the drain cannot finish (lost acks, a
            # crashed follower holding an entry open), resume normal
            # leadership rather than wedging the group in a half-handoff.
            self.set_timer(
                self.retransmit_timeout,
                lambda: self._handoff_drain_expired(successor),
            )

    def _handoff_drain_expired(self, successor: NodeID) -> None:
        if self._handing_off and self._handoff_successor == successor:
            self._handing_off = False
            self._handoff_successor = None
            # Still the leader: requests parked during the drain resume.
            parked, self._parked = self._parked, []
            for m in parked:
                self.on_request(m.client, m)

    def _maybe_complete_handoff(self) -> bool:
        """Called by the protocol whenever its commit frontier moves
        during a drain; completes the handoff once it is ready."""
        successor = self._handoff_successor
        if successor is None or not self.active or not self._handoff_ready(successor):
            return False
        self._complete_handoff()
        return True

    def _complete_handoff(self) -> None:
        """Handoff phase 2: release the lease, step down, and solicit the
        successor's campaign.  Ordering matters: our own validity window
        dies *before* the Handoff leaves, so by the time the successor's
        consent-bearing campaign releases the followers' grant windows
        this node can no longer serve a lease read."""
        successor = self._handoff_successor
        self._handing_off = False
        self._handoff_successor = None
        self._stop_leading()
        self.leader_hint = successor
        self.handoffs_completed += 1
        epoch = self.epoch
        self.send(successor, Handoff(epoch=epoch))
        self.set_timer(
            self.retransmit_timeout,
            lambda: self._retransmit_handoff(successor, epoch, 3),
        )
        self._forward_pending()
        self._reset_election_timer()

    def _stop_leading(self) -> None:
        """The load-bearing step of a handoff (the adversarial tests plant
        a variant that skips it): lease first, then the role."""
        if self._lease is not None:
            self._lease.valid_until = float("-inf")
            # Clears in-flight grant rounds too, so a straggling grant
            # reply cannot resurrect the window we just released.
            self._lease.reset()
        self.active = False

    def _retransmit_handoff(self, successor: NodeID, epoch: Any, attempts: int) -> None:
        """Liveness: the Handoff travels over the same lossy network as
        everything else.  Re-send until a campaign shows up (this node
        moves to, or sees, an epoch past the handed-off one); the ordinary
        election timer is the ultimate fallback."""
        if (
            self.active
            or self.recovering
            or self.epoch != epoch
            or self._superseded(epoch)
            or attempts <= 0
        ):
            return
        self.send(successor, Handoff(epoch=epoch))
        self.set_timer(
            self.retransmit_timeout,
            lambda: self._retransmit_handoff(successor, epoch, attempts - 1),
        )

    def on_handoff(self, src: Hashable, m: Handoff) -> None:
        """Successor side: campaign immediately, carrying the old leader's
        consent so follower grant windows release instead of stalling the
        election for a lease duration."""
        if self.recovering or self.active or self._superseded(m.epoch):
            return  # (superseded: a newer leader already exists)
        self.handoffs_received += 1
        self._handoff_grant = src
        self._campaign()
