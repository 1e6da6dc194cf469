"""MultiPaxos: single stable leader, majority quorums (paper section 2).

The implementation follows the paper's description and optimizations:

- **multi-decree**: the leader runs phase-1 once and then drives every slot
  through phase-2 only, as long as its ballot stays the highest seen;
- **piggybacked commit**: phase-3 rides on the next phase-2 broadcast as a
  ``commit_upto`` watermark (plus a periodic heartbeat that doubles as the
  liveness signal for leader election);
- **full replication**: the leader broadcasts accepts to every replica
  (the paper's evaluation setting), with a thrifty option for the analytic
  comparisons;
- **forwarding**: any replica accepts client requests and forwards them to
  the leader; replies carry a leader hint so clients go direct afterwards;
- **compaction**: every replica forgets executed slots below a cluster-wide
  floor that acceptors report on P2b and the leader's heartbeat carries.

Leader failure is handled with randomized election timeouts: a replica that
stops hearing from the leader runs phase-1 with a higher ballot, recovers
uncommitted entries from its phase-1 quorum, and takes over.

Crash recovery (durable configs): promises and accepts are persisted to the
node's write-ahead log *before* the corresponding P1b/P2b leaves the node,
and the leader counts its own accept toward a slot's quorum only once the
record is durable.  A rebooted replica replays its WAL (and latest disk
snapshot) to restore ``promised`` and the accepted log, then catches up on
recently-committed slots through the generic catch-up exchange in
:mod:`repro.paxi.recovery`.  A wiped replica (or a rebooted one in an
in-memory config) rejoins as a *learner*: it abstains from promises, votes,
and accepts — so forgotten promises can never un-commit a value — until
state transfer has caught it up to a donor's commit frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Batch, ClientReply, ClientRequest, Message
from repro.paxi.quorum import MajorityQuorum, Quorum
from repro.paxi.recovery import (
    CatchupReply,
    CatchupRequest,
    CatchupRunner,
    entries_payload_bytes,
)
from repro.protocols.ballot import Ballot, ZERO
from repro.protocols.leaderlog import LeaderLog
from repro.sim.storage import Snapshot
from repro.protocols.log import (
    Acceptor,
    CommandLog,
    Entry,
    EntryCommand,
    EntrySnapshot,
    entry_pairs,
    request_infos,
)


@dataclass(frozen=True, slots=True)
class P1a(Message):
    """Phase-1a: ``lead with ballot b?`` plus the candidate's commit frontier.

    ``handoff_from`` is only set when the campaign was solicited by a
    planned leader handoff: it names the old leader, whose released lease
    lets followers promise immediately instead of waiting out their grant
    window (see :meth:`repro.paxi.lease.FollowerGrant.releases`).
    """

    ballot: Ballot = ZERO
    commit_upto: int = 0
    handoff_from: NodeID | None = None


@dataclass(frozen=True, slots=True)
class P1b(Message):
    """Phase-1b: promise (or rejection) with the follower's log suffix."""

    SIZE_BYTES = 400

    ballot: Ballot = ZERO
    ok: bool = True
    entries: tuple[EntrySnapshot, ...] = ()


@dataclass(frozen=True, slots=True)
class P2a(Message):
    """Phase-2a: accept this command in this slot (carries commit watermark).

    ``command`` may be a :class:`~repro.paxi.message.Batch`; the wire size
    then grows with the number of carried commands so the NIC accounting
    reflects the fatter accept.
    """

    ballot: Ballot = ZERO
    slot: int = 0
    command: EntryCommand = None
    request: Any = None
    commit_upto: int = 0
    lease_seq: int = 0  # nonzero: also renews the leader lease

    def wire_size(self) -> int:
        if isinstance(self.command, Batch):
            return self.SIZE_BYTES + self.command.extra_bytes()
        return self.SIZE_BYTES


@dataclass(frozen=True, slots=True)
class P2b(Message):
    """Phase-2b: accepted (or rejected because of a higher promise)."""

    ballot: Ballot = ZERO
    slot: int = 0
    ok: bool = True
    lease_seq: int = 0  # echoes the P2a's lease round (0 = no lease)
    floor: int = 0  # highest slot the acceptor can never ask for again


@dataclass(frozen=True, slots=True)
class Commit(Message):
    """Periodic commit watermark broadcast; doubles as leader heartbeat."""

    ballot: Ballot = ZERO
    commit_upto: int = 0
    lease_seq: int = 0  # nonzero: also renews the leader lease
    floor: int = 0  # cluster floor: no member asks for a slot at or below
    #: Leader-clock stamp at heartbeat-timer fire, set only when the φ
    #: detector is on (0.0 otherwise, keeping default traffic identical).
    #: Receipt time minus this exposes the *emission* delay — a heartbeat
    #: queued behind a degraded leader's data plane arrives late even
    #: though the timer keeps its cadence, which is exactly the gray-
    #: failure signature interval statistics alone cannot see.
    sent_at: float = 0.0


@dataclass(frozen=True, slots=True)
class LeaseGrant(Message):
    """A follower's lease grant for one heartbeat's renewal round."""

    ballot: Ballot = ZERO
    seq: int = 0


@dataclass(frozen=True, slots=True)
class FillRequest(Message):
    """Ask the leader for slots this replica never received."""

    slots: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class FillReply(Message):
    SIZE_BYTES = 400

    entries: tuple[EntrySnapshot, ...] = ()
    floor: int = 0  # the server's log floor: slots at or below it are gone


class MultiPaxos(LeaderLog, Acceptor):
    """A MultiPaxos replica: a slot map with gaps, ordered by ballots, and
    one :class:`~repro.protocols.log.Acceptor` over it.

    Batching and pipelining come from the typed config fields
    (``Config.batch_size`` / ``batch_window`` / ``pipeline_depth``): the
    leader coalesces admitted requests through a
    :class:`~repro.paxi.node.Batcher` into one multi-command slot per
    flush, and bounds how many uncommitted slots it keeps in flight.

    The read paths, leases, the failure detector, election timing and the
    planned handoff — and their config params — are
    :class:`~repro.protocols.leaderlog.LeaderLog`'s.  MultiPaxos's own:

    - ``election_timeout``: defaults to ``None`` = failover disabled (the
      paper's steady-state benchmarks) unless the detector is on;
    - ``thrifty``: leader sends P2a only to a minimal quorum (default False,
      the paper's full-replication evaluation setting);
    - ``relaxed_reads``: serve reads from any replica's local state machine
      without a consensus round (default False).  This implements the
      paper's section-7 future work: consistency relaxes from
      linearizability to bounded staleness, and to session consistency
      (read-your-writes + monotonic reads) when clients send version
      tokens (``Client.session_reads``);
    - ``catchup_snapshot_gap`` (64) / ``catchup_max_entries`` (256): when a
      catch-up donor ships a snapshot instead of log entries, and how many
      committed entries one reply carries.  Every replica also keeps that
      many executed slots when it compacts its log below the cluster floor.
    """

    def __init__(self, deployment: Deployment, node_id: NodeID) -> None:
        super().__init__(deployment, node_id, stream="paxos", election_timeout=None)
        params = self.config.params
        self.thrifty: bool = bool(params.get("thrifty", False))
        self.relaxed_reads: bool = bool(params.get("relaxed_reads", False))
        #: Catch-up donors ship a snapshot instead of log entries once the
        #: requester is this many slots behind the donor's executed frontier.
        self.catchup_snapshot_gap: int = params.get("catchup_snapshot_gap", 64)
        #: Committed entries per CatchupReply (the requester re-asks).
        self.catchup_max_entries: int = params.get("catchup_max_entries", 256)

        self.log = CommandLog()
        if self._lease is not None:
            # A grant quorum only has to intersect every phase-1 quorum:
            # FPaxos's leases need |q2| grants, not a majority.
            self._lease.quorum_size = self.phase2_quorum().size

        self._peer_floors: dict[Hashable, int] = {}  # acceptor -> floor, this heartbeat
        self._heartbeat_armed = False
        self._catchup: CatchupRunner | None = None

        self.register(P1a, self.on_p1a)
        self.register(P1b, self.on_p1b)
        self.register(P2a, self.on_p2a)
        self.register(P2b, self.on_p2b)
        self.register(Commit, self.on_commit)
        self.register(LeaseGrant, self.on_lease_grant)
        self.register(FillRequest, self.on_fill_request)
        self.register(FillReply, self.on_fill_reply)
        self.register(CatchupRequest, self.on_catchup_request)
        self.register(CatchupReply, self.on_catchup_reply)
        self._start()

    # ------------------------------------------------------------------
    # The LeaderLog interface over a slot map
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> Ballot:
        return self.ballot

    @property
    def last_log_index(self) -> int:
        return self.log.next_slot - 1

    @property
    def last_applied(self) -> int:
        return self.log.execute_index - 1

    @property
    def in_flight(self) -> int:
        return self.log.in_flight

    _superseded = Acceptor.superseded

    def _read_hint(self, local: bool) -> NodeID | None:
        return self.id if self.active and not local else None

    def _handoff_ready(self, successor: NodeID) -> bool:
        return self.log.commit_upto() >= self._handoff_point

    # ------------------------------------------------------------------
    # Quorum construction (overridden by FPaxos)
    # ------------------------------------------------------------------

    def phase1_quorum(self) -> Quorum:
        return MajorityQuorum(self.config.node_ids)

    def phase2_quorum(self) -> Quorum:
        return MajorityQuorum(self.config.node_ids)

    def read_quorum(self) -> Quorum:
        """Acceptors a quorum read polls.  Must intersect every phase-2
        quorum so a committed write's accepted frontier is visible to at
        least one polled member (majority here; ``n - q2 + 1`` in FPaxos)."""
        return MajorityQuorum(self.config.node_ids)

    def phase2_targets(self) -> list[NodeID]:
        """Peers to send P2a to (everyone, or a minimal set when thrifty)."""
        if not self.thrifty:
            return self.peers
        needed = self.phase2_quorum().size - 1  # leader self-votes
        ordered = self.deployment.nearest_nodes(self.site)
        return [nid for nid in ordered if nid != self.id][:needed]

    # ------------------------------------------------------------------
    # Phase 1: leader (re-)election
    # ------------------------------------------------------------------

    def start_phase1(self) -> None:
        """Campaign to lead with a ballot above everything seen so far."""
        self.leader_hint = self.id
        if self.campaign(self.id, self.phase1_quorum(), self.log):  # single-node cluster
            self.persist("promise", self.ballot)
            self._become_leader()
            return
        # The campaign ballot is a promise to ourselves: make it durable
        # before anyone can learn about it.  A pending handoff consent
        # token rides on the P1a so follower grant windows release early.
        ballot = self.ballot
        token, self._handoff_grant = self._handoff_grant, None
        self.persist(
            "promise",
            ballot,
            then=lambda: self.broadcast(
                P1a(
                    ballot=ballot,
                    commit_upto=self.log.commit_upto(),
                    handoff_from=token,
                )
            ),
        )

    _campaign = start_phase1

    def _step_down(self, ballot: Ballot, *, reply: tuple = (), logged: bool = False) -> None:
        """Adopt ``ballot``, which a rule of the acceptor let in: the one
        place MultiPaxos's promise rises or leadership moves.  The hint
        and the buffered requests follow the ballot's owner, and the
        election timer restarts.  A risen promise is persisted, and a P1b
        ``reply = (dst, message)`` leaves once it is durable, unless a WAL
        record already carries the ballot (``logged``: an accept record,
        whose P2a writes no promise record, or replay)."""
        durable = not logged and self.outranked(ballot)
        self.adopt(ballot, self.id)
        self.leader_hint = ballot.owner
        self._forward_pending()
        if durable:
            self.persist("promise", ballot, then=self.send if reply else None, args=reply)
        self._reset_election_timer()

    def on_p1a(self, src: Hashable, m: P1a) -> None:
        if self.recovering:
            return  # a learner's promise history is gone; abstain
        blocked = self._lease_blocks(m.ballot.owner, released_by=m.handoff_from)
        if blocked or not self.promises(m.ballot, m.commit_upto, self.log):
            self.send(src, P1b(ballot=self.promised, ok=False))
            return
        # The promise must survive a reboot before the candidate can count
        # it, so the P1b waits for the WAL record's fsync.
        reply = P1b(ballot=m.ballot, ok=True, entries=self.log.snapshots(above=m.commit_upto))
        self._step_down(m.ballot, reply=(src, reply))

    def on_p1b(self, src: Hashable, m: P1b) -> None:
        if not m.ok:
            if self.outranked(m.ballot):
                self._step_down(m.ballot)
            return
        if self.tally(src, m.ballot, m.entries):
            self._become_leader()

    def _become_leader(self) -> None:
        self.leader_hint = self.id
        walk = self.win(self.log)
        if self._lease is not None:
            # Fresh term: grant rounds restart under the new ballot.
            self._lease.reset()
        # Adopt committed entries; re-propose uncommitted ones with our
        # ballot; fill gaps with no-ops (paper section 2: the leader must
        # instruct followers to accept pending commands it learned).
        for slot, command, request in walk:
            self._propose(command, request, slot)
        if self._lease is not None:
            # Lease reads wait until every slot adopted from the previous
            # leader has executed locally (that leader may have replied to
            # clients for them already).
            self._read_barrier = self.log.next_slot - 1
        self._peer_floors = {}  # a past term's reports may predate a wipe
        self._advance_execution()
        if self.heartbeat_interval is not None and not self._heartbeat_armed:
            self._heartbeat_armed = True
            self.set_timer(self.heartbeat_interval, self._heartbeat)
        parked, self._parked = self._parked, []
        for m in parked:
            self.on_request(m.client, m)

    def _self_ack(self, slot: int) -> None:
        """Count the leader's own (now durable) accept toward ``slot``."""
        if not self.active:
            return
        entry = self.log.entries.get(slot)
        if entry is None or entry.ballot != self.ballot:
            return  # re-led in between; the new ballot re-persisted it
        if self.log.ack(slot, self.id):
            self._on_slot_committed(slot)

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------

    def _submit(self, m: ClientRequest) -> None:
        if self.answer_duplicate(m, self.leader_hint if not self.active else self.id):
            return
        if self.recovering:
            # Learners can't propose; hand the request to the cluster.
            if self.leader_hint != self.id:
                self.send(self.leader_hint, m)
            else:
                self._parked.append(m)
            return
        if self.active:
            if self._handing_off:
                # Mid-handoff drain: no new slots past the transfer point.
                # The request follows the successor on completion (or is
                # replayed here if the handoff aborts).
                self._parked.append(m)
                return
            if not self.replies.admit(m):
                return  # duplicate while the original is still committing
            if self.batcher is not None:
                self.batcher.add(m)
            else:
                self._submit_group([m])
        elif self.leader_hint != self.id:
            self.send(self.leader_hint, m)  # forward to the believed leader
        else:
            self._parked.append(m)

    def propose_batch(self, requests: list[ClientRequest]) -> None:
        """Replicate a coalesced group of requests as one log entry.

        This is the batcher's flush target.  If leadership was lost while
        the batch filled, the requests are re-admitted (and forwarded to
        whoever leads now).
        """
        if not self.active:
            for m in requests:
                self.replies.withdraw(m)
                self.on_request(m.client, m)
            return
        self._submit_group(list(requests))

    def _propose(self, command: EntryCommand, request: Any, slot: int | None = None) -> None:
        """Replicate ``command`` in the next free slot, or re-propose it in
        ``slot`` under our ballot (phase-1 recovery)."""
        quorum = self.phase2_quorum()
        if self.disk is None:
            quorum.ack(self.id)
        slot = self.log.propose(self.ballot, command, request, quorum, now=self.now, slot=slot)
        self.multicast(
            self.phase2_targets(),
            P2a(
                ballot=self.ballot,
                slot=slot,
                command=command,
                request=request,
                commit_upto=self.log.commit_upto(),
                lease_seq=self._lease_stamp(),
            ),
        )
        if self.disk is not None:
            # Durable mode: our own accept joins the quorum only once the
            # WAL record is synced (it overlaps the P2a round trips).
            self.persist(
                "accept",
                (slot, self.ballot, command, request),
                slot=slot,
                command=command,
                then=self._self_ack,
                args=(slot,),
            )
        elif quorum.satisfied():  # single-node cluster
            self._on_slot_committed(slot)

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------

    def on_p2a(self, src: Hashable, m: P2a) -> None:
        if self.recovering:
            return  # learners don't vote; catch-up will deliver the slot
        if not self.accepts(m.ballot):
            self.send(src, P2b(ballot=self.promised, slot=m.slot, ok=False))
            return
        # The accept record carries its ballot, so replay restores both the
        # entry and the implied promise: no promise record of its own.
        self._step_down(m.ballot, logged=True)
        self.log.accept(m.slot, m.ballot, m.command, m.request)
        # Accepting doubles as a lease grant: echo the round number so the
        # leader can anchor the window at its own broadcast time.
        lease_seq = m.lease_seq if self._grant is not None else 0
        if lease_seq:
            self._grant.grant(m.ballot.owner)
        # The P2b leaves only after the record is durable (the paper's
        # "fsync in critical path").
        reply = P2b(ballot=m.ballot, slot=m.slot, ok=True, lease_seq=lease_seq, floor=self._floor())
        self.persist(
            "accept",
            (m.slot, m.ballot, m.command, m.request),
            slot=m.slot,
            command=m.command,
            then=self.send,
            args=(src, reply),
        )
        self._on_watermark(m.commit_upto, m.ballot, src)

    def on_p2b(self, src: Hashable, m: P2b) -> None:
        if not m.ok:
            if self.outranked(m.ballot):
                self._step_down(m.ballot)
            return
        self._peer_floors[src] = m.floor
        if not self.active or m.ballot != self.ballot:
            return
        if m.lease_seq and self._lease is not None:
            # Count the grant even if the slot already committed: grant
            # tallies are per round, not per entry.
            self._lease.record_grant(m.lease_seq, src)
        if self.log.ack(m.slot, src):
            self._on_slot_committed(m.slot)

    def _on_slot_committed(self, slot: int) -> None:
        self.log.commit(slot)
        for info in request_infos(self.log.entries[slot].request):
            self.trace_mark(info)
        if self.active:
            self._release_pipeline()
        self._advance_execution()
        if self._handing_off:
            self._maybe_complete_handoff()

    # ------------------------------------------------------------------
    # Commit propagation and execution
    # ------------------------------------------------------------------

    def on_commit(self, src: Hashable, m: Commit) -> None:
        if self.recovering or not self.accepts(m.ballot):
            return  # (catch-up owns a learner's commit progress)
        if self._monitor is not None and src != self.id:
            # Before the step-down: its election timer uses what this teaches.
            delay = self.clock.now - m.sent_at if m.sent_at > 0.0 else None
            self._observe_leader(src, m.ballot, delay)
        self._step_down(m.ballot)  # a leader deposed while cut off leaves here
        if m.lease_seq and self._grant is not None:
            self._grant.grant(m.ballot.owner)
            self.send(src, LeaseGrant(ballot=m.ballot, seq=m.lease_seq))
        self._on_watermark(m.commit_upto, m.ballot, src)
        self._compact(m.floor)

    def on_lease_grant(self, src: Hashable, m: LeaseGrant) -> None:
        if self.active and m.ballot == self.ballot and self._lease is not None:
            self._lease.record_grant(m.seq, src)

    def _on_watermark(self, upto: int, ballot: Ballot, leader: Hashable) -> None:
        """Commit what the leader's watermark certifies (CommandLog's rule),
        fetch the rest from it, and execute."""
        need = self.log.apply_watermark(upto, ballot, self.now, self.retransmit_timeout)
        if need:
            self.send(leader, FillRequest(slots=need))
        self._advance_execution()

    def on_fill_request(self, src: Hashable, m: FillRequest) -> None:
        if self.recovering:
            return  # nothing trustworthy to serve
        self.send(src, FillReply(entries=self.log.snapshots(m.slots), floor=self.log.floor))

    def on_fill_reply(self, src: Hashable, m: FillReply) -> None:
        self.log.adopt(m.entries)
        self._advance_execution()
        if m.floor >= self.log.execute_index and self._catchup is None:
            # The leader has forgotten slots we still need, as Raft's
            # compacted leader does: fetch a snapshot through catch-up.
            self._start_catchup()

    def _advance_execution(self) -> None:
        self.log.execute(self._execute_slot)
        if self._rinse_waiters or self._pending_lease_reads:
            self._drain_read_backlog()
        self.maybe_snapshot(self.log.execute_index - 1)

    def _execute_slot(self, slot: int, entry: Entry) -> None:
        # A batched slot fans out into one (command, request) pair per
        # coalesced client command: each executes, caches, and replies
        # individually, so batching is invisible above this point.
        for command, info in entry_pairs(entry.command, entry.request):
            value = None
            if command is not None:
                value = self.replies.execute(info, self.store.execute, command)
                if command.is_write:
                    self._drain_read_waiters(command.key)
            if info is not None and entry.ballot.owner == self.id and self.active:
                self.send(
                    info.client,
                    ClientReply(
                        request_id=info.request_id,
                        ok=True,
                        value=value,
                        replied_by=self.id,
                        leader_hint=self.id,
                        version=(
                            self.store.version(command.key)
                            if command is not None
                            else 0
                        ),
                    ),
                )

    def _floor(self) -> int:
        """The highest slot this replica can never ask for again.  In memory
        that is its executed prefix: a reboot there is a wipe, which rejoins
        through snapshot catch-up.  With a disk it is the installed disk
        snapshot, the only state a reboot replays from."""
        if self.disk is None:
            return self.log.execute_index - 1
        snap = self.disk.snapshot
        return snap.upto if snap is not None else 0

    def _compact(self, floor: int) -> None:
        """Forget executed slots at or below the cluster ``floor``, keeping
        the newest ``catchup_snapshot_gap`` so a catch-up donor serves from
        its log exactly where it would without compaction."""
        self.log.compact(min(floor, self.log.execute_index - 1 - self.catchup_snapshot_gap))

    # ------------------------------------------------------------------
    # Heartbeats and elections
    # ------------------------------------------------------------------

    def _heartbeat(self) -> None:
        if not self.active:
            self._heartbeat_armed = False
            return
        # A peer counts with what it reported since the last heartbeat; a
        # silent one (frozen, cut off, restarting) pins the floor at 0, so
        # no report outlives the log it described.
        floors, self._peer_floors = self._peer_floors, {}
        floor = min([self._floor()] + [floors.get(p, 0) for p in self.peers])
        upto = self.log.commit_upto()
        self.broadcast(
            Commit(
                ballot=self.ballot,
                commit_upto=upto,
                lease_seq=self._lease_stamp(),
                floor=floor,
                sent_at=self.clock.now if self.detector_enabled else 0.0,
            )
        )
        self._compact(floor)
        # Re-send what lost its race with the network (drops, partitions).
        due = self.log.due(self.now, self.retransmit_timeout, self.phase2_targets(), self.ballot)
        for slot, entry, behind in due:
            self.multicast(
                behind,
                P2a(ballot=self.ballot, slot=slot, command=entry.command, request=entry.request, commit_upto=upto),
            )
        self.set_timer(self.heartbeat_interval, self._heartbeat)

    # ------------------------------------------------------------------
    # Crash recovery: WAL replay, catch-up, and state transfer
    # ------------------------------------------------------------------

    def snapshot_payload(self, executed_upto: int) -> tuple[Any, int]:
        """Applied state through ``executed_upto``: the full multi-version
        store dump plus the reply table (so a restored replica still
        deduplicates retried client requests)."""
        dump = self.store.dump()
        cache = self.replies.copy()
        size = (
            256
            + sum(64 + 16 * len(chain) for chain in dump.values())
            + 32 * len(cache)
        )
        return (dump, cache), size

    def _recover(self) -> None:
        """Rebuild state for a restarted incarnation.

        Reboot with a disk: reinstall the latest snapshot and replay the
        WAL, restoring ``promised`` and every accepted entry — then catch
        up on commits through the generic catch-up exchange (commit flags
        are deliberately not persisted; they are re-learned from peers).
        Wipe, or reboot without a disk: nothing to replay — rejoin as a
        learner and rely entirely on state transfer.
        """
        had_state = False
        if self.disk is not None:
            snap = self.disk.snapshot
            if snap is not None:
                had_state = True
                self._install_state(snap)
            for record in self.disk.wal.records:
                had_state = True
                if record.kind == "promise":
                    ballot = record.data
                else:  # "accept"
                    slot, ballot, command, request = record.data
                    if slot >= self.log.execute_index:
                        self.log.accept(slot, ballot, command, request)
                if self.outranked(ballot):
                    self._step_down(ballot, logged=True)
        self.recovering = self.restart_reason == "wipe" or not had_state
        if not self.recovering:
            if self._failover_enabled:
                self._reset_election_timer()
            elif self.id == self.initial_leader:
                # Static-leader deployments: re-campaign; the P1b suffixes
                # (sent relative to our low commit frontier) re-teach us
                # everything committed while we were down.
                self.set_timer(0.0, self.start_phase1)
        self.set_timer(0.0, self._start_catchup)

    def _install_state(self, snap: Snapshot) -> None:
        """Adopt a state-machine snapshot (from disk or a donor)."""
        dump, cache = snap.payload
        self.store.restore(dump)
        self.replies = cache.copy()
        self.log.compact(snap.upto)
        self.log.execute_index = max(self.log.execute_index, snap.upto + 1)
        self.log.next_slot = max(self.log.next_slot, snap.upto + 1)

    def _start_catchup(self) -> None:
        if self._halted or not self.peers:
            self.recovering = False
            return
        self._catchup = CatchupRunner(self, self.peers, self._make_catchup_request)
        self._catchup.start()

    def _make_catchup_request(self) -> CatchupRequest:
        return CatchupRequest(from_slot=self.log.commit_upto() + 1)

    def on_catchup_request(self, src: Hashable, m: CatchupRequest) -> None:
        if self.recovering:
            return  # can't donate; the requester rotates to another peer
        upto = self.log.commit_upto()
        snapshot = None
        snap_bytes = 0
        from_slot = m.from_slot
        if (
            self.log.execute_index - from_slot > self.catchup_snapshot_gap
            or from_slot <= self.log.floor
        ):
            # Too far behind to serve from the log economically, or below
            # what it still holds: ship the applied state machine instead.
            snap_upto = self.log.execute_index - 1
            payload, snap_bytes = self.snapshot_payload(snap_upto)
            snapshot = Snapshot(snap_upto, payload, snap_bytes)
            from_slot = snap_upto + 1
        entries = []
        commands = 0
        for slot in sorted(s for s in self.log.entries if s >= from_slot):
            entry = self.log.entries[slot]
            if not entry.committed:
                continue
            entries.append((slot, entry.ballot, entry.command, entry.request, True))
            commands += len(entry.command) if isinstance(entry.command, Batch) else 1
            if len(entries) >= self.catchup_max_entries:
                break
        self.send(
            src,
            CatchupReply(
                from_slot=m.from_slot,
                commit_upto=upto,
                snapshot=snapshot,
                entries=tuple(entries),
                payload_bytes=snap_bytes + entries_payload_bytes(len(entries), commands),
                leader_hint=self.leader_hint,
                extra=self.promised,
            ),
        )

    def on_catchup_reply(self, src: Hashable, m: CatchupReply) -> None:
        if self._catchup is None or not self._catchup.active:
            return
        if m.snapshot is not None and m.snapshot.upto >= self.log.execute_index:
            self._install_state(m.snapshot)
        for slot, ballot, command, request, _committed in m.entries:
            if slot < self.log.execute_index:
                continue
            self.log.accept(slot, ballot, command, request)
            self.log.commit(slot)
        if isinstance(m.extra, Ballot) and self.outranked(m.extra):
            # Adopting the donor's promise is always safe (promising more
            # restricts us) and lets a wiped ex-leader pick a fresh ballot.
            self._step_down(m.extra)
        if m.leader_hint is not None:
            self.leader_hint = m.leader_hint
        self._advance_execution()
        if self.log.commit_upto() >= m.commit_upto:
            self._finish_catchup()
        else:
            self._catchup.on_progress()

    def _finish_catchup(self) -> None:
        """Caught up with a donor's commit frontier: rejoin as a voter."""
        runner, self._catchup = self._catchup, None
        if runner is not None:
            runner.stop()
        was_recovering = self.recovering
        self.recovering = False
        if self.disk is not None and self.log.execute_index > 1:
            # Durably capture the adopted state so the *next* reboot
            # replays from here instead of re-transferring everything.
            upto = self.log.execute_index - 1
            payload, size = self.snapshot_payload(upto)
            self._snapshot_inflight = True
            cost = self.disk.profile.sync_cost(size)
            self._server.submit(cost, self._install_snapshot, Snapshot(upto, payload, size))
        if self._failover_enabled:
            self._reset_election_timer()
        elif was_recovering and self.id == self.initial_leader and not self.active:
            self.set_timer(0.0, self.start_phase1)
        self._forward_pending()
