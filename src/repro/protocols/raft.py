"""Raft (Ongaro & Ousterhout 2014) — the etcd stand-in for Figure 7.

The paper cross-validates Paxi by benchmarking its Paxos against etcd's
Raft and arguing that "without considering reconfiguration and recovery
differences, Paxos and Raft are essentially the same protocol with a single
stable leader driving the command replication".  We implement Raft from the
paper's cited description — terms, randomized election timeouts,
AppendEntries replication with per-follower ``nextIndex`` backtracking, and
commit via majority ``matchIndex`` — over the same Paxi substrate, which
reproduces exactly that comparison.

Replies are sent only after commit.  In durable configs the Raft paper's
persistence rules apply: ``term``/``votedFor`` and log records hit the
node's write-ahead log before the corresponding VoteReply/AppendReply
leaves, and the leader's own record counts toward commit only once its
local fsync completes.  A rebooted node replays its WAL (plus the latest
disk snapshot) and rejoins as a normal follower; a wiped node rejoins as a
non-voting learner — the leader repairs it through standard nextIndex
backtracking, switching to an InstallSnapshot-style state transfer when
the follower is too far behind to serve from the log — and it votes again
only after catching up to the commit frontier it observed at rejoin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Batch, ClientReply, ClientRequest, Message
from repro.protocols.leaderlog import LeaderLog
from repro.protocols.log import EntryCommand, entry_pairs
from repro.sim.storage import Snapshot

# One replicated log record: (term, command-or-batch, request-info(s))
LogRecord = tuple[int, EntryCommand, Any]
# One log position, (index, record): built once by the proposing leader
LogEntry = tuple[int, LogRecord]

FOLLOWER, CANDIDATE, LEADER = "follower", "candidate", "leader"


@dataclass(frozen=True, slots=True)
class RequestVote(Message):
    term: int = 0
    last_log_index: int = 0
    last_log_term: int = 0
    #: Planned-handoff consent token: the old leader's id, set only on the
    #: campaign a Handoff solicited.  Lets followers release a lease grant
    #: held by exactly that node instead of stalling the election.
    handoff_from: NodeID | None = None


@dataclass(frozen=True, slots=True)
class VoteReply(Message):
    term: int = 0
    granted: bool = False


@dataclass(frozen=True, slots=True)
class AppendEntries(Message):
    SIZE_BYTES = 150

    term: int = 0
    prev_index: int = 0
    prev_term: int = 0
    entries: tuple[LogEntry, ...] = ()
    leader_commit: int = 0
    lease_seq: int = 0  # leader-lease grant round (0 = leases off)
    #: Leader-clock stamp at heartbeat-timer fire, set on empty-entries
    #: heartbeats only when the φ detector is on (0.0 otherwise).  Receipt
    #: time minus this exposes the emission delay — the gray-failure
    #: signal a steady heartbeat timer hides from interval statistics.
    sent_at: float = 0.0

    def wire_size(self) -> int:
        # Batched records fatten the message; plain records keep the
        # seed's flat accounting.
        extra = 0
        for _index, record in self.entries:
            command = record[1]
            if isinstance(command, Batch):
                extra += command.extra_bytes()
        return self.SIZE_BYTES + extra


@dataclass(frozen=True, slots=True)
class AppendReply(Message):
    term: int = 0
    success: bool = False
    match_index: int = 0
    lease_seq: int = 0  # echoed grant round (the reply IS the grant ack)


@dataclass(frozen=True, slots=True)
class InstallSnapshot(Message):
    """State transfer for a follower too far behind to repair from the log
    (wiped disk, or compacted leader log).  Answered with an
    :class:`AppendReply` so the leader's nextIndex machinery stays uniform.
    """

    term: int = 0
    snap_index: int = 0
    snap_term: int = 0
    snapshot: Snapshot | None = None

    def wire_size(self) -> int:
        size = self.snapshot.size_bytes if self.snapshot is not None else 0
        return self.SIZE_BYTES + size


class Raft(LeaderLog):
    """A Raft replica: a contiguous list of records, ordered by terms.

    Batching and pipelining honor the typed config fields: the leader
    coalesces admitted requests into one multi-command log record per
    batch flush, and ``pipeline_depth`` bounds how many uncommitted
    indices it keeps in flight.

    The read paths, leases, the failure detector, election timing and the
    planned handoff — and their config params — are
    :class:`~repro.protocols.leaderlog.LeaderLog`'s.  A lease read here is
    lease-based ReadIndex: served locally by the leader once its term-start
    no-op barrier is applied.  A handoff additionally waits for the
    successor's ``matchIndex`` to reach the transfer point — a successor
    missing entries could not win the election the handoff solicits.
    Raft's own params:

    - ``election_timeout``: defaults to 0.15 s (failover is always on);
    - ``catchup_snapshot_gap`` (64): the leader switches from log repair to
      snapshot transfer once a follower trails the commit frontier by this
      many entries; ``snapshot_retransmit`` (0.3 s) is the minimum interval
      between transfers to the same follower.
    """

    #: A Raft leader (or learner) keeps its election timer ticking idle.
    election_timer_free_runs = True

    def __init__(self, deployment: Deployment, node_id: NodeID) -> None:
        super().__init__(deployment, node_id, stream="raft", election_timeout=0.15)
        params = self.config.params
        #: The leader switches from log repair to snapshot transfer once a
        #: follower's nextIndex trails the commit frontier by this many slots.
        self.catchup_snapshot_gap: int = params.get("catchup_snapshot_gap", 64)
        #: Minimum interval between snapshot transfers to the same follower.
        self.snapshot_retransmit: float = params.get("snapshot_retransmit", 0.3)

        self.term = 0
        self.state = FOLLOWER
        self.voted_for: NodeID | None = None
        self.log: list[LogEntry] = []  # 1-based indices
        self.commit_index = 0
        self.last_applied = 0
        # Log-compaction boundary: entries at or below _snap_index live only
        # in the state-machine snapshot, not in the in-memory list.
        self._snap_index = 0
        self._snap_term = 0
        # Highest own log index known durable; in-memory configs track the
        # log tip synchronously, durable ones lag by the fsync in flight.
        self._durable_index = 0
        self._votes: set[NodeID] = set()
        self._next_index: dict[NodeID, int] = {}
        self._match_index: dict[NodeID, int] = {}
        self._snap_sent: dict[NodeID, float] = {}
        #: A non-voting learner (``recovering``) votes again only once it
        #: has re-learned the commit frontier it saw at rejoin.  It still
        #: accepts AppendEntries — that is how the leader repairs it.
        self._catchup_target: int | None = None

        self.register(RequestVote, self.on_request_vote)
        self.register(VoteReply, self.on_vote_reply)
        self.register(AppendEntries, self.on_append_entries)
        self.register(AppendReply, self.on_append_reply)
        self.register(InstallSnapshot, self.on_install_snapshot)
        self._start()

    # ------------------------------------------------------------------
    # The LeaderLog interface over a contiguous log
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.state == LEADER

    @active.setter
    def active(self, leading: bool) -> None:
        self.state = LEADER if leading else FOLLOWER

    @property
    def epoch(self) -> int:
        return self.term

    @property
    def in_flight(self) -> int:
        return self.last_log_index - self.commit_index

    def _handoff_ready(self, successor: NodeID) -> bool:
        point = self._handoff_point
        return self.commit_index >= point and self._match_index.get(successor, 0) >= point

    # ------------------------------------------------------------------
    # Log helpers
    # ------------------------------------------------------------------

    @property
    def last_log_index(self) -> int:
        return self.log[-1][0] if self.log else self._snap_index

    @property
    def last_log_term(self) -> int:
        return self.log[-1][1][0] if self.log else self._snap_term

    def _pos(self, index: int) -> int:
        """List position of ``index`` (entries at or below the snapshot
        boundary are compacted away)."""
        return index - self._snap_index - 1

    def _term_at(self, index: int) -> int:
        if index <= self._snap_index:
            return self._snap_term if index == self._snap_index else 0
        return self.log[self._pos(index)][1][0]

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------

    def _campaign(self) -> None:
        self.term += 1
        self.state = CANDIDATE
        self.voted_for = self.id
        self._votes = {self.id}
        if len(self.config.node_ids) == 1:
            self.persist("term", (self.term, self.id))
            self._become_leader()
            return
        # Our own vote must survive a reboot before anyone can count it.
        # A pending handoff consent token rides on the RequestVote so
        # follower grant windows release early.
        term = self.term
        token, self._handoff_grant = self._handoff_grant, None
        request = RequestVote(
            term=term,
            last_log_index=self.last_log_index,
            last_log_term=self.last_log_term,
            handoff_from=token,
        )
        self.persist("term", (term, self.id), then=self._solicit_votes, args=(term, request))

    def _solicit_votes(self, term: int, request: RequestVote) -> None:
        if self.term != term or self.state != CANDIDATE:
            return  # superseded while the vote record was syncing
        self.broadcast(request)

    def on_request_vote(self, src: Hashable, m: RequestVote) -> None:
        if self._lease_blocks(src, released_by=m.handoff_from):
            # Refuse without adopting the term: a partitioned candidate
            # must not depose a live leaseholder by term inflation alone.
            self.send(src, VoteReply(term=self.term, granted=False))
            return
        if m.term > self.term:
            self._step_down(m.term)
        if self.recovering:
            # A wiped node's vote history is gone; granting could elect a
            # leader missing committed entries.  Abstain until caught up.
            self.send(src, VoteReply(term=self.term, granted=False))
            return
        up_to_date = (m.last_log_term, m.last_log_index) >= (
            self.last_log_term,
            self.last_log_index,
        )
        grant = (
            m.term == self.term
            and self.voted_for in (None, src)
            and up_to_date
        )
        if grant:
            self.voted_for = src
            self._reset_election_timer()
            # The vote leaves the node only after it is durable.
            term = self.term
            granted = VoteReply(term=term, granted=True)
            self.persist("term", (term, src), then=self.send, args=(src, granted))
            return
        self.send(src, VoteReply(term=self.term, granted=grant))

    def on_vote_reply(self, src: Hashable, m: VoteReply) -> None:
        if m.term > self.term:
            self._step_down(m.term)
            return
        if self.state != CANDIDATE or m.term != self.term or not m.granted:
            return
        self._votes.add(src)
        if len(self._votes) >= len(self.config.node_ids) // 2 + 1:
            self._become_leader()

    def _become_leader(self) -> None:
        self.state = LEADER
        self.leader_hint = self.id
        next_index = self.last_log_index + 1
        self._next_index = {peer: next_index for peer in self.peers}
        self._match_index = {peer: 0 for peer in self.peers}
        self._snap_sent = {}
        if self._lease is not None:
            self._lease.reset()
            # Raft's term-start no-op: committing an own-term entry is the
            # only way a new leader learns the true commit frontier, so
            # lease reads wait until it has been *applied*.
            self._read_barrier = self.last_log_index + 1
            self._propose(None, None)
        else:
            self._broadcast_heartbeat()
        self.set_timer(self.heartbeat_interval, self._heartbeat_tick)

    def _step_down(self, term: int) -> None:
        self.term = term
        self.state = FOLLOWER
        self.voted_for = None
        self.persist("term", (term, None))  # nothing waits on this record
        self._forward_pending(keep_own=False)

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------

    def _submit(self, m: ClientRequest) -> None:
        if self.answer_duplicate(m, self.leader_hint):
            return
        if self.state != LEADER:
            if self.leader_hint is not None and self.leader_hint != self.id:
                self.send(self.leader_hint, m)
            # else: drop; the client's retry will find the new leader
            return
        if self._handing_off:
            # Mid-handoff drain: no new records past the transfer point.
            # The request follows the successor on completion (or is
            # replayed here if the handoff aborts).
            self._parked.append(m)
            return
        if self.batcher is not None:
            self.batcher.add(m)
        else:
            self._submit_group([m])

    def propose_batch(self, requests: list[ClientRequest]) -> None:
        """Append a coalesced group as one log record (the batcher's flush
        target); re-admits the requests if leadership was lost meanwhile."""
        if self.state != LEADER:
            for m in requests:
                self.on_request(m.client, m)
            return
        self._submit_group(list(requests))

    def _propose(self, command: EntryCommand, request: Any) -> None:
        index = self.last_log_index + 1
        # The one (index, record) pair for this entry: every log holding
        # it, every AppendEntries carrying it and every WAL record of it
        # share this object.
        entry: LogEntry = (index, (self.term, command, request))
        self.log.append(entry)
        # The leader's own record joins the commit count only once durable
        # (synchronously for in-memory configs, after the fsync otherwise);
        # the local disk write overlaps the AppendEntries round trips.
        self.persist(
            "append", entry, slot=index, command=command, then=self._mark_durable, args=(index,)
        )
        self._replicate()

    def _mark_durable(self, index: int) -> None:
        """Our own log record hit disk; it may now count toward commit."""
        self._durable_index = max(self._durable_index, index)
        if self.state == LEADER:
            self._advance_commit()

    def _needs_snapshot(self, next_index: int) -> bool:
        """Log repair can't (compacted) or shouldn't (too far behind) serve
        this follower from the in-memory log."""
        if next_index <= self._snap_index:
            return True
        return self.commit_index - next_index >= self.catchup_snapshot_gap

    def _replicate(self) -> None:
        """Send each follower everything from its nextIndex onward."""
        groups: dict[int, list[NodeID]] = {}
        for peer in self.peers:
            groups.setdefault(self._next_index[peer], []).append(peer)
        for next_index, peers in groups.items():
            if self._needs_snapshot(next_index):
                for peer in peers:
                    self._send_snapshot(peer)
                continue
            prev_index = next_index - 1
            entries = tuple(self.log[self._pos(next_index) :])
            self.multicast(
                peers,
                AppendEntries(
                    term=self.term,
                    prev_index=prev_index,
                    prev_term=self._term_at(prev_index),
                    entries=entries,
                    leader_commit=self.commit_index,
                ),
            )

    def _send_snapshot(self, peer: NodeID) -> None:
        """InstallSnapshot-style state transfer to a lagging follower."""
        last = self._snap_sent.get(peer)
        if last is not None and self.now - last < self.snapshot_retransmit:
            return  # a transfer is plausibly in flight; don't storm
        self._snap_sent[peer] = self.now
        upto = self.last_applied
        payload, size = self.snapshot_payload(upto)
        self.send(
            peer,
            InstallSnapshot(
                term=self.term,
                snap_index=upto,
                snap_term=self._term_at(upto),
                snapshot=Snapshot(upto, payload, size),
            ),
        )

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def on_append_entries(self, src: Hashable, m: AppendEntries) -> None:
        if m.term > self.term:
            self._step_down(m.term)
        if m.term < self.term:
            self.send(src, AppendReply(term=self.term, success=False))
            return
        self.state = FOLLOWER
        self.leader_hint = src
        if self._monitor is not None and not m.entries and m.sent_at > 0.0:
            # Sender-stamped heartbeat: feed the gray-failure detector.
            self._observe_leader(src, self.term, self.clock.now - m.sent_at)
        # Granting is independent of log consistency: the promise not to
        # vote for others holds even while our log is being repaired.
        lease_seq = m.lease_seq if self._grant is not None else 0
        if lease_seq:
            self._grant.grant(src)
        if self.recovering:
            # Remember the commit frontier we must reach before voting.
            if self._catchup_target is None or m.leader_commit > self._catchup_target:
                self._catchup_target = m.leader_commit
        else:
            self._reset_election_timer()
        if m.prev_index < self._snap_index or (
            m.prev_index > self.last_log_index
            or self._term_at(m.prev_index) != m.prev_term
        ):
            self.send(
                src,
                AppendReply(
                    term=self.term,
                    success=False,
                    match_index=self.commit_index,
                    lease_seq=lease_seq,
                ),
            )
            return
        appended: list[LogEntry] = []
        for entry in m.entries:
            index = entry[0]
            if index <= self._snap_index:
                continue  # compacted away: already applied and durable
            if index <= self.last_log_index and self._term_at(index) != entry[1][0]:
                del self.log[self._pos(index) :]  # conflict: truncate the suffix
                self._durable_index = min(self._durable_index, index - 1)
                self.persist("truncate", index, slot=index)
            if index > self.last_log_index:
                self.log.append(entry)  # the leader's pair, not a copy
                appended.append(entry)
        if m.leader_commit > self.commit_index:
            self.commit_index = min(m.leader_commit, self.last_log_index)
            self._apply()
        # Report how far we provably match the LEADER's log — not our own
        # length, which may include a divergent suffix from a dead leader.
        match = m.prev_index + len(m.entries)
        reply = AppendReply(
            term=self.term, success=True, match_index=match, lease_seq=lease_seq
        )
        if appended:
            # One WAL record per entry; the success reply waits for the
            # last record's sync (group commit folds them into one fsync).
            last = appended.pop()
            for entry in appended:
                index = entry[0]
                self.persist(
                    "append", entry, slot=index, command=entry[1][1],
                    then=self._mark_durable, args=(index,),
                )  # fmt: skip
            index = last[0]
            self.persist(
                "append", last, slot=index, command=last[1][1],
                then=self._synced, args=(index, src, reply),
            )  # fmt: skip
        else:
            self.send(src, reply)
        self._maybe_finish_recovery()

    def _synced(self, index: int, src: Hashable, reply: AppendReply) -> None:
        """A follower's last appended record hit disk: it may now ack."""
        self._mark_durable(index)
        self.send(src, reply)

    def _maybe_finish_recovery(self) -> None:
        if (
            self.recovering
            and self._catchup_target is not None
            and self.commit_index >= self._catchup_target
        ):
            # Caught up to the frontier observed at rejoin: every commit our
            # forgotten votes could have enabled is now re-held durably, so
            # voting is safe again.
            self.recovering = False
            self._catchup_target = None
            self._reset_election_timer()

    def on_append_reply(self, src: Hashable, m: AppendReply) -> None:
        if m.term > self.term:
            self._step_down(m.term)
            return
        if self.state != LEADER or m.term != self.term:
            return
        if m.lease_seq and self._lease is not None:
            # Both success and failure replies carry the grant echo: log
            # repair and lease renewal are independent.
            self._lease.record_grant(m.lease_seq, src)
        if not m.success:
            # Back the follower up (fast: jump to its reported match point).
            self._next_index[src] = max(1, min(self._next_index[src] - 1, m.match_index + 1))
            self._replicate_to(src)
            return
        self._match_index[src] = max(self._match_index[src], m.match_index)
        self._next_index[src] = self._match_index[src] + 1
        self._advance_commit()

    def _replicate_to(self, peer: NodeID) -> None:
        next_index = self._next_index[peer]
        if self._needs_snapshot(next_index):
            self._send_snapshot(peer)
            return
        prev_index = next_index - 1
        entries = tuple(self.log[self._pos(next_index) :])
        self.send(
            peer,
            AppendEntries(
                term=self.term,
                prev_index=prev_index,
                prev_term=self._term_at(prev_index),
                entries=entries,
                leader_commit=self.commit_index,
            ),
        )

    def _advance_commit(self) -> None:
        majority = len(self.config.node_ids) // 2 + 1
        for index in range(self.last_log_index, self.commit_index, -1):
            own = 1 if self._durable_index >= index else 0
            replicated = own + sum(1 for m in self._match_index.values() if m >= index)
            if replicated >= majority and self._term_at(index) == self.term:
                self.commit_index = index
                self._apply()
                self._release_pipeline()
                break
        if self._handing_off:
            self._maybe_complete_handoff()

    def _apply(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            _index, (term, command, request) = self.log[self._pos(self.last_applied)]
            # A batched record fans out into per-command execution, caching,
            # tracing, and replies — batching is invisible to clients.
            for cmd, info in entry_pairs(command, request):
                value = None
                if cmd is not None:
                    value = self.replies.execute(info, self.store.execute, cmd)
                    if cmd.is_write:
                        self._drain_read_waiters(cmd.key)
                if info is not None and self.state == LEADER and term == self.term:
                    self.trace_mark(info)
                    self.send(
                        info.client,
                        ClientReply(
                            request_id=info.request_id,
                            ok=True,
                            value=value,
                            replied_by=self.id,
                            leader_hint=self.id,
                        ),
                    )
        if self._rinse_waiters or self._pending_lease_reads:
            self._drain_read_backlog()
        self.maybe_snapshot(self.last_applied)

    # ------------------------------------------------------------------
    # Snapshots and crash recovery
    # ------------------------------------------------------------------

    def snapshot_payload(self, executed_upto: int) -> tuple[Any, int]:
        """Applied state through ``executed_upto``: store dump, reply
        table (retried requests stay deduplicated after a restore), and the
        boundary entry's term (needed to answer AppendEntries consistency
        checks against the compacted prefix)."""
        dump = self.store.dump()
        cache = self.replies.copy()
        size = (
            256
            + sum(64 + 16 * len(chain) for chain in dump.values())
            + 32 * len(cache)
        )
        return (dump, cache, self._term_at(executed_upto)), size

    def on_install_snapshot(self, src: Hashable, m: InstallSnapshot) -> None:
        if m.term > self.term:
            self._step_down(m.term)
        if m.term < self.term:
            self.send(src, AppendReply(term=self.term, success=False))
            return
        self.state = FOLLOWER
        self.leader_hint = src
        if self.recovering:
            if self._catchup_target is None or m.snap_index > self._catchup_target:
                self._catchup_target = m.snap_index
        else:
            self._reset_election_timer()
        if m.snap_index > self.commit_index and m.snapshot is not None:
            dump, cache, _snap_term = m.snapshot.payload
            self.store.restore(dump)
            self.replies = cache.copy()
            # Anything we hold above the boundary may conflict with the
            # leader's log; drop it and let repair re-send the suffix.
            self.log = []
            self._snap_index = m.snap_index
            self._snap_term = m.snap_term
            self.commit_index = m.snap_index
            self.last_applied = m.snap_index
            self._durable_index = min(self._durable_index, m.snap_index)
            if self.disk is not None and not self._snapshot_inflight:
                # Persist the adopted state so a reboot replays from here.
                self._snapshot_inflight = True
                cost = self.disk.profile.sync_cost(m.snapshot.size_bytes)
                self._server.submit(cost, self._install_snapshot, m.snapshot)
        # Everything at or below the boundary is provably matched.
        self.send(
            src, AppendReply(term=self.term, success=True, match_index=m.snap_index)
        )
        self._maybe_finish_recovery()

    def _recover(self) -> None:
        """Rebuild state for a restarted incarnation.

        Reboot with a disk: reinstall the latest snapshot, then replay the
        WAL's term/vote, append, and truncate records in order.
        ``commit_index`` restarts at the snapshot boundary (Raft never
        persists it); the leader's next AppendEntries re-advances it.
        Wipe, or reboot without a disk: rejoin as a non-voting learner.
        """
        had_state = False
        if self.disk is not None:
            snap = self.disk.snapshot
            if snap is not None:
                had_state = True
                dump, cache, snap_term = snap.payload
                self.store.restore(dump)
                self.replies = cache.copy()
                self._snap_index = snap.upto
                self._snap_term = snap_term
                self.commit_index = snap.upto
                self.last_applied = snap.upto
            for record in self.disk.wal.records:
                had_state = True
                if record.kind == "term":
                    term, voted = record.data
                    if term >= self.term:
                        self.term, self.voted_for = term, voted
                elif record.kind == "append":
                    index = record.data[0]
                    if index <= self._snap_index:
                        continue
                    pos = self._pos(index)
                    if pos < len(self.log):
                        del self.log[pos:]
                    self.log.append(record.data)
                elif record.kind == "truncate":
                    pos = self._pos(record.data)
                    if 0 <= pos < len(self.log):
                        del self.log[pos:]
        self._durable_index = self.last_log_index
        self.recovering = self.restart_reason == "wipe" or not had_state
        if not self.recovering:
            self._reset_election_timer()

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def _heartbeat_tick(self) -> None:
        if self.state != LEADER:
            return
        self._broadcast_heartbeat()
        self.set_timer(self.heartbeat_interval, self._heartbeat_tick)

    def _broadcast_heartbeat(self) -> None:
        self.broadcast(
            AppendEntries(
                term=self.term,
                prev_index=self.last_log_index,
                prev_term=self.last_log_term,
                entries=(),
                leader_commit=self.commit_index,
                lease_seq=self._lease_stamp(),
                sent_at=self.clock.now if self.detector_enabled else 0.0,
            )
        )
