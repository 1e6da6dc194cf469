"""WanKeeper (Ailijiang et al., ICDCS 2017): hierarchical token-based
coordination (paper section 2).

Two consensus layers:

- **level-1**: a Paxos group per zone (region) executes commands for the
  objects whose *token* the zone currently holds;
- **level-2**: the master — the Paxos group of a designated master zone —
  owns every other token, mediates all token movement, and executes
  commands on contested objects itself.

Token policy, per the paper: when multiple zones keep requesting the same
object, the master retracts the token and performs the commands at level-2;
once access locality settles (``grant_threshold`` consecutive requests from
one zone), the master passes the token down to that zone to restore local
latency.  Token transfers carry the object's committed history so per-key
state-machine histories stay common-prefix consistent across groups.

Characteristic latencies this reproduces (paper Figures 11 and 13): the
master region commits everything locally; other regions pay one WAN round
trip to the master for contested objects, and local latency for objects
whose token they hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import ClientReply, ClientRequest, Command, Message
from repro.paxi.protocol import Protocol
from repro.protocols.group import GroupEngine
from repro.protocols.log import RequestInfo

MASTER = "MASTER"  # token-holder marker for the master level


@dataclass(frozen=True, slots=True)
class WKRequest(Message):
    """A zone leader escalates a command for a token it does not hold."""

    command: Command | None = None
    request: RequestInfo | None = None
    origin_zone: int = 0


@dataclass(frozen=True, slots=True)
class WKGrant(Message):
    SIZE_BYTES = 300

    key: Hashable = None
    history: tuple = ()


@dataclass(frozen=True, slots=True)
class WKGrantAck(Message):
    """Zone leader confirms it holds the token; only after this will the
    master consider retracting it (prevents a retract overtaking an
    in-flight grant and splitting ownership)."""

    key: Hashable = None


@dataclass(frozen=True, slots=True)
class WKRetract(Message):
    key: Hashable = None


@dataclass(frozen=True, slots=True)
class WKReturn(Message):
    SIZE_BYTES = 300

    key: Hashable = None
    history: tuple = ()


# Group-log item kinds (replicated within one zone group).
CMD, ADOPT, GRANT = "cmd", "adopt", "grant"


@dataclass
class _TokenInfo:
    """Master-side bookkeeping for one object's token."""

    holder: Any = MASTER  # MASTER or a zone number
    last_zone: int | None = None
    streak: int = 0
    retracting: bool = False
    granting: bool = False  # grant sent, ack not yet received
    pending: list[WKRequest] = field(default_factory=list)


class WanKeeper(Protocol):
    """A WanKeeper replica (zone member, zone leader, or master leader).

    Recognized config params:

    - ``master_zone``: zone hosting the level-2 master (default 2 — Ohio in
      the paper's VA/OH/CA deployment);
    - ``grant_threshold``: consecutive same-zone requests before the master
      passes a token down (default 3);
    - ``flush_interval``: group commit-watermark period (default 0.02 s).
    """

    def __init__(self, deployment: Deployment, node_id: NodeID) -> None:
        super().__init__(deployment, node_id)
        zones = self.config.zones
        default_master = zones[1] if len(zones) > 1 else zones[0]
        self.master_zone: int = self.config.param("master_zone", default_master)
        self.grant_threshold: int = self.config.param("grant_threshold", 3)
        flush = self.config.param("flush_interval", 0.02)
        self.group = GroupEngine(
            self, self.config.ids_in_zone(self.id.zone), self._execute_item, flush
        )
        self.is_zone_leader = self.group.is_leader
        self.is_master = self.is_zone_leader and self.id.zone == self.master_zone
        self.master_leader = NodeID(self.master_zone, 1)
        # Zone-leader state: which tokens this zone holds.
        self.tokens: set[Hashable] = set()
        self._outstanding: dict[Hashable, int] = {}  # in-flight cmds per key
        self._returning: set[Hashable] = set()
        # Master state.
        self._token_table: dict[Hashable, _TokenInfo] = {}

        self.register(WKRequest, self.on_wk_request)
        self.register(WKGrant, self.on_grant)
        self.register(WKGrantAck, self.on_grant_ack)
        self.register(WKRetract, self.on_retract)
        self.register(WKReturn, self.on_return)

    # ------------------------------------------------------------------
    # Client path (level-1)
    # ------------------------------------------------------------------

    def on_request(self, src: Hashable, m: ClientRequest) -> None:
        if self.answer_duplicate(m):
            return
        if not self.is_zone_leader:
            self.send(self.group.leader, m)
            return
        request = RequestInfo.of(m)
        key = m.command.key
        if key in self.tokens and key not in self._returning:
            self._propose_command(key, m.command, request)
        elif self.is_master:
            self._master_handle(WKRequest(m.command, request, self.id.zone))
        else:
            self.send(
                self.master_leader,
                WKRequest(command=m.command, request=request, origin_zone=self.id.zone),
            )

    def _propose_command(self, key: Hashable, command: Command, request: RequestInfo) -> None:
        self._outstanding[key] = self._outstanding.get(key, 0) + 1
        self.group.propose((CMD, command, request))

    # ------------------------------------------------------------------
    # Master path (level-2)
    # ------------------------------------------------------------------

    def on_wk_request(self, src: Hashable, m: WKRequest) -> None:
        if not self.is_master:
            # Stale escalation (e.g. raced with a grant we now hold).
            if m.command.key in self.tokens and self.is_zone_leader:
                self._propose_command(m.command.key, m.command, m.request)
            else:
                self.send(self.master_leader, m)
            return
        self._master_handle(m)

    def _master_handle(self, m: WKRequest) -> None:
        key = m.command.key
        info = self._token_table.setdefault(key, _TokenInfo())
        if info.last_zone == m.origin_zone:
            info.streak += 1
        else:
            info.last_zone = m.origin_zone
            info.streak = 1
        if info.retracting:
            info.pending.append(m)
            return
        if info.granting:
            if info.holder == m.origin_zone:
                # The holder escalated while its grant is still in flight:
                # bounce the command back; it will hold the token by then.
                self.send(NodeID(info.holder, 1), m)
            else:
                info.pending.append(m)  # drained once the grant is acked
            return
        if info.holder == MASTER:
            if (
                info.streak >= self.grant_threshold
                and m.origin_zone != self.master_zone
            ):
                self._grant(key, info, m)
            else:
                self._propose_command(key, m.command, m.request)
        elif info.holder == self.master_zone:
            self._propose_command(key, m.command, m.request)
        elif info.holder == m.origin_zone:
            # Race with an acked grant the zone leader forgot? Bounce back.
            self.send(NodeID(info.holder, 1), m)
        else:
            # Contention: retract the token, buffer the request (paper: the
            # master "retracts the token from the lower level and performs
            # commands itself").
            info.retracting = True
            info.pending.append(m)
            self.send(NodeID(info.holder, 1), WKRetract(key=key))

    def _grant(self, key: Hashable, info: _TokenInfo, trigger: WKRequest) -> None:
        zone = trigger.origin_zone
        info.holder = zone
        info.streak = 0
        info.granting = True
        # Serialize the grant through the master group log so it executes
        # only after every in-flight master-side command on this key — the
        # handed-over history is then guaranteed complete.
        self.group.propose((GRANT, key, zone, trigger))

    def on_grant_ack(self, src: Hashable, m: WKGrantAck) -> None:
        if not self.is_master:
            return
        info = self._token_table.get(m.key)
        if info is None or not info.granting:
            return
        info.granting = False
        pending, info.pending = info.pending, []
        for request in pending:
            self._master_handle(request)

    # ------------------------------------------------------------------
    # Token movement (level-1 <-> level-2)
    # ------------------------------------------------------------------

    def on_grant(self, src: Hashable, m: WKGrant) -> None:
        if not self.is_zone_leader:
            return
        self.tokens.add(m.key)
        if m.history:
            self.group.propose((ADOPT, m.key, tuple(m.history)))
        self.send(self.master_leader, WKGrantAck(key=m.key))

    def on_retract(self, src: Hashable, m: WKRetract) -> None:
        if not self.is_zone_leader or m.key not in self.tokens:
            # Nothing to return (already returned or never held).
            self.send(self.master_leader, WKReturn(key=m.key, history=()))
            return
        self._returning.add(m.key)
        self._maybe_finish_return(m.key)

    def _maybe_finish_return(self, key: Hashable) -> None:
        if key not in self._returning:
            return
        if self._outstanding.get(key, 0) > 0:
            return  # in-flight commands must drain first
        self._returning.discard(key)
        self.tokens.discard(key)
        self.send(
            self.master_leader,
            WKReturn(key=key, history=tuple(self.store.history(key))),
        )

    def on_return(self, src: Hashable, m: WKReturn) -> None:
        if not self.is_master:
            return
        info = self._token_table.setdefault(m.key, _TokenInfo())
        info.holder = MASTER
        info.retracting = False
        pending, info.pending = info.pending, []
        if m.history:
            self.group.propose((ADOPT, m.key, tuple(m.history)))
        for request in pending:
            self._master_handle(request)

    # ------------------------------------------------------------------
    # Group execution callback
    # ------------------------------------------------------------------

    def _execute_item(self, item: tuple, is_leader: bool) -> None:
        kind = item[0]
        if kind == ADOPT:
            _kind, key, history = item
            self.store.adopt(key, list(history))
            return
        if kind == GRANT:
            _kind, key, zone, trigger = item
            if is_leader and self.is_master:
                history = tuple(self.store.history(key))
                self.send(NodeID(zone, 1), WKGrant(key=key, history=history))
                self.send(NodeID(zone, 1), trigger)
            return
        _kind, command, request = item
        value = self.replies.execute(request, self.store.execute, command)
        if is_leader:
            if command is not None:
                count = self._outstanding.get(command.key, 0)
                if count > 0:
                    self._outstanding[command.key] = count - 1
                self._maybe_finish_return(command.key)
            if request is not None:
                self.send(
                    request.client,
                    ClientReply(
                        request_id=request.request_id,
                        ok=True,
                        value=value,
                        replied_by=self.id,
                    ),
                )
