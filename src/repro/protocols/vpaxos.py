"""Vertical Paxos (Lamport, Malkhi, Zhou 2009), augmented per the paper.

VPaxos separates the control plane from the data plane: a **master** Paxos
cluster owns the object-to-group assignment, while per-zone Paxos groups
execute commands on the objects assigned to them.  Relocating an object to
a different group is a *reconfiguration* decided by the master — unlike
WPaxos (which steals via core Paxos phase-1) and unlike WanKeeper (whose
master also executes contested commands itself).

The paper evaluates "our augmented version of Vertical Paxos" with the same
three-consecutive access policy as the other locality-aware protocols: a
zone leader forwards commands for objects owned elsewhere, and after three
consecutive local requests it asks the master to reassign the object.
Reassignment drains the current owner's in-flight commands and carries the
object's committed history to the new owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import ClientReply, ClientRequest, Command, Message
from repro.paxi.protocol import Protocol
from repro.protocols.group import GroupEngine
from repro.protocols.log import FLUSH_INTERVAL, RequestInfo

CMD, ADOPT = "cmd", "adopt"
#: Consecutive local accesses before a zone leader asks for a reassignment.
REASSIGN_THRESHOLD = 3


@dataclass(frozen=True, slots=True)
class VPForward(Message):
    """A command forwarded to the owning zone's leader."""

    command: Command | None = None
    request: RequestInfo | None = None
    origin_zone: int = 0


@dataclass(frozen=True, slots=True)
class VPAcquire(Message):
    """Ask the master to assign an (unowned) object to ``zone``."""

    key: Hashable = None
    zone: int = 0
    trigger: VPForward | None = None


@dataclass(frozen=True, slots=True)
class VPReassign(Message):
    """Ask the master to move an object to ``zone`` (locality settled)."""

    key: Hashable = None
    zone: int = 0
    trigger: VPForward | None = None


@dataclass(frozen=True, slots=True)
class VPOwner(Message):
    """Master's answer when the object already has a different owner."""

    key: Hashable = None
    owner_zone: int = 0
    trigger: VPForward | None = None


@dataclass(frozen=True, slots=True)
class VPRelease(Message):
    key: Hashable = None


@dataclass(frozen=True, slots=True)
class VPReleased(Message):
    SIZE_BYTES = 300

    key: Hashable = None
    history: tuple = ()


@dataclass(frozen=True, slots=True)
class VPAssigned(Message):
    SIZE_BYTES = 300

    key: Hashable = None
    history: tuple = ()
    trigger: VPForward | None = None


@dataclass(frozen=True, slots=True)
class VPAssignAck(Message):
    key: Hashable = None


@dataclass
class _MappingInfo:
    owner: int | None = None  # zone number
    moving: bool = False
    assigning: bool = False  # VPAssigned sent, ack outstanding
    pending: list[Message] = field(default_factory=list)


class VPaxos(Protocol):
    """A Vertical Paxos replica.

    Config param ``master_zone`` (:data:`repro.paxi.config.PARAMS`): the
    zone hosting the configuration master (by default the second zone).
    """

    def __init__(self, deployment: Deployment, node_id: NodeID) -> None:
        super().__init__(deployment, node_id)
        zones = self.config.zones
        master_zone = self.config.param("master_zone")
        if master_zone is None:
            master_zone = zones[1] if len(zones) > 1 else zones[0]
        self.master_zone: int = master_zone
        self.group = GroupEngine(
            self, self.config.ids_in_zone(self.id.zone), self._execute_item, FLUSH_INTERVAL
        )
        self.is_zone_leader = self.group.is_leader
        self.is_master = self.is_zone_leader and self.id.zone == self.master_zone
        self.master_leader = NodeID(self.master_zone, 1)
        # Zone-leader state.
        self.owned: set[Hashable] = set()
        self._streak: dict[Hashable, int] = {}
        self._outstanding: dict[Hashable, int] = {}
        self._releasing: set[Hashable] = set()
        self._acquiring: dict[Hashable, list[VPForward]] = {}
        self._owner_cache: dict[Hashable, int] = {}
        # Master state.
        self._mapping: dict[Hashable, _MappingInfo] = {}

        self.register(VPForward, self.on_forward)
        self.register(VPAcquire, self.on_acquire)
        self.register(VPReassign, self.on_reassign)
        self.register(VPOwner, self.on_owner)
        self.register(VPRelease, self.on_release)
        self.register(VPReleased, self.on_released)
        self.register(VPAssigned, self.on_assigned)
        self.register(VPAssignAck, self.on_assign_ack)

    # ------------------------------------------------------------------
    # Client path
    # ------------------------------------------------------------------

    def on_request(self, src: Hashable, m: ClientRequest) -> None:
        if self.answer_duplicate(m):
            return
        if not self.is_zone_leader:
            self.send(self.group.leader, m)
            return
        forward = VPForward(
            command=m.command,
            request=RequestInfo.of(m),
            origin_zone=self.id.zone,
        )
        self._handle_forward(forward)

    def _handle_forward(self, forward: VPForward) -> None:
        key = forward.command.key
        if key in self.owned and key not in self._releasing:
            self._note_access(key, forward.origin_zone)
            self._propose(key, forward.command, forward.request)
            return
        if key in self._acquiring:
            self._acquiring[key].append(forward)
            return
        owner = self._owner_cache.get(key)
        if owner is None:
            self._acquiring[key] = []
            self.send(
                self.master_leader,
                VPAcquire(key=key, zone=self.id.zone, trigger=forward),
            )
            return
        self.send(NodeID(owner, 1), forward)

    def on_forward(self, src: Hashable, m: VPForward) -> None:
        if not self.is_zone_leader:
            self.send(self.group.leader, m)
            return
        key = m.command.key
        if key in self.owned and key not in self._releasing:
            self._note_access(key, m.origin_zone)
            self._propose(key, m.command, m.request)
        else:
            # We no longer own it: let the master re-route.
            self.send(self.master_leader, VPAcquire(key=key, zone=m.origin_zone, trigger=m))

    def _note_access(self, key: Hashable, origin_zone: int) -> None:
        """Owner-side three-consecutive policy: the owner sees every access
        to its objects; when one *remote* zone makes ``REASSIGN_THRESHOLD``
        consecutive requests, hand the object over via the master."""
        if origin_zone == self.id.zone:
            self._streak.pop(key, None)
            return
        last_zone, count = self._streak.get(key, (origin_zone, 0))
        if last_zone == origin_zone:
            count += 1
        else:
            last_zone, count = origin_zone, 1
        if count >= REASSIGN_THRESHOLD and key not in self._releasing:
            self._streak.pop(key, None)
            self.send(
                self.master_leader,
                VPReassign(key=key, zone=origin_zone, trigger=None),
            )
        else:
            self._streak[key] = (last_zone, count)

    def _propose(self, key: Hashable, command: Command, request: RequestInfo | None) -> None:
        self._outstanding[key] = self._outstanding.get(key, 0) + 1
        self.group.propose((CMD, command, request))

    # ------------------------------------------------------------------
    # Master: the configuration plane
    # ------------------------------------------------------------------

    def on_acquire(self, src: Hashable, m: VPAcquire) -> None:
        if not self.is_master:
            return
        info = self._mapping.setdefault(m.key, _MappingInfo())
        if info.moving or info.assigning:
            info.pending.append(m)
            return
        if info.owner is None:
            info.owner = m.zone
            info.assigning = True
            self.send(NodeID(m.zone, 1), VPAssigned(key=m.key, history=(), trigger=m.trigger))
        else:
            self.send(
                NodeID(m.zone, 1),
                VPOwner(key=m.key, owner_zone=info.owner, trigger=m.trigger),
            )

    def on_reassign(self, src: Hashable, m: VPReassign) -> None:
        if not self.is_master:
            return
        info = self._mapping.setdefault(m.key, _MappingInfo())
        if info.moving or info.assigning:
            info.pending.append(m)
            return
        if info.owner is None or info.owner == m.zone:
            info.owner = m.zone
            info.assigning = True
            self.send(NodeID(m.zone, 1), VPAssigned(key=m.key, history=(), trigger=m.trigger))
            return
        info.moving = True
        info.pending.append(m)
        self.send(NodeID(info.owner, 1), VPRelease(key=m.key))

    def on_released(self, src: Hashable, m: VPReleased) -> None:
        if not self.is_master:
            return
        info = self._mapping.setdefault(m.key, _MappingInfo())
        info.moving = False
        # The first buffered reassignment wins the object.
        pending, info.pending = info.pending, []
        new_owner: int | None = None
        trigger: VPForward | None = None
        rest: list[Message] = []
        for message in pending:
            if new_owner is None and isinstance(message, VPReassign):
                new_owner = message.zone
                trigger = message.trigger
            else:
                rest.append(message)
        if new_owner is None:
            # Nobody wants it any more; keep it unassigned.
            info.owner = None
            for message in rest:
                self._replay(message)
            return
        info.owner = new_owner
        info.assigning = True
        self.send(
            NodeID(new_owner, 1),
            VPAssigned(key=m.key, history=tuple(m.history), trigger=trigger),
        )
        info.pending = rest

    def on_assign_ack(self, src: Hashable, m: VPAssignAck) -> None:
        if not self.is_master:
            return
        info = self._mapping.get(m.key)
        if info is None or not info.assigning:
            return
        info.assigning = False
        pending, info.pending = info.pending, []
        for message in pending:
            self._replay(message)

    def _replay(self, message: Message) -> None:
        if isinstance(message, VPAcquire):
            self.on_acquire(self.id, message)
        elif isinstance(message, VPReassign):
            self.on_reassign(self.id, message)

    # ------------------------------------------------------------------
    # Zone leader: ownership transitions
    # ------------------------------------------------------------------

    def on_owner(self, src: Hashable, m: VPOwner) -> None:
        if not self.is_zone_leader:
            return
        self._owner_cache[m.key] = m.owner_zone
        backlog = self._acquiring.pop(m.key, [])
        if m.trigger is not None:
            backlog.insert(0, m.trigger)
        if m.owner_zone == self.id.zone:
            # Assignment raced ahead of us; we own it (or will shortly).
            for forward in backlog:
                self._handle_forward(forward)
            return
        for forward in backlog:
            self.send(NodeID(m.owner_zone, 1), forward)

    def on_assigned(self, src: Hashable, m: VPAssigned) -> None:
        if not self.is_zone_leader:
            return
        self.owned.add(m.key)
        self._owner_cache[m.key] = self.id.zone
        if m.history:
            self.group.propose((ADOPT, m.key, tuple(m.history)))
        self.send(self.master_leader, VPAssignAck(key=m.key))
        backlog = self._acquiring.pop(m.key, [])
        if m.trigger is not None:
            backlog.insert(0, m.trigger)
        for forward in backlog:
            self._handle_forward(forward)

    def on_release(self, src: Hashable, m: VPRelease) -> None:
        if not self.is_zone_leader or m.key not in self.owned:
            self.send(self.master_leader, VPReleased(key=m.key, history=()))
            return
        self._releasing.add(m.key)
        self._maybe_finish_release(m.key)

    def _maybe_finish_release(self, key: Hashable) -> None:
        if key not in self._releasing:
            return
        if self._outstanding.get(key, 0) > 0:
            return
        self._releasing.discard(key)
        self.owned.discard(key)
        self._owner_cache.pop(key, None)
        self.send(
            self.master_leader,
            VPReleased(key=key, history=tuple(self.store.history(key))),
        )

    # ------------------------------------------------------------------
    # Group execution callback
    # ------------------------------------------------------------------

    def _execute_item(self, item: tuple, is_leader: bool) -> None:
        kind = item[0]
        if kind == ADOPT:
            _kind, key, history = item
            self.store.adopt(key, list(history))
            return
        _kind, command, request = item
        value = self.replies.execute(request, self.store.execute, command)
        if is_leader:
            if command is not None:
                count = self._outstanding.get(command.key, 0)
                if count > 0:
                    self._outstanding[command.key] = count - 1
                self._maybe_finish_release(command.key)
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
