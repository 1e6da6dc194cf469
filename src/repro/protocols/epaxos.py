"""Egalitarian Paxos (Moraru et al. 2013) — the paper's leaderless protocol.

Every replica opportunistically leads the commands it receives (paper
section 2):

- **fast path**: the command leader broadcasts ``PreAccept`` with its view
  of the command's dependencies; if a fast quorum (≈ 3/4 of nodes, per the
  paper) replies without adding new dependencies, the command commits after
  a single round trip;
- **slow path**: if any reply changed the dependencies, the leader takes
  the union and runs a classical ``Accept`` round with a majority quorum
  before committing — this is the conflict cost the paper dissects;
- **execution**: committed commands form a dependency graph; strongly
  connected components are executed dependencies-first, ordered by sequence
  number within a component, identically on every replica.

An executed instance leaves behind only its ``seq``, in ``_executed``:
later instances that name it still need that number, and a late PreAccept,
Accept or Commit for it must still be told apart from a new instance.  Its
command, dependency set, request and vote state are dropped, so
``_instances`` holds only the instances not yet executed here.

The EPaxos message types carry dependency lists and therefore use a larger
``SIZE_BYTES`` and a CPU ``WEIGHT`` > 1 — the paper's model explicitly
"penalizes the message processing to account for extra resources required
to compute dependencies and resolve conflicts" (section 5).

Replies are sent after execution, so a command whose dependencies are still
uncommitted waits — which is why EPaxos latency grows *nonlinearly* with
the conflict ratio in the paper's Figure 11.

Failure recovery (explicit-prepare) is not implemented: the paper's EPaxos
experiments exercise only the failure-free path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import ClientReply, ClientRequest, Command, Message
from repro.paxi.protocol import Protocol
from repro.protocols.graph import tarjan_sccs
from repro.protocols.log import RequestInfo

InstanceID = tuple[NodeID, int]

PREACCEPTED, ACCEPTED, COMMITTED = "preaccepted", "accepted", "committed"

# CPU weight of EPaxos protocol messages relative to plain Paxos messages.
#
# The analytic model uses a light 1.3x penalty (and the paper's *model*
# indeed shows EPaxos out-throughputting Paxos even at c=1).  The *measured*
# Paxi results are different: "when we add message processing penalty to
# account for extra weight of finding and resolving conflicts, EPaxos'
# performance degrades greatly ... EPaxos performing the worst in Paxi LAN
# experiments" (section 5.2).  Real EPaxos message handling scans per-key
# interference state, merges dependency lists, and runs SCC-based execution,
# which costs several times a Paxos accept; this weight reproduces that
# observed behaviour in the simulated implementation.
EPAXOS_WEIGHT = 4.0
EPAXOS_SIZE = 200


@dataclass(frozen=True, slots=True)
class PreAccept(Message):
    SIZE_BYTES = EPAXOS_SIZE
    WEIGHT = EPAXOS_WEIGHT

    instance: InstanceID = None
    command: Command | None = None
    deps: frozenset[InstanceID] = frozenset()
    seq: int = 0


@dataclass(frozen=True, slots=True)
class PreAcceptOK(Message):
    SIZE_BYTES = EPAXOS_SIZE
    WEIGHT = EPAXOS_WEIGHT

    instance: InstanceID = None
    deps: frozenset[InstanceID] = frozenset()
    seq: int = 0
    changed: bool = False


@dataclass(frozen=True, slots=True)
class Accept(Message):
    SIZE_BYTES = EPAXOS_SIZE
    WEIGHT = EPAXOS_WEIGHT

    instance: InstanceID = None
    command: Command | None = None
    deps: frozenset[InstanceID] = frozenset()
    seq: int = 0


@dataclass(frozen=True, slots=True)
class AcceptOK(Message):
    WEIGHT = EPAXOS_WEIGHT

    instance: InstanceID = None


@dataclass(frozen=True, slots=True)
class CommitMsg(Message):
    SIZE_BYTES = EPAXOS_SIZE
    WEIGHT = EPAXOS_WEIGHT

    instance: InstanceID = None
    command: Command | None = None
    deps: frozenset[InstanceID] = frozenset()
    seq: int = 0


@dataclass(slots=True)
class _Instance:
    command: Command | None
    deps: frozenset[InstanceID]
    seq: int
    status: str
    request: RequestInfo | None = None
    acks: int = 0
    # Command leader only, and only while its PreAccept round is open.
    union_deps: set[InstanceID] | None = None
    max_seq: int = 0
    changed: bool = False


class EPaxos(Protocol):
    """An EPaxos replica.

    Config param ``fast_quorum_size`` (:data:`repro.paxi.config.PARAMS`)
    overrides the default ``ceil(3N/4)``.
    """

    def __init__(self, deployment: Deployment, node_id: NodeID) -> None:
        super().__init__(deployment, node_id)
        n = self.config.n
        configured = self.config.param("fast_quorum_size")
        self.fast_quorum_size: int = math.ceil(3 * n / 4) if configured is None else configured
        self.slow_quorum_size: int = n // 2 + 1
        self._instances: dict[InstanceID, _Instance] = {}  # not yet executed
        self._executed: dict[InstanceID, int] = {}  # executed here -> its seq
        self._next_instance = 0
        # Execution frontier: the committed instances still waiting to
        # execute, and for every unexecuted instance some other instance
        # names as a dependency, who names it (stale names are kept: they
        # only widen a search, see _try_execute).
        self._frontier: set[InstanceID] = set()
        self._dependents: dict[InstanceID, set[InstanceID]] = {}
        # Interference tracking: per key, the last write and the reads that
        # followed it — the "latest" instances a new command must depend on.
        self._last_write: dict[Hashable, InstanceID] = {}
        self._reads_since_write: dict[Hashable, list[InstanceID]] = {}

        self.register(PreAccept, self.on_preaccept)
        self.register(PreAcceptOK, self.on_preaccept_ok)
        self.register(Accept, self.on_accept)
        self.register(AcceptOK, self.on_accept_ok)
        self.register(CommitMsg, self.on_commit)

    # ------------------------------------------------------------------
    # Interference bookkeeping
    # ------------------------------------------------------------------

    def _interfering(self, command: Command) -> set[InstanceID]:
        """Latest instances this command must depend on (transitively this
        covers all earlier interference)."""
        deps: set[InstanceID] = set()
        last_write = self._last_write.get(command.key)
        if last_write is not None:
            deps.add(last_write)
        if command.is_write:
            deps.update(self._reads_since_write.get(command.key, ()))
        return deps

    def _track(self, instance: InstanceID, command: Command | None) -> None:
        if command is None:
            return
        if command.is_write:
            self._last_write[command.key] = instance
            self._reads_since_write.pop(command.key, None)  # absent means none
        else:
            self._reads_since_write.setdefault(command.key, []).append(instance)

    def _index_deps(self, instance: InstanceID, deps: frozenset[InstanceID]) -> None:
        """Record that ``instance`` names ``deps``.  Called wherever an
        instance's ``deps`` are set.  An executed dependency gets no entry:
        nothing ever waits for it, and nothing would release the entry."""
        executed = self._executed
        dependents = self._dependents
        for dep in deps:
            if dep not in executed:
                waiting = dependents.get(dep)
                if waiting is None:
                    dependents[dep] = {instance}
                else:
                    waiting.add(instance)

    def _seq_of(self, deps: set[InstanceID] | frozenset[InstanceID]) -> int:
        """One more than the highest ``seq`` among the ``deps`` known here."""
        instances = self._instances
        executed = self._executed
        highest = 0
        for dep in deps:
            known = instances.get(dep)
            seq = known.seq if known is not None else executed.get(dep, 0)
            if seq > highest:
                highest = seq
        return highest + 1

    # ------------------------------------------------------------------
    # Command leader path
    # ------------------------------------------------------------------

    def on_request(self, src: Hashable, m: ClientRequest) -> None:
        if self.answer_duplicate(m):
            return
        self._next_instance += 1
        instance: InstanceID = (self.id, self._next_instance)
        deps = self._interfering(m.command)
        seq = self._seq_of(deps)
        record = _Instance(
            command=m.command,
            deps=frozenset(deps),
            seq=seq,
            status=PREACCEPTED,
            request=RequestInfo.of(m),
            acks=1,  # self-vote
            union_deps=set(deps),
            max_seq=seq,
        )
        self._instances[instance] = record
        self._index_deps(instance, record.deps)
        self._track(instance, m.command)
        self.broadcast(
            PreAccept(instance=instance, command=m.command, deps=record.deps, seq=seq)
        )

    def on_preaccept_ok(self, src: Hashable, m: PreAcceptOK) -> None:
        record = self._instances.get(m.instance)
        if record is None or record.status != PREACCEPTED:
            return
        record.acks += 1
        record.union_deps.update(m.deps)
        record.max_seq = max(record.max_seq, m.seq)
        record.changed = record.changed or m.changed
        if record.acks < self.fast_quorum_size:
            return
        union, record.union_deps = record.union_deps, None  # the round is over
        if not record.changed:
            self._commit(m.instance, record)  # fast path
            return
        # Slow path: fix the union and run the Accept round.
        record.deps = frozenset(union)
        self._index_deps(m.instance, record.deps)
        record.seq = record.max_seq
        record.status = ACCEPTED
        record.acks = 1
        self.broadcast(
            Accept(
                instance=m.instance,
                command=record.command,
                deps=record.deps,
                seq=record.seq,
            )
        )

    def on_accept_ok(self, src: Hashable, m: AcceptOK) -> None:
        record = self._instances.get(m.instance)
        if record is None or record.status != ACCEPTED:
            return
        record.acks += 1
        if record.acks >= self.slow_quorum_size:
            self._commit(m.instance, record)

    def _commit(self, instance: InstanceID, record: _Instance) -> None:
        record.status = COMMITTED
        self._frontier.add(instance)
        self.trace_mark(record.request)
        self.broadcast(
            CommitMsg(
                instance=instance,
                command=record.command,
                deps=record.deps,
                seq=record.seq,
            )
        )
        self._try_execute(instance)

    # ------------------------------------------------------------------
    # Replica (acceptor) path
    # ------------------------------------------------------------------

    def on_preaccept(self, src: Hashable, m: PreAccept) -> None:
        merged = set(m.deps) | self._interfering(m.command)
        merged.discard(m.instance)
        seq = max(m.seq, self._seq_of(merged))
        changed = merged != set(m.deps)
        existing = self._instances.get(m.instance)
        if existing is None:
            fresh = m.instance not in self._executed  # late: answered, not re-created
        else:
            fresh = existing.status == PREACCEPTED
        if fresh:
            record = _Instance(
                command=m.command,
                deps=frozenset(merged),
                seq=seq,
                status=PREACCEPTED,
            )
            self._instances[m.instance] = record
            self._index_deps(m.instance, record.deps)
            self._track(m.instance, m.command)
        self.send(
            src,
            PreAcceptOK(instance=m.instance, deps=frozenset(merged), seq=seq, changed=changed),
        )

    def on_accept(self, src: Hashable, m: Accept) -> None:
        existing = self._instances.get(m.instance)
        if existing is None:
            if m.instance not in self._executed:  # late: acknowledged, not re-created
                self._instances[m.instance] = _Instance(
                    command=m.command, deps=m.deps, seq=m.seq, status=ACCEPTED
                )
                self._index_deps(m.instance, m.deps)
                self._track(m.instance, m.command)
        elif existing.status in (PREACCEPTED, ACCEPTED):
            existing.deps = m.deps
            existing.seq = m.seq
            existing.status = ACCEPTED
            self._index_deps(m.instance, m.deps)
        self.send(src, AcceptOK(instance=m.instance))

    def on_commit(self, src: Hashable, m: CommitMsg) -> None:
        existing = self._instances.get(m.instance)
        if existing is None:
            if m.instance in self._executed:
                return
            self._instances[m.instance] = _Instance(
                command=m.command, deps=m.deps, seq=m.seq, status=COMMITTED
            )
            self._track(m.instance, m.command)
        else:
            existing.deps = m.deps
            existing.seq = m.seq
            existing.status = COMMITTED
        self._index_deps(m.instance, m.deps)
        self._frontier.add(m.instance)
        self._try_execute(m.instance)

    # ------------------------------------------------------------------
    # Execution: SCCs of the dependency graph, dependencies first
    # ------------------------------------------------------------------

    def _try_execute(self, committed: InstanceID) -> None:
        """Execute whatever the commit of ``committed`` made runnable.

        Every other committed instance was already found blocked when it
        (or the last thing it waited for) committed, and only a commit can
        unblock one, so the only candidates are ``committed`` and the
        instances that reach it through dependency edges.  Restricting
        Tarjan to that set — uncommitted members included, or a root that
        reaches ``committed`` through one would be visited in a different
        order — emits its components in the order a walk over every
        instance would: no instance outside the set has an edge into it.
        Execution (hence reply) order feeds the network's seeded delay
        stream, so "the same order" is what keeps simulated results
        bit-identical.
        """
        instances = self._instances
        executed = self._executed
        deps = instances[committed].deps
        # A dependency this replica has not seen committed blocks
        # ``committed`` and with it everything that reaches it.  Tested
        # before the walk: a chain committed newest-first would otherwise
        # re-walk its whole tail on every commit.
        for dep in deps:
            if dep not in executed:
                known = instances.get(dep)
                if known is None or known.status != COMMITTED:
                    return
        reach = {committed}
        pending = [committed]
        dependents = self._dependents
        while pending:
            for waiter in dependents.get(pending.pop(), ()):
                if waiter not in reach and waiter not in executed:
                    reach.add(waiter)
                    pending.append(waiter)
        # A committed dependency that does not reach ``committed`` is as
        # blocked as it was before this commit.
        for dep in deps:
            if dep not in reach and dep not in executed:
                return
        if len(reach) == 1:
            self._execute_instance(committed)
            return

        def successors(iid: InstanceID) -> list[InstanceID]:
            return [dep for dep in instances[iid].deps if dep in reach]

        for component in tarjan_sccs(sorted(reach & self._frontier), successors):
            members = set(component)
            if any(self._blocked(iid, members) for iid in component):
                continue
            for iid in sorted(component, key=lambda i: (instances[i].seq, i)):
                self._execute_instance(iid)

    def _blocked(self, instance: InstanceID, component: set[InstanceID]) -> bool:
        """Whether ``instance`` is uncommitted or waits for an unexecuted
        dependency outside its own ``component``."""
        record = self._instances[instance]
        if record.status != COMMITTED:
            return True
        executed = self._executed
        for dep in record.deps:
            if dep not in component and dep not in executed:
                return True
        return False

    def _execute_instance(self, instance: InstanceID) -> None:
        record = self._instances.pop(instance)
        self._executed[instance] = record.seq
        value = None
        if record.command is not None:
            value = self.store.execute(record.command)
        self._frontier.discard(instance)
        self._dependents.pop(instance, None)
        if record.request is not None and instance[0] == self.id:
            self.replies.record(record.request, value)
            self.send(
                record.request.client,
                ClientReply(
                    request_id=record.request.request_id,
                    ok=True,
                    value=value,
                    replied_by=self.id,
                ),
            )
