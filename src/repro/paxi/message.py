"""Message base types shared by every protocol.

A protocol contributes its own dataclasses derived from :class:`Message`;
the framework only needs two pieces of metadata from each type:

- ``SIZE_BYTES`` — nominal serialized size, charged to NICs and bandwidth
  (the paper notes EPaxos messages are bigger because they carry dependency
  lists, which its model penalizes);
- ``WEIGHT`` — CPU multiplier applied to the per-message processing costs
  ``t_in``/``t_out`` (the paper's model "penalizes the message processing to
  account for extra resources required to compute dependencies and resolve
  conflicts" in EPaxos, section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable


class Message:
    """Base class for protocol and client messages."""

    # Slot-free base so subclasses declared with ``@dataclass(slots=True)``
    # really are dict-less: simulations allocate one instance per logical
    # message, so the per-instance ``__dict__`` is measurable overhead.
    __slots__ = ()

    SIZE_BYTES: int = 100
    WEIGHT: float = 1.0

    @classmethod
    def size_bytes(cls) -> int:
        return cls.SIZE_BYTES

    @classmethod
    def weight(cls) -> float:
        return cls.WEIGHT

    def wire_size(self) -> int:
        """Serialized size of *this* message instance.

        Defaults to the class-level ``SIZE_BYTES``; messages whose payload
        varies per instance (a batched accept carrying ``B`` commands)
        override this so the NIC/bandwidth accounting stays honest.
        """
        return self.SIZE_BYTES


GET = "GET"
PUT = "PUT"
CAS = "CAS"


@dataclass(frozen=True, slots=True)
class Command:
    """A state-machine command against the key-value store.

    ``min_version`` supports session-consistent relaxed reads (the paper's
    section-7 future work): a replica serving the read locally must have
    executed at least that many writes to the key first.  It is zero — no
    constraint — for strongly-consistent protocols.

    ``read_mode`` selects the read path for a GET: ``None`` (default) runs
    the full replication round through the leader, ``"lease"`` serves from
    the leader's local store while its lease is valid, ``"quorum"`` polls a
    read quorum of acceptors, and ``"local"`` serves from any replica's
    local store (bounded staleness, not linearizable).  Writes ignore it.

    A ``CAS`` writes ``value`` only if the key's current value equals
    ``expect`` (both compared at execution time inside the replicated state
    machine, so the outcome is identical on every replica).  On mismatch it
    returns a :class:`~repro.paxi.kvstore.CasFailed` carrying the current
    value.  The cross-shard transaction layer builds its per-key locks out
    of this primitive.
    """

    op: str
    key: Hashable
    value: Any = None
    min_version: int = 0
    read_mode: str | None = None
    expect: Any = None

    READ_MODES = (None, "lease", "quorum", "local")

    def __post_init__(self) -> None:
        if self.op not in (GET, PUT, CAS):
            raise ValueError(f"unknown op {self.op!r}")
        if self.read_mode not in self.READ_MODES:
            raise ValueError(f"unknown read_mode {self.read_mode!r}")

    @property
    def is_read(self) -> bool:
        return self.op == GET

    @property
    def is_write(self) -> bool:
        return self.op != GET

    def conflicts_with(self, other: "Command") -> bool:
        """Two commands interfere iff they touch the same key and at least
        one of them writes (the standard EPaxos interference relation)."""
        return self.key == other.key and (self.is_write or other.is_write)

    @staticmethod
    def get(key: Hashable, read_mode: str | None = None) -> "Command":
        return Command(GET, key, read_mode=read_mode)

    @staticmethod
    def put(key: Hashable, value: Any) -> "Command":
        return Command(PUT, key, value)

    @staticmethod
    def cas(key: Hashable, expect: Any, value: Any) -> "Command":
        return Command(CAS, key, value, expect=expect)


@dataclass(frozen=True, slots=True)
class Batch:
    """An ordered group of commands replicated as one log entry.

    Batching amortizes the per-instance message cost (the paper's Formulas
    1-6 divided by the batch size ``B``): one phase-2 round now carries
    ``B`` commands.  A batch occupies a single consensus slot; at execution
    the replica fans the commands out in order and replies to each client
    individually, so batching is invisible to linearizability.

    ``PER_COMMAND_BYTES`` is the marginal wire size of each extra command
    inside a carrier message (the first command is covered by the carrier's
    base ``SIZE_BYTES``).
    """

    PER_COMMAND_BYTES = 110

    commands: tuple[Command, ...] = ()

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)

    def extra_bytes(self) -> int:
        """Wire bytes beyond a single-command carrier message."""
        return self.PER_COMMAND_BYTES * max(0, len(self.commands) - 1)


@dataclass(frozen=True, slots=True)
class ClientRequest(Message):
    """A client-originated request for one command.

    ``deadline`` is the absolute virtual time after which the reply is
    useless to the issuer (propagated from ``Session(max_wait=)`` or the
    open-loop engine's request timeout).  Replicas running the
    ``"deadline"`` shed policy drop requests whose deadline cannot be met
    before spending leader CPU on them; ``None`` means "no deadline" and
    is the default everywhere.

    ``ack_upto`` tells the replicas which replies they may stop caching:
    the client has concluded every request of its own with an id at or
    below it, so it will never retransmit them (see
    :mod:`repro.paxi.replies`).  0 — a hand-built request — evicts nothing.
    """

    SIZE_BYTES = 120

    command: Command = field(default_factory=lambda: Command(GET, 0))
    client: Hashable = None
    request_id: int = 0
    deadline: float | None = None
    ack_upto: int = 0


@dataclass(frozen=True, slots=True)
class Rejected(Message):
    """Admission control refused a :class:`ClientRequest`.

    Sent straight from the NIC path (it bypasses the replica's CPU queue —
    the whole point of shedding is to spend ~nothing on the request), so it
    is only charged to the wire model.  ``reason`` says which gate fired:
    ``"queue_full"``, ``"inflight"``, or ``"deadline"``.  A rejection is a
    guarantee: the command was not (and will never be) executed by the
    rejecting replica, which is what lets a first-attempt client discard
    the operation from the linearizability history as a clean failure.
    """

    SIZE_BYTES = 40  # header-only: no command payload travels back

    request_id: int = 0
    replied_by: Hashable = None
    reason: str = "queue_full"


@dataclass(frozen=True, slots=True)
class ClientReply(Message):
    """The reply a replica sends once a command has been committed and
    executed (or rejected)."""

    SIZE_BYTES = 120

    request_id: int = 0
    ok: bool = True
    value: Any = None
    replied_by: Hashable = None
    leader_hint: Hashable = None
    version: int = 0  # key version after this command (session tokens)
