"""Simulated per-node durable storage: disk profile, WAL, snapshots.

The paper's prong-1 model (and the seed simulator) keeps every replica
purely in memory, so ``Crash(t)`` only *freezes* a node.  Real deployments
pay an fsync on the consensus critical path ("The Performance of Paxos in
the Cloud", Marandi et al.) and recover from a write-ahead log after a
reboot.  This module adds that missing layer while preserving the paper's
single-queue node model: every disk write is charged through the same
CPU+NIC FIFO queue (:class:`repro.sim.server.Server`) that processes
messages, so durability costs and message costs contend exactly like they
do on a real box with one OS scheduler.

Three fault modes are distinguished by what survives:

============  ==================  =============
fault         volatile state      disk contents
============  ==================  =============
``freeze``    survives            survives
``reboot``    lost                survive
``wipe``      lost                destroyed
============  ==================  =============

:class:`Disk` models the durable medium (it survives ``reboot``);
:class:`WalWriter` models the *process-side* write path (page cache +
group-commit scheduler) and is volatile: records handed to it are only
durable once their fsync completes, so a reboot loses writes that were
still in flight — exactly the power-loss semantics a correct protocol
must tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SimulationError

#: Fixed per-record overhead (framing, checksum, key metadata) charged for
#: every WAL append, mirroring how :class:`repro.paxi.message.Message`
#: charges a fixed base size per message.
WAL_RECORD_BYTES = 64

#: Durability modes accepted by :class:`repro.paxi.config.Config`.
#:
#: - ``"none"``  — in-memory (seed behavior; no disk, no cost),
#: - ``"fsync"`` — every record is synced individually before its
#:   completion callback fires (fsync on the critical path),
#: - ``"group"`` — records are group-committed: all records that arrive
#:   while a sync is in flight share the next sync (amortized durability).
DURABILITY_MODES = ("none", "fsync", "group")


@dataclass(frozen=True)
class DiskProfile:
    """Analytic description of the simulated disk.

    Defaults model a cloud NVMe/EBS-gp3-like volume: ~100 us per fsync and
    200 MB/s of sequential log bandwidth.  At 64-byte WAL records the
    fsync latency dominates (the transfer adds ~0.3 us), which is the
    regime that makes group commit worthwhile.
    """

    fsync_latency: float = 100e-6  # seconds per fsync (queue occupancy)
    write_bandwidth_bps: float = 200e6  # sequential bytes per second

    def __post_init__(self) -> None:
        if self.fsync_latency < 0:
            raise SimulationError(f"negative fsync latency {self.fsync_latency!r}")
        if self.write_bandwidth_bps <= 0:
            raise SimulationError(
                f"disk write bandwidth must be positive, got {self.write_bandwidth_bps!r}"
            )

    def sync_cost(self, size_bytes: float) -> float:
        """Queue occupancy (seconds) to write + fsync ``size_bytes``."""
        if size_bytes < 0:
            raise SimulationError(f"negative write size {size_bytes!r}")
        return self.fsync_latency + size_bytes / self.write_bandwidth_bps


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One durable log record.

    ``kind`` is protocol-defined (``"promise"``, ``"accept"``, ``"term"``,
    ``"append"``, ``"truncate"``...).  ``slot`` tags records that belong to
    one log position so snapshotting can truncate them; slot-less records
    (ballot promises, term/vote pairs) survive truncation.  A durable run
    keeps one per log entry, so the record is slotted: no ``__dict__``.
    """

    kind: str
    slot: int | None
    data: Any
    size_bytes: int = WAL_RECORD_BYTES


@dataclass(frozen=True)
class Snapshot:
    """A point-in-time durable copy of the applied state machine.

    ``upto`` is the last slot/index folded into ``payload`` (protocol
    ordering: every slot ``<= upto`` is reflected).  ``payload`` is an
    opaque protocol-defined object — for the KV protocols a store dump
    plus the request-dedup cache, so a restored node neither loses nor
    re-executes client commands.
    """

    upto: int
    payload: Any
    size_bytes: int


class WriteAheadLog:
    """The durable record sequence on one disk.

    Purely a container: costs are charged by :class:`WalWriter` before
    records land here, so anything present in ``records`` is durable by
    construction.
    """

    def __init__(self) -> None:
        self._records: list[WalRecord] = []
        self.bytes_written: int = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[WalRecord, ...]:
        return tuple(self._records)

    def append(self, record: WalRecord) -> None:
        self._records.append(record)
        self.bytes_written += record.size_bytes

    def truncate_through(self, slot: int) -> int:
        """Drop slot-tagged records at or below ``slot`` (after a snapshot
        has captured their effects).  Slot-less records are kept.  Returns
        the number of records dropped."""
        before = len(self._records)
        self._records = [
            r for r in self._records if r.slot is None or r.slot > slot
        ]
        return before - len(self._records)

    def clear(self) -> None:
        self._records = []


class Disk:
    """One node's durable medium: a WAL plus at most one snapshot.

    Survives :meth:`reboot` (volatile state is the owner's problem) and is
    emptied by :meth:`wipe`.
    """

    def __init__(self, profile: DiskProfile | None = None) -> None:
        self.profile = profile if profile is not None else DiskProfile()
        self.wal = WriteAheadLog()
        self.snapshot: Snapshot | None = None
        self.fsyncs: int = 0
        self.wipes: int = 0

    def install_snapshot(self, snapshot: Snapshot) -> None:
        """Replace the snapshot and drop WAL records it supersedes."""
        self.snapshot = snapshot
        self.wal.truncate_through(snapshot.upto)

    def wipe(self) -> None:
        """Destroy everything (disk replacement / volume loss)."""
        self.wal.clear()
        self.wal.bytes_written = 0
        self.snapshot = None
        self.wipes += 1


class WalWriter:
    """The volatile write path from a replica to its :class:`Disk`.

    ``persist(record, then, args)`` schedules ``record`` for durability
    and invokes ``then(*args)`` (if given) once the covering fsync
    completes.  The fsync occupies the node's single CPU+NIC queue via
    ``server.submit``, so durability contends with message processing.

    Two modes:

    - ``"fsync"``: each record gets its own sync job — the full
      ``profile.sync_cost`` is serialized behind every persist.
    - ``"group"``: at most one sync job is outstanding; records that
      arrive while it is queued or in service wait in *pending* and are
      submitted as one coalesced sync when the outstanding job
      completes.  This is classic group commit: the sync rate
      self-clocks to roughly one per queue cycle, so per-record
      durability cost shrinks as load grows (and batching PR 2's fat
      log entries amortize it further).

    The writer is volatile: :meth:`power_fail` drops records whose sync
    has not completed, modeling a reboot mid-write.  Completion callbacks
    for lost records never fire.
    """

    _Entry = tuple  # (WalRecord, callback | None, callback args)

    def __init__(self, server: Any, disk: Disk, mode: str) -> None:
        if mode not in ("fsync", "group"):
            raise SimulationError(f"unknown WAL writer mode {mode!r}")
        self._server = server
        self._disk = disk
        self.mode = mode
        self._pending: list[WalWriter._Entry] = []
        self._inflight = 0  # records covered by submitted, uncompleted syncs
        self._epoch = 0

    @property
    def pending(self) -> int:
        """Records handed over but not yet durable."""
        return len(self._pending) + self._inflight

    def persist(
        self, record: WalRecord, then: Callable[..., None] | None = None, args: tuple = ()
    ) -> None:
        if self.mode == "fsync":
            self._submit_sync([(record, then, args)])
        else:
            self._pending.append((record, then, args))
            if self._inflight == 0:
                self._submit_sync(self._pending)
                self._pending = []

    def _submit_sync(self, group: list) -> None:
        size = sum(entry[0].size_bytes for entry in group)
        self._inflight += len(group)
        self._server.submit(
            self._disk.profile.sync_cost(size), self._sync_done, self._epoch, group
        )

    def _sync_done(self, epoch: int, group: list) -> None:
        if epoch != self._epoch:
            return  # stale sync from before a power failure
        self._inflight -= len(group)
        self._disk.fsyncs += 1
        for record, _then, _args in group:
            self._disk.wal.append(record)
        for _record, then, args in group:
            if then is not None:
                then(*args)
        if self._pending and self._inflight == 0:
            self._submit_sync(self._pending)
            self._pending = []

    def power_fail(self) -> None:
        """Reboot mid-write: in-flight and pending records are lost."""
        self._pending = []
        self._inflight = 0
        self._epoch += 1
