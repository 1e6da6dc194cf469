"""Key→shard placement maps for the multi-group runtime.

A :class:`ShardSpec` is the validated configuration (``Config.shards``)
describing how many consensus groups exist and how keys map onto them; a
:class:`PlacementMap` is the runtime object the router consults per key.

Three placements are supported:

- ``hash`` (default) — keys hash into a fixed ring of ``buckets``; buckets
  map onto shards round-robin.  The bucket is the unit of rebalancing: a
  shard-rebalance fault moves one bucket (and every key in it) to another
  group, mirroring how production hash-sharded stores move slots.
- ``range`` — integer keyspace split into contiguous ranges, each owned by
  a shard (lexicographic locality, scans); static, validated to cover the
  whole line with no gaps or overlaps.
- ``ownership`` — explicit per-key assignments over a hash fallback: the
  generalization of the single-object ownership VPaxos and WPaxos
  prototype (a master moves individual hot objects; everything else
  hashes).

Lock keys: the 2PC layer stores its per-key lock at ``lock_key(k)``; the
placement routes a lock key wherever ``k`` itself lives (see
:func:`routing_key`), so a data key and its lock are always decided by the
same consensus group — that is what makes the lock CAS and the data write
atomically ordered with respect to each other.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import PlacementError, UnknownShardError

#: Reserved key-space prefix for 2PC lock keys.
LOCK_PREFIX = "__txnlock__"

PLACEMENTS = ("hash", "range", "ownership")
LEADER_POLICIES = ("spread", "first")


def lock_key(key: Hashable) -> tuple:
    """The reserved key that holds ``key``'s transaction lock."""
    return (LOCK_PREFIX, key)


def routing_key(key: Hashable) -> Hashable:
    """The key placement decisions are made on: a lock key routes exactly
    like the data key it guards, so both live in the same group."""
    if isinstance(key, tuple) and len(key) == 2 and key[0] == LOCK_PREFIX:
        return key[1]
    return key


def stable_bucket(key: Hashable, buckets: int) -> int:
    """Deterministic, process-independent hash bucket for ``key``.

    ``hash()`` is randomized per process (PYTHONHASHSEED), which would
    break replayable schedules, so we CRC the key's repr instead.
    """
    return zlib.crc32(repr(key).encode()) % buckets


@dataclass(frozen=True)
class ShardSpec:
    """Validated description of the shard layout (``Config.shards``).

    - ``count`` — number of independent consensus groups;
    - ``placement`` — ``"hash"`` | ``"range"`` | ``"ownership"``;
    - ``buckets`` — hash-ring size (unit of rebalancing) for hash and
      ownership placements;
    - ``ranges`` — for range placement: ``((lo, hi, shard), ...)`` entries
      covering the whole integer line; ``lo=None`` means unbounded below,
      ``hi=None`` unbounded above, and entry ``i``'s ``hi`` must equal
      entry ``i+1``'s ``lo`` (half-open ``[lo, hi)`` intervals);
    - ``assignments`` — for ownership placement: explicit ``(key, shard)``
      pairs that override the hash fallback;
    - ``leaders`` — ``"spread"`` rotates each group's initial leader
      across node positions so per-shard leaders land on different nodes;
      ``"first"`` leaves every group on its default first node.
    """

    count: int = 1
    placement: str = "hash"
    buckets: int = 64
    ranges: tuple[tuple[Any, Any, int], ...] | None = None
    assignments: tuple[tuple[Hashable, int], ...] | None = None
    leaders: str = "spread"

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise PlacementError(
                f"shards.count must be a positive integer, got {self.count!r}"
            )
        if self.placement not in PLACEMENTS:
            raise PlacementError(
                f"unknown shards.placement {self.placement!r}; "
                f"expected one of {PLACEMENTS}"
            )
        if self.leaders not in LEADER_POLICIES:
            raise PlacementError(
                f"unknown shards.leaders policy {self.leaders!r}; "
                f"expected one of {LEADER_POLICIES}"
            )
        if not isinstance(self.buckets, int) or isinstance(self.buckets, bool) or self.buckets < 1:
            raise PlacementError(
                f"shards.buckets must be a positive integer, got {self.buckets!r}"
            )
        if self.placement in ("hash", "ownership") and self.buckets < self.count:
            raise PlacementError(
                f"shards.buckets ({self.buckets}) < shards.count ({self.count}): "
                "at least one bucket per shard is needed for every shard to "
                f"own keys; raise buckets to >= {self.count}"
            )
        if self.placement == "range":
            if not self.ranges:
                raise PlacementError(
                    "range placement needs a non-empty shards.ranges list, "
                    'e.g. [[null, 500, 0], [500, null, 1]]'
                )
            self._validate_ranges()
        elif self.ranges:
            raise PlacementError(
                f"shards.ranges only applies to placement='range', "
                f"not {self.placement!r}"
            )
        if self.placement == "ownership":
            for key, shard in self.assignments or ():
                self._check_shard(shard, f"assignment for key {key!r}")
        elif self.assignments:
            raise PlacementError(
                "shards.assignments only applies to placement='ownership', "
                f"not {self.placement!r}"
            )

    def _check_shard(self, shard: Any, where: str) -> None:
        if not isinstance(shard, int) or isinstance(shard, bool):
            raise UnknownShardError(
                f"{where} names shard {shard!r}, which is not an integer"
            )
        if not 0 <= shard < self.count:
            raise UnknownShardError(
                f"{where} names shard {shard}, but only shards 0..{self.count - 1} "
                f"exist (shards.count = {self.count})"
            )

    def _validate_ranges(self) -> None:
        assert self.ranges is not None
        for entry in self.ranges:
            if len(entry) != 3:
                raise PlacementError(
                    f"each range must be (lo, hi, shard), got {entry!r}"
                )
            lo, hi, shard = entry
            self._check_shard(shard, f"range {entry!r}")
            for bound, name in ((lo, "lo"), (hi, "hi")):
                if bound is not None and (
                    not isinstance(bound, int) or isinstance(bound, bool)
                ):
                    raise PlacementError(
                        f"range bound {name}={bound!r} in {entry!r} must be an "
                        "integer or null (unbounded)"
                    )
            if lo is not None and hi is not None and lo >= hi:
                raise PlacementError(
                    f"empty range {entry!r}: lo must be < hi (half-open [lo, hi))"
                )
        first, last = self.ranges[0], self.ranges[-1]
        if first[0] is not None:
            raise PlacementError(
                f"placement map does not cover keys below {first[0]}: the first "
                "range's lo must be null (unbounded below)"
            )
        if last[1] is not None:
            raise PlacementError(
                f"placement map does not cover keys at or above {last[1]}: the "
                "last range's hi must be null (unbounded above)"
            )
        for left, right in zip(self.ranges, self.ranges[1:]):
            if left[1] is None or right[0] is None or left[1] != right[0]:
                raise PlacementError(
                    f"ranges {left!r} and {right!r} must meet exactly "
                    "(previous hi == next lo); the placement map may not "
                    "leave gaps or overlap"
                )

    # ------------------------------------------------------------------
    # (De)serialization — the Config.from_dict "shards" section
    # ------------------------------------------------------------------

    @staticmethod
    def from_dict(payload: Any) -> "ShardSpec":
        if not isinstance(payload, dict):
            raise PlacementError(
                f"'shards' must be a mapping, got {type(payload).__name__}"
            )
        known = {"count", "placement", "buckets", "ranges", "assignments", "leaders"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise PlacementError(
                f"unknown shards key(s) {unknown}; valid keys are {sorted(known)}"
            )
        ranges = payload.get("ranges")
        if ranges is not None:
            try:
                ranges = tuple(tuple(entry) for entry in ranges)
            except TypeError as exc:
                raise PlacementError(
                    f"shards.ranges must be a list of [lo, hi, shard] triples, "
                    f"got {payload['ranges']!r}"
                ) from exc
        assignments = payload.get("assignments")
        if assignments is not None:
            if not isinstance(assignments, dict):
                raise PlacementError(
                    "shards.assignments must be a mapping of key -> shard, "
                    f"got {assignments!r}"
                )
            assignments = tuple(sorted(assignments.items(), key=lambda kv: repr(kv[0])))
        return ShardSpec(
            count=payload.get("count", 1),
            placement=payload.get("placement", "hash"),
            buckets=payload.get("buckets", 64),
            ranges=ranges,
            assignments=assignments,
            leaders=payload.get("leaders", "spread"),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "count": self.count,
            "placement": self.placement,
            "buckets": self.buckets,
            "leaders": self.leaders,
        }
        if self.ranges is not None:
            out["ranges"] = [list(entry) for entry in self.ranges]
        if self.assignments is not None:
            out["assignments"] = {key: shard for key, shard in self.assignments}
        return out

    def build(self) -> "PlacementMap":
        """Instantiate the runtime placement map this spec describes."""
        if self.placement == "hash":
            return HashPlacement(self)
        if self.placement == "range":
            return RangePlacement(self)
        return OwnershipPlacement(self)


class PlacementMap:
    """Runtime key→shard resolver.  Subclasses implement :meth:`_locate`."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec

    def shard_of(self, key: Hashable) -> int:
        """The shard responsible for ``key`` (lock keys follow their data
        key — see :func:`routing_key`)."""
        return self._locate(routing_key(key))

    def _locate(self, key: Hashable) -> int:
        raise NotImplementedError

    # Rebalancing hooks (overridden where supported) -------------------

    def bucket_of(self, key: Hashable) -> int:
        raise PlacementError(
            f"{type(self).__name__} has no hash buckets; only hash and "
            "ownership placements support bucket rebalancing"
        )

    def move_bucket(self, bucket: int, shard: int) -> None:
        raise PlacementError(
            f"{type(self).__name__} is static: range placements cannot "
            "rebalance at runtime (recreate the cluster with new ranges)"
        )


class HashPlacement(PlacementMap):
    """Hash keys into ``buckets`` slots; slots map to shards round-robin.

    ``move_bucket`` re-homes one slot — the rebalancing primitive the
    shard Nemesis exercises.
    """

    def __init__(self, spec: ShardSpec) -> None:
        super().__init__(spec)
        self._bucket_to_shard = [b % spec.count for b in range(spec.buckets)]

    def bucket_of(self, key: Hashable) -> int:
        return stable_bucket(routing_key(key), self.spec.buckets)

    def _locate(self, key: Hashable) -> int:
        return self._bucket_to_shard[stable_bucket(key, self.spec.buckets)]

    def shard_of_bucket(self, bucket: int) -> int:
        return self._bucket_to_shard[bucket]

    def move_bucket(self, bucket: int, shard: int) -> None:
        if not 0 <= bucket < self.spec.buckets:
            raise PlacementError(
                f"bucket {bucket} out of range: the ring has "
                f"{self.spec.buckets} buckets"
            )
        self.spec._check_shard(shard, f"rebalance of bucket {bucket}")
        self._bucket_to_shard[bucket] = shard


class RangePlacement(PlacementMap):
    """Contiguous integer ranges, each owned by one shard.  Static."""

    def __init__(self, spec: ShardSpec) -> None:
        super().__init__(spec)
        assert spec.ranges is not None
        self._ranges = spec.ranges

    def _locate(self, key: Hashable) -> int:
        if not isinstance(key, int) or isinstance(key, bool):
            raise UnknownShardError(
                f"range placement only covers integer keys, got {key!r}; "
                "use hash or ownership placement for non-integer key spaces"
            )
        for lo, hi, shard in self._ranges:
            if (lo is None or key >= lo) and (hi is None or key < hi):
                return shard
        raise UnknownShardError(f"no range covers key {key!r}")  # unreachable


class OwnershipPlacement(HashPlacement):
    """Explicit per-key owners over a hash fallback (VPaxos/WPaxos-style
    single-object ownership, generalized)."""

    def __init__(self, spec: ShardSpec) -> None:
        super().__init__(spec)
        self._owners: dict[Hashable, int] = dict(spec.assignments or ())

    def _locate(self, key: Hashable) -> int:
        owner = self._owners.get(key)
        if owner is not None:
            return owner
        return super()._locate(key)

    def move_key(self, key: Hashable, shard: int) -> None:
        """Re-home one object (the WPaxos "steal" analogue)."""
        self.spec._check_shard(shard, f"ownership move of key {key!r}")
        self._owners[routing_key(key)] = shard
