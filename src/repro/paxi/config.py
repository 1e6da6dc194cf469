"""Cluster, protocol, and benchmark configuration (paper section 4.1).

A :class:`Config` carries everything a deployment needs: the topology, the
node IDs and their placement, the machine service profile, the seed, and a
free-form parameter mapping for protocol-specific knobs (quorum sizes,
fault-tolerance levels, stealing policies, ...).

Like Paxi, configurations can be managed "via a JSON file distributed to
every node": :meth:`Config.to_json` / :meth:`Config.from_json` round-trip
the standard deployments (LAN grids and AWS WAN grids).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core import topology as topo
from repro.errors import ConfigError, UnknownShardError
from repro.paxi.ids import NodeID, grid_ids
from repro.shard.placement import ShardSpec
from repro.sim.server import ServiceProfile
from repro.sim.storage import DURABILITY_MODES, DiskProfile

#: Seed offset between consecutive shards' deployments (prime, so derived
#: streams across shards never line up with each other).
SHARD_SEED_STRIDE = 9973

#: Knobs that live in the nested ``replication`` section of the JSON schema.
_REPLICATION_KEYS = (
    "batch_window",
    "batch_size",
    "pipeline_depth",
    "durability",
    "disk",
    "snapshot_interval",
)

#: Admission-control knobs live in the nested ``admission`` JSON section.
_ADMISSION_KEYS = ("max_inflight", "queue_limit", "shed_policy")

#: What a replica does with a client request it will not queue.
SHED_POLICIES = ("reject", "drop_oldest", "deadline")


@dataclass
class Config:
    """Static description of one deployment.

    The batching / pipelining knobs are typed fields (not ``params``
    entries) because every protocol shares them:

    - ``batch_size`` — maximum commands coalesced into one log entry;
      ``1`` disables batching unless a window is set;
    - ``batch_window`` — seconds of virtual time the leader waits to fill
      a batch before flushing it (``None`` disables, ``0.0`` coalesces
      only same-instant arrivals);
    - ``pipeline_depth`` — maximum consensus instances a leader keeps in
      flight concurrently (``None`` = unbounded, the historical behavior).

    Durability is strictly opt-in (the default keeps the seed's in-memory
    behavior byte-identical):

    - ``durability`` — ``"none"`` (in-memory), ``"fsync"`` (every WAL
      record synced on the critical path) or ``"group"`` (group-commit
      fsync, amortized across concurrent records);
    - ``disk`` — the :class:`~repro.sim.storage.DiskProfile` to charge
      sync costs from (requires ``durability != "none"``);
    - ``snapshot_interval`` — write a disk snapshot and truncate the WAL
      every this many executed slots (``None`` disables periodic
      snapshots; state transfer to wiped nodes works either way).
    """

    topology: topo.Topology
    node_ids: tuple[NodeID, ...]
    profile: ServiceProfile = field(default_factory=ServiceProfile)
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)
    batch_window: float | None = None
    batch_size: int = 1
    pipeline_depth: int | None = None
    durability: str = "none"
    disk: DiskProfile | None = None
    snapshot_interval: int | None = None
    #: Admission control / load shedding (strictly opt-in; the defaults
    #: keep the unbounded-queue seed behavior byte-identical):
    #:
    #: - ``queue_limit`` — max jobs a replica's CPU+NIC queue may hold when
    #:   a new client request arrives; beyond it the request is shed
    #:   (``None`` = unbounded, the historical behavior);
    #: - ``max_inflight`` — max distinct admitted-but-unanswered client
    #:   requests per replica (``None`` = unbounded);
    #: - ``shed_policy`` — what shedding does: ``"reject"`` bounces the new
    #:   arrival, ``"drop_oldest"`` bounces the oldest *queued* client
    #:   request instead (fresher work is likelier to meet its deadline),
    #:   ``"deadline"`` additionally sheds any request whose propagated
    #:   deadline cannot be met given the current backlog.
    max_inflight: int | None = None
    queue_limit: int | None = None
    shed_policy: str = "reject"
    #: Shard layout for the multi-group runtime (``repro.shard``).  ``None``
    #: keeps the historical single-group behavior; the topology above then
    #: describes the (one and only) group.  With ``shards`` set, every
    #: shard gets its *own* grid of this shape — see ``Config.for_shard``.
    shards: ShardSpec | None = None
    def __post_init__(self) -> None:
        if len(self.node_ids) != self.topology.n_nodes:
            raise ConfigError(
                f"{len(self.node_ids)} node ids but topology places "
                f"{self.topology.n_nodes} nodes"
            )
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ConfigError("duplicate node ids")
        if self.batch_window is not None and self.batch_window < 0:
            raise ConfigError(
                f"batch_window must be >= 0 seconds, got {self.batch_window!r}: "
                "a negative coalescing window cannot be waited for "
                "(use batch_window=None to disable batching)"
            )
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size!r}: "
                "a batch holds at least one command (use batch_size=1 to disable)"
            )
        if self.pipeline_depth is not None and self.pipeline_depth < 1:
            raise ConfigError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth!r}: "
                "a leader needs at least one instance in flight "
                "(use pipeline_depth=None for unbounded)"
            )
        if self.durability not in DURABILITY_MODES:
            raise ConfigError(
                f"durability must be one of {DURABILITY_MODES}, got {self.durability!r}"
            )
        if self.disk is not None and self.durability == "none":
            raise ConfigError(
                "a disk profile was given but durability='none'; "
                "set durability='fsync' or 'group' to use it"
            )
        if self.snapshot_interval is not None:
            if self.durability == "none":
                raise ConfigError(
                    "snapshot_interval requires durability != 'none': "
                    "snapshots only exist on a durable disk"
                )
            if not isinstance(self.snapshot_interval, int) or self.snapshot_interval < 1:
                raise ConfigError(
                    f"snapshot_interval must be a positive integer number of "
                    f"slots or None, got {self.snapshot_interval!r}"
                )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"shed_policy must be one of {SHED_POLICIES}, got {self.shed_policy!r}"
            )
        for name, value in (
            ("queue_limit", self.queue_limit),
            ("max_inflight", self.max_inflight),
        ):
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool) or value < 1
            ):
                raise ConfigError(
                    f"{name} must be a positive integer or None, got {value!r}: "
                    "a replica needs room for at least one request "
                    f"(use {name}=None for the historical unbounded behavior)"
                )
        if self.shards is not None and not isinstance(self.shards, ShardSpec):
            raise ConfigError(
                f"shards must be a ShardSpec or None, got {type(self.shards).__name__} "
                "(build one with ShardSpec(count=...) or the 'shards' JSON section)"
            )
        if (
            self.shards is not None
            and self.shards.count > 1
            and self.shards.leaders == "spread"
            and "leader" in self.params
        ):
            raise ConfigError(
                f"leader-placement conflict: params['leader']={self.params['leader']} "
                "pins every group's leader to one node, but shards.leaders='spread' "
                "asks for per-shard leaders on different nodes; drop the param or "
                "set shards.leaders='first'"
            )

    @property
    def batching_enabled(self) -> bool:
        return self.batch_size > 1 or self.batch_window is not None

    @property
    def admission_enabled(self) -> bool:
        """True iff any admission gate is configured.  When False, replicas
        take the historical zero-overhead ingress path."""
        return self.queue_limit is not None or self.max_inflight is not None

    @property
    def durable(self) -> bool:
        return self.durability != "none"

    @property
    def disk_profile(self) -> DiskProfile:
        """The effective disk profile for durable deployments."""
        return self.disk if self.disk is not None else DiskProfile()

    # ------------------------------------------------------------------
    # Derived lookups
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.node_ids)

    def site_of(self, node_id: NodeID) -> str:
        return self.topology.node_site(self.node_ids.index(node_id))

    def ids_in_zone(self, zone: int) -> list[NodeID]:
        return [nid for nid in self.node_ids if nid.zone == zone]

    def ids_in_site(self, site: str) -> list[NodeID]:
        return [nid for nid in self.node_ids if self.site_of(nid) == site]

    @property
    def zones(self) -> list[int]:
        seen: list[int] = []
        for nid in self.node_ids:
            if nid.zone not in seen:
                seen.append(nid.zone)
        return seen

    def zone_site(self, zone: int) -> str:
        members = self.ids_in_zone(zone)
        if not members:
            raise ConfigError(f"no nodes in zone {zone}")
        return self.site_of(members[0])

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return self.shards.count if self.shards is not None else 1

    def for_shard(self, index: int) -> "Config":
        """The per-group configuration of shard ``index``.

        Each shard is an independent deployment: same topology shape and
        service profile, but its own derived seed (so groups do not march
        in lockstep) and — under the ``"spread"`` leader policy — a
        rotated initial leader, mirroring how co-located groups spread
        leader load across machines.  Shard 0 of a single-shard layout is
        the *identical* configuration (only ``shards`` cleared), which is
        what makes single-shard clusters byte-identical to a plain
        deployment.
        """
        spec = self.shards
        if spec is None or spec.count == 1:
            if index != 0:
                raise UnknownShardError(
                    f"shard {index} does not exist: this configuration has one shard"
                )
            return replace(self, shards=None)
        if not 0 <= index < spec.count:
            raise UnknownShardError(
                f"shard {index} does not exist: shards.count = {spec.count}"
            )
        params = dict(self.params)
        if spec.leaders == "spread":
            params["leader"] = self.node_ids[index % len(self.node_ids)]
        return replace(
            self,
            shards=None,
            seed=self.seed + index * SHARD_SEED_STRIDE,
            params=params,
        )

    # ------------------------------------------------------------------
    # Builders matching the paper's deployments
    # ------------------------------------------------------------------

    @staticmethod
    def lan(
        zones: int = 3,
        nodes_per_zone: int = 3,
        seed: int = 0,
        profile: ServiceProfile | None = None,
        batch_window: float | None = None,
        batch_size: int = 1,
        pipeline_depth: int | None = None,
        durability: str = "none",
        disk: DiskProfile | None = None,
        snapshot_interval: int | None = None,
        shards: ShardSpec | None = None,
        max_inflight: int | None = None,
        queue_limit: int | None = None,
        shed_policy: str = "reject",
        **params: Any,
    ) -> "Config":
        """A single-site LAN cluster (paper section 5.2: 9 nodes).

        Zones are logical here — WPaxos still forms a 3x3 grid, but every
        node sees LAN round-trip times.
        """
        ids = grid_ids(zones, nodes_per_zone)
        return Config(
            topology=topo.lan(zones * nodes_per_zone),
            node_ids=ids,
            profile=profile if profile is not None else ServiceProfile(),
            seed=seed,
            params=dict(params),
            batch_window=batch_window,
            batch_size=batch_size,
            pipeline_depth=pipeline_depth,
            durability=durability,
            disk=disk,
            snapshot_interval=snapshot_interval,
            shards=shards,
            max_inflight=max_inflight,
            queue_limit=queue_limit,
            shed_policy=shed_policy,
        )

    @staticmethod
    def wan(
        regions: tuple[str, ...] = ("VA", "OH", "CA"),
        nodes_per_zone: int = 3,
        seed: int = 0,
        profile: ServiceProfile | None = None,
        batch_window: float | None = None,
        batch_size: int = 1,
        pipeline_depth: int | None = None,
        durability: str = "none",
        disk: DiskProfile | None = None,
        snapshot_interval: int | None = None,
        shards: ShardSpec | None = None,
        max_inflight: int | None = None,
        queue_limit: int | None = None,
        shed_policy: str = "reject",
        **params: Any,
    ) -> "Config":
        """A multi-region WAN cluster; zone ``i`` lives in ``regions[i-1]``.

        The paper's WAN experiments use 3 regions x 3 nodes for the
        locality/conflict studies and 5 regions x 1 node for the EPaxos
        model (Figure 12).
        """
        ids = grid_ids(len(regions), nodes_per_zone)
        return Config(
            topology=topo.aws_wan(regions, nodes_per_zone),
            node_ids=ids,
            profile=profile if profile is not None else ServiceProfile(),
            seed=seed,
            params=dict(params),
            batch_window=batch_window,
            batch_size=batch_size,
            pipeline_depth=pipeline_depth,
            durability=durability,
            disk=disk,
            snapshot_interval=snapshot_interval,
            shards=shards,
            max_inflight=max_inflight,
            queue_limit=queue_limit,
            shed_policy=shed_policy,
        )

    # ------------------------------------------------------------------
    # JSON round trip (Paxi distributes configuration as a JSON file)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize a standard (LAN or AWS WAN grid) deployment.

        Replication knobs live under ``"replication"`` and the shard layout
        under ``"shards"``.
        """
        zones = self.zones
        nodes_per_zone = len(self.ids_in_zone(zones[0]))
        if self.node_ids != grid_ids(len(zones), nodes_per_zone):
            raise ConfigError("only rectangular grid deployments serialize to JSON")
        is_lan = self.topology.sites == ("LAN",)
        payload = {
            "deployment": "lan" if is_lan else "wan",
            "regions": list(self.topology.sites) if not is_lan else None,
            "zones": len(zones),
            "nodes_per_zone": nodes_per_zone,
            "seed": self.seed,
            "profile": {
                "t_in": self.profile.t_in,
                "t_out": self.profile.t_out,
                "bandwidth_bps": self.profile.bandwidth_bps,
                "default_message_bytes": self.profile.default_message_bytes,
            },
            "params": _jsonable_params(self.params),
            "replication": {
                "batch_window": self.batch_window,
                "batch_size": self.batch_size,
                "pipeline_depth": self.pipeline_depth,
                "durability": self.durability,
                "disk": (
                    {
                        "fsync_latency": self.disk.fsync_latency,
                        "write_bandwidth_bps": self.disk.write_bandwidth_bps,
                    }
                    if self.disk is not None
                    else None
                ),
                "snapshot_interval": self.snapshot_interval,
            },
            "admission": (
                {
                    "max_inflight": self.max_inflight,
                    "queue_limit": self.queue_limit,
                    "shed_policy": self.shed_policy,
                }
                if self.admission_enabled
                else None
            ),
            "shards": self.shards.to_dict() if self.shards is not None else None,
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "Config":
        """Rebuild a configuration serialized with :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed configuration JSON: {exc}") from exc
        return Config.from_dict(payload)

    @staticmethod
    def from_file(path: Any) -> "Config":
        """Load and validate a configuration from a JSON file.

        This is the Paxi deployment story — "a JSON file distributed to
        every node" — with validation: every error names the offending
        field and says how to fix it.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read configuration file {path!r}: {exc}") from exc
        return Config.from_json(text)

    @staticmethod
    def from_dict(payload: Any) -> "Config":
        """Build a validated :class:`Config` from a plain mapping.

        Accepts the :meth:`to_json` schema plus an optional ``protocol``
        name (validated against the registry and kept in ``params`` for
        CLIs to consume).  Raises :class:`~repro.errors.ConfigError` with
        an actionable message on any inconsistency: unknown keys, unknown
        protocol, a quorum system that cannot intersect, a negative batch
        window, and so on.
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                f"configuration must be a mapping, got {type(payload).__name__}"
            )
        known = {
            "deployment", "regions", "zones", "nodes_per_zone", "seed",
            "profile", "params", "protocol", "replication", "admission", "shards",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"unknown configuration key(s) {unknown}; "
                f"valid keys are {sorted(known)}"
            )

        replication = payload.get("replication") or {}
        if not isinstance(replication, dict):
            raise ConfigError(
                f"'replication' must be a mapping, got {replication!r}"
            )
        bad_replication = sorted(set(replication) - set(_REPLICATION_KEYS))
        if bad_replication:
            raise ConfigError(
                f"unknown replication key(s) {bad_replication}; "
                f"valid keys are {sorted(_REPLICATION_KEYS)}"
            )
        deployment = payload.get("deployment", "lan")
        if deployment not in ("lan", "wan"):
            raise ConfigError(
                f"deployment must be 'lan' or 'wan', got {deployment!r}"
            )
        regions = payload.get("regions")
        if deployment == "wan":
            if not regions or not isinstance(regions, (list, tuple)):
                raise ConfigError(
                    "wan deployment needs a non-empty 'regions' list, "
                    "e.g. [\"VA\", \"OH\", \"CA\"]"
                )
            zones = payload.get("zones", len(regions))
            if zones != len(regions):
                raise ConfigError(
                    f"'zones' ({zones}) disagrees with len(regions) "
                    f"({len(regions)}); drop 'zones' or make them match"
                )
        else:
            zones = payload.get("zones", 3)
        nodes_per_zone = payload.get("nodes_per_zone", 3)
        for name, value in (("zones", zones), ("nodes_per_zone", nodes_per_zone)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")

        profile_dict = payload.get("profile") or {}
        if not isinstance(profile_dict, dict):
            raise ConfigError(f"profile must be a mapping, got {profile_dict!r}")
        profile_keys = {"t_in", "t_out", "bandwidth_bps", "default_message_bytes"}
        bad_profile = sorted(set(profile_dict) - profile_keys)
        if bad_profile:
            raise ConfigError(
                f"unknown profile key(s) {bad_profile}; "
                f"valid keys are {sorted(profile_keys)}"
            )
        profile = ServiceProfile(**profile_dict)

        params = _params_from_json(payload.get("params") or {})
        migrated = sorted(
            k for k in ("batch_window", "batch_size", "pipeline_depth") if k in params
        )
        if migrated:
            raise ConfigError(
                f"{migrated} are typed configuration fields, not protocol params; "
                "move them out of 'params' into the 'replication' section"
            )
        n = zones * nodes_per_zone
        protocol = payload.get("protocol")
        if protocol is not None:
            params["protocol"] = _validate_protocol(protocol)
        _validate_quorum(params, n)
        _validate_lease(params)

        batch_window = replication.get("batch_window")
        batch_size = replication.get("batch_size", 1)
        pipeline_depth = replication.get("pipeline_depth")
        if batch_window is not None and not isinstance(batch_window, (int, float)):
            raise ConfigError(
                f"batch_window must be a number of seconds or null, got {batch_window!r}"
            )
        for name, value in (("batch_size", batch_size), ("pipeline_depth", pipeline_depth)):
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        durability = replication.get("durability", "none")
        if durability is None:
            durability = "none"
        if durability not in DURABILITY_MODES:
            raise ConfigError(
                f"durability must be one of {DURABILITY_MODES}, got {durability!r}"
            )
        disk_dict = replication.get("disk")
        disk = None
        if disk_dict is not None:
            if not isinstance(disk_dict, dict):
                raise ConfigError(f"disk must be a mapping, got {disk_dict!r}")
            disk_keys = {"fsync_latency", "write_bandwidth_bps"}
            bad_disk = sorted(set(disk_dict) - disk_keys)
            if bad_disk:
                raise ConfigError(
                    f"unknown disk key(s) {bad_disk}; valid keys are {sorted(disk_keys)}"
                )
            try:
                disk = DiskProfile(**disk_dict)
            except Exception as exc:  # SimulationError or bad field types
                raise ConfigError(f"invalid disk profile {disk_dict!r}: {exc}") from exc
        snapshot_interval = replication.get("snapshot_interval")
        if snapshot_interval is not None and (
            not isinstance(snapshot_interval, int) or isinstance(snapshot_interval, bool)
        ):
            raise ConfigError(
                f"snapshot_interval must be an integer or null, got {snapshot_interval!r}"
            )
        admission = payload.get("admission") or {}
        if not isinstance(admission, dict):
            raise ConfigError(f"'admission' must be a mapping, got {admission!r}")
        bad_admission = sorted(set(admission) - set(_ADMISSION_KEYS))
        if bad_admission:
            raise ConfigError(
                f"unknown admission key(s) {bad_admission}; "
                f"valid keys are {sorted(_ADMISSION_KEYS)}"
            )
        shards_dict = payload.get("shards")
        shards = ShardSpec.from_dict(shards_dict) if shards_dict is not None else None
        common = {
            "nodes_per_zone": nodes_per_zone,
            "seed": payload.get("seed", 0),
            "profile": profile,
            "batch_window": batch_window,
            "batch_size": 1 if batch_size is None else batch_size,
            "pipeline_depth": pipeline_depth,
            "durability": durability,
            "disk": disk,
            "snapshot_interval": snapshot_interval,
            "shards": shards,
            "max_inflight": admission.get("max_inflight"),
            "queue_limit": admission.get("queue_limit"),
            "shed_policy": admission.get("shed_policy") or "reject",
        }
        if deployment == "lan":
            return Config.lan(zones=zones, **common, **params)
        return Config.wan(regions=tuple(regions), **common, **params)


def _validate_protocol(name: Any) -> str:
    """Resolve a protocol name case-insensitively against the registry."""
    from repro.protocols import PROTOCOLS  # runtime import: avoids a cycle

    if isinstance(name, str):
        for canonical in PROTOCOLS:
            if canonical.lower() == name.lower():
                return canonical
    raise ConfigError(
        f"unknown protocol {name!r}; valid protocols are {sorted(PROTOCOLS)}"
    )


def _validate_quorum(params: dict[str, Any], n: int) -> None:
    """Reject phase-1/phase-2 quorum sizes that cannot intersect."""
    q2 = params.get("q2_size")
    if q2 is None:
        return
    if not isinstance(q2, int) or isinstance(q2, bool) or q2 < 1:
        raise ConfigError(
            f"q2_size must be a positive integer, got {q2!r}"
        )
    q1 = params.get("q1_size", n - q2 + 1)
    if q1 + q2 <= n:
        raise ConfigError(
            f"quorum system cannot intersect: q1_size={q1} + q2_size={q2} <= n={n}, "
            "so a phase-1 and a phase-2 quorum can be disjoint and safety is lost; "
            f"choose sizes with q1 + q2 > {n} (e.g. q1_size={n - q2 + 1})"
        )


def _validate_lease(params: dict[str, Any]) -> None:
    """Reject lease parameters that void the lease safety argument."""
    lease = params.get("lease_duration")
    skew = params.get("max_clock_skew", 0.0)
    if skew and lease is None:
        raise ConfigError(
            "max_clock_skew was given but lease_duration is unset; "
            "the skew bound only matters to leases — set lease_duration too"
        )
    if lease is None:
        return
    if not isinstance(lease, (int, float)) or isinstance(lease, bool) or lease <= 0:
        raise ConfigError(
            f"lease_duration must be a positive number of seconds, got {lease!r}"
        )
    if not isinstance(skew, (int, float)) or isinstance(skew, bool) or skew < 0:
        raise ConfigError(
            f"max_clock_skew must be a non-negative number of seconds, got {skew!r}"
        )
    if skew >= lease:
        raise ConfigError(
            f"max_clock_skew={skew} >= lease_duration={lease}: the leader's "
            "usable lease window (duration - skew) would be empty; shorten "
            "the skew bound or lengthen the lease"
        )


def _jsonable_params(params: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name, value in params.items():
        if isinstance(value, NodeID):
            out[name] = {"__node_id__": str(value)}
        else:
            out[name] = value
    return out


def _params_from_json(params: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name, value in params.items():
        if isinstance(value, dict) and "__node_id__" in value:
            out[name] = NodeID.parse(value["__node_id__"])
        else:
            out[name] = value
    return out
