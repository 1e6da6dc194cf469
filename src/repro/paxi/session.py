"""Typed, synchronous-feeling client facade over the callback `Client`.

:class:`Session` is the only supported client surface: ``put``/``get``
return a :class:`Result` dataclass (value, latency, which replica answered)
and ``txn`` runs a multi-key transaction, instead of asking the caller to
thread ``on_done`` callbacks and drive the event loop by hand.  Under the
hood a session still issues commands through a
:class:`~repro.paxi.client.Client` and advances the deployment's virtual
clock until the reply lands (or ``max_wait`` expires), so sessions compose
with everything else running in the simulation.

Session-level knobs are consolidated into :class:`SessionOptions`; the same
dataclass doubles as a per-call override (``session.get(k,
opts=SessionOptions(consistency="quorum"))``).

Against a sharded cluster (:mod:`repro.shard`) the same facade routes each
key through the placement map — see
:class:`repro.shard.session.ShardedSession`, which subclasses this one.

The paper's four fault-injection commands are methods here too, mirroring
the Paxi client library's "RESTful" surface.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Mapping

from repro.errors import InvalidOptions, NoQuorum, Overloaded, RetriesExhausted
from repro.paxi.message import ClientReply, Command
from repro.paxi.ids import NodeID

if TYPE_CHECKING:
    from repro.paxi.client import Client
    from repro.paxi.deployment import Deployment
    from repro.shard.txn import TxnResult

#: Session default when ``SessionOptions.max_wait`` is left unset.
DEFAULT_MAX_WAIT = 5.0


@dataclass(frozen=True)
class SessionOptions:
    """Consolidated knobs for a session, or overrides for a single call.

    Every field defaults to "inherit": a ``None`` (or ``False`` for
    ``strict``) falls back to the session's options, which in turn fall
    back to the documented global defaults.  That makes one dataclass
    serve both roles — ``new_session(options=...)`` configures a session,
    ``session.get(k, opts=...)`` overrides one call.

    - ``site`` / ``zone`` — where the session's client(s) are co-located;
    - ``max_wait`` — virtual seconds to wait for each reply (default 5.0);
    - ``consistency`` — default read path (``None`` = leader round,
      ``"lease"``, ``"quorum"``, or ``"local"`` — see ``docs/READS.md``);
    - ``target`` — pin commands to one replica instead of nearest/leader
      routing (single-group deployments only);
    - ``max_attempts`` — hard ceiling on transmissions per command
      (``None`` inherits the client default: retries bounded only by its
      ``max_retries``); surfaces as :attr:`Result.attempts` /
      :attr:`Result.failure`;
    - ``strict`` — raise :class:`~repro.errors.NoQuorum` /
      :class:`~repro.errors.RetriesExhausted` /
      :class:`~repro.errors.Overloaded` instead of returning a ``Result``
      with ``ok=False``.
    """

    site: str | None = None
    zone: int | None = None
    max_wait: float | None = None
    consistency: str | None = None
    target: NodeID | None = None
    max_attempts: int | None = None
    strict: bool = False

    def __post_init__(self) -> None:
        if self.consistency not in Command.READ_MODES:
            raise InvalidOptions(
                f"unknown consistency {self.consistency!r}; "
                f"expected one of {Command.READ_MODES}"
            )
        if self.max_wait is not None and self.max_wait <= 0:
            raise InvalidOptions(
                f"max_wait must be a positive number of seconds, got {self.max_wait!r}"
            )
        if self.max_attempts is not None and (
            not isinstance(self.max_attempts, int) or self.max_attempts < 1
        ):
            raise InvalidOptions(
                f"max_attempts must be a positive integer or None, got {self.max_attempts!r}"
            )

    def merged_over(self, base: "SessionOptions") -> "SessionOptions":
        """Field-wise overlay: any field set here wins over ``base``."""
        updates: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "strict":
                if value:
                    updates[f.name] = True
            elif value is not None:
                updates[f.name] = value
        return replace(base, **updates) if updates else base


@dataclass(frozen=True)
class Result:
    """Outcome of one session operation.

    ``ok`` is False when the operation timed out (no reply within
    ``max_wait`` of virtual time); ``replica`` is then ``None`` and
    ``latency_ms`` covers the time spent waiting.  ``attempts`` counts
    transmissions, so it is 1 plus the number of client retries.
    ``read_mode`` echoes the read path the command was issued with
    (``None`` for writes and default leader reads), so traces and tests
    can split retry/latency stats per read path.

    ``failure`` types the failure when ``ok`` is False: ``"rejected"``
    (admission control shed it — a *clean* failure, safe to retry),
    ``"overloaded"`` (the client's retry budget / circuit breaker gave
    up), ``"retries_exhausted"``, ``"abandoned"``, or ``"timeout"`` (no
    reply, outcome unknown).  ``None`` when ``ok``.
    """

    ok: bool
    value: Any
    latency_ms: float
    replica: NodeID | None
    request_id: int
    version: int = 0
    attempts: int = 1
    read_mode: str | None = None
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class Session:
    """A synchronous facade bound to one client.

    Each call issues the command, runs the simulation forward until the
    reply arrives, and returns a :class:`Result`.  Use one session per
    logical actor; concurrent load generation belongs to the benchmarker,
    which drives many clients asynchronously.
    """

    #: Granularity (virtual seconds) at which the loop advances while waiting.
    _STEP = 0.005

    def __init__(
        self,
        deployment: "Deployment",
        options: SessionOptions | None = None,
        site: str | None = None,
        zone: int | None = None,
        max_wait: float | None = None,
        consistency: str | None = None,
    ) -> None:
        options = _fold_legacy(options, site, zone, max_wait, consistency)
        self.options = options
        self.deployment = deployment
        self.client: "Client" = deployment.new_client(
            site=options.site, zone=options.zone
        )
        self._txn_runtime = None

    # Resolved session defaults ----------------------------------------

    @property
    def max_wait(self) -> float:
        return (
            self.options.max_wait
            if self.options.max_wait is not None
            else DEFAULT_MAX_WAIT
        )

    @property
    def consistency(self) -> str | None:
        """Default read path for this session's GETs (None = leader round)."""
        return self.options.consistency

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def put(
        self,
        key: Hashable,
        value: Any,
        opts: SessionOptions | None = None,
    ) -> Result:
        """Write ``key = value`` and wait for the committed reply."""
        return self.execute(Command.put(key, value), opts)

    def get(
        self,
        key: Hashable,
        opts: SessionOptions | None = None,
    ) -> Result:
        """Read ``key`` and wait for the reply.  ``opts`` overrides the
        session options for this one read (e.g. a different read path)."""
        resolved = opts.merged_over(self.options) if opts else self.options
        return self.execute(
            Command.get(key, read_mode=resolved.consistency), opts
        )

    def txn(
        self,
        writes: Mapping[Hashable, Any] | None = None,
        reads: Iterable[Hashable] | None = None,
    ) -> "TxnResult":
        """Atomically apply ``writes`` and read ``reads`` across shards.

        Single-key sessions route everything through one consensus group;
        a :class:`~repro.shard.session.ShardedSession` spreads the keys
        over their shards and runs two-phase commit on top of the groups
        (see ``docs/SHARDING.md``).  Raises
        :class:`~repro.errors.TxnAborted` on a lock conflict and
        :class:`~repro.errors.NoQuorum` if a participant group is
        unreachable; on success returns a
        :class:`~repro.shard.txn.TxnResult` with the values read.
        """
        runtime = self._txn_backend()
        return runtime.run(dict(writes or {}), list(reads or []))

    def _txn_backend(self):
        if self._txn_runtime is None:
            from repro.shard.txn import SingleGroupTxnRuntime

            self._txn_runtime = SingleGroupTxnRuntime(
                self.deployment, site=self.options.site, zone=self.options.zone
            )
        return self._txn_runtime

    def execute(
        self,
        command: Command,
        opts: SessionOptions | None = None,
    ) -> Result:
        """Issue ``command`` and run the simulation until it resolves."""
        resolved = opts.merged_over(self.options) if opts else self.options
        max_wait = (
            resolved.max_wait if resolved.max_wait is not None else DEFAULT_MAX_WAIT
        )
        outcome: dict[str, Any] = {}

        def on_done(reply: ClientReply, latency: float) -> None:
            outcome["reply"] = reply
            outcome["latency"] = latency

        client = self._client_for(command)
        if resolved.max_attempts is not None:
            # Sticky on the session's client: the ceiling applies to this
            # and every later command the session issues.
            client.max_attempts = resolved.max_attempts
        started = self.deployment.now
        request_id = client.invoke(
            command,
            resolved.target,
            on_done,
            # The session's patience IS the request's deadline; replicas
            # running shed_policy="deadline" drop work that cannot meet it.
            deadline=started + max_wait,
        )
        deadline = started + max_wait
        while (
            "reply" not in outcome
            and client.failure_reason(request_id) is None
            and self.deployment.now < deadline
        ):
            self.deployment.run_for(min(self._STEP, deadline - self.deployment.now))
        reply = outcome.get("reply")
        attempts = client.attempts(request_id)
        read_mode = command.read_mode if command.is_read else None
        if reply is None:
            failure = client.failure_reason(request_id) or "timeout"
            gave_up = client.abandoned(request_id)
            # A call that ran out of patience is still pending at the
            # client: stop its retry timer, let ``ack_upto`` move past it
            # and turn a late reply into a stale duplicate.  (Read the
            # outcome first: abandoning records its own failure reason.)
            client.abandon(request_id)
            if resolved.strict:
                waited = self.deployment.now - started
                if failure in ("rejected", "overloaded"):
                    raise Overloaded(
                        f"{command.op}({command.key!r}) {failure} after "
                        f"{attempts} transmissions (clean typed failure; "
                        "the cluster or client shed it under load)"
                    )
                if gave_up:
                    raise RetriesExhausted(
                        f"{command.op}({command.key!r}) abandoned after "
                        f"{attempts} transmissions"
                    )
                raise NoQuorum(
                    f"{command.op}({command.key!r}) got no reply within "
                    f"{waited:.3f}s of virtual time"
                )
            return Result(
                ok=False,
                value=None,
                latency_ms=(self.deployment.now - started) * 1000.0,
                replica=None,
                request_id=request_id,
                attempts=attempts,
                read_mode=read_mode,
                failure=failure,
            )
        return Result(
            ok=reply.ok,
            value=reply.value,
            latency_ms=outcome["latency"] * 1000.0,
            replica=reply.replied_by,
            request_id=request_id,
            version=reply.version,
            attempts=attempts,
            read_mode=read_mode,
        )

    def _client_for(self, command: Command) -> "Client":
        """The client that should carry ``command``.  The single-group
        session always answers with its one client; the sharded session
        overrides this to route by the command's key."""
        return self.client

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def site(self) -> str:
        return self.client.site

    @property
    def address(self) -> Hashable:
        return self.client.address

    # ------------------------------------------------------------------
    # Fault-injection commands (paper section 4.2, "Availability")
    # ------------------------------------------------------------------

    def crash(self, node: NodeID, duration: float | None = None) -> None:
        """Freeze ``node`` for ``duration`` seconds (None = permanently)."""
        self.deployment.crash(node, duration)

    def reboot(self, node: NodeID, downtime: float = 0.05) -> None:
        """Power-cycle ``node``: volatile state lost, disk survives."""
        self.deployment.reboot(node, downtime)

    def wipe(self, node: NodeID, downtime: float = 0.05) -> None:
        """Destroy ``node``'s disk and restart it empty (state transfer)."""
        self.deployment.wipe(node, downtime)

    def drop(self, src: NodeID, dst: NodeID, duration: float) -> None:
        """Drop every message from ``src`` to ``dst`` for ``duration`` s."""
        self.deployment.drop(src, dst, duration)

    def slow(self, src: NodeID, dst: NodeID, duration: float) -> None:
        """Delay messages from ``src`` to ``dst`` for ``duration`` s."""
        self.deployment.slow(src, dst, duration)

    def flaky(
        self, src: NodeID, dst: NodeID, duration: float, probability: float = 0.5
    ) -> None:
        """Randomly drop messages from ``src`` to ``dst``."""
        self.deployment.flaky(src, dst, duration, probability)


def _fold_legacy(
    options: SessionOptions | None,
    site: str | None,
    zone: int | None,
    max_wait: float | None,
    consistency: str | None,
) -> SessionOptions:
    """Merge constructor keyword shorthands into a ``SessionOptions``.

    ``new_session(site=..., consistency=...)`` remains the documented
    convenience spelling; mixing it with an explicit ``options`` object
    that sets the same field is ambiguous and rejected.
    """
    if options is None:
        return SessionOptions(
            site=site, zone=zone, max_wait=max_wait, consistency=consistency
        )
    for name, value in (
        ("site", site),
        ("zone", zone),
        ("max_wait", max_wait),
        ("consistency", consistency),
    ):
        if value is not None:
            if getattr(options, name) is not None:
                raise InvalidOptions(
                    f"{name} given both in options and as a keyword; pick one"
                )
            options = replace(options, **{name: value})
    return options
