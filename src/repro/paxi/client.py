"""Client library (paper section 4.1, "RESTful client" + fault commands).

A :class:`Client` issues read/write commands against any replica, measures
per-request latency in virtual time, records the operation history for the
checkers, and exposes the paper's four fault-injection commands —
``crash``, ``drop``, ``slow``, ``flaky`` — exactly as the Paxi client
library does.

Clients are load generators, not modeled machines: they have no processing
queue of their own (their cost is part of ``DL``, the client-to-leader
round trip, via the network).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable

from repro.errors import SimulationError
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import ClientReply, ClientRequest, Command, Rejected
from repro.sim.clock import EventHandle

OnDone = Callable[[ClientReply, float], None]
#: ``on_fail(reason, elapsed)`` — fired when a request concludes *without*
#: a reply.  ``reason`` is one of ``FAILURE_REASONS``.
OnFail = Callable[[str, float], None]

#: Typed failure taxonomy surfaced through ``failure_reason()`` and
#: :attr:`repro.paxi.session.Result.failure`:
#:
#: - ``"rejected"`` — a replica's admission control shed the request;
#: - ``"overloaded"`` — the client's own defenses (retry budget, circuit
#:   breaker) stopped transmitting into a saturated cluster;
#: - ``"retries_exhausted"`` — ``max_retries`` / ``max_attempts`` ran out;
#: - ``"abandoned"`` — the issuer gave up via :meth:`Client.abandon`.
FAILURE_REASONS = ("rejected", "overloaded", "retries_exhausted", "abandoned")


@dataclass(slots=True)
class _Pending:
    command: Command
    target: NodeID
    invoked_at: float
    on_done: OnDone | None
    history_token: int | None = None
    retries: int = 0
    retry_handle: EventHandle | None = None
    on_fail: OnFail | None = None
    deadline: float | None = None


class Client:
    """A benchmark client bound to one site."""

    __slots__ = (
        "deployment", "address", "site", "_network", "_loop", "_pending", "_next_request_id",
        "retry_timeout", "retry_backoff", "retry_cap", "max_retries", "max_attempts",
        "retry_budget", "retry_refill_rate", "breaker_threshold", "breaker_cooldown", "completed",
        "failed", "rejected", "overloaded", "_attempts_done", "_failure_reasons", "_retry_tokens",
        "_budget_at", "_breaker_failures", "_breaker_open_until", "_breaker_probe", "_retry_rng",
        "_tracer", "_preferred", "_sticky", "session_reads", "local_reads", "_key_versions",
    )

    def __init__(self, deployment: Deployment, address: Hashable, site: str) -> None:
        self.deployment = deployment
        self.address = address
        self.site = site
        self._network = deployment.cluster.network
        self._loop = deployment.cluster.loop
        self._pending: dict[int, _Pending] = {}
        self._next_request_id = 0
        #: Base retransmit timeout (None disables retries).  Retry k waits
        #: ``retry_timeout * retry_backoff**k`` (capped at ``retry_cap``)
        #: plus up to 25% deterministic jitter, so a herd of clients
        #: retrying into a recovering cluster spreads out instead of
        #: stampeding — the first retransmission still fires at exactly
        #: ``retry_timeout`` for predictable failover.
        self.retry_timeout: float | None = None
        self.retry_backoff: float = 2.0
        self.retry_cap: float = 1.0
        self.max_retries: int = 8
        #: Hard ceiling on *transmissions* per request (1 = never
        #: retransmit).  ``None`` keeps the historical behavior where only
        #: ``max_retries`` bounds the retry loop — so soak tests against a
        #: dead quorum can opt into terminating with a typed failure.
        self.max_attempts: int | None = None
        #: Token-bucket retry budget: at most ``retry_budget`` retransmit
        #: tokens, refilled at ``retry_refill_rate`` per second.  ``None``
        #: disables the budget.  When a retransmission finds the bucket
        #: empty the request fails typed ``"overloaded"`` — the defense
        #: that breaks the retry-storm → metastable-failure loop.
        self.retry_budget: float | None = None
        self.retry_refill_rate: float = 10.0
        #: Circuit breaker: after ``breaker_threshold`` *consecutive*
        #: failures the client fails new requests fast (no transmission)
        #: for ``breaker_cooldown`` seconds, then lets one probe through;
        #: the probe's outcome closes or re-opens the circuit.  ``None``
        #: disables the breaker.
        self.breaker_threshold: int | None = None
        self.breaker_cooldown: float = 1.0
        self.completed = 0
        self.failed = 0
        #: Requests shed by a replica (explicit ``Rejected`` replies).
        self.rejected = 0
        #: Requests the client's own defenses concluded ``"overloaded"``.
        self.overloaded = 0
        # Transmissions made by a finished request, kept only where they
        # differ from the answer ``attempts()`` defaults to (1): a request
        # that needed a retransmission or ended without a reply.
        self._attempts_done: dict[int, int] = {}
        self._failure_reasons: dict[int, str] = {}
        self._retry_tokens: float | None = None  # lazily seeded from retry_budget
        self._budget_at = 0.0
        self._breaker_failures = 0
        self._breaker_open_until = 0.0
        self._breaker_probe: int | None = None
        # Opened on the first retransmission (its draws depend only on the
        # root seed and its name): most clients never make one.
        self._retry_rng: random.Random | None = None
        self._tracer = deployment.cluster.obs.tracer
        deployment.cluster.add_lightweight_endpoint(address, site, self._on_receive)
        self._preferred = self._spread_preferences(deployment, address, site)
        # Replicas advertise the current leader in their replies; later
        # requests go straight there instead of paying a forwarding hop.
        self._sticky: NodeID | None = None
        # Session consistency (relaxed-read protocols): remember the latest
        # version token per key and attach it to reads, guaranteeing
        # read-your-writes and monotonic reads without consensus rounds.
        # Tokens are kept only while this is on (their one reader), so set
        # it before the first request.
        self.session_reads = False
        # Relaxed-read routing: send reads to the nearest replica even when
        # a leader hint is cached (writes still follow the hint).
        self.local_reads = False
        self._key_versions: dict[Hashable, int] = {}

    @staticmethod
    def _spread_preferences(
        deployment: Deployment, address: Hashable, site: str
    ) -> list[NodeID]:
        """Nearest-first node ranking, rotated among equal-distance nodes so
        that co-located clients spread across replicas instead of piling on
        one (essential for multi-leader protocols in a LAN, where every
        replica is equidistant)."""
        ordered = deployment.nearest_nodes(site)
        topology = deployment.config.topology
        head_rtt = topology.site_rtt_mean_ms(site, deployment.config.site_of(ordered[0]))
        head = [
            nid
            for nid in ordered
            if topology.site_rtt_mean_ms(site, deployment.config.site_of(nid)) == head_rtt
        ]
        tail = ordered[len(head) :]
        # Rotate by the client's creation sequence number (string hashing is
        # process-randomized and would break run-to-run determinism).
        seq = address[1] if isinstance(address, tuple) and len(address) == 2 else 0
        rotation = int(seq) % len(head)
        return head[rotation:] + head[:rotation] + tail

    # ------------------------------------------------------------------
    # Issuing requests
    # ------------------------------------------------------------------

    def invoke(
        self,
        command: Command,
        target: NodeID | None = None,
        on_done: OnDone | None = None,
        record: bool = True,
        on_fail: OnFail | None = None,
        deadline: float | None = None,
    ) -> int:
        """Send ``command`` to ``target`` (default: nearest replica).

        Returns the request id.  ``on_done(reply, latency)`` fires when the
        reply arrives; the completed operation is also appended to the
        deployment-wide history for the checkers.

        ``record=False`` skips the history: internal bookkeeping commands
        (the 2PC layer's lock CAS traffic) must stay invisible to the
        linearizability checker, which reasons only about application keys.

        ``on_fail(reason, elapsed)`` fires instead of ``on_done`` when the
        request concludes without a reply (see ``FAILURE_REASONS``).
        ``deadline`` (absolute virtual time) rides on the wire so replicas
        running ``shed_policy="deadline"`` can drop doomed work early.

        With the circuit breaker open, the request fails fast as
        ``"overloaded"`` without transmitting anything — and without ever
        entering the history (a clean, known-not-executed failure).
        """
        if self._breaker_blocks():
            self._next_request_id += 1
            request_id = self._next_request_id
            self.failed += 1
            self.overloaded += 1
            self._attempts_done[request_id] = 0
            self._failure_reasons[request_id] = "overloaded"
            if on_fail is not None:
                on_fail("overloaded", 0.0)
            return request_id
        if target is None:
            if command.is_read and (
                self.local_reads or command.read_mode in ("quorum", "local")
            ):
                # These read paths are served by whichever replica the
                # client contacts — route to the nearest one instead of
                # chasing the leader hint.
                target = self._preferred[0]
            else:
                target = self._sticky if self._sticky is not None else self._preferred[0]
        if self.session_reads and command.is_read:
            command = replace(command, min_version=self._key_versions.get(command.key, 0))
        self._next_request_id += 1
        request_id = self._next_request_id
        pending = _Pending(
            command, target, self._loop.now, on_done, on_fail=on_fail, deadline=deadline
        )
        if self.breaker_threshold is not None and self._breaker_failures >= self.breaker_threshold:
            # Cooldown just expired: this request is the half-open probe.
            self._breaker_probe = request_id
        if record:
            pending.history_token = self.deployment.history.begin(
                self.address, command.op, command.key, command.value, pending.invoked_at
            )
        self._pending[request_id] = pending
        if self._tracer.enabled:
            self._tracer.begin(
                self.address, request_id, pending.invoked_at, command.op, command.key
            )
        self._transmit(request_id, pending)
        return request_id

    # ``Client.get`` / ``Client.put`` were removed after a deprecation
    # cycle: use ``Session.get/put/txn`` (``deployment.new_session()``) for
    # typed results, or ``invoke`` for callback-driven load generation.
    # See README "Migrating from Client.get/put".

    def _transmit(self, request_id: int, pending: _Pending) -> None:
        request = ClientRequest(
            command=pending.command,
            client=self.address,
            request_id=request_id,
            deadline=pending.deadline,
            # Everything below the oldest request still pending here is
            # concluded for good; ``_pending`` is insertion-ordered and ids
            # only grow, so its first key is the oldest.  A retransmission
            # stamps a fresher value (the watermark is monotone).
            ack_upto=next(iter(self._pending)) - 1,
        )
        self._network.transit(self.address, pending.target, request, ClientRequest.SIZE_BYTES)
        if self.retry_timeout is not None:
            pending.retry_handle = self._loop.call_after(
                self._retry_delay(pending.retries), self._on_timeout, request_id
            )

    @property
    def effective_retry_cap(self) -> float:
        """The backoff ceiling `_retry_delay` actually applies:
        ``max(retry_cap, retry_timeout)``.

        The clamp lives here, in exactly one place: a ``retry_cap`` below
        the base ``retry_timeout`` would make retry *k* wait less than the
        first transmission did, so the base timeout is a floor.  With the
        defaults (``retry_cap=1.0``) the configured cap only takes effect
        when ``retry_timeout < 1.0``; for larger base timeouts the cap is
        silently the base timeout itself.
        """
        assert self.retry_timeout is not None
        return max(self.retry_cap, self.retry_timeout)

    def _retry_delay(self, retries: int) -> float:
        """Capped exponential backoff with deterministic jitter.

        The first transmission (``retries == 0``) waits exactly
        ``retry_timeout``; retry ``k`` waits ``retry_timeout * backoff**k``
        capped at :attr:`effective_retry_cap` (NOT raw ``retry_cap``: caps
        below the base timeout are clamped up to it), stretched by up to
        25% drawn from the deployment's seeded streams.
        """
        assert self.retry_timeout is not None
        if retries == 0:
            return self.retry_timeout
        delay = min(self.retry_timeout * self.retry_backoff**retries, self.effective_retry_cap)
        if self._retry_rng is None:
            self._retry_rng = self.deployment.cluster.streams.stream(f"client-retry-{self.address}")
        return delay * (1.0 + 0.25 * self._retry_rng.random())

    def _on_timeout(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        pending.retries += 1
        self._sticky = None  # the cached leader may be the failed node
        out_of_attempts = pending.retries > self.max_retries or (
            self.max_attempts is not None and pending.retries + 1 > self.max_attempts
        )
        if out_of_attempts:
            del self._pending[request_id]
            # attempts = pending.retries = transmissions made
            self._conclude_failure(
                request_id, pending, "retries_exhausted", pending.retries
            )
            return
        if self.retry_budget is not None and not self._take_retry_token():
            del self._pending[request_id]
            self.overloaded += 1
            self._conclude_failure(request_id, pending, "overloaded", pending.retries)
            return
        # Rotate to the next-nearest replica, the Paxi client's failover.
        ring = self._preferred
        next_index = (ring.index(pending.target) + 1) % len(ring)
        pending.target = ring[next_index]
        self._tracer.event((self.address, request_id), "retry", self._loop.now, self.address)
        self._transmit(request_id, pending)

    def _take_retry_token(self) -> bool:
        """Draw one token from the retry budget (True = may retransmit)."""
        assert self.retry_budget is not None
        now = self._loop.now
        tokens = self._retry_tokens if self._retry_tokens is not None else self.retry_budget
        tokens = min(self.retry_budget, tokens + (now - self._budget_at) * self.retry_refill_rate)
        self._budget_at = now
        if tokens >= 1.0:
            self._retry_tokens = tokens - 1.0
            return True
        self._retry_tokens = tokens
        return False

    def _breaker_blocks(self) -> bool:
        """True while the circuit is open (and no probe slot is free)."""
        if self.breaker_threshold is None or self._breaker_failures < self.breaker_threshold:
            return False
        if self._loop.now < self._breaker_open_until:
            return True
        # Cooldown elapsed: half-open.  One probe flies; everyone else
        # keeps failing fast until its outcome is known.
        return self._breaker_probe is not None and self._breaker_probe in self._pending

    def _note_breaker_failure(self) -> None:
        if self.breaker_threshold is None:
            return
        self._breaker_failures += 1
        if self._breaker_failures >= self.breaker_threshold:
            self._breaker_open_until = self._loop.now + self.breaker_cooldown
            self._breaker_probe = None

    def _conclude_failure(
        self,
        request_id: int,
        pending: _Pending,
        reason: str,
        attempts: int,
        discard_history: bool = False,
    ) -> None:
        """Shared end-of-life path for requests that will never get a reply.

        ``discard_history=True`` removes the operation from the recorder —
        only sound when *no* transmitted copy could have been executed
        (first-attempt rejection); otherwise the open record stays, and the
        linearizability checker treats a pending write as maybe-applied.
        """
        if pending.retry_handle is not None:
            pending.retry_handle.cancel()
        self.failed += 1
        self._attempts_done[request_id] = attempts
        self._failure_reasons[request_id] = reason
        self._note_breaker_failure()
        if discard_history and pending.history_token is not None:
            self.deployment.history.discard(pending.history_token)
        self._tracer.fail((self.address, request_id), self._loop.now, self.address)
        if pending.on_fail is not None:
            pending.on_fail(reason, self._loop.now - pending.invoked_at)

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------

    def _on_receive(self, src: Hashable, message: Any, size_bytes: int) -> None:
        if type(message) is Rejected:
            self._on_rejected(message)
            return
        if not isinstance(message, ClientReply):
            raise SimulationError(f"client got unexpected {type(message).__name__}")
        pending = self._pending.pop(message.request_id, None)
        if pending is None:
            return  # stale reply after a retry already completed
        if pending.retry_handle is not None:
            pending.retry_handle.cancel()
        if self.breaker_threshold is not None:
            self._breaker_failures = 0  # any success closes the circuit
            self._breaker_probe = None
        if message.leader_hint is not None:
            self._sticky = message.leader_hint
        if message.version and self.session_reads:
            key = pending.command.key
            self._key_versions[key] = max(self._key_versions.get(key, 0), message.version)
        now = self._loop.now
        latency = now - pending.invoked_at
        self.completed += 1
        if pending.retries:
            self._attempts_done[message.request_id] = pending.retries + 1
        self._tracer.end((self.address, message.request_id), now, self.address)
        if pending.history_token is not None:
            self.deployment.history.complete(pending.history_token, message.value, now)
        if pending.on_done is not None:
            pending.on_done(message, latency)

    def _on_rejected(self, message: Rejected) -> None:
        """A replica's admission control bounced this request.

        Rejection is honored, not fought: the request concludes with a
        typed ``"rejected"`` failure instead of instantly retransmitting
        (instant retry-on-reject would defeat the shedding it reports).
        A first-attempt rejection is *provably* unexecuted — the rejecting
        replica never processed it — so the operation is discarded from
        the history as a clean failure.  After a retransmission, an older
        copy may still be in flight, so the maybe-applied record stays.
        """
        pending = self._pending.pop(message.request_id, None)
        if pending is None:
            return  # stale rejection: a retransmitted copy already won
        self.rejected += 1
        self._sticky = None  # the shedding node may be a dying leader
        self._conclude_failure(
            message.request_id,
            pending,
            "rejected",
            pending.retries + 1,
            discard_history=pending.retries == 0,
        )

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def attempts(self, request_id: int) -> int:
        """Transmissions made for ``request_id`` (1 = no retries).

        Valid for in-flight and finished requests alike; Sessions surface
        it as :attr:`repro.paxi.session.Result.attempts`.
        """
        pending = self._pending.get(request_id)
        if pending is not None:
            return pending.retries + 1
        return self._attempts_done.get(request_id, 1)

    def abandon(self, request_id: int) -> None:
        """Give up on an in-flight request: stop retrying and ignore any
        late reply (it will look like a stale duplicate).

        The shard-rebalance drain uses this to cut off stragglers bound for
        a migrating bucket: the operation's history record stays open
        (``returned_at = inf``), which is exactly how the linearizability
        checker accounts for a write that may or may not have landed on the
        source group.
        """
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        self._conclude_failure(request_id, pending, "abandoned", pending.retries + 1)

    def abandoned(self, request_id: int) -> bool:
        """True iff ``request_id`` concluded without a reply (any of
        ``FAILURE_REASONS``), as opposed to still waiting or having
        succeeded — on its first transmission or a later one."""
        return request_id in self._failure_reasons

    def failure_reason(self, request_id: int) -> str | None:
        """How ``request_id`` failed (one of ``FAILURE_REASONS``), or None
        while it is in flight / after it succeeded.  Sessions surface this
        as :attr:`repro.paxi.session.Result.failure`."""
        return self._failure_reasons.get(request_id)

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

    def flaky(self, src: NodeID, dst: NodeID, duration: float, probability: float = 0.5) -> None:
        """Randomly drop messages from ``src`` to ``dst``."""
        self.deployment.flaky(src, dst, duration, probability)
