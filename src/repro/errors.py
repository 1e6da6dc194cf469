"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class ProtocolError(ReproError):
    """A replication protocol violated one of its own preconditions."""


class QuorumError(ReproError):
    """A quorum system was constructed or used incorrectly."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""


class CheckerError(ReproError):
    """A correctness checker received a malformed history."""


class ModelError(ReproError):
    """An analytic model was evaluated outside its domain."""


class PlacementError(ConfigError):
    """A key→shard placement map is malformed (overlapping or
    non-covering ranges, bad bucket counts, leader-placement conflicts)."""


class UnknownShardError(ConfigError):
    """A key, range, or explicit assignment names a shard that does not
    exist in the configured ``shards`` section."""


class ClientError(ReproError):
    """Base class for errors raised on the client path (sessions,
    transactions).  Catch this to handle any client-side failure."""


class InvalidOptions(ClientError, ValueError):
    """Session or per-call options are malformed (unknown consistency
    mode, conflicting targets, ...).

    Also a ``ValueError`` so pre-existing callers that caught the
    untyped raise keep working for one release.
    """


class RequestFailed(ClientError):
    """An individual command failed to produce a reply."""


class RetriesExhausted(RequestFailed):
    """The client gave up after exhausting its retransmission budget."""


class NoQuorum(RequestFailed):
    """No reply arrived within the deadline — the responsible replica
    group could not assemble a quorum (or is unreachable)."""


class Overloaded(RequestFailed):
    """The cluster shed this request instead of queueing it (an explicit
    ``Rejected`` reply from admission control), or the client's own
    overload defenses — retry budget, circuit breaker — refused to keep
    transmitting into a saturated cluster.

    Always a *clean* failure: the command was never executed anywhere, so
    callers may safely retry later without risking a duplicate write.
    """


class TxnError(ClientError):
    """Base class for multi-key transaction failures."""


class TxnAborted(TxnError):
    """A cross-shard transaction aborted cleanly (no write applied).

    ``reason`` says why — e.g. a lock conflict with a concurrent
    transaction — so callers can distinguish retryable aborts from
    programming errors.
    """

    def __init__(self, txn_id: str, reason: str) -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason

