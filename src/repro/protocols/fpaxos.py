"""Flexible Paxos (FPaxos) — Howard, Malkhi, Spiegelman 2016 (paper section 2).

FPaxos relaxes MultiPaxos's majority requirement: safety only needs every
phase-1 quorum to intersect every phase-2 quorum.  Running with
``|q2| < majority`` (and ``|q1| = N - |q2| + 1``) trades fault tolerance for
a smaller replication quorum, which shortens the quorum wait ``DQ`` and
reduces the leader's critical-path work — the "small flexible quorums
benefit" of paper section 5.2.

Everything else — including crash recovery (WAL replay after a reboot,
learner-mode state transfer after a wipe) — is inherited from
:class:`~repro.protocols.paxos.MultiPaxos`.  Note that small ``|q2|``
makes durability *more* load-bearing, not less: with ``|q2| = 1`` the
leader's own disk can be the entire phase-2 quorum, so in durable configs
its self-ack waits for the WAL fsync like any other acceptor's.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.quorum import Quorum, ThresholdQuorum
from repro.protocols.paxos import MultiPaxos


class FPaxos(MultiPaxos):
    """MultiPaxos with flexible (threshold) quorums.

    Config param ``q2_size`` (in addition to MultiPaxos's,
    :data:`repro.paxi.config.PARAMS`): the phase-2 quorum size, 3 by
    default — the paper's "FPaxos 9 Nodes (|q2|=3)" configuration.
    """

    def __init__(self, deployment: Deployment, node_id: NodeID) -> None:
        n = deployment.config.n
        q2 = deployment.config.param("q2_size")
        if not 1 <= q2 <= n:
            raise ConfigError(f"q2_size {q2} outside [1, {n}]")
        self.q2_size = q2
        self.q1_size = n - q2 + 1
        super().__init__(deployment, node_id)

    def phase1_quorum(self) -> Quorum:
        return ThresholdQuorum(self.config.node_ids, self.q1_size)

    def phase2_quorum(self) -> Quorum:
        return ThresholdQuorum(self.config.node_ids, self.q2_size)

    def read_quorum(self) -> Quorum:
        # A quorum read must observe every committed write, i.e. intersect
        # every phase-2 quorum: |r| + |q2| > n.  With small q2 this is
        # *larger* than a majority — the flexible-quorum read penalty.
        return ThresholdQuorum(self.config.node_ids, self.q1_size)
