"""Measured per-request message counts vs. Table-2 role accounting.

Drives protocols through the simulator one request at a time (zero
queueing, no retries) and asserts that the per-request deltas of the
``repro.obs`` message counters at the busiest node equal the
:mod:`repro.core.service` / :mod:`repro.core.protocol_models` role
accounting — exactly for the conflict-free leader-based protocols, within
tolerance for EPaxos under conflicts.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.service import paxos_follower_work, paxos_leader_work
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.protocols.epaxos import EPaxos
from repro.protocols.fpaxos import FPaxos
from repro.protocols.paxos import MultiPaxos

LEADER = NodeID(1, 1)
FOLLOWER = NodeID(1, 2)


def _drive_sequential(deployment, target, keys, settle=0.5):
    """Issue one request per key, each only after the previous completed,
    so no request ever queues behind another."""
    client = deployment.new_client(site=deployment.config.site_of(target))
    deployment.run_for(settle)
    for key in keys:
        done = []
        client.invoke(Command.put(key, f"v{key}"), target=target, on_done=lambda *_: done.append(1))
        for _ in range(200):
            deployment.run_for(0.005)
            if done:
                break
        assert done, f"request for key {key} never completed"
    return client


def _delta(metrics_before, metrics_after):
    sent = {
        name: metrics_after.sent[name] - metrics_before[0].get(name, 0)
        for name in metrics_after.sent
    }
    received = {
        name: metrics_after.received[name] - metrics_before[1].get(name, 0)
        for name in metrics_after.received
    }
    return (
        {k: v for k, v in sent.items() if v},
        {k: v for k, v in received.items() if v},
    )


def _counted(deployment, target, requests=20):
    """Per-request sent/received counts by message type at ``target``,
    averaged over ``requests`` primed, sequential, conflict-free writes."""
    node = deployment.cluster.obs.metrics.node(target)
    # Prime: leader election / first-touch effects settle outside the count.
    _drive_sequential(deployment, target, keys=[900001, 900002])
    before = (dict(node.sent), dict(node.received))
    _drive_sequential(deployment, target, keys=range(1, requests + 1), settle=0.0)
    sent, received = _delta(before, node)
    return (
        {name: count / requests for name, count in sent.items()},
        {name: count / requests for name, count in received.items()},
    )


@pytest.mark.parametrize("n", [3, 5, 9])
def test_multipaxos_leader_counts_match_model(n):
    cfg = Config.lan(1, n, seed=11, heartbeat_interval=None)
    deployment = Deployment(cfg).start(MultiPaxos)
    sent, received = _counted(deployment, LEADER)

    # Table 2 leader round: in = 1 request + (n-1) acks, out = (n-1)
    # accepts + 1 reply; nic_messages = 2n covers both directions.
    work = paxos_leader_work(n)
    assert received == {"ClientRequest": 1.0, "P2b": float(n - 1)}
    assert sent == {"P2a": float(n - 1), "ClientReply": 1.0}
    assert sum(received.values()) == work.incoming
    assert sum(sent.values()) + sum(received.values()) == work.nic_messages


def test_multipaxos_follower_counts_match_model():
    n = 5
    cfg = Config.lan(1, n, seed=11, heartbeat_interval=None)
    deployment = Deployment(cfg).start(MultiPaxos)
    node = deployment.cluster.obs.metrics.node(FOLLOWER)
    _drive_sequential(deployment, LEADER, keys=[900001, 900002])
    before = (dict(node.sent), dict(node.received))
    _drive_sequential(deployment, LEADER, keys=range(1, 21), settle=0.0)
    sent, received = _delta(before, node)

    work = paxos_follower_work()
    assert received == {"P2a": 20}  # one accept per round
    assert sent == {"P2b": 20}  # one ack per round
    assert sum(received.values()) / 20 == work.incoming
    assert (sum(sent.values()) + sum(received.values())) / 20 == work.nic_messages


def test_fpaxos_counts_identical_to_multipaxos():
    """FPaxos only shrinks the phase-2 *quorum*; the non-thrifty leader
    still broadcasts to everyone, so Table-2 counts are unchanged."""
    n = 9
    cfg = Config.lan(1, n, seed=11, heartbeat_interval=None, q2_size=3)
    deployment = Deployment(cfg).start(FPaxos)
    sent, received = _counted(deployment, LEADER)
    work = paxos_leader_work(n)
    assert received == {"ClientRequest": 1.0, "P2b": float(n - 1)}
    assert sent == {"P2a": float(n - 1), "ClientReply": 1.0}
    assert sum(sent.values()) + sum(received.values()) == work.nic_messages


def test_epaxos_conflict_free_counts_match_model():
    """EPaxos fast path (no conflicts): the model's round is in = n
    (request + n-1 PreAcceptOKs), out = n (n-1 PreAccepts + reply).
    Commit dissemination is excluded from the model's capacity accounting
    (it overlaps with the next round), so it is asserted separately."""
    n = 5
    cfg = Config.lan(1, n, seed=11)
    deployment = Deployment(cfg).start(EPaxos)
    sent, received = _counted(deployment, LEADER)

    assert received == {"ClientRequest": 1.0, "PreAcceptOK": float(n - 1)}
    # Model's out-direction NIC count: nic_messages - incoming = n.
    assert sent["PreAccept"] == float(n - 1)
    assert sent["ClientReply"] == 1.0
    assert sent["PreAccept"] + sent["ClientReply"] == float(n)
    # The documented delta: one commit broadcast per instance.
    assert sent["CommitMsg"] == float(n - 1)
    assert set(sent) == {"PreAccept", "ClientReply", "CommitMsg"}


def test_epaxos_with_conflicts_within_tolerance():
    """Under conflicts some instances take the extra Accept round.  The
    measured extra messages must scale with the *measured* conflict rate
    (slow-path instances / total), matching the model's ``c``-scaled extra
    RoundWork within tolerance."""
    n = 5
    requests = 60
    cfg = Config.lan(1, n, seed=13)
    deployment = Deployment(cfg).start(EPaxos)
    node = deployment.cluster.obs.metrics.node(LEADER)
    other = deployment.cluster.obs.metrics.node(NodeID(1, 2))

    # Interleave two clients writing the same key through different
    # command leaders: concurrent interfering instances -> slow path.
    site = deployment.config.site_of(LEADER)
    client_a = deployment.new_client(site=site)
    client_b = deployment.new_client(site=site)
    deployment.run_for(0.5)
    before = (dict(node.sent), dict(node.received))
    for i in range(requests):
        done = []
        client_a.invoke(Command.put(777, f"a{i}"), target=LEADER, on_done=lambda *_: done.append(1))
        client_b.invoke(
            Command.put(777, f"b{i}"), target=NodeID(1, 2), on_done=lambda *_: done.append(1)
        )
        for _ in range(200):
            deployment.run_for(0.005)
            if len(done) == 2:
                break
        assert len(done) == 2
    sent, received = _delta(before, node)

    slow_quorum = n // 2 + 1
    conflicts = sent.get("Accept", 0) / (n - 1)  # slow-path instances led here
    own = requests  # instances this node led
    assert conflicts > 0, "conflict workload produced no slow-path rounds"
    # Fast-path accounting still holds per led instance...
    assert sent["PreAccept"] == own * (n - 1)
    assert received["ClientRequest"] == own
    # ...and the extra Accept round's acks scale with the conflict count:
    # AcceptOK arrives from every peer (broadcast Accept), >= quorum - 1.
    accept_oks = received.get("AcceptOK", 0)
    assert accept_oks >= conflicts * (slow_quorum - 1)
    assert accept_oks <= conflicts * (n - 1) + 1e-9
    # The measured conflict rate is a probability.
    assert 0.0 < conflicts / own <= 1.0


def test_metrics_bytes_and_totals_consistent():
    """Bytes and message totals line up across the cluster: every message
    received was sent by someone, and byte counters match message sizes."""
    n = 3
    cfg = Config.lan(1, n, seed=7, heartbeat_interval=None)
    deployment = Deployment(cfg).start(MultiPaxos)
    _drive_sequential(deployment, LEADER, keys=range(1, 11))
    hub = deployment.cluster.obs.metrics
    total_sent = sum(m.messages_sent() for m in hub.nodes.values())
    total_received = sum(m.messages_received() for m in hub.nodes.values())
    assert total_sent == total_received
    assert total_sent == deployment.cluster.network.stats.messages_sent
    bytes_sent = sum(m.bytes_sent for m in hub.nodes.values())
    assert bytes_sent == deployment.cluster.network.stats.bytes_sent
    for metrics in hub.nodes.values():
        assert all(v >= 0 for v in metrics.sent.values())
        assert all(v >= 0 for v in metrics.received.values())


def test_reboot_sink_deliveries_are_not_counted_as_received():
    """While a node is down (reboot/wipe), peer messages land in the outage
    sink: the sender still pays (and counts) the send, but nothing is
    listening, so the victim's received counters must not move."""
    cfg = Config.lan(1, 3, seed=17, election_timeout=0.15)
    deployment = Deployment(cfg).start(MultiPaxos)
    _drive_sequential(deployment, LEADER, keys=[101, 102])
    hub = deployment.cluster.obs.metrics
    victim = hub.node(FOLLOWER)
    deployment.reboot(FOLLOWER, downtime=0.3)
    deployment.run_for(0.01)  # outage takes effect; in-flight messages sink
    received_before = victim.messages_received()
    leader_p2a_before = hub.node(LEADER).sent.get("P2a", 0)
    # Drive load while the victim is down: the 2/3 quorum still commits and
    # the leader keeps broadcasting P2a at the sink.
    _drive_sequential(deployment, LEADER, keys=[103, 104, 105], settle=0.0)
    assert hub.node(LEADER).sent.get("P2a", 0) > leader_p2a_before
    assert victim.messages_received() == received_before
    # After restart the fresh incarnation counts deliveries again.
    deployment.run_for(1.0)
    _drive_sequential(deployment, LEADER, keys=[106], settle=0.0)
    assert victim.messages_received() > received_before


_SNAPSHOT_SCRIPT = """
import json
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.message import Command
from repro.protocols.paxos import MultiPaxos

deployment = Deployment(Config.lan(1, 3, seed=3)).start(MultiPaxos)
for value in range(3):
    deployment.new_client().invoke(Command.put("k", value))
deployment.run_for(0.05)
print(json.dumps(deployment.cluster.obs.metrics.snapshot()))
"""


def test_metrics_snapshot_order_does_not_follow_the_hash_salt():
    """Two processes with different string-hash salts dump one seeded run's
    metrics to the same bytes (no ``sort_keys``): client addresses hash
    their ``"client"`` tag, so a set-ordered snapshot moves them around."""
    dumps = []
    for salt in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)}
        env["PYTHONHASHSEED"] = salt
        dumps.append(
            subprocess.run(
                [sys.executable, "-c", _SNAPSHOT_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
        )  # fmt: skip
    assert '"(\'client\', 1)"' in dumps[0]
    assert dumps[0] == dumps[1]
