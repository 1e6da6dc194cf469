"""Tests for the client library: retries, failover, stickiness, faults."""

import random
import zlib

import pytest

from repro.bench.openloop import OpenLoopEngine, PoissonArrivals
from repro.bench.workload import WorkloadSpec

from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import ClientReply, ClientRequest, Command
from repro.paxi.node import Replica
from repro.protocols.paxos import MultiPaxos


class Echo(Replica):
    def __init__(self, deployment, node_id):
        super().__init__(deployment, node_id)
        self.served = 0
        self.register(ClientRequest, self.on_request)

    def on_request(self, src, m):
        self.served += 1
        value = self.store.execute(m.command)
        self.send(
            m.client,
            ClientReply(request_id=m.request_id, ok=True, value=value, replied_by=self.id),
        )


class Mute(Replica):
    """Never replies — forces client timeouts."""

    def __init__(self, deployment, node_id):
        super().__init__(deployment, node_id)
        self.register(ClientRequest, lambda src, m: None)


def test_retry_rotates_to_next_replica():
    dep = Deployment(Config.lan(1, 3, seed=1)).start(Echo)
    client = dep.new_client()
    client.retry_timeout = 0.05
    first = client._preferred[0]
    dep.drop(client.address, first, duration=0.2, at=0.0)
    done = []
    client.invoke(Command.put("k", 1), on_done=lambda r, l: done.append(r.replied_by))
    dep.run_for(0.3)
    assert done and done[0] != first  # failed over to another node
    assert client.completed == 1
    assert client.failed == 0


def test_gives_up_after_max_retries():
    dep = Deployment(Config.lan(1, 2, seed=2)).start(Mute)
    client = dep.new_client()
    client.retry_timeout = 0.02
    client.max_retries = 3
    client.invoke(Command.put("k", 1))
    dep.run_for(1.0)
    assert client.failed == 1
    assert client.outstanding == 0
    # The abandoned write stays in the history as possibly-effective.
    assert dep.history.in_flight == 1


def test_stale_reply_after_retry_is_ignored():
    dep = Deployment(Config.lan(1, 3, seed=3)).start(Echo)
    client = dep.new_client()
    client.retry_timeout = 0.0005  # shorter than one network delay
    done = []
    client.invoke(Command.put("k", 1), on_done=lambda r, l: done.append(r.replied_by))
    dep.run_for(0.5)
    # Both the original and the retry may execute, but exactly one
    # completion is reported.
    assert len(done) == 1
    assert client.completed == 1


def test_success_on_a_retransmission_is_not_abandoned():
    dep = Deployment(Config.lan(1, 3, seed=1)).start(MultiPaxos)
    dep.run_for(0.3)  # elect a leader
    client = dep.new_client()
    client.retry_timeout = 0.05
    # Lose the first transmission only; the retry reaches the next replica.
    dep.drop(client.address, client._preferred[0], duration=0.02)
    done = []
    request_id = client.invoke(Command.put("k", 1), on_done=lambda r, l: done.append(r))
    dep.run_for(0.3)
    assert done and client.completed == 1 and client.failed == 0
    assert client.attempts(request_id) == 2
    assert client.failure_reason(request_id) is None
    assert not client.abandoned(request_id)
    # A first-transmission success leaves no per-request record behind.
    second = client.invoke(Command.put("k", 2))
    dep.run_for(0.3)
    assert client.attempts(second) == 1 and not client.abandoned(second)
    assert list(client._attempts_done) == [request_id]


def test_sticky_hint_cleared_on_timeout():
    dep = Deployment(Config.lan(1, 3, seed=4)).start(Echo)
    client = dep.new_client()
    client.retry_timeout = 0.05
    client._sticky = NodeID(1, 2)
    dep.drop(client.address, NodeID(1, 2), duration=0.2, at=0.0)
    client.invoke(Command.put("k", 1))
    dep.run_for(0.3)
    assert client._sticky is None or client._sticky != NodeID(1, 2) or client.completed == 1


def test_no_retry_by_default():
    dep = Deployment(Config.lan(1, 2, seed=5)).start(Mute)
    client = dep.new_client()
    client.invoke(Command.put("k", 1))
    dep.run_for(0.5)
    assert client.outstanding == 1  # waits forever, never fails
    assert client.failed == 0


def test_client_fault_commands_delegate():
    dep = Deployment(Config.lan(1, 3, seed=6)).start(Echo)
    client = dep.new_client()
    client.crash(NodeID(1, 2), duration=0.5)
    client.drop(NodeID(1, 1), NodeID(1, 2), duration=0.5)
    client.slow(NodeID(1, 2), NodeID(1, 3), duration=0.5)
    client.flaky(NodeID(1, 3), NodeID(1, 1), duration=0.5, probability=0.3)
    # Crash registered as a server freeze; the drop rule is active.
    assert dep.cluster.server(NodeID(1, 2)) is not None
    dep.run_for(0.01)
    assert dep.cluster.server(NodeID(1, 2)).frozen
    rules = dep.cluster.faults.active_rules(0.1, NodeID(1, 1), NodeID(1, 2))
    assert any(rule.kind == "drop" for rule in rules)


def test_explicit_target_overrides_preference():
    dep = Deployment(Config.lan(1, 3, seed=7)).start(Echo)
    client = dep.new_client()
    target = NodeID(1, 3)
    client.invoke(Command.put("k", 1), target=target)
    dep.run_for(0.05)
    assert dep.replicas[target].served == 1


def test_request_ids_monotone():
    dep = Deployment(Config.lan(1, 1, seed=8)).start(Echo)
    client = dep.new_client()
    ids = [client.invoke(Command.put("k", i)) for i in range(5)]
    assert ids == sorted(ids) and len(set(ids)) == 5


class TestRetryCapSemantics:
    def test_effective_cap_is_max_of_cap_and_base_timeout(self):
        dep = Deployment(Config.lan(1, 2, seed=6)).start(Echo)
        client = dep.new_client()
        client.retry_timeout = 0.05
        client.retry_cap = 1.0
        assert client.effective_retry_cap == 1.0
        # A cap below the base timeout is clamped up: retry k must never
        # wait less than the first transmission did.
        client.retry_cap = 0.01
        assert client.effective_retry_cap == 0.05
        client.retry_timeout = 2.0
        client.retry_cap = 1.0
        assert client.effective_retry_cap == 2.0

    def test_backoff_delays_respect_effective_cap(self):
        dep = Deployment(Config.lan(1, 2, seed=6)).start(Echo)
        client = dep.new_client()
        client.retry_timeout = 0.1
        client.retry_backoff = 4.0
        client.retry_cap = 0.2
        assert client._retry_delay(0) == 0.1  # first transmission: exact
        for k in range(1, 6):
            delay = client._retry_delay(k)
            # <= cap stretched by at most 25% jitter, >= base timeout.
            assert delay <= client.effective_retry_cap * 1.25 + 1e-12
            assert delay >= client.retry_timeout


class TestMaxAttempts:
    def test_max_attempts_caps_transmissions(self):
        dep = Deployment(Config.lan(1, 2, seed=7)).start(Mute)
        client = dep.new_client()
        client.retry_timeout = 0.02
        client.max_retries = 50
        client.max_attempts = 3
        request_id = client.invoke(Command.put("k", 1))
        dep.run_for(2.0)
        assert client.failed == 1
        assert client.failure_reason(request_id) == "retries_exhausted"
        assert client.attempts(request_id) == 3

    def test_unset_max_attempts_keeps_historical_behavior(self):
        dep = Deployment(Config.lan(1, 2, seed=7)).start(Mute)
        client = dep.new_client()
        client.retry_timeout = 0.02
        client.max_retries = 5
        request_id = client.invoke(Command.put("k", 1))
        dep.run_for(2.0)
        assert client.attempts(request_id) == 6  # 1 original + max_retries


class TestRetryBudget:
    def test_exhausted_budget_fails_typed_overloaded(self):
        dep = Deployment(Config.lan(1, 2, seed=8)).start(Mute)
        client = dep.new_client()
        client.retry_timeout = 0.02
        client.max_retries = 50
        client.retry_budget = 2.0
        client.retry_refill_rate = 0.0
        ids = [client.invoke(Command.put("k", i)) for i in range(2)]
        dep.run_for(2.0)
        assert client.overloaded == 2
        for request_id in ids:
            assert client.failure_reason(request_id) == "overloaded"
        # Two tokens were spent across the pair before the bucket dried up.
        total = sum(client.attempts(i) - 1 for i in ids)
        assert total == 2

    def test_budget_refills_over_time(self):
        dep = Deployment(Config.lan(1, 2, seed=8)).start(Mute)
        client = dep.new_client()
        client.retry_timeout = 0.05
        client.max_retries = 2
        client.retry_budget = 1.0
        client.retry_refill_rate = 100.0  # refills far faster than retries
        request_id = client.invoke(Command.put("k", 1))
        dep.run_for(2.0)
        # Never starved: the request used its full retry allowance.
        assert client.failure_reason(request_id) == "retries_exhausted"
        assert client.attempts(request_id) == 3


class TestCircuitBreaker:
    def _muted_client(self, threshold=2, cooldown=0.5):
        dep = Deployment(Config.lan(1, 2, seed=9)).start(Mute)
        client = dep.new_client()
        client.retry_timeout = 0.02
        client.max_retries = 0  # each invoke = one transmission, one failure
        client.breaker_threshold = threshold
        client.breaker_cooldown = cooldown
        return dep, client

    def test_breaker_opens_after_consecutive_failures(self):
        dep, client = self._muted_client()
        for i in range(2):
            client.invoke(Command.put("k", i))
            dep.run_for(0.1)
        assert client._breaker_failures == 2
        # Open circuit: new invokes fail fast without touching the wire.
        request_id = client.invoke(Command.put("k", 99))
        assert client.failure_reason(request_id) == "overloaded"
        assert client.outstanding == 0

    def test_half_open_probe_after_cooldown(self):
        dep, client = self._muted_client(cooldown=0.2)
        for i in range(2):
            client.invoke(Command.put("k", i))
            dep.run_for(0.1)
        dep.run_for(0.3)  # cooldown elapses: half-open
        probe = client.invoke(Command.put("k", 100))
        assert client.failure_reason(probe) is None  # the probe flies
        # While the probe is outstanding, everyone else still fails fast.
        blocked = client.invoke(Command.put("k", 101))
        assert client.failure_reason(blocked) == "overloaded"

    def test_success_closes_breaker(self):
        dep = Deployment(Config.lan(1, 2, seed=10)).start(Echo)
        client = dep.new_client()
        client.breaker_threshold = 2
        client._breaker_failures = 2  # pretend the circuit just tripped
        client._breaker_open_until = 0.0  # cooldown already over
        probe = client.invoke(Command.put("k", 1))
        dep.run_for(0.2)
        assert client.failure_reason(probe) is None
        assert client.completed == 1
        assert client._breaker_failures == 0  # success closed the circuit
        follow_up = client.invoke(Command.put("k", 2))
        dep.run_for(0.2)
        assert client.failure_reason(follow_up) is None
        assert client.completed == 2


class TestLazyRetryStream:
    """A client opens its ``client-retry-*`` stream on its first
    retransmission; a stream's draws depend only on the root seed and its
    name, so opening it late changes no jitter."""

    def test_first_retransmission_draws_the_named_stream(self):
        dep = Deployment(Config.lan(1, 3, seed=4)).start(Echo)
        client = dep.new_client()
        client.retry_timeout = 0.01
        streams, name = dep.cluster.streams, f"client-retry-{client.address}"
        assert name not in streams._streams
        # Streams created and drawn from after the client was built.
        dep.new_client()
        streams.stream("a-later-consumer").random()
        dep.run_for(0.05)
        assert name not in streams._streams
        delays = [client._retry_delay(k) for k in range(6)]
        assert name in streams._streams
        expected = random.Random((streams.seed << 32) ^ zlib.crc32(name.encode("utf-8")))
        cap = client.effective_retry_cap
        assert delays == [0.01] + [
            min(0.01 * 2.0**k, cap) * (1.0 + 0.25 * expected.random()) for k in range(1, 6)
        ]

    def test_retrying_open_loop_run_is_unchanged(self):
        """Pinned from the run before the stream was opened lazily: 253
        offered, 225 in-window completions, 113 retransmissions."""
        dep = Deployment(Config.lan(3, 3, seed=17)).start(MultiPaxos)
        site = dep.config.topology.sites[0]
        engine = OpenLoopEngine(
            dep, WorkloadSpec(keys=20), PoissonArrivals(600.0), sites=[site] * 3,
            retry_timeout=0.03, max_retries=6,
        )  # fmt: skip
        dep.crash(dep.config.node_ids[0], 0.15, at=0.1)  # the leader
        result = engine.run(0.4, 0.05, 0.05)
        dep.run_for(0.5)
        retries = sum(
            c.attempts(i) - 1 for c in engine.clients for i in range(1, c._next_request_id + 1)
        )
        latencies = result.latencies_ms
        assert (result.offered, result.completed, result.failed, retries) == (253, 225, 0, 113)
        assert (sum(latencies), max(latencies)) == (7541.4967374498465, 154.8418284967873)
