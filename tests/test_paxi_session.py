"""The typed Session facade — the only supported client surface.

``deployment.new_session()`` is the supported way to issue individual
commands: ``put``/``get`` return a :class:`~repro.paxi.session.Result`
with the value, latency, and replying replica.  The old
``Client.get``/``put`` shims were removed after their deprecation cycle;
callback-driven load generation goes through ``Client.invoke``.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidOptions, NoQuorum
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.paxi.session import Result, Session, SessionOptions
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft


def _deployment(factory=MultiPaxos, **kwargs):
    deployment = Deployment(Config.lan(3, 3, seed=3, **kwargs)).start(factory)
    deployment.run_for(0.05)  # leader setup
    return deployment


def test_session_put_get_roundtrip():
    deployment = _deployment()
    session = deployment.new_session()
    put = session.put("x", 42)
    assert put.ok and bool(put)
    assert put.latency_ms > 0
    assert put.replica in deployment.replicas
    assert put.version >= 1
    got = session.get("x")
    assert got.ok and got.value == 42
    assert got.request_id != put.request_id


def test_session_works_with_batching_enabled():
    deployment = _deployment(batch_size=16, batch_window=0.001, pipeline_depth=8)
    session = deployment.new_session()
    assert session.put("k", "v").ok
    assert session.get("k").value == "v"


def test_session_binds_to_site_and_zone():
    deployment = Deployment(
        Config.wan(("VA", "OH", "CA"), 3, seed=3)
    ).start(MultiPaxos)
    deployment.run_for(0.05)
    by_site = deployment.new_session(site="OH")
    assert by_site.site == "OH"
    by_zone = deployment.new_session(zone=3)
    assert by_zone.site == "CA"
    assert isinstance(by_zone, Session)
    assert by_zone.address != by_site.address


def test_session_timeout_returns_failed_result():
    deployment = _deployment()
    victim = NodeID(3, 3)
    deployment.crash(victim, 10.0)
    deployment.run_for(0.01)
    session = deployment.new_session(max_wait=0.05)
    result = session.execute(Command.get("x"), opts=SessionOptions(target=victim))
    assert isinstance(result, Result)
    assert not result.ok and not bool(result)
    assert result.replica is None and result.value is None
    assert result.latency_ms >= 0.05 * 1000 * 0.9


def test_timed_out_call_is_abandoned_at_the_client(monkeypatch):
    """A call that gives up must not stay pending at the client: that would
    pin the client's ``ack_upto`` watermark (every replica then keeps its
    later replies) and let the late reply count as a completion."""
    deployment = _deployment()
    victim = NodeID(3, 3)
    deployment.crash(victim, 0.2)  # frozen, not dead: it answers late
    deployment.run_for(0.01)
    session = deployment.new_session(max_wait=0.05)
    client = session.client
    network = deployment.cluster.network
    requests, replies = [], []
    transit = network.transit

    def spy(src, dst, message, size_bytes):
        if src == client.address:
            requests.append(message)
        elif dst == client.address:
            replies.append(message)
        transit(src, dst, message, size_bytes)

    monkeypatch.setattr(network, "transit", spy)
    result = session.execute(Command.put("x", 1), opts=SessionOptions(target=victim))
    assert not result.ok and result.failure == "timeout"
    assert client.outstanding == 0 and not replies

    completed, failed = client.completed, client.failed
    history = deployment.history.snapshot()
    deployment.run_for(0.5)  # the victim thaws, the write commits, the reply comes back
    assert [m.request_id for m in replies] == [result.request_id]  # the late reply
    assert (client.completed, client.failed) == (completed, failed)
    assert deployment.history.snapshot() == history

    follow_up = session.put("y", 2)
    assert follow_up.ok
    assert requests[-1].request_id == follow_up.request_id
    assert requests[-1].ack_upto == follow_up.request_id - 1 > requests[0].ack_upto


def test_session_fault_commands_delegate():
    deployment = _deployment(factory=Raft)
    session = deployment.new_session()
    session.crash(NodeID(2, 2), 0.1)
    session.drop(NodeID(1, 1), NodeID(1, 2), 0.1)
    session.slow(NodeID(1, 2), NodeID(1, 3), 0.1)
    session.flaky(NodeID(2, 1), NodeID(2, 3), 0.1, probability=0.5)
    deployment.run_for(0.3)  # faults applied and expired without blowing up
    assert session.put("y", 1).ok


def test_client_get_put_shims_are_gone():
    """The deprecation cycle is over: callback load generation goes through
    ``Client.invoke``; typed calls go through the Session facade."""
    deployment = _deployment()
    client = deployment.new_client()
    assert not hasattr(client, "put") and not hasattr(client, "get")
    seen = {}
    client.invoke(Command.put("k", 7), on_done=lambda r, l: seen.setdefault("put", r))
    deployment.run_for(0.1)
    client.invoke(Command.get("k"), on_done=lambda r, l: seen.setdefault("get", r))
    deployment.run_for(0.1)
    assert seen["put"].ok and seen["get"].value == 7
    assert client.completed == 2


def test_session_options_validation_and_strict_mode():
    with pytest.raises(InvalidOptions):
        SessionOptions(consistency="bogus")
    with pytest.raises(InvalidOptions):
        SessionOptions(max_wait=-1.0)
    with pytest.raises(InvalidOptions):
        # same knob in options and keyword shorthand is ambiguous
        Session(_deployment(), SessionOptions(max_wait=1.0), max_wait=2.0)
    deployment = _deployment()
    victim = NodeID(3, 3)
    deployment.crash(victim, 10.0)
    deployment.run_for(0.01)
    strict = deployment.new_session(
        options=SessionOptions(max_wait=0.05, strict=True)
    )
    with pytest.raises(NoQuorum):
        strict.execute(Command.get("x"), opts=SessionOptions(target=victim))


def test_session_options_merged_over_inherits_unset_fields():
    base = SessionOptions(site="VA", max_wait=2.0, consistency="lease")
    overlay = SessionOptions(consistency="quorum", strict=True)
    merged = overlay.merged_over(base)
    assert merged.site == "VA" and merged.max_wait == 2.0
    assert merged.consistency == "quorum" and merged.strict
