"""Leak guard: what no reader can ask for again is released, by count.

Four things used to grow with every operation and be read by nobody: a
slot's vote set after the slot committed, the cached reply to a request
its client had long concluded, one ``Version`` object per write, and
MultiPaxos's executed log entries.  The client edge kept per-request
maps, tuples and sets the same way.  The guard counts objects on short
seeded runs of two lengths — it does not weigh the process — so it is
deterministic and runs in the quick loop.
"""

import gc

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.openloop import OpenLoopEngine, PoissonArrivals
from repro.bench.workload import WorkloadSpec
from repro.paxi.client import Client
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.history import Operation
from repro.protocols.fpaxos import FPaxos
from repro.protocols.mencius import Mencius
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft
from repro.protocols.vpaxos import VPaxos
from repro.protocols.wankeeper import WanKeeper
from repro.protocols.wpaxos import WPaxos

from tests.conftest import run_protocol

CLIENTS = 6
N = 0.1  # virtual seconds; the long run is 4N


def _closed_loop(protocol, duration):
    return run_protocol(protocol, Config.lan(3, 3, seed=9), WorkloadSpec(keys=20), CLIENTS, duration)


def _slots(replica):
    """Every per-slot record a replica keeps, whatever its protocol calls it."""
    if hasattr(getattr(replica, "log", None), "entries"):  # MultiPaxos / FPaxos
        yield from replica.log.entries.values()
    for state in getattr(replica, "objects", {}).values():  # WPaxos
        yield from state.slots.values()
    yield from getattr(replica, "slots", {}).values()  # Mencius
    if hasattr(replica, "group"):  # WanKeeper / Vertical Paxos
        yield from replica.group._slots.values()


def _assert_votes_released(dep):
    committed = [slot for r in dep.replicas.values() for slot in _slots(r) if slot.committed]
    assert committed, "the run committed nothing: the guard would be vacuous"
    holding = [slot for slot in committed if slot.quorum is not None]
    assert not holding, f"{len(holding)} of {len(committed)} committed slots still hold votes"


@pytest.fixture
def retransmit_windows(monkeypatch):
    """Per client, the widest id range it could still retransmit from: the
    span from its oldest pending request to the one being sent."""
    windows: dict = {}
    transmit = Client._transmit

    def spy(client, request_id, pending):
        span = request_id - next(iter(client._pending)) + 1
        windows[client.address] = max(windows.get(client.address, 0), span)
        transmit(client, request_id, pending)

    monkeypatch.setattr(Client, "_transmit", spy)
    return windows


@pytest.mark.parametrize("protocol", [MultiPaxos, Raft])
def test_closed_loop_retention_is_flat_in_run_length(protocol, retransmit_windows):
    recorded = []
    for duration in (N, 4 * N):
        dep, result = _closed_loop(protocol, duration)
        assert set(retransmit_windows.values()) == {1}  # one request in flight each
        for replica in dep.replicas.values():
            # One reply per client is all a closed loop can ask for again.
            assert replica.replies.retained() <= CLIENTS * (1 + 1)
        recorded.append(min(len(r.replies) for r in dep.replicas.values()))
        assert recorded[-1] >= result.completed
        if protocol is MultiPaxos:  # Raft counts matchIndex, not per-slot votes
            _assert_votes_released(dep)
        leaked = [
            o for o in gc.get_objects()
            if type(o).__name__ == "Version" and type(o).__module__.startswith("repro")
        ]  # fmt: skip
        assert not leaked, f"{len(leaked)} per-write Version objects are alive"
    # The run really was ~4x longer: executions recorded grew, retention did not.
    assert recorded[1] > 3 * recorded[0]


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
@pytest.mark.parametrize("protocol", [MultiPaxos, FPaxos])
def test_executed_log_retention_is_flat_in_run_length(protocol, durable):
    """Each replica keeps the catch-up window, what one heartbeat's floor
    has not yet covered and — durable — the slots since the last disk
    snapshot, which is all a reboot replays from."""
    params = dict(durability="fsync", snapshot_interval=25) if durable else {}
    bound, executed = None, []
    for duration in (N, 4 * N):
        config = Config.lan(3, 3, seed=9, **params)
        dep, _result = run_protocol(protocol, config, WorkloadSpec(keys=20), CLIENTS, duration)
        leader = dep.replicas[dep.config.node_ids[0]]
        if bound is None:
            per_heartbeat = leader.log.execute_index / dep.now * leader.heartbeat_interval
            bound = leader.catchup_snapshot_gap + 2 * per_heartbeat + (25 if durable else 0)
        for replica in dep.replicas.values():
            assert replica.log.floor > 0
            assert len(replica.log.entries) <= bound
        executed.append(leader.log.execute_index)
    assert executed[1] > 3 * executed[0]


def _reachable(root):
    """Every object reachable from ``root`` through container references."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for child in gc.get_referents(stack.pop()):
            if id(child) not in seen and not isinstance(child, type):
                seen[id(child)] = child
                stack.append(child)
    return seen.values()


def test_client_edge_keeps_only_what_it_reports():
    """Lease reads never execute in the log, so their ids leave permanent
    gaps in every reply table — and a closed loop of them is where the
    per-request state of the client edge used to dominate the heap."""
    completed = []
    for duration in (N, 4 * N):
        config = Config.lan(3, 3, seed=9, lease_duration=0.5, max_clock_skew=0.005)
        dep = Deployment(config).start(Raft)
        spec = WorkloadSpec(keys=20, write_ratio=0.1, read_mode="lease")
        bench = ClosedLoopBenchmark(dep, spec, concurrency=CLIENTS)
        result = bench.run(duration, warmup=0.02, settle=0.05)
        assert result.completed > 0 and all(c.failed == 0 for c in dep.clients)
        for client in dep.clients:
            assert not client._attempts_done and not client._key_versions
        # The benchmark keeps one float per in-window sample, shared by the
        # run's list and its site's, and no per-completion tuple.
        held = list(_reachable(bench._state))
        samples = {id(x) for x in bench._state.latencies_ms}
        samples |= {id(x) for ls in bench._state.per_site.values() for x in ls}
        assert len(samples) == result.completed
        assert not [o for o in held if type(o) is tuple]
        issued = {c.address: c._next_request_id for c in dep.clients}
        for replica in dep.replicas.values():
            for client, row in replica.replies._rows.items():
                assert type(row.above) is int
                assert row.above.bit_length() <= issued[client]
                slots = [getattr(row, name) for name in type(row).__slots__]
                assert not [s for s in slots if isinstance(s, set)]
        ops = [o for o in gc.get_objects() if type(o) is Operation]
        assert len(ops) >= result.completed
        assert not [o for o in ops if hasattr(o, "__dict__")]
        completed.append(result.completed)
    assert completed[1] > 3 * completed[0]


@pytest.mark.parametrize("protocol", [WPaxos, Mencius, WanKeeper, VPaxos])
def test_every_slot_table_releases_votes_at_commit(protocol):
    dep, _result = _closed_loop(protocol, N)
    _assert_votes_released(dep)
    for replica in dep.replicas.values():
        assert replica.replies.retained() <= CLIENTS * (1 + 1)


def test_open_loop_with_retries_stays_inside_the_retransmit_window(retransmit_windows):
    offered = []
    for duration in (3 * N, 12 * N):
        retransmit_windows.clear()
        dep = Deployment(Config.lan(3, 3, seed=9)).start(MultiPaxos)
        site = dep.config.topology.sites[0]
        engine = OpenLoopEngine(
            dep, WorkloadSpec(keys=20), PoissonArrivals(900.0),
            sites=[site] * 3, retry_timeout=0.03, max_retries=6,
        )  # fmt: skip
        # Lose 3 % of everything sent to the leader: some requests need a
        # retransmission, and each one holds its client's watermark back.
        dep.flaky(None, dep.config.node_ids[0], duration=duration + 1.0, probability=0.03, at=0.0)
        result = engine.run(duration, 0.05, 0.05)
        dep.run_for(0.5)
        retries = sum(
            c.attempts(i) - 1 for c in engine.clients for i in range(1, c._next_request_id + 1)
        )
        assert retries > 0 and all(c.outstanding == 0 for c in engine.clients)
        window = sum(retransmit_windows.values())
        assert max(retransmit_windows.values()) > 1  # several in flight per client
        for replica in dep.replicas.values():
            assert replica.replies.retained() <= window + len(engine.clients)
            assert len(replica.replies) == result.offered  # every request ran once
        _assert_votes_released(dep)
        offered.append(result.offered)
    assert offered[1] > 3 * offered[0] > 3 * window
