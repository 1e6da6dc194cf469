"""Leak guard: what no reader can ask for again is released, by count.

Four things used to grow with every operation and be read by nobody: a
slot's vote set after the slot committed, the cached reply to a request
its client had long concluded, one ``Version`` object per write, and
MultiPaxos's executed log entries, and every EPaxos instance record after
it executed (only its seq is kept).  The client edge kept per-request
maps, tuples and sets the same way, and the operation history kept one
``Operation`` object per row where it now keeps columns.  What is kept per
operation costs bytes, not objects: latency samples are packed doubles, a
Raft entry is one pair shared by every log and WAL record that holds it,
and WAL records and spans are slotted.  The guard counts objects on short
seeded runs of two lengths — it does not weigh the process — so it is
deterministic and runs in the quick loop.
"""

import gc
import sys
import tracemalloc
from array import array

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark, _RunState
from repro.bench.openloop import OpenLoopEngine, PoissonArrivals
from repro.bench.shard_bench import ShardedClosedLoopBenchmark, ShardedDeploymentFactory
from repro.bench.workload import WorkloadSpec
from repro.paxi.client import Client
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.history import HistoryRecorder, Operation
from repro.obs.tracing import Span, SpanEvent
from repro.paxi import node
from repro.paxi.replies import ReplyTable
from repro.protocols.epaxos import EPaxos
from repro.protocols.fpaxos import FPaxos
from repro.protocols.mencius import Mencius
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft
from repro.protocols.vpaxos import VPaxos
from repro.protocols.wankeeper import WanKeeper
from repro.protocols.wpaxos import WPaxos
from repro.shard.placement import ShardSpec
from repro.sim.storage import WalRecord

from tests.conftest import run_protocol

CLIENTS = 6
N = 0.1  # virtual seconds; the long run is 4N


def _closed_loop(protocol, duration):
    return run_protocol(protocol, Config.lan(3, 3, seed=9), WorkloadSpec(keys=20), CLIENTS, duration)


def _slots(replica):
    """Every per-slot record a replica keeps, in whichever log its protocol
    holds them."""
    if hasattr(getattr(replica, "log", None), "entries"):  # MultiPaxos / FPaxos / Mencius
        yield from replica.log.entries.values()
    for state in getattr(replica, "objects", {}).values():  # WPaxos
        yield from state.log.entries.values()
    if hasattr(replica, "group"):  # WanKeeper / Vertical Paxos
        yield from replica.group.log.entries.values()


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


def _retained_bytes(run):
    """Bytes that ``run()`` allocated and that are still allocated after it
    returns and a full collection."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_epaxos_keeps_a_seq_per_executed_instance():
    """An executed EPaxos instance leaves its seq behind and nothing else:
    the instance table holds only what is in flight, and what a replica
    retains per executed instance is a few dozen bytes (a dict entry, plus
    the run's own per-operation costs spread over the replicas), not the
    ~230 of a kept record with its dependency set and request."""
    executed = []
    for duration in (N, 4 * N):
        dep = Deployment(Config.lan(3, 3, seed=9)).start(EPaxos)
        bench = ClosedLoopBenchmark(dep, WorkloadSpec(keys=20), concurrency=CLIENTS)
        replicas = dep.replicas.values()
        if duration == N:  # tracing the long run too would take seconds
            kept = _retained_bytes(lambda: bench.run(duration, warmup=0.02, settle=0.05))
            instances = sum(len(r._executed) + len(r._instances) for r in replicas)
            assert kept / instances <= 128, f"{kept / instances:.0f} bytes per instance"
        else:
            bench.run(duration, warmup=0.02, settle=0.05)
        for replica in replicas:
            # One request in flight per client, plus one its command leader
            # has executed and answered whose Commit is still on its way.
            assert len(replica._instances) <= 2 * CLIENTS
        executed.append(min(len(r._executed) for r in replicas))
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
        # The benchmark packs each in-window sample as a double into the
        # run's array and its site's, and keeps no per-completion tuple.
        state = bench._state
        assert type(state.latencies_ms) is array and state.latencies_ms.typecode == "d"
        assert all(type(ls) is array and ls.typecode == "d" for ls in state.per_site.values())
        assert sum(len(ls) for ls in state.per_site.values()) == result.completed
        assert len(state.latencies_ms) == result.completed
        assert not [o for o in _reachable(state) if type(o) is tuple]
        issued = {c.address: c._next_request_id for c in dep.clients}
        for replica in dep.replicas.values():
            for client, row in replica.replies._rows.items():
                assert type(row.above) is int
                assert row.above.bit_length() <= issued[client]
                slots = [getattr(row, name) for name in type(row).__slots__]
                assert not [s for s in slots if isinstance(s, set)]
        assert len(dep.history) >= result.completed
        assert not hasattr(dep.history.operations[0], "__dict__")
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


def _held(row):
    """Replies one reply-table row retains, counted by the table itself."""
    table = ReplyTable()
    table._rows["probe"] = row
    return table.retained()


def test_sharded_edge_is_flat_in_run_length():
    """A routed client forgets a request once it concludes, a group client
    opens its retry stream on its first retransmission, and a reply row
    holds a dict only while its client has two replies in its window."""
    completed = []
    for duration in (N, 4 * N):
        cluster = ShardedDeploymentFactory(
            MultiPaxos, Config.lan(3, 3, seed=9), ShardSpec(count=4, buckets=16)
        )()
        bench = ShardedClosedLoopBenchmark(
            cluster, WorkloadSpec(keys=40, write_ratio=0.5), concurrency=2 * CLIENTS,
            retry_timeout=0.02, txn_ratio=0.3,
        )  # fmt: skip
        # Lose 3 % of what reaches group 0: some requests retransmit.
        lossy = cluster.group(0)
        lossy.flaky(None, lossy.config.node_ids[0], duration + 1.0, probability=0.03, at=0.0)
        result = bench.run(duration, 0.02, 0.05)
        assert bench.txns_committed > 0
        retransmitted = 0
        for routed, _gen in bench._drivers:
            kept = 0  # what a routed client may still be asked about
            for client in routed._per_shard.values():
                ids = range(1, client._next_request_id + 1)
                retried = [i for i in ids if client.attempts(i) > 1]
                kept += len({*retried, *(i for i in ids if client.abandoned(i))})
                # No retry stream for a client that never retransmitted.
                streams = client.deployment.cluster.streams._streams
                assert (f"client-retry-{client.address}" in streams) == bool(retried)
                retransmitted += bool(retried)
            assert len(routed._issued) <= routed.outstanding + kept
        assert retransmitted > 0
        for group in cluster.groups:
            for replica in group.replicas.values():
                for row in replica.replies._rows.values():
                    if _held(row) <= 1:
                        slots = [getattr(row, name) for name in type(row).__slots__]
                        assert not [s for s in slots if isinstance(s, dict)]
        completed.append(result.completed)
    assert completed[1] > 3 * completed[0]


def _operations_alive() -> set[int]:
    gc.collect()
    return {id(o) for o in gc.get_objects() if type(o) is Operation}


def test_drained_runs_keep_no_operation_objects():
    """The history holds its rows as columns: after a drained, checked run
    no ``Operation`` the run made is alive — on one deployment and on a
    2-group sharded cluster."""
    before = _operations_alive()
    dep, result = _closed_loop(MultiPaxos, N)
    dep.run_for(0.1)
    assert dep.history.in_flight == 0 and len(dep.history) >= result.completed > 0
    assert dep.verify() == (True, True)
    assert not _operations_alive() - before

    cluster = ShardedDeploymentFactory(
        MultiPaxos, Config.lan(3, 3, seed=9), ShardSpec(count=2, buckets=8)
    )()
    bench = ShardedClosedLoopBenchmark(cluster, WorkloadSpec(keys=40), concurrency=CLIENTS)
    result = bench.run(N, 0.02, 0.05)
    cluster.run_for(0.1)
    assert cluster.history.in_flight == 0 and len(cluster.history) >= result.completed > 0
    assert all(len(group.history) for group in cluster.groups)
    assert cluster.verify() == (True, True)
    assert not _operations_alive() - before


def test_history_row_costs_at_most_48_bytes():
    """Measured over 10,000 rows fed through ``begin`` / ``complete``, with
    the keys, values, clients and times made before tracing starts (the
    workload owns those)."""
    rows = 10_000
    clients = [("client", c) for c in range(8)]
    keys = [f"key-{i % 100}" for i in range(rows)]
    values = [f"value-{i}" for i in range(rows)]
    times = [i * 1e-4 for i in range(2 * rows)]
    recorder = HistoryRecorder()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(rows):
            write = i % 10 == 0
            token = recorder.begin(
                clients[i % 8], "PUT" if write else "GET", keys[i],
                values[i] if write else None, times[2 * i],
            )  # fmt: skip
            recorder.complete(token, values[i], times[2 * i + 1])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(recorder) == rows
    assert grown / rows <= 48, grown / rows


def test_run_state_sample_costs_at_most_20_bytes():
    """A kept sample is one double in the run's array and one in its
    site's, measured over 10,000 ``record`` calls inside the window."""
    samples = 10_000
    latencies = [i * 1e-6 for i in range(samples)]
    sites = ["VA", "OH"]
    state = _RunState(0.0, 1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(samples):
            state.record(0.5, latencies[i], sites[i % 2])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(state.latencies_ms) == samples
    assert grown / samples <= 20, grown / samples


def test_per_operation_records_are_slotted():
    span = Span(("client", 1), 1, "GET", "k", 0.0)
    span.mark("submit", 0.0, ("client", 1))
    for record in (WalRecord("append", 1, None), span, span.events[0]):
        assert not hasattr(record, "__dict__"), type(record).__name__
    with pytest.raises(AttributeError):
        span.note = "ad hoc"


def test_raft_entry_is_one_pair_in_every_log_and_wal_record():
    """A single leader proposes every entry: each follower's log position
    and each ``append`` WAL record holds the leader's own pair."""
    config = Config.lan(3, 3, seed=9, durability="group")
    dep, result = run_protocol(Raft, config, WorkloadSpec(keys=20), CLIENTS, N)
    assert result.completed > 0
    leaders = [r for r in dep.replicas.values() if r.state == "leader"]
    assert len(leaders) == 1 and leaders[0].term == 1
    leader = leaders[0]
    by_index = {entry[0]: entry for entry in leader.log}
    for replica in dep.replicas.values():
        assert replica._snap_index == 0 and len(replica.log) > 100
        for entry in replica.log:
            assert entry is by_index[entry[0]]
    appended = 0
    for replica in dep.replicas.values():
        for record in replica.disk.wal.records:
            if record.kind == "append":
                assert record.data is replica.log[replica._pos(record.slot)]
                appended += 1
    assert appended > 3 * len(leader.log) // 2


def _count_wal_work(monkeypatch):
    """Count ``wal_record_bytes`` calls and ``WalRecord`` constructions,
    wherever a module imported either name."""
    calls = {"sized": 0, "built": 0}
    sized, built = node.wal_record_bytes, WalRecord

    def counted_size(command):
        calls["sized"] += 1
        return sized(command)

    def counted_record(*args):
        calls["built"] += 1
        return built(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            if getattr(module, "wal_record_bytes", None) is sized:
                monkeypatch.setattr(module, "wal_record_bytes", counted_size)
            if getattr(module, "WalRecord", None) is built:
                monkeypatch.setattr(module, "WalRecord", counted_record)
    return calls


@pytest.mark.parametrize("protocol", [MultiPaxos, Raft])
def test_in_memory_persist_does_no_wal_work(monkeypatch, protocol):
    calls = _count_wal_work(monkeypatch)
    _dep, result = _closed_loop(protocol, N)
    assert result.completed > 0
    assert calls == {"sized": 0, "built": 0}
    _dep, result = run_protocol(
        protocol, Config.lan(3, 3, seed=9, durability="fsync"), WorkloadSpec(keys=20), CLIENTS, N
    )
    assert result.completed > 0
    assert calls["sized"] == calls["built"] > result.completed
