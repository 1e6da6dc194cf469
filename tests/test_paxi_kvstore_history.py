"""Unit tests for the multi-version store and history recording."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.checkers.consensus import check_deployment
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.history import HistoryRecorder, Operation
from repro.paxi.kvstore import CasFailed, MultiVersionStore
from repro.paxi.message import Command
from repro.protocols.paxos import MultiPaxos

from tests.test_checkers import _pairwise_prefix_violations


class TestStore:
    def test_read_missing_key_returns_none(self):
        store = MultiVersionStore()
        assert store.execute(Command.get("nope")) is None

    def test_write_then_read(self):
        store = MultiVersionStore()
        assert store.execute(Command.put("k", "v1")) == "v1"
        assert store.execute(Command.get("k")) == "v1"

    def test_versions_accumulate(self):
        store = MultiVersionStore()
        for i in range(3):
            store.execute(Command.put("k", f"v{i}"))
        assert store.version("k") == 3
        assert store.history("k") == ["v0", "v1", "v2"]

    def test_reads_do_not_create_versions(self):
        store = MultiVersionStore()
        store.execute(Command.get("k"))
        assert store.version("k") == 0
        assert len(store) == 0

    def test_execution_counter(self):
        store = MultiVersionStore()
        store.execute(Command.get("a"))
        store.execute(Command.put("a", 1))
        assert store.executions == 2

    def test_peek_read_does_not_count(self):
        store = MultiVersionStore()
        store.read("a")
        assert store.executions == 0

    def test_keys(self):
        store = MultiVersionStore()
        store.execute(Command.put("a", 1))
        store.execute(Command.put("b", 2))
        assert sorted(store.keys()) == ["a", "b"]

    def test_adopt_extends(self):
        store = MultiVersionStore()
        store.execute(Command.put("k", "v1"))
        store.adopt("k", ["v1", "v2", "v3"])
        assert store.history("k") == ["v1", "v2", "v3"]
        assert store.version("k") == 3

    def test_adopt_ignores_stale_shorter_chain(self):
        store = MultiVersionStore()
        store.adopt("k", ["a", "b"])
        store.adopt("k", ["a"])
        assert store.history("k") == ["a", "b"]

    def test_failed_cas_appends_nothing(self):
        store = MultiVersionStore()
        store.execute(Command.put("k", "a"))
        assert store.execute(Command.cas("k", "not-a", "b")) == CasFailed("a")
        assert store.version("k") == 1 and store.history("k") == ["a"]
        assert store.execute(Command.cas("k", "a", "b")) == "b"
        assert store.version("k") == 2 and store.read("k") == "b"
        assert store.execute(Command.cas("fresh", None, "x")) == "x"

    def test_dump_restore_round_trip_shares_nothing(self):
        store = MultiVersionStore()
        for key, value in (("a", 1), ("a", 2), ("b", 3)):
            store.execute(Command.put(key, value))
        dump = store.dump()
        assert dump == {"a": [1, 2], "b": [3]}
        twin = MultiVersionStore()
        twin.restore(dump)
        # Writes on any side stay on that side: chains are plain lists now,
        # so a dump / restore / adopt / history that aliased one would leak.
        store.execute(Command.put("a", 99))
        twin.execute(Command.put("b", 4))
        dump["a"].append("scribble")
        assert store.history("a") == [1, 2, 99] and store.version("b") == 1
        assert twin.history("a") == [1, 2] and twin.history("b") == [3, 4]
        assert twin.version("a") == 2 and twin.read("b") == 4

    def test_history_and_adopt_copy_their_lists(self):
        store = MultiVersionStore()
        incoming = ["v1", "v2"]
        store.adopt("k", incoming)
        incoming.append("v3")
        store.history("k").append("scribble")
        assert store.history("k") == ["v1", "v2"] and store.version("k") == 2


def _put(store, key, value):
    return store.execute(Command.put(key, value))


class TestBook:
    """Stores built on one book hold prefixes of its chains; a store that
    writes a different value at a position forks that key."""

    def test_stores_on_one_book_share_its_chains(self):
        book = {}
        leader, follower = MultiVersionStore(book), MultiVersionStore(book)
        for value in ("v0", "v1"):
            _put(leader, "k", value)
        _put(follower, "k", "v0")
        assert book == {"k": ["v0", "v1"]}
        assert leader.chain("k") is book["k"]
        assert follower.chain("k") == follower.history("k") == ["v0"]
        assert follower.read("k") == "v0" and follower.version("k") == 1
        _put(follower, "k", "v1")
        assert follower.chain("k") is book["k"] and book == {"k": ["v0", "v1"]}

    def test_a_divergent_write_forks_only_its_store(self):
        book = {}
        first, second, rogue = (MultiVersionStore(book) for _ in range(3))
        for store in (first, second, rogue):
            _put(store, "k", "v0")
        _put(first, "k", "v1")
        _put(rogue, "k", "r1")  # the book holds v1 at this position
        _put(second, "k", "v1")
        _put(rogue, "k", "r2")
        assert rogue.execute(Command.cas("k", "v1", "r3")) == CasFailed("r2")
        for store in (first, second):
            _put(store, "k", "v2")
        assert book == {"k": ["v0", "v1", "v2"]}
        assert first.chain("k") is book["k"] and second.chain("k") is book["k"]
        assert rogue.history("k") == ["v0", "r1", "r2"]
        assert rogue.read("k") == "r2" and rogue.version("k") == 3
        # A state transfer from a correct peer rejoins the book.
        rogue.restore(first.dump())
        assert rogue.chain("k") is book["k"]
        _put(rogue, "k", "v3")
        assert first.history("k") == ["v0", "v1", "v2"] and book["k"][-1] == "v3"

    def test_restore_and_adopt_extend_or_fork_the_book(self):
        book = {}
        store, peer = MultiVersionStore(book), MultiVersionStore(book)
        store.restore({"a": [1, 2], "b": [3]})
        assert book == {"a": [1, 2], "b": [3]}
        peer.adopt("a", [1, 2, 4])
        assert book["a"] == [1, 2, 4] and peer.chain("a") is book["a"]
        assert store.history("a") == [1, 2]
        peer.adopt("b", [9, 9])
        assert book["b"] == [3] and peer.history("b") == [9, 9]
        assert store.chain("b") is book["b"]

    def test_consensus_check_sees_forks_as_plain_lists(self):
        """Nine replicas write generated chains, some with a planted
        divergence, in a random interleaving, so a divergent replica is
        sometimes the one that extends the book.  ``check_deployment``
        reports exactly what the pairwise scan reports on the plain lists."""
        rng = random.Random(7)
        deployment = Deployment(Config.lan(3, 3, seed=1)).start(MultiPaxos)
        stores = {node: replica.store for node, replica in deployment.replicas.items()}
        want = []
        for key in range(300):
            base = [f"{key}.{i}" for i in range(rng.randrange(1, 10))]
            chains = {node: base[: rng.randrange(len(base) + 1)] for node in stores}
            for chain in chains.values():
                if chain and rng.random() < 0.1:
                    chain[rng.randrange(len(chain))] = rng.choice(base + ["x"])
            turns = [node for node, chain in chains.items() for _ in chain]
            rng.shuffle(turns)
            for node in turns:
                store = stores[node]
                _put(store, key, chains[node][store.version(key)])
            want.extend(_pairwise_prefix_violations(chains, key))
        order = lambda v: (v.key, v.node_a, v.node_b)  # noqa: E731
        got = check_deployment(deployment).violations
        assert sorted(got, key=order) == sorted(want, key=order)
        assert 50 < len({v.key for v in want}) < 250  # both outcomes well covered


class TestOperation:
    def test_latency(self):
        op = Operation("c", "GET", "k", None, 1, invoked_at=1.0, returned_at=1.5)
        assert op.latency == pytest.approx(0.5)
        assert op.is_read

    def test_time_travel_rejected(self):
        with pytest.raises(ValueError):
            Operation("c", "GET", "k", None, 1, invoked_at=2.0, returned_at=1.0)


class TestRecorder:
    def test_begin_complete_roundtrip(self):
        rec = HistoryRecorder()
        token = rec.begin("c1", "PUT", "k", "v", 1.0)
        assert rec.in_flight == 1
        rec.complete(token, "v", 2.0)
        assert rec.in_flight == 0
        assert len(rec) == 1
        assert rec.operations[0].latency == pytest.approx(1.0)

    def test_snapshot_includes_pending_writes_with_open_interval(self):
        rec = HistoryRecorder()
        rec.begin("c1", "PUT", "k", "v", 1.0)
        snap = rec.snapshot()
        assert len(snap) == 1
        assert snap[0].returned_at == math.inf

    def test_snapshot_omits_pending_reads(self):
        rec = HistoryRecorder()
        rec.begin("c1", "GET", "k", None, 1.0)
        assert rec.snapshot() == []

    def test_per_key_sorted_by_invocation(self):
        rec = HistoryRecorder()
        rec.record(Operation("c", "PUT", "k", 2, 2, invoked_at=5.0, returned_at=6.0))
        rec.record(Operation("c", "PUT", "k", 1, 1, invoked_at=1.0, returned_at=2.0))
        rec.record(Operation("c", "PUT", "j", 3, 3, invoked_at=0.0, returned_at=1.0))
        ops = sorted(rec.snapshot(), key=lambda o: o.invoked_at)
        assert [op.value for op in ops if op.key == "k"] == [1, 2]
        assert len([op for op in ops if op.key == "j"]) == 1

    def test_latencies(self):
        rec = HistoryRecorder()
        rec.record(Operation("c", "GET", "k", None, 1, invoked_at=0.0, returned_at=0.25))
        assert [op.latency for op in rec.snapshot()] == [0.25]


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_store_history_equals_writes_in_order(values):
    store = MultiVersionStore()
    for v in values:
        store.execute(Command.put("k", v))
    assert store.history("k") == values
    assert store.read("k") == values[-1]
