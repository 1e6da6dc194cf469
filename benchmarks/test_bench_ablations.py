"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation toggles one mechanism and checks the direction and rough
magnitude of its effect:

- thrifty vs full-replication MultiPaxos (Eq. 3 assumes thrifty);
- the piggybacked-commit watermark (followers' execution freshness);
- EPaxos fast-quorum size (latency vs availability-of-fast-path);
- WPaxos steal policy (immediate vs three-consecutive) under interleaved
  cross-zone access;
- the EPaxos message-processing penalty (the reason the implementation
  ranks below Paxos while the light-penalty model ranks above).
"""

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.workload import WorkloadSpec
from repro.core.protocol_models import EPaxosModel, PaxosModel
from repro.core.topology import lan
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.session import SessionOptions
from repro.protocols.paxos import MultiPaxos
from repro.protocols.wpaxos import WPaxos


def _run(factory, duration=0.25, concurrency=64, seed=13, spec=None, **params):
    cfg = Config.lan(3, 3, seed=seed, **params)
    deployment = Deployment(cfg).start(factory)
    bench = ClosedLoopBenchmark(
        deployment, spec if spec is not None else WorkloadSpec(keys=500), concurrency
    )
    result = bench.run(duration=duration, warmup=duration * 0.2, settle=0.05)
    return deployment, result


def test_ablation_thrifty_quorums(benchmark):
    """Thrifty P2a fan-out cuts network traffic substantially and raises
    the leader's ceiling (fewer acks to absorb)."""

    def ablation():
        dep_full, res_full = _run(MultiPaxos, thrifty=False)
        dep_thrifty, res_thrifty = _run(MultiPaxos, thrifty=True)
        per_op_full = dep_full.cluster.network.stats.messages_sent / len(dep_full.history)
        per_op_thrifty = dep_thrifty.cluster.network.stats.messages_sent / len(
            dep_thrifty.history
        )
        return per_op_full, per_op_thrifty, res_full.throughput, res_thrifty.throughput

    full_msgs, thrifty_msgs, full_thr, thrifty_thr = benchmark.pedantic(
        ablation, rounds=1, iterations=1
    )
    print(f"\nmessages/op: full={full_msgs:.1f} thrifty={thrifty_msgs:.1f}; "
          f"throughput: full={full_thr:.0f} thrifty={thrifty_thr:.0f}")
    assert thrifty_msgs < 0.7 * full_msgs
    assert thrifty_thr > 1.2 * full_thr  # leader absorbs fewer P2b acks


def test_ablation_commit_piggyback_keeps_followers_fresh(benchmark):
    """With the heartbeat/watermark broadcast disabled, follower state
    machines stall at whatever the last P2a watermark said, while the
    leader keeps executing — the piggybacked commit phase is what keeps
    replicas in sync."""

    def ablation():
        freshness = {}
        for label, interval in (("with", 0.02), ("without", None)):
            dep, _res = _run(
                MultiPaxos,
                spec=WorkloadSpec(keys=5, write_ratio=1.0),
                concurrency=4,
                heartbeat_interval=interval,
            )
            # Stop the load, give watermarks time to propagate.
            dep.run_for(0.5)
            leader_len = sum(len(dep.replicas[NodeID(1, 1)].store.history(k)) for k in range(5))
            follower_len = sum(
                len(dep.replicas[NodeID(3, 3)].store.history(k)) for k in range(5)
            )
            freshness[label] = follower_len / max(1, leader_len)
        return freshness

    freshness = benchmark.pedantic(ablation, rounds=1, iterations=1)
    print(f"\nfollower/leader executed ratio: {freshness}")
    assert freshness["with"] > 0.99
    assert freshness["without"] < freshness["with"]


def test_ablation_epaxos_fast_quorum_size(benchmark):
    """Growing the fast quorum to all N nodes makes the fast path wait for
    the slowest replica — strictly worse latency in the model and the
    implementation's quorum accounting."""

    def ablation():
        topo = lan(9)
        default = EPaxosModel(topo, conflict=0.0)
        # A model with an all-node fast quorum: emulate by measuring the
        # quorum delay directly.
        from repro.core.protocol_models import quorum_delay_ms

        return (
            quorum_delay_ms(topo, 0, default.fast_quorum_size),
            quorum_delay_ms(topo, 0, 9),
        )

    dq_default, dq_all = benchmark.pedantic(ablation, rounds=1, iterations=1)
    print(f"\nfast-quorum delay: ceil(3N/4)={dq_default:.3f} ms, N={dq_all:.3f} ms")
    assert dq_all > dq_default


def test_ablation_wpaxos_steal_policy(benchmark):
    """Under interleaved cross-zone access, immediate stealing thrashes
    ownership (every access migrates the object over the WAN-priced
    phase-1) while the three-consecutive policy keeps it put."""

    def ablation():
        counters = {}
        for label, threshold in (("immediate", 1), ("three-consecutive", 3)):
            cfg = Config.lan(3, 3, seed=17, steal_threshold=threshold)
            dep = Deployment(cfg).start(WPaxos)
            a = dep.new_session(SessionOptions(target=NodeID(1, 1)))
            b = dep.new_session(SessionOptions(target=NodeID(2, 1)))
            for i in range(30):  # strictly interleaved accesses to one key
                a.put("obj", f"a{i}")
                dep.run_for(0.02)
                b.put("obj", f"b{i}")
                dep.run_for(0.02)
            # Ownership changes == ballot counter grows with each steal.
            top = max(
                dep.replicas[NodeID(z, 1)].objects["obj"].ballot.counter for z in (1, 2, 3)
            )
            counters[label] = top
        return counters

    counters = benchmark.pedantic(ablation, rounds=1, iterations=1)
    print(f"\nsteals (ballot counter): {counters}")
    assert counters["immediate"] > 3 * counters["three-consecutive"]


def test_ablation_epaxos_processing_penalty(benchmark):
    """The model's light 1.3x penalty keeps EPaxos above Paxos in capacity
    (the paper's model result); the implementation's heavier realistic cost
    drops it below (the paper's measured result).  Both facts must hold."""

    def ablation():
        topo = lan(9)
        model_light = EPaxosModel(topo, conflict=0.3, cpu_penalty=1.3).max_throughput()
        model_heavy = EPaxosModel(topo, conflict=0.3, cpu_penalty=4.0).max_throughput()
        paxos = PaxosModel(topo).max_throughput()
        return model_light, model_heavy, paxos

    light, heavy, paxos = benchmark.pedantic(ablation, rounds=1, iterations=1)
    print(f"\nEPaxos capacity: penalty=1.3 -> {light:.0f}/s, penalty=4.0 -> {heavy:.0f}/s, "
          f"Paxos {paxos:.0f}/s")
    assert light > paxos > heavy * 0.7
    assert heavy < light
