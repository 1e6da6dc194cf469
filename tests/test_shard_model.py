"""Sharded capacity model, benchmark accounting, the rebalance fault kind
and the CI gate (its committed baseline is checked with the other gates'
in ``test_experiments.py``)."""

import json

import pytest

from repro.bench.nemesis import ALL_KINDS, FaultEvent, Nemesis
from repro.bench.shard_bench import ShardedClosedLoopBenchmark, ShardedDeploymentFactory
from repro.bench.workload import WorkloadSpec
from repro.core.protocol_models import BatchedPaxosModel, PaxosModel
from repro.core.sharding import ShardedCapacityModel
from repro.core.topology import lan
from repro.errors import ModelError, WorkloadError
from repro.experiments.bench_sharding import check_no_regression
from repro.paxi.config import Config
from repro.protocols.paxos import MultiPaxos
from repro.shard.placement import ShardSpec


class TestShardedCapacityModel:
    def test_pure_workload_scales_linearly(self):
        group = PaxosModel(lan(9))
        assert ShardedCapacityModel(group, shards=4).max_throughput() == pytest.approx(
            4 * group.max_throughput()
        )

    def test_cross_shard_mix_taxes_capacity(self):
        group = BatchedPaxosModel(lan(9), batch_size=16, batch_window=0.001)
        pure = ShardedCapacityModel(group, shards=4)
        mixed = ShardedCapacityModel(group, shards=4, cross_shard_ratio=0.25)
        # f=0.25 at 3 rounds/key: (0.75 + 0.25*3) = 1.5 rounds per op.
        assert mixed.rounds_per_op() == pytest.approx(1.5)
        assert mixed.max_throughput() == pytest.approx(pure.max_throughput() / 1.5)

    def test_capacity_curve_is_monotonically_decreasing(self):
        model = ShardedCapacityModel(PaxosModel(lan(9)), shards=4)
        curve = model.capacity_curve(max_ratio=0.5, points=6)
        capacities = [c for _f, c in curve]
        assert capacities == sorted(capacities, reverse=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shards": 2, "cross_shard_ratio": 1.5},
            {"shards": 2, "cross_shard_ratio": -0.1},
            {"shards": 2, "txn_rounds": 0.5},
        ],
    )
    def test_domain_validation(self, kwargs):
        with pytest.raises(ModelError):
            ShardedCapacityModel(PaxosModel(lan(9)), **kwargs)


class TestShardedBenchmarkAccounting:
    def make_bench(self, txn_ratio=0.5, concurrency=4):
        cluster = ShardedDeploymentFactory(
            MultiPaxos, Config.lan(3, 3, seed=19), ShardSpec(count=2, buckets=8)
        )()
        return cluster, ShardedClosedLoopBenchmark(
            cluster,
            WorkloadSpec(keys=100, write_ratio=0.5),
            concurrency=concurrency,
            txn_ratio=txn_ratio,
        )

    def test_txn_mix_records_k_ops_per_commit(self):
        cluster, bench = self.make_bench(txn_ratio=1.0, concurrency=2)
        result = bench.run(duration=0.4, warmup=0.0, settle=0.3)
        assert bench.txns_committed > 0
        # Pure-txn run: every record comes from a 2-key commit.
        assert result.completed == pytest.approx(
            2 * bench.txns_committed, abs=2 * bench.txns_aborted + 2
        )
        assert bench.cross_shard_fraction() == pytest.approx(1.0)

    def test_zero_ratio_reduces_to_plain_closed_loop(self):
        cluster, bench = self.make_bench(txn_ratio=0.0)
        result = bench.run(duration=0.3, warmup=0.0, settle=0.3)
        assert bench.txns_committed == 0 and bench.txns_aborted == 0
        assert bench.cross_shard_fraction() == 0.0
        assert result.completed > 0

    def test_parameter_validation(self):
        cluster, _ = self.make_bench(txn_ratio=0.0)
        with pytest.raises(WorkloadError, match="txn_ratio"):
            ShardedClosedLoopBenchmark(cluster, WorkloadSpec(), txn_ratio=1.5)
        with pytest.raises(WorkloadError, match="txn_keys"):
            ShardedClosedLoopBenchmark(cluster, WorkloadSpec(), txn_keys=1)


class TestRebalanceFaultKind:
    def test_rebalance_is_a_known_kind_and_prints_itself(self):
        assert "rebalance" in ALL_KINDS
        event = FaultEvent("rebalance", 0.5, 0.0, bucket=7, to_shard=2)
        assert "bucket 7 -> shard 2" in str(event)

    def test_plain_nemesis_skips_rebalance_draws(self):
        from repro.paxi.deployment import Deployment

        nemesis = Nemesis(seed=3, events=10, kinds=("rebalance",))
        deployment = Deployment(Config.lan(3, 3, seed=3)).start(MultiPaxos)
        assert nemesis.unleash(deployment) == []


class TestShardingGate:
    def payload(self, **overrides):
        base = {
            "shards": 4,
            "single": {"knee": 28000.0},
            "sharded": {"knee": 113000.0},
            "model": {"knee_sharded": 115523.0},
            "txn_mix": [
                {"txn_ratio": 0.0, "measured_f": 0.0, "throughput": 111000.0},
                {"txn_ratio": 0.1, "measured_f": 0.1, "throughput": 84000.0},
            ],
        }
        base.update(overrides)
        return base

    def run_gate(self, tmp_path, payload):
        path = tmp_path / "BENCH_sharding.json"
        path.write_text(json.dumps(payload))
        check_no_regression(str(path))

    def test_healthy_baseline_passes(self, tmp_path, capsys):
        self.run_gate(tmp_path, self.payload())
        assert "sharding baseline ok" in capsys.readouterr().out

    def test_low_knee_ratio_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="knee ratio"):
            self.run_gate(tmp_path, self.payload(sharded={"knee": 56000.0}))

    def test_model_divergence_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="apart"):
            self.run_gate(tmp_path, self.payload(model={"knee_sharded": 200000.0}))

    def test_vanished_coordination_tax_fails(self, tmp_path):
        payload = self.payload()
        payload["txn_mix"][1]["throughput"] = 150000.0
        with pytest.raises(SystemExit, match="exceeds pure workload"):
            self.run_gate(tmp_path, payload)

    def test_missing_file_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit, match="run the bench first"):
            check_no_regression(str(tmp_path / "missing.json"))
