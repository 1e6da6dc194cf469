"""Config.shards schema: nested JSON, validation, per-shard derivation."""

import pytest

from repro.errors import ConfigError, UnknownShardError
from repro.paxi.config import Config
from repro.shard.placement import ShardSpec


class TestShardsSchema:
    def test_json_roundtrip_with_shards(self):
        config = Config.lan(3, 3, seed=9, shards=ShardSpec(count=4, buckets=32))
        clone = Config.from_json(config.to_json())
        assert clone.shards == config.shards
        assert clone.shard_count == 4

    def test_shards_section_parses_from_dict(self):
        config = Config.from_dict(
            {"zones": 3, "nodes_per_zone": 3, "shards": {"count": 2, "buckets": 8}}
        )
        assert config.shards == ShardSpec(count=2, buckets=8)

    def test_shards_must_be_spec_or_none(self):
        with pytest.raises(ConfigError, match="ShardSpec"):
            Config.lan(3, 3, shards=4)

    def test_bad_shards_section_is_actionable(self):
        with pytest.raises(ConfigError, match="count"):
            Config.from_dict({"shards": {"count": 0}})

    def test_pinned_leader_conflicts_with_spread_policy(self):
        config = Config.lan(3, 3)
        with pytest.raises(ConfigError, match="leaders='first'"):
            Config.lan(
                3,
                3,
                shards=ShardSpec(count=2, buckets=8),
                leader=config.node_ids[0],
            )


class TestForShard:
    def test_single_shard_config_is_identical_minus_spec(self):
        base = Config.lan(3, 3, seed=11)
        sharded = Config.lan(3, 3, seed=11, shards=ShardSpec(count=1))
        assert sharded.for_shard(0) == base

    def test_shards_get_distinct_seeds_and_spread_leaders(self):
        config = Config.lan(3, 3, seed=5, shards=ShardSpec(count=3, buckets=9))
        derived = [config.for_shard(i) for i in range(3)]
        assert len({d.seed for d in derived}) == 3
        leaders = [d.params.get("leader") for d in derived]
        assert len(set(leaders[1:])) == 2  # rotated across node positions
        for d in derived:
            assert d.shards is None  # groups are plain deployments

    def test_first_policy_leaves_leader_untouched(self):
        config = Config.lan(
            3, 3, seed=5, shards=ShardSpec(count=2, buckets=8, leaders="first")
        )
        assert "leader" not in config.for_shard(1).params

    def test_out_of_range_shard_is_an_error(self):
        config = Config.lan(3, 3, shards=ShardSpec(count=2, buckets=8))
        with pytest.raises(UnknownShardError, match="shards.count = 2"):
            config.for_shard(5)
        with pytest.raises(UnknownShardError, match="one shard"):
            Config.lan(3, 3).for_shard(1)
