"""Config.from_dict / from_file validation and the typed batching knobs.

Every rejected document must produce a ConfigError whose message names the
offending field and says how to fix it — the "actionable errors" contract.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.paxi.config import Config


def test_from_dict_minimal_defaults():
    cfg = Config.from_dict({})
    assert cfg.n == 9
    assert cfg.batch_size == 1 and cfg.batch_window is None
    assert cfg.pipeline_depth is None
    assert not cfg.batching_enabled


def test_from_dict_batching_fields_round_trip():
    cfg = Config.from_dict(
        {"replication": {"batch_size": 16, "batch_window": 0.001, "pipeline_depth": 8}}
    )
    assert cfg.batch_size == 16
    assert cfg.batch_window == pytest.approx(0.001)
    assert cfg.pipeline_depth == 8
    assert cfg.batching_enabled
    again = Config.from_json(cfg.to_json())
    assert (again.batch_size, again.batch_window, again.pipeline_depth) == (
        cfg.batch_size,
        cfg.batch_window,
        cfg.pipeline_depth,
    )


@pytest.mark.parametrize(
    "payload",
    [
        {"batchsize": 8},
        {"fidelity": "hybrid"},
        # Replication knobs are only read from the "replication" section.
        {"batch_size": 16, "batch_window": 0.001},
    ],
)
def test_from_dict_rejects_unknown_keys(payload):
    with pytest.raises(ConfigError, match="unknown configuration key"):
        Config.from_dict(payload)


def test_from_dict_rejects_unknown_protocol():
    with pytest.raises(ConfigError, match="unknown protocol"):
        Config.from_dict({"protocol": "quorumania"})


def test_from_dict_canonicalizes_protocol_name():
    cfg = Config.from_dict({"protocol": "wpaxos"})
    assert cfg.params["protocol"] == "WPaxos"


def test_from_dict_rejects_non_intersecting_quorum():
    # FPaxos's phase-1 quorum is n - q2_size + 1, so a non-intersecting
    # pair cannot be spelt: q1_size is no parameter, and q2_size must fit.
    with pytest.raises(ConfigError, match="unknown protocol param.*q1_size"):
        Config.from_dict({"params": {"q2_size": 2, "q1_size": 3}})
    with pytest.raises(ConfigError, match=r"q2_size must be an integer in \[1, 9\]"):
        Config.from_dict({"params": {"q2_size": 10}})
    # A valid FPaxos-style quorum passes.
    cfg = Config.from_dict({"params": {"q2_size": 3}})
    assert cfg.params["q2_size"] == 3


def test_from_dict_rejects_negative_batch_window():
    with pytest.raises(ConfigError, match="batch_window"):
        Config.from_dict({"replication": {"batch_window": -0.5}})


def test_from_dict_rejects_batch_knobs_inside_params():
    with pytest.raises(ConfigError, match="move them out of 'params'"):
        Config.from_dict({"params": {"batch_size": 8}})


def test_from_dict_wan_needs_matching_regions():
    with pytest.raises(ConfigError, match="regions"):
        Config.from_dict({"deployment": "wan"})
    with pytest.raises(ConfigError, match="disagrees"):
        Config.from_dict({"deployment": "wan", "regions": ["VA", "OH"], "zones": 3})
    cfg = Config.from_dict({"deployment": "wan", "regions": ["VA", "OH", "CA"]})
    assert cfg.topology.sites == ("VA", "OH", "CA")


def test_from_dict_rejects_bad_shapes():
    with pytest.raises(ConfigError, match="mapping"):
        Config.from_dict(["not", "a", "dict"])
    with pytest.raises(ConfigError, match="nodes_per_zone"):
        Config.from_dict({"nodes_per_zone": 0})
    with pytest.raises(ConfigError, match="batch_size"):
        Config.from_dict({"replication": {"batch_size": "lots"}})
    with pytest.raises(ConfigError, match="unknown profile key"):
        Config.from_dict({"profile": {"t_inn": 1e-5}})


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "cluster.json"
    path.write_text(Config.lan(3, 3, seed=9, batch_size=8, batch_window=0.002).to_json())
    cfg = Config.from_file(path)
    assert cfg.seed == 9 and cfg.batch_size == 8


def test_from_file_missing_is_actionable(tmp_path):
    with pytest.raises(ConfigError, match="cannot read configuration file"):
        Config.from_file(tmp_path / "nope.json")


def test_from_json_rejects_malformed_text():
    with pytest.raises(ConfigError, match="malformed"):
        Config.from_json("{not json")


@pytest.mark.parametrize(
    "params",
    [
        {"lease_durration": 0.5},
        {"retransmit_timeout": 0.3},  # a constant now, not a parameter
        {"handoff": False},
    ],
)
def test_from_dict_rejects_undeclared_params(params):
    with pytest.raises(ConfigError, match="unknown protocol param"):
        Config.from_dict({"params": params})


def test_from_dict_replication_null_means_default():
    cfg = Config.from_dict({"replication": {"batch_size": None, "durability": None}})
    assert (cfg.batch_size, cfg.durability) == (1, "none")
    with pytest.raises(ConfigError, match="batch_size"):
        Config.from_dict({"replication": {"batch_size": 0}})


def test_constructor_validates_typed_batch_fields():
    with pytest.raises(ConfigError, match="batch_size"):
        Config.lan(3, 3, batch_size=0)
    with pytest.raises(ConfigError, match="batch_window"):
        Config.lan(3, 3, batch_window=-1.0)
    with pytest.raises(ConfigError, match="pipeline_depth"):
        Config.lan(3, 3, pipeline_depth=0)
    # The type checks the JSON route applies hold on the keyword route too.
    with pytest.raises(ConfigError, match="batch_size must be an integer"):
        Config.lan(3, 3, batch_size="lots")
    with pytest.raises(ConfigError, match="batch_window must be a number"):
        Config.lan(3, 3, batch_window="soon")
