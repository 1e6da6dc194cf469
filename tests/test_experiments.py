"""Tests for the experiment registry, the result plumbing, the cheap
drivers and the seven ``BENCH_*.json`` gates.

The paper's figure claims are checked in ``tests/test_figures.py``; here
we verify the registry, the analytic drivers end to end, and every gate's
verdicts: on hand-written payloads and on its committed baseline.
"""

import copy
import importlib
import json
import os
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentResult, locality_spec, region_spec

REPO = Path(__file__).resolve().parents[1]


EXPECTED_IDS = {
    "fig03",
    "table1",
    "fig04",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table4",
    "fig14",
    "formulas",
    "extra_scalability",
    "extra_availability",
    "extra_relaxed",
    "extra_dynamic",
    "extra_mencius",
    "bench_batching",
    "bench_faults",
    "bench_grayfail",
    "bench_overload",
    "bench_reads",
    "bench_sharding",
    "bench_simspeed",
}


def test_registry_covers_every_paper_artifact():
    assert set(EXPERIMENTS) == EXPECTED_IDS


def test_result_text_and_csv(tmp_path):
    result = ExperimentResult(
        experiment="demo",
        title="demo table",
        headers=["a", "b"],
        rows=[[1, 2.5], ["x", 3]],
        notes=["hello"],
    )
    text = result.to_text()
    assert "demo table" in text and "hello" in text and "2.500" in text
    path = result.write_csv(str(tmp_path))
    assert os.path.exists(path)
    with open(path) as f:
        assert f.readline().strip() == "a,b"


@pytest.mark.parametrize("name", ["table1", "fig08", "fig10", "fig12", "table4", "fig14"])
def test_analytic_drivers_run_fast(name, fast_run):
    """The quick-loop smoke check; it shares each run with the driver's
    figure test through ``fast_run``."""
    result = fast_run(name)
    assert result.experiment == name
    assert result.rows


def test_region_spec_isolates_key_ranges():
    a = region_spec(0, keys_per_region=10)
    b = region_spec(1, keys_per_region=10)
    assert a.min_key + a.keys <= b.min_key
    assert a.conflict_key == b.conflict_key  # the shared hot object


def test_locality_spec_spreads_means():
    specs = [locality_spec(i, keys_total=180) for i in range(3)]
    mus = [s.mu for s in specs]
    assert mus == sorted(mus)
    assert mus[1] - mus[0] == pytest.approx(60)
    assert all(s.distribution == "normal" for s in specs)


# -- the seven BENCH gates ---------------------------------------------------
#
# Per gate: a passing payload, variants of it that must also pass, each
# failure (a patch and the message it must raise), and a failure that
# still fails while the payload declares a looser bound: the bounds come
# from the gate's module, not from the file being judged.  A patch maps a
# dotted path (list indices allowed) to its new value.

_CELL = {"linearizable": True, "consensus_ok": True, "handoffs": 0}
_READ_MODE = {"knee": 8000.0, "lift": 1.0, "leader_share": 0.3, "model_conformance": 1.0}

GATES = {
    "batching": {
        "payload": {
            "protocols": {
                "paxos": {"knee_unbatched": 8000.0, "knee_batched": 28000.0, "speedup": 3.5}
            }
        },
        "passes": [],
        "fails": [
            (
                {"protocols.paxos.knee_batched": 7000.0, "protocols.paxos.speedup": 0.9},
                "batching regression: paxos: batched knee 7000 < unbatched 8000",
            ),
            ({"protocols": {}}, "has no 'protocols' entries"),
        ],
        "looser": ({"gates": {"min_speedup": 0.0}, "protocols.paxos.knee_batched": 7000.0},
                   "batched knee"),
    },
    "faults": {
        "payload": {"scenarios": {"paxos:wipe:memory": {"mttr_s": 0.25, "availability": 0.9}}},
        "passes": [],
        "fails": [
            ({"scenarios.paxos:wipe:memory.mttr_s": None}, "never recovered"),
            ({"scenarios.paxos:wipe:memory.availability": 0.3}, "availability 30% < 50%"),
            ({"scenarios.paxos:wipe:memory.victim_caught_up": False}, "never finished catching up"),
            ({"scenarios": {}}, "has no 'scenarios' entries"),
        ],
        "looser": ({"gates": {"availability_floor": 0.1},
                    "scenarios.paxos:wipe:memory.availability": 0.3}, "availability"),
    },
    "grayfail": {
        "payload": {
            "gates": {
                "undetected_ceiling": 0.40,
                "recovered_floor": 0.85,
                "max_clean_handoffs": 0,
                "model_band": 0.25,
            },
            "protocols": {
                "multipaxos": {
                    "knee": 1400.0,
                    "clean": dict(_CELL),
                    "undetected": {**_CELL, "over_knee": 0.33, "model_error": 0.04},
                    "detected": {**_CELL, "over_knee": 0.95, "handoffs": 1},
                }
            },
        },
        "passes": [],
        "fails": [
            ({"protocols.multipaxos.clean.handoffs": 2}, "healthy cluster"),
            ({"protocols.multipaxos.undetected.over_knee": 0.8}, "not reproduced"),
            ({"protocols.multipaxos.undetected.model_error": 0.5}, "capacity model"),
            ({"protocols.multipaxos.detected.over_knee": 0.5}, "recovered only"),
            ({"protocols.multipaxos.detected.handoffs": 0}, "no planned handoff"),
            ({"protocols.multipaxos.detected.linearizable": False}, "safety violation"),
            ({"protocols": {}}, "multipaxos matrix missing"),
        ],
        "looser": ({"gates.undetected_ceiling": 0.9,
                    "protocols.multipaxos.undetected.over_knee": 0.8}, "not reproduced"),
    },
    "overload": {
        "payload": {
            "mode": "full",
            "knee": 1900.0,
            "gates": {"defended_floor": 0.70, "collapse_ceiling": 0.30, "model_band": 0.10},
            "curve": [
                {"offered_over_knee": 0.5, "model_error": 0.02},
                {"offered_over_knee": 2.0, "model_error": 0.08},
            ],
            "defended": {"goodput_over_knee": 0.95, "linearizable": True},
            "undefended": {"post_burst_over_knee": 0.1},
        },
        # A fast run is held to the wider fast band.
        "passes": [{"mode": "fast", "curve.1.model_error": 0.12}],
        "fails": [
            ({"defended.goodput_over_knee": 0.5}, "below floor 0.70"),
            ({"defended.linearizable": False}, "not linearizable"),
            ({"undefended.post_burst_over_knee": 0.6}, "metastable collapse not reproduced"),
            ({"curve.1.model_error": 0.12}, "outside band 10%"),
            ({"mode": "fast", "curve.1.model_error": 0.2}, "outside band 15%"),
        ],
        "looser": ({"gates.model_band": 0.5, "curve.1.model_error": 0.12}, "outside band 10%"),
    },
    "reads": {
        "payload": {
            "mode": "full",
            "model_band": 0.25,
            "protocols": {
                "paxos": {
                    "leader": dict(_READ_MODE),
                    "lease": {**_READ_MODE, "knee": 20000.0, "lift": 2.5},
                    "quorum": {**_READ_MODE, "knee": 15000.0, "lift": 1.9, "leader_share": 0.2},
                }
            },
        },
        # Fast runs are too short to hold the model band.
        "passes": [{"mode": "fast", "protocols.paxos.quorum.model_conformance": 0.5}],
        "fails": [
            ({"protocols.paxos.lease.knee": 7000.0}, "lease knee 7000 < leader knee 8000"),
            ({"protocols.paxos.quorum.leader_share": 0.5}, "exceeds leader-mode share"),
            ({"protocols.paxos.quorum.model_conformance": 0.5}, "quorum knee is 0.50x the model"),
            ({"protocols": {}}, "has no 'protocols' entries"),
        ],
        "looser": ({"model_band": 0.9, "protocols.paxos.quorum.model_conformance": 0.5},
                   "the model"),
    },
    "sharding": {
        "payload": {
            "shards": 4,
            "single": {"knee": 28000.0},
            "sharded": {"knee": 113000.0},
            "model": {"knee_sharded": 115523.0},
            "txn_mix": [
                {"txn_ratio": 0.0, "measured_f": 0.0, "throughput": 111000.0},
                {"txn_ratio": 0.1, "measured_f": 0.1, "throughput": 84000.0},
            ],
        },
        # Without a model knee there is no agreement to check.
        "passes": [{"model": {}}],
        "fails": [
            ({"sharded.knee": 56000.0}, "knee ratio"),
            ({"model.knee_sharded": 200000.0}, "apart"),
            ({"txn_mix.1.throughput": 150000.0}, "exceeds pure workload"),
            ({"single": {}}, "has no 'single' entries"),
        ],
        "looser": ({"min_knee_ratio": 1.0, "sharded.knee": 56000.0}, "knee ratio"),
    },
    "simspeed": {
        "payload": {
            "cpu_count": 4,
            "saturation": {"events_per_sec": 120000.0},
            "parallel": {"results_identical": True, "serial_wall_s": 8.0, "parallel_wall_s": 2.5},
        },
        # On a single-CPU machine fan-out overhead is expected and not gated.
        "passes": [{"cpu_count": 1, "parallel.parallel_wall_s": 9.5}],
        "fails": [
            ({"saturation.events_per_sec": 30000.0}, "simspeed regression: events/s"),
            ({"parallel.results_identical": False}, "diverged"),
            ({"parallel.parallel_wall_s": 9.5}, "1.1x serial"),
        ],
        "looser": ({"gates": {"floor_events_per_sec": 1000.0},
                    "saturation.events_per_sec": 30000.0}, "events/s"),
    },
}


def _patched(payload: dict, patch: dict) -> dict:
    payload = copy.deepcopy(payload)
    for path, value in patch.items():
        *parents, leaf = path.split(".")
        node = payload
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[int(leaf) if isinstance(node, list) else leaf] = value
    return payload


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_verdicts(name, tmp_path, capsys):
    """Every gate passes its good payloads, raises each failure message,
    tells the reader to run the bench when the file is missing, and
    ignores a looser bound declared in the payload."""
    check = importlib.import_module(f"repro.experiments.bench_{name}").check_no_regression
    table = GATES[name]
    path = tmp_path / f"BENCH_{name}.json"

    def judge(patch: dict) -> None:
        path.write_text(json.dumps(_patched(table["payload"], patch)))
        check(str(path))

    for patch in ({}, *table["passes"]):
        judge(patch)
        assert f"{name} baseline ok" in capsys.readouterr().out
    for patch, match in (*table["fails"], table["looser"]):
        with pytest.raises(SystemExit, match=match):
            judge(patch)
    with pytest.raises(SystemExit, match="not found — run the bench first"):
        check(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("name", sorted(GATES))
def test_committed_baseline_passes(name, capsys):
    """Each committed full-mode ``BENCH_*.json`` passes its own gate."""
    module = importlib.import_module(f"repro.experiments.bench_{name}")
    module.check_no_regression(str(REPO / module.OUTPUT_FILE))
    assert f"{name} baseline ok" in capsys.readouterr().out

def test_cli_main(capsys):
    from repro.experiments.__main__ import main

    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "Parameters explored" in out


def test_cli_rejects_bad_jobs():
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main(["table4", "--jobs", "0"])
