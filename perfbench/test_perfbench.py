"""Smoke tests of the benchmark itself, at duration scale 0.02.

Outside tier-1's ``testpaths``; run with ``pytest perfbench/``.
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import compare, metrics, run
from perfbench.__main__ import measure, spec
from perfbench.workloads import RUN_SECONDS, WORKLOADS

SECONDS = 0.02 * RUN_SECONDS
SATURATION = ("lan_paxos_sat", "lan_epaxos_conflict", "lan_raft_durable_reads")


@pytest.fixture(scope="module")
def traced() -> dict:
    """One untraced + traced pair per workload (run_workload itself fails
    if the two disagree on any simulated number or count)."""
    return {
        name: run.run_workload(name, seed=55, seconds=SECONDS, trace=True, probes=False)
        for name in WORKLOADS
    }


def test_registry_names_and_spec_are_well_formed():
    names = metrics.END_TO_END_NAMES + metrics.PER_LAYER_NAMES + tuple(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(metrics.NAME_RE.match(name) for name in names)
    assert "setup_s" in metrics.END_TO_END_NAMES
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    assert len(metrics.PER_LAYER) <= 128
    committed = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(committed):
        with open(committed, encoding="utf-8") as handle:
            assert json.load(handle) == spec()


def test_every_workload_is_correct_and_emits_every_metric(traced):
    for name, result in traced.items():
        assert result["correct"], name
        assert result["failed"] == 0, name
        assert result["attempted"] >= 1, name
        line = json.loads(run.result_line(result, trace=True))
        assert set(line["metrics"]) == set(metrics.PER_LAYER_NAMES), name
        assert set(result["end_to_end"]) == set(metrics.END_TO_END_NAMES) - {"setup_s"}, name
        assert all(value > 0 for value in result["end_to_end"].values()), name


def test_ok_ops_share_is_live_only_where_operations_can_fail(traced):
    for name in SATURATION + ("fault_openloop_checked",):
        assert traced[name]["end_to_end"]["ok_ops_share"] == 1.0, name
    assert 0.0 < traced["shard_txn_mix"]["end_to_end"]["ok_ops_share"] < 1.0
    assert traced["shard_txn_mix"]["per_layer"]["shard.txn.aborted"] > 0


def test_tracing_reaches_the_whole_run(traced):
    for name, result in traced.items():
        assert result["per_layer"]["host.attributed_share"] >= 0.95, name
        assert result["per_layer"]["host.trace_overhead_ratio"] > 1.0, name


def test_layers_idle_where_the_workload_bypasses_them(traced):
    paxos = traced["lan_paxos_sat"]["per_layer"]
    assert paxos["sim.storage.persist_calls"] == 0 and paxos["protocols.graph.calls"] == 0
    assert traced["lan_epaxos_conflict"]["per_layer"]["protocols.graph.calls"] > 0
    assert traced["lan_raft_durable_reads"]["per_layer"]["sim.storage.syncs"] > 0
    fault = traced["fault_openloop_checked"]["per_layer"]
    assert fault["protocols.elections"] > paxos["protocols.elections"]
    assert fault["obs.tracing.events"] > 0 and fault["bench.openloop.offered"] > 0
    assert traced["shard_txn_mix"]["per_layer"]["shard.txn.self_s"] > 0


def test_setup_probes_and_self_comparison():
    measured = measure("lan_paxos_sat", seed=55, seconds=SECONDS, repeats=2, trace=False)
    assert set(measured["end_to_end"]) == set(metrics.END_TO_END_NAMES)
    assert all(value > 0 for value in measured["end_to_end"]["setup_s"]["values"])
    document = {"seed": 55, "workloads": {"lan_paxos_sat": measured}}
    # Host times of a 0.1 s run are all noise; pin them so only the
    # comparison logic is under test.
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        measured["end_to_end"][name]["values"] = [1.0, 1.0]
    rows = compare.compare(document, document)
    assert len(rows) == len(metrics.END_TO_END)
    assert {row["verdict"] for row in rows} == {"ok"}
    slower = json.loads(json.dumps(document))
    host = slower["workloads"]["lan_paxos_sat"]["end_to_end"]
    host["wall_s"]["values"] = [1.3, 1.3]  # beyond the 25 % bound
    host["setup_s"]["values"] = [0.8, 1.2]  # spread wider than the bound
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(document, slower)}
    assert verdicts["wall_s"] == "worse"
    assert verdicts["setup_s"] == "unresolved"
    assert verdicts["sim_latency_p50_ms"] == "ok"
