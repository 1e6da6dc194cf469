"""Smoke tests for the experiment registry and the cheap drivers.

The expensive simulation drivers are exercised by the benchmark harness
(``pytest benchmarks/ --benchmark-only``); here we verify the registry,
the result plumbing, and the analytic drivers end to end.
"""

import os

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentResult, locality_spec, region_spec


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
def test_analytic_drivers_run_fast(name):
    result = EXPERIMENTS[name](True)
    assert result.experiment == name
    assert result.rows


def test_fig03_calibration():
    result = EXPERIMENTS["fig03"](True)
    note = result.notes[0]
    mu = float(note.split("mu=")[1].split(" ")[0])
    assert abs(mu - 0.4271) < 0.02


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


def test_bench_batching_regression_gate(tmp_path):
    """The CI gate reads the JSON the driver writes and passes/fails on
    batched-vs-unbatched knees (driver itself is exercised in the slow
    benchmark harness; here we validate the gate's verdict logic)."""
    import json

    from repro.experiments.bench_batching import check_no_regression

    path = tmp_path / "BENCH_batching.json"
    good = {
        "protocols": {
            "paxos": {"knee_unbatched": 8000.0, "knee_batched": 28000.0, "speedup": 3.5}
        }
    }
    path.write_text(json.dumps(good))
    check_no_regression(str(path))  # no raise

    bad = {
        "protocols": {
            "paxos": {"knee_unbatched": 8000.0, "knee_batched": 7000.0, "speedup": 0.9}
        }
    }
    path.write_text(json.dumps(bad))
    with pytest.raises(SystemExit, match="batching regression"):
        check_no_regression(str(path))
    with pytest.raises(SystemExit, match="not found"):
        check_no_regression(str(tmp_path / "missing.json"))


def test_bench_faults_recovery_gate(tmp_path):
    """The fault-recovery gate fails on unrecovered scenarios or low
    availability (the driver itself runs in the chaos CI job)."""
    import json

    from repro.experiments.bench_faults import check_recovered

    path = tmp_path / "BENCH_faults.json"
    good = {
        "scenarios": {
            "paxos:reboot:durable": {"mttr_s": 0.25, "availability": 0.9},
        }
    }
    path.write_text(json.dumps(good))
    check_recovered(str(path))  # no raise

    for bad_metrics in (
        {"mttr_s": None, "availability": 0.9},
        {"mttr_s": 0.25, "availability": 0.3},
    ):
        path.write_text(json.dumps({"scenarios": {"paxos:wipe:memory": bad_metrics}}))
        with pytest.raises(SystemExit, match="fault-recovery regression"):
            check_recovered(str(path))
    with pytest.raises(SystemExit, match="not found"):
        check_recovered(str(tmp_path / "missing.json"))


def test_bench_grayfail_regression_gate(tmp_path):
    """The gray-failure gate fails on false-positive handoffs, a missing
    collapse, a failed recovery, or a safety violation (the driver itself
    runs in the bench-grayfail CI job)."""
    import json

    from repro.experiments.bench_grayfail import check_no_regression

    path = tmp_path / "BENCH_grayfail.json"
    cell = {"linearizable": True, "consensus_ok": True, "handoffs": 0}
    good = {
        "gates": {
            "undetected_ceiling": 0.40,
            "recovered_floor": 0.85,
            "max_clean_handoffs": 0,
            "model_band": 0.25,
        },
        "protocols": {
            "multipaxos": {
                "knee": 1400.0,
                "clean": dict(cell),
                "undetected": {**cell, "over_knee": 0.33, "model_error": 0.04},
                "detected": {**cell, "over_knee": 0.95, "handoffs": 1},
            }
        },
    }
    path.write_text(json.dumps(good))
    check_no_regression(str(path))  # no raise

    matrix = good["protocols"]["multipaxos"]
    for patch, match in (
        ({"clean": {**cell, "handoffs": 2}}, "healthy cluster"),
        ({"undetected": {**matrix["undetected"], "over_knee": 0.8}}, "not reproduced"),
        ({"undetected": {**matrix["undetected"], "model_error": 0.5}}, "capacity model"),
        ({"detected": {**matrix["detected"], "over_knee": 0.5}}, "recovered only"),
        ({"detected": {**matrix["detected"], "handoffs": 0}}, "no planned handoff"),
        ({"detected": {**matrix["detected"], "linearizable": False}}, "safety violation"),
    ):
        bad = {**good, "protocols": {"multipaxos": {**matrix, **patch}}}
        path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit, match=match):
            check_no_regression(str(path))
    path.write_text(json.dumps({**good, "protocols": {}}))
    with pytest.raises(SystemExit, match="multipaxos matrix missing"):
        check_no_regression(str(path))
    with pytest.raises(SystemExit, match="not found"):
        check_no_regression(str(tmp_path / "missing.json"))


def test_bench_simspeed_regression_gate(tmp_path):
    """The simulator-speed gate fails on slow events/sec, diverging
    parallel results, or (multi-core only) slower-than-serial fan-out
    (the driver itself runs in the bench-simspeed CI job)."""
    import json

    from repro.experiments.bench_simspeed import check_no_regression

    path = tmp_path / "BENCH_simspeed.json"
    good = {
        "cpu_count": 4,
        "saturation": {"events_per_sec": 120000.0},
        "parallel": {
            "results_identical": True,
            "serial_wall_s": 8.0,
            "parallel_wall_s": 2.5,
        },
    }
    path.write_text(json.dumps(good))
    check_no_regression(str(path))  # no raise

    for bad in (
        {**good, "saturation": {"events_per_sec": 30000.0}},
        {**good, "parallel": {**good["parallel"], "results_identical": False}},
        {**good, "parallel": {**good["parallel"], "parallel_wall_s": 9.5}},
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit, match="simspeed regression"):
            check_no_regression(str(path))
    # On a single-CPU machine fan-out overhead is expected and not gated.
    single = {**good, "cpu_count": 1, "parallel": {**good["parallel"], "parallel_wall_s": 9.5}}
    path.write_text(json.dumps(single))
    check_no_regression(str(path))  # no raise
    with pytest.raises(SystemExit, match="not found"):
        check_no_regression(str(tmp_path / "missing.json"))


def test_cli_main(capsys):
    from repro.experiments.__main__ import main

    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "Parameters explored" in out


def test_cli_rejects_bad_jobs():
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main(["table4", "--jobs", "0"])
