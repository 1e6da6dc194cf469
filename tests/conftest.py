"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.bench.benchmarker import BenchmarkResult, ClosedLoopBenchmark
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.checkers.consensus import check_deployment
from repro.checkers.linearizability import check_history
from repro.errors import CheckerError
from repro.paxi.history import HistoryRecorder, HistoryView


def run_protocol(
    factory,
    config: Config,
    spec: WorkloadSpec | dict | None = None,
    concurrency: int = 4,
    duration: float = 0.2,
    warmup: float = 0.02,
    settle: float = 0.05,
    sites: list[str] | None = None,
) -> tuple[Deployment, BenchmarkResult]:
    """Start a deployment, drive a short workload, return both."""
    if spec is None:
        spec = WorkloadSpec(keys=50)
    deployment = Deployment(config).start(factory)
    bench = ClosedLoopBenchmark(deployment, spec, concurrency, sites)
    result = bench.run(duration, warmup, settle)
    return deployment, result


def assert_correct(deployment: Deployment) -> None:
    """Both paper checkers must pass on the deployment's history."""
    linearizable = check_history(deployment.history.snapshot())
    assert linearizable.ok, [a.detail for a in linearizable.anomalies[:3]]
    consensus = check_deployment(deployment)
    assert consensus.ok, consensus.violations[:3]


@pytest.fixture
def columns_agree(request, monkeypatch):
    """Route the test module's ``check_history`` through every input form
    — a list, a recorder holding the same rows, and the view it was given
    — and require one identical ``CheckResult`` from all of them."""
    module = request.module
    check = module.check_history

    def checked(operations):
        rows = list(operations)
        recorder = HistoryRecorder()
        for operation in rows:
            recorder.record(operation)
        inputs = [recorder.operations]
        if isinstance(operations, HistoryView):
            inputs.append(operations)
        try:
            result = check(rows)
        except CheckerError:
            for other in inputs:
                with pytest.raises(CheckerError):
                    check(other)
            raise
        for other in inputs:
            assert check(other) == result
        return result

    monkeypatch.setattr(module, "check_history", checked)


@pytest.fixture(scope="session")
def fast_run():
    """``fast_run(name)``: the experiment driver's ``--fast`` result, run
    once per test session however many tests read it (so readers must not
    mutate it)."""
    from repro.experiments import EXPERIMENTS

    return functools.cache(lambda name: EXPERIMENTS[name](True))


@pytest.fixture
def lan9() -> Config:
    return Config.lan(zones=3, nodes_per_zone=3, seed=42)


@pytest.fixture
def wan3x3() -> Config:
    return Config.wan(("VA", "OH", "CA"), 3, seed=42)
