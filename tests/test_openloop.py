"""Tests for the open-loop workload engine and its arrival processes."""

import math
import random

import pytest

from repro.bench.openloop import (
    DiurnalArrivals,
    MMPPArrivals,
    OpenLoopEngine,
    PoissonArrivals,
    TraceArrivals,
)
from repro.bench.sweep import open_loop_sweep
from repro.bench.workload import WorkloadSpec
from repro.errors import WorkloadError
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.protocols.paxos import MultiPaxos


def make_paxos(**kw):
    return Deployment(Config.lan(1, 3, seed=8, **kw)).start(MultiPaxos)


class TestArrivalProcesses:
    def test_poisson_mean_gap_matches_rate(self):
        rng = random.Random(7)
        process = PoissonArrivals(1000.0)
        gaps = [process.next_gap(0.0, rng) for _ in range(5000)]
        assert sum(gaps) / len(gaps) == pytest.approx(1e-3, rel=0.1)
        assert process.mean_rate() == 1000.0

    def test_poisson_rejects_nonpositive_rate(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(0.0)
        with pytest.raises(WorkloadError):
            PoissonArrivals(-5.0)

    def test_mmpp_long_run_rate_is_dwell_weighted(self):
        # Short dwells over a long horizon: ~1000 state cycles, so the
        # empirical rate estimator's noise is a few percent.
        rng = random.Random(3)
        process = MMPPArrivals(rates=(100.0, 2000.0), dwell=(0.05, 0.05))
        now, count = 0.0, 0
        while now < 100.0:
            now += process.next_gap(now, rng)
            count += 1
        assert count / now == pytest.approx(process.mean_rate(), rel=0.1)

    def test_mmpp_is_burstier_than_poisson(self):
        # Squared coefficient of variation of inter-arrival gaps: 1 for
        # Poisson, strictly larger for a 2-state MMPP with distinct rates.
        rng = random.Random(5)
        process = MMPPArrivals(rates=(100.0, 5000.0), dwell=(0.2, 0.2))
        gaps, now = [], 0.0
        for _ in range(20000):
            gap = process.next_gap(now, rng)
            gaps.append(gap)
            now += gap
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert var / mean**2 > 1.5

    def test_mmpp_validation(self):
        with pytest.raises(WorkloadError):
            MMPPArrivals(rates=(0.0, 100.0))
        with pytest.raises(WorkloadError):
            MMPPArrivals(dwell=(0.1, -0.1))

    def test_diurnal_rate_curve_spans_trough_to_peak(self):
        process = DiurnalArrivals(trough=100.0, peak=900.0, period=10.0)
        assert process.rate_at(0.0) == pytest.approx(100.0)
        assert process.rate_at(5.0) == pytest.approx(900.0)
        assert process.mean_rate() == pytest.approx(500.0)
        rates = [process.rate_at(t / 10) for t in range(100)]
        assert all(100.0 - 1e-9 <= r <= 900.0 + 1e-9 for r in rates)

    def test_diurnal_thinning_tracks_the_curve(self):
        rng = random.Random(11)
        process = DiurnalArrivals(trough=200.0, peak=2000.0, period=4.0)
        now, count = 0.0, 0
        while now < 40.0:  # integral number of periods
            now += process.next_gap(now, rng)
            count += 1
        assert count / now == pytest.approx(process.mean_rate(), rel=0.15)

    def test_diurnal_validation(self):
        with pytest.raises(WorkloadError):
            DiurnalArrivals(trough=0.0)
        with pytest.raises(WorkloadError):
            DiurnalArrivals(trough=500.0, peak=100.0)
        with pytest.raises(WorkloadError):
            DiurnalArrivals(period=0.0)

    def test_trace_replays_exact_offsets(self):
        rng = random.Random(0)
        trace = TraceArrivals([0.0, 0.25, 0.3])
        assert trace.next_gap(5.0, rng) == 0.0  # origin binds to first call
        assert trace.next_gap(5.0, rng) == pytest.approx(0.25)
        assert trace.next_gap(5.25, rng) == pytest.approx(0.05)
        assert math.isinf(trace.next_gap(5.3, rng))  # exhausted: stop

    def test_trace_loops_when_asked(self):
        rng = random.Random(0)
        trace = TraceArrivals([0.0, 0.1], loop=True)
        for _ in range(3):
            assert not math.isinf(trace.next_gap(0.0, rng))

    def test_trace_rejects_descending_offsets(self):
        with pytest.raises(WorkloadError):
            TraceArrivals([0.2, 0.1])
        with pytest.raises(WorkloadError):
            TraceArrivals([], loop=True)

    def test_trace_from_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "# warm segment then two spikes\n"
            '{"rate": 10, "duration": 0.5}\n'
            '{"t": 0.7}\n'
            '{"t": 0.9}\n'
        )
        trace = TraceArrivals.from_jsonl(str(path))
        # 10/s for 0.5s = 5 evenly spaced arrivals, then the two explicit ones.
        assert trace.offsets[:5] == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4]
        assert trace.offsets[5:] == [0.7, 0.9]

    def test_trace_from_jsonl_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(WorkloadError):
            TraceArrivals.from_jsonl(str(bad))
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text('{"rate": 5}\n')
        with pytest.raises(WorkloadError):
            TraceArrivals.from_jsonl(str(wrong))
        negative = tmp_path / "neg.jsonl"
        negative.write_text('{"rate": -5, "duration": 1}\n')
        with pytest.raises(WorkloadError):
            TraceArrivals.from_jsonl(str(negative))


class TestOpenLoopEngine:
    def test_offered_tracks_configured_rate(self):
        dep = make_paxos()
        engine = OpenLoopEngine(
            dep, WorkloadSpec(keys=50), PoissonArrivals(2000.0), sites=["LAN"]
        )
        result = engine.run(duration=0.4, warmup=0.1, settle=0.2)
        assert result.offered_rate == pytest.approx(2000.0, rel=0.15)
        assert result.completed > 0
        assert result.offered >= result.completed
        assert result.goodput == result.throughput

    def test_same_seed_same_run(self):
        results = []
        for _ in range(2):
            dep = make_paxos()
            engine = OpenLoopEngine(
                dep, WorkloadSpec(keys=50), PoissonArrivals(1500.0), sites=["LAN"]
            )
            results.append(engine.run(duration=0.3, warmup=0.1, settle=0.2))
        a, b = results
        assert a.offered == b.offered
        assert a.completed == b.completed
        assert a.latencies_ms == b.latencies_ms

    def test_registers_as_rate_controller(self):
        dep = make_paxos()
        engine = OpenLoopEngine(
            dep, WorkloadSpec(keys=10), PoissonArrivals(100.0), sites=["LAN"]
        )
        assert engine in dep.rate_controllers

    def test_burst_multiplies_offered_load(self):
        plain_dep = make_paxos()
        plain = OpenLoopEngine(
            plain_dep, WorkloadSpec(keys=50), PoissonArrivals(1000.0), sites=["LAN"]
        )
        base = plain.run(duration=0.4, warmup=0.1, settle=0.2)

        burst_dep = make_paxos()
        burst = OpenLoopEngine(
            burst_dep, WorkloadSpec(keys=50), PoissonArrivals(1000.0), sites=["LAN"]
        )
        burst.apply_burst(0.3, 10.0, 3.0)  # covers the whole run
        surged = burst.run(duration=0.4, warmup=0.1, settle=0.2)
        assert surged.offered == pytest.approx(3 * base.offered, rel=0.2)

    def test_burst_windows_compose_multiplicatively(self):
        dep = make_paxos()
        engine = OpenLoopEngine(
            dep, WorkloadSpec(keys=10), PoissonArrivals(100.0), sites=["LAN"]
        )
        engine.apply_burst(1.0, 1.0, 2.0)
        engine.apply_burst(1.5, 1.0, 3.0)
        assert engine.multiplier_at(0.5) == 1.0
        assert engine.multiplier_at(1.25) == 2.0
        assert engine.multiplier_at(1.75) == 6.0
        assert engine.multiplier_at(2.25) == 3.0
        assert engine.multiplier_at(2.75) == 1.0

    def test_burst_validation(self):
        dep = make_paxos()
        engine = OpenLoopEngine(
            dep, WorkloadSpec(keys=10), PoissonArrivals(100.0), sites=["LAN"]
        )
        with pytest.raises(WorkloadError):
            engine.apply_burst(1.0, 0.0, 2.0)
        with pytest.raises(WorkloadError):
            engine.apply_burst(1.0, 1.0, -1.0)

    def test_request_timeout_abandons_stragglers(self):
        # A crashed majority means nothing completes; with a patience
        # timeout every offered request concludes as a typed failure.
        dep = make_paxos()
        for node in list(dep.config.node_ids)[:2]:
            dep.crash(node, duration=None, at=0.0)
        engine = OpenLoopEngine(
            dep,
            WorkloadSpec(keys=10),
            PoissonArrivals(200.0),
            sites=["LAN"],
            request_timeout=0.05,
        )
        result = engine.run(duration=0.3, warmup=0.1, settle=0.1)
        assert result.completed == 0
        assert result.abandoned > 0

    def test_trace_driven_run_offers_exactly_the_trace(self):
        dep = make_paxos()
        engine = OpenLoopEngine(
            dep,
            WorkloadSpec(keys=10),
            TraceArrivals([0.0, 0.01, 0.02, 0.03, 0.04]),
            sites=["LAN"],
        )
        result = engine.run(duration=0.3, warmup=0.0, settle=0.1)
        assert result.offered == 5
        assert result.completed == 5

    def test_goodput_timeline_integrates_to_completions(self):
        dep = make_paxos()
        engine = OpenLoopEngine(
            dep, WorkloadSpec(keys=50), PoissonArrivals(1000.0), sites=["LAN"],
            timeline_buckets=10,
        )
        result = engine.run(duration=0.4, warmup=0.1, settle=0.2)
        width = result.window / 10
        total = round(sum(g * width for _t, g in result.goodput_timeline))
        assert total == result.completed


class TestOpenLoopSweep:
    def test_sweep_orders_points_by_rate(self):
        from repro.bench.parallel import DeploymentFactory

        factory = DeploymentFactory(MultiPaxos, Config.lan(1, 3, seed=8))
        points = open_loop_sweep(
            factory,
            WorkloadSpec(keys=20),
            rates=[300.0, 900.0],
            duration=0.2,
            warmup=0.05,
            settle=0.1,
            sites=["LAN"],
        )
        assert [p.offered_rate for p in points] == [300.0, 900.0]
        assert all(p.completed > 0 for p in points)
        assert points[1].goodput > points[0].goodput
