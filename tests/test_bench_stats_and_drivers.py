"""Tests for latency statistics and benchmark drivers."""

import math
import pickle
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.bench.benchmarker import ClosedLoopBenchmark, _RunState
from repro.bench.openloop import OpenLoopEngine, PoissonArrivals
from repro.bench.shard_bench import ShardedClosedLoopBenchmark, ShardedDeploymentFactory
from repro.bench.stats import LatencySummary, cdf, histogram, mean, percentile, stddev
from repro.bench.sweep import SweepPoint, closed_loop_sweep, format_curve, max_throughput
from repro.bench.workload import WorkloadSpec
from repro.errors import WorkloadError
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.protocols.paxos import MultiPaxos
from repro.shard.placement import ShardSpec


class TestStats:
    def test_summary_of_empty(self):
        s = LatencySummary.of([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_summary_basic(self):
        s = LatencySummary.of([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.p50 == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0], 1.0) == 3.0
        assert percentile([1.0, 2.0, 3.0], 0.0) == 1.0

    def test_percentile_domain(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_cdf_monotone_and_complete(self):
        curve = cdf(list(range(100)), points=10)
        values = [v for v, _p in curve]
        probs = [p for _v, p in curve]
        assert values == sorted(values)
        assert probs == sorted(probs)
        assert probs[-1] == 1.0

    def test_histogram_counts_everything(self):
        bins = histogram([1.0, 2.0, 3.0, 4.0, 5.0], bins=2)
        assert sum(count for _lo, _hi, count in bins) == 5

    def test_histogram_degenerate(self):
        assert histogram([2.0, 2.0]) == [(2.0, 2.0, 2)]

    def test_mean_stddev(self):
        assert mean([1.0, 3.0]) == 2.0
        assert stddev([1.0, 3.0]) == pytest.approx(math.sqrt(2))
        assert stddev([1.0]) == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=1, max_size=50))
    def test_percentiles_bounded_by_extremes(self, samples):
        ordered = sorted(samples)
        for q in (0.1, 0.5, 0.9, 0.99):
            p = percentile(ordered, q)
            assert ordered[0] - 1e-9 <= p <= ordered[-1] + 1e-9


def make_paxos():
    return Deployment(Config.lan(1, 3, seed=8)).start(MultiPaxos)


class TestClosedLoop:
    def test_concurrency_validated(self):
        with pytest.raises(WorkloadError):
            ClosedLoopBenchmark(make_paxos(), WorkloadSpec(), concurrency=0)

    def test_collects_throughput_and_latency(self):
        bench = ClosedLoopBenchmark(make_paxos(), WorkloadSpec(keys=10), concurrency=2)
        result = bench.run(duration=0.2, warmup=0.05, settle=0.02)
        assert result.completed > 50
        assert result.throughput == pytest.approx(result.completed / result.window)
        assert 0.5 < result.latency.mean < 5.0  # milliseconds

    def test_higher_concurrency_more_throughput_below_saturation(self):
        r1 = ClosedLoopBenchmark(make_paxos(), WorkloadSpec(keys=10), 1).run(0.2, 0.05, 0.02)
        r4 = ClosedLoopBenchmark(make_paxos(), WorkloadSpec(keys=10), 4).run(0.2, 0.05, 0.02)
        assert r4.throughput > 2 * r1.throughput

    def test_per_site_breakdown(self):
        dep = Deployment(Config.wan(("VA", "OH"), 1, seed=8)).start(MultiPaxos)
        bench = ClosedLoopBenchmark(dep, WorkloadSpec(keys=10), concurrency=4)
        result = bench.run(duration=0.4, warmup=0.1, settle=0.3)
        assert set(result.per_site) == {"VA", "OH"}

    def test_spec_per_site_mapping_required(self):
        dep = Deployment(Config.wan(("VA", "OH"), 1, seed=8)).start(MultiPaxos)
        with pytest.raises(WorkloadError):
            ClosedLoopBenchmark(dep, {"VA": WorkloadSpec()}, concurrency=2)


class TestOpenLoop:
    def test_achieves_offered_rate_below_saturation(self):
        bench = OpenLoopEngine(make_paxos(), WorkloadSpec(keys=10), PoissonArrivals(2000.0))
        result = bench.run(duration=0.5, warmup=0.1, settle=0.02)
        assert result.throughput == pytest.approx(2000.0, rel=0.15)

    def test_latency_grows_near_saturation(self):
        # A 9-node cluster saturates near 8k ops/s (the paper's calibration);
        # offering ~95% of that must inflate queueing delay visibly.
        def make9():
            return Deployment(Config.lan(3, 3, seed=8)).start(MultiPaxos)

        def run(rate):
            engine = OpenLoopEngine(make9(), WorkloadSpec(keys=10), PoissonArrivals(rate))
            return engine.run(0.4, 0.1, 0.02)

        lo, hi = run(2000.0), run(7600.0)
        assert hi.latency.mean > 1.5 * lo.latency.mean


def _post_run_filter(records, warmup_end, end, buckets):
    """The reference: keep every ``(done_at, latency_s, site)`` completion,
    then window, convert and bucket them after the run."""
    in_window = [(at, lat, site) for at, lat, site in records if warmup_end <= at <= end]
    per_site: dict[str, list[float]] = {}
    for _at, lat, site in in_window:
        per_site.setdefault(site, []).append(lat * 1e3)
    window = max(end - warmup_end, 1e-12)
    width = window / buckets
    counts = [0] * buckets
    for at, _lat, _site in in_window:
        counts[min(buckets - 1, int((at - warmup_end) / width))] += 1
    return {
        "latencies_ms": [lat * 1e3 for _at, lat, _site in in_window],
        "per_site_latencies": per_site,
        "throughput": len(in_window) / window,
        "completed": len(in_window),
        "goodput_timeline": [(i * width, c / width) for i, c in enumerate(counts)],
    }


def test_in_window_recorder_matches_the_post_run_filter(monkeypatch):
    """Every driver records completions as they land; what it reports must
    equal keeping all of them and filtering after the run, bit for bit."""
    records = []
    record = _RunState.record
    monkeypatch.setattr(
        _RunState,
        "record",
        lambda state, now, lat, site: records.append((now, lat, site)) or record(state, now, lat, site),
    )
    wan = Config.wan(("VA", "OH", "CA"), 1, seed=12)
    sharded = ShardedDeploymentFactory(MultiPaxos, Config.lan(1, 3, seed=12), ShardSpec(count=2, buckets=8))()
    drivers = [
        (ClosedLoopBenchmark(Deployment(wan).start(MultiPaxos), WorkloadSpec(keys=20), 6), None),
        (ShardedClosedLoopBenchmark(sharded, WorkloadSpec(keys=40), 8, txn_ratio=0.3), None),
        (OpenLoopEngine(make_paxos(), WorkloadSpec(keys=10), PoissonArrivals(1500.0), timeline_buckets=7), 7),
    ]  # fmt: skip
    settle, warmup, duration = 0.3, 0.1, 0.4
    for bench, buckets in drivers:
        records.clear()
        result = bench.run(duration, warmup, settle)
        bench.deployment.run_for(0.3)  # completions after the window: dropped
        assert records[0][0] < settle + warmup and records[-1][0] > settle + warmup + duration
        expected = _post_run_filter(
            records, settle + warmup, settle + warmup + duration, buckets or 20
        )
        if buckets is None:
            del expected["goodput_timeline"]
        else:
            assert result.goodput_timeline == expected.pop("goodput_timeline")
        assert result.completed > 100
        assert _reported(result, expected) == expected
    # Both window edges are inclusive, which no simulated completion hits.
    state = _RunState(1.0, 2.0)
    edges = [(0.9, 1e-3, "a"), (1.0, 2e-3, "b"), (2.0, 3e-3, "a"), (2.1, 4e-3, "a")]
    assert [state.record(*edge) for edge in edges] == [False, True, True, False]
    expected = _post_run_filter(edges, 1.0, 2.0, 1)
    del expected["goodput_timeline"]
    assert _reported(state.result(0), expected) == expected


def _reported(result, expected):
    """``result``'s fields named in ``expected``, its packed sample arrays
    as lists of the same doubles (compared by ``repr``, so bit for bit)."""
    got = {name: getattr(result, name) for name in expected}
    got["latencies_ms"] = list(got["latencies_ms"])
    got["per_site_latencies"] = {site: list(ls) for site, ls in got["per_site_latencies"].items()}
    for name in ("latencies_ms", "per_site_latencies"):
        assert repr(got[name]) == repr(expected[name])
    return got


def test_packed_result_pickles_and_summarizes_like_a_list():
    """A result holds its samples as ``array('d')``: it crosses a process
    boundary (``run_grid``) intact, and its summaries equal the ones a
    plain list of the same samples gives."""
    deployment = Deployment(Config.wan(("VA", "OH"), 1, seed=12)).start(MultiPaxos)
    result = ClosedLoopBenchmark(deployment, WorkloadSpec(keys=20), 4).run(0.2, 0.05, 0.1)
    assert type(result.latencies_ms) is array and result.completed > 50
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    assert clone.latency == LatencySummary.of(list(result.latencies_ms)) == result.latency
    for site, samples in result.per_site_latencies.items():
        assert type(clone.per_site_latencies[site]) is array
        assert result.per_site[site] == LatencySummary.of(list(samples))
    assert cdf(result.latencies_ms, 10) == cdf(list(result.latencies_ms), 10)


class TestSweep:
    def test_sweep_shapes(self):
        points = closed_loop_sweep(
            make_paxos, WorkloadSpec(keys=10), concurrencies=(1, 8), duration=0.15, warmup=0.03, settle=0.02
        )
        assert [p.concurrency for p in points] == [1, 8]
        assert points[1].throughput > points[0].throughput
        assert max_throughput(points) == points[1].throughput

    def test_format_curve(self):
        text = format_curve([SweepPoint(1, 1000.0, 1.0, 1.0, 2.0, 100)], label="x")
        assert "x" in text and "1000" in text

    def test_max_throughput_empty(self):
        assert max_throughput([]) == 0.0
