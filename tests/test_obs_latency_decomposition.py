"""Traced latency decomposition vs. the M/D/1 queueing prediction.

Open-loop (Poisson) MultiPaxos runs at ~20% and ~60% of modeled capacity:
the traced queue-wait mean must track the M/D/1 ``wQ`` prediction, the
span decomposition must add up, and every span must be monotone and
complete (each submit matched by a reply or an explicit failure).
"""

from __future__ import annotations

import pytest

from repro.bench.openloop import OpenLoopEngine, PoissonArrivals
from repro.bench.workload import WorkloadSpec
from repro.core.protocol_models import PaxosModel
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.protocols.paxos import MultiPaxos

N = 5


def _traced_run(load_fraction: float, seed: int = 29, duration: float = 0.4):
    cfg = Config.lan(1, N, seed=seed, heartbeat_interval=None)
    deployment = Deployment(cfg).start(MultiPaxos)
    deployment.cluster.obs.tracer.enabled = True
    model = PaxosModel(cfg.topology)
    rate = load_fraction * model.max_throughput()
    bench = OpenLoopEngine(deployment, WorkloadSpec(keys=50), PoissonArrivals(rate))
    result = bench.run(duration=duration, warmup=0.3, settle=0.3)
    warmup_end = deployment.now - duration
    return deployment, model, rate, result, warmup_end


@pytest.mark.parametrize("load_fraction", [0.2, 0.6])
def test_traced_wq_tracks_md1(load_fraction):
    deployment, model, rate, result, warmup_end = _traced_run(load_fraction)
    breakdowns = deployment.cluster.obs.tracer.breakdowns(since=warmup_end)
    assert len(breakdowns) > 50

    measured_wq = sum(d["wq"] for d in breakdowns) / len(breakdowns)
    predicted_wq = model.busy_node().wait_time(rate)
    # The model queues the *whole round* as one M/D/1 job; the simulator
    # fragments it into ~2n per-message jobs, so the request message's
    # measured wait sits a stable structural factor (~1/3, empirically
    # 0.27-0.41 across loads and seeds) below the prediction.  Tracking
    # means staying inside that band — drifting out of it would mean the
    # simulator and the model no longer describe the same queue.
    assert predicted_wq * 0.15 <= measured_wq <= predicted_wq * 0.8, (
        f"measured wQ {measured_wq * 1e6:.1f}us vs M/D/1 {predicted_wq * 1e6:.1f}us "
        f"at {load_fraction:.0%} load"
    )
    # Network delay is (nearly) load-independent; it must match the model.
    measured_net = sum(d["dl"] + d["dq"] for d in breakdowns) / len(breakdowns)
    predicted_net = model.network_delay_ms() / 1e3
    assert predicted_net * 0.8 <= measured_net <= predicted_net * 1.3


def test_wq_growth_follows_md1_shape():
    """The sharper M/D/1 check: the measured queue wait must *grow* with
    load like rho / (1 - rho) does — the structural fragmentation factor
    cancels out in the ratio between two load points."""
    low = _traced_run(0.2)
    high = _traced_run(0.6)
    wq_low = _mean_component(low, "wq")
    wq_high = _mean_component(high, "wq")
    predicted_growth = low[1].busy_node().wait_time(high[2]) / low[1].busy_node().wait_time(
        low[2]
    )  # = (0.6/0.4) / (0.2/0.8) = 6.0
    measured_growth = wq_high / wq_low
    assert predicted_growth * 0.6 <= measured_growth <= predicted_growth * 1.5
    # ...while the network component stays put.
    net_low = _mean_component(low, "dl") + _mean_component(low, "dq")
    net_high = _mean_component(high, "dl") + _mean_component(high, "dq")
    assert abs(net_high - net_low) < 0.3 * net_low


def _mean_component(run, component):
    deployment, _model, _rate, _result, warmup_end = run
    breakdowns = deployment.cluster.obs.tracer.breakdowns(since=warmup_end)
    return sum(d[component] for d in breakdowns) / len(breakdowns)


@pytest.mark.parametrize("load_fraction", [0.2, 0.6])
def test_spans_monotone_and_complete(load_fraction):
    deployment, _model, _rate, result, _warmup_end = _traced_run(load_fraction)
    tracer = deployment.cluster.obs.tracer
    # Completeness: every span that ended did so exactly once, spans still
    # open equal the requests still in flight at the end of the run.
    assert len(tracer.finished) > 100
    assert all(span.done for span in tracer.finished)
    assert not any(span.failed for span in tracer.finished)
    in_flight = sum(client.outstanding for client in deployment.clients)
    assert tracer.open_count == in_flight
    assert tracer.unmatched_events == 0
    for span in tracer.finished:
        assert span.monotone(), f"non-monotone span {span.span_key}: {span.events}"
        names = [event.name for event in span.events]
        assert names[0] == "submit"
        assert names[-1] == "reply_recv"
        assert "server_enqueue" in names and "handler" in names and "quorum" in names


def test_decomposition_sums_to_total():
    deployment, _model, _rate, _result, warmup_end = _traced_run(0.4)
    breakdowns = deployment.cluster.obs.tracer.breakdowns(since=warmup_end)
    assert breakdowns
    for d in breakdowns:
        assert d["wq"] >= 0 and d["ts"] > 0 and d["dl"] > 0 and d["dq"] > 0
        assert d["wq"] + d["ts"] + d["dl"] + d["dq"] == pytest.approx(d["total"], rel=1e-9)


def test_benchmark_result_carries_window_metrics():
    deployment, model, rate, result, _warmup_end = _traced_run(0.6)
    assert result.metrics is not None
    leader = result.metrics["1.1"]
    # Window utilization must match the model's rho at this arrival rate.
    rho = rate / model.max_throughput()
    assert leader["utilization"] == pytest.approx(rho, rel=0.15)
    # Little's law: mean queue depth ~ lambda_jobs * mean time in system.
    assert leader["mean_queue_depth"] > 0
    assert leader["queue_samples"], "tracing-enabled runs sample queue depth"
    follower = result.metrics["1.2"]
    assert follower["utilization"] < leader["utilization"]
