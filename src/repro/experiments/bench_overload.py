"""Overload baseline: goodput past the knee, with and without defenses.

The paper's performance tier stops at the saturation knee; this benchmark
pushes *through* it with the open-loop engine and pins three behaviors:

1. **Graceful degradation (defended).**  A 3-node Paxos LAN with
   admission control (bounded ingress queue, explicit ``Rejected``
   replies) and patient clients, offered 2x its knee: goodput must hold
   at >= 70% of the knee (in practice it plateaus *at* the knee — shed
   requests are cheap), and the surviving history must stay linearizable
   (rejected != lost).

2. **Model conformance.**  The simulated goodput-vs-offered-load curve
   must track :class:`repro.core.overload.FiniteQueueModel` (M/M/1/K
   truncated-geometric loss) within ``MODEL_BAND`` at every point — the
   past-the-knee extension of the paper's Figure 4 cross-validation.

3. **Metastable collapse (undefended).**  The same cluster with no
   admission control and naive clients (tight retransmit timer, huge
   retry cap), offered a *sustainable* 0.8x knee, hit with a transient
   3x arrival burst: retry amplification must drive goodput below 30% of
   the knee and *keep* it there after the burst ends — the
   Bronson-et-al. metastable failure state, predicted by
   :class:`repro.core.overload.RetryAmplificationModel`'s hysteresis
   bound ``mu / max_attempts``.

Results land in ``BENCH_overload.json``; ``check_no_regression()`` is the
CI gate::

    python -m repro.experiments bench_overload [--fast]
    python -c "from repro.experiments.bench_overload import check_no_regression; check_no_regression()"

The cluster is deliberately slowed (``t_in = t_out = 100us``, knee around
1,900 rounds/s) so overload runs stay cheap: what matters here is the
*shape* of the curves, not absolute throughput.
"""

from __future__ import annotations

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.openloop import OpenLoopEngine, PoissonArrivals
from repro.bench.parallel import DeploymentFactory
from repro.bench.sweep import open_loop_sweep
from repro.bench.workload import WorkloadSpec
from repro.core.overload import FiniteQueueModel, RetryAmplificationModel
from repro.experiments.common import ExperimentResult, check_gate, write_baseline
from repro.paxi.config import Config
from repro.protocols.paxos import MultiPaxos
from repro.sim.server import ServiceProfile

SEED = 42
OUTPUT_FILE = "BENCH_overload.json"

#: Slowed per-node costs: ~1,900 rounds/s knee on 3 nodes keeps the
#: overload runs (which by construction push 2x past the knee) cheap.
PROFILE = ServiceProfile(t_in=100e-6, t_out=100e-6)

#: Admission control for the defended runs.
QUEUE_LIMIT = 32
SHED_POLICY = "reject"
#: Defended clients' patience; also rides on the wire as the deadline.
REQUEST_TIMEOUT = 0.1

#: The naive anti-pattern for the collapse run: retransmit every 20 ms,
#: effectively forever.  Hysteresis bound mu/100 ~ 19 req/s, so ANY
#: realistic offered load is in the metastable region.
NAIVE_RETRY_TIMEOUT = 0.02
NAIVE_MAX_RETRIES = 100

#: The transient trigger: 3x arrivals for half a second.
BURST_MULTIPLIER = 3.0
BURST_DURATION = 0.5

#: Gates.  The payload records them for the reader; the CI check reads
#: these constants, never the payload's copy.
DEFENDED_FLOOR = 0.70  # goodput at 2x knee, as a fraction of the knee
COLLAPSE_CEILING = 0.30  # post-burst goodput without defenses
MODEL_BAND = 0.10  # sim-vs-model relative error, full runs
MODEL_BAND_FAST = 0.15  # short windows are noisier

SETTLE = 0.2
WARMUP = 0.2


def _config(**admission) -> Config:
    return Config.lan(1, 3, seed=SEED, profile=PROFILE, **admission)


def _measure_knee(duration: float) -> float:
    """Empirical capacity: closed-loop saturation on the slowed cluster."""
    deployment = DeploymentFactory(MultiPaxos, _config())()
    bench = ClosedLoopBenchmark(
        deployment, WorkloadSpec(keys=100), concurrency=48, sites=["LAN"]
    )
    return bench.run(duration, warmup=WARMUP, settle=SETTLE).throughput


def _defended_run(rate: float, duration: float) -> tuple:
    """Open-loop at ``rate`` against the admission-controlled cluster."""
    deployment = DeploymentFactory(
        MultiPaxos, _config(queue_limit=QUEUE_LIMIT, shed_policy=SHED_POLICY)
    )()
    engine = OpenLoopEngine(
        deployment,
        WorkloadSpec(keys=100),
        PoissonArrivals(rate),
        sites=["LAN"],
        request_timeout=REQUEST_TIMEOUT,
    )
    result = engine.run(duration, warmup=WARMUP, settle=SETTLE)
    linearizable, consensus_ok = deployment.verify()
    return result, linearizable, consensus_ok


def _collapse_run(rate: float, duration: float) -> tuple:
    """No admission control, naive retries, one burst; returns the result
    plus the absolute burst window for timeline bookkeeping."""
    deployment = DeploymentFactory(MultiPaxos, _config())()
    engine = OpenLoopEngine(
        deployment,
        WorkloadSpec(keys=100),
        PoissonArrivals(rate),
        sites=["LAN"],
        retry_timeout=NAIVE_RETRY_TIMEOUT,
        max_retries=NAIVE_MAX_RETRIES,
    )
    # Fresh deployment => virtual time starts at 0, so absolute time =
    # settle + warmup + offset-into-measurement.  Burst early enough that
    # most of the window observes the aftermath.
    burst_start = SETTLE + WARMUP + 0.2 * duration
    engine.apply_burst(burst_start, BURST_DURATION, BURST_MULTIPLIER)
    result = engine.run(duration, warmup=WARMUP, settle=SETTLE)
    return result, burst_start, burst_start + BURST_DURATION


def _tail_goodput(result, burst_end: float, measure_start: float) -> float:
    """Mean goodput over timeline buckets that start after the burst ended
    (plus one bucket of slack for in-flight drain)."""
    cutoff = burst_end - measure_start
    tail = [g for t, g in result.goodput_timeline if t > cutoff]
    # Skip the first post-burst bucket: it still drains burst-era work.
    if len(tail) > 1:
        tail = tail[1:]
    return sum(tail) / len(tail) if tail else 0.0


def run(fast: bool = False, output: str = OUTPUT_FILE, jobs: int = 1) -> ExperimentResult:
    knee_duration = 0.3 if fast else 0.5
    curve_duration = 0.5 if fast else 0.8
    defended_duration = 0.6 if fast else 1.0
    collapse_duration = 2.0 if fast else 3.0
    fractions = (0.5, 1.0, 2.0) if fast else (0.5, 0.8, 1.0, 1.5, 2.0)
    band = MODEL_BAND_FAST if fast else MODEL_BAND

    result = ExperimentResult(
        experiment="bench_overload",
        title=(
            f"Overload baseline (3-node LAN, queue_limit={QUEUE_LIMIT}, "
            f"burst x{BURST_MULTIPLIER} for {BURST_DURATION}s)"
        ),
        headers=["run", "offered/knee", "goodput/knee", "rejected", "note"],
    )

    knee = _measure_knee(knee_duration)
    queue_model = FiniteQueueModel(mu=knee, capacity=QUEUE_LIMIT)
    retry_model = RetryAmplificationModel(mu=knee, max_attempts=NAIVE_MAX_RETRIES)

    # -- model conformance curve (defended cluster, sweep of rates) -----
    rates = [fraction * knee for fraction in fractions]
    points = open_loop_sweep(
        DeploymentFactory(
            MultiPaxos, _config(queue_limit=QUEUE_LIMIT, shed_policy=SHED_POLICY)
        ),
        WorkloadSpec(keys=100),
        rates,
        duration=curve_duration,
        warmup=WARMUP,
        settle=SETTLE,
        sites=["LAN"],
        workers=jobs,
        request_timeout=REQUEST_TIMEOUT,
    )
    curve = []
    worst_error = 0.0
    for fraction, point in zip(fractions, points):
        predicted = queue_model.goodput(point.offered_rate)
        error = abs(point.goodput - predicted) / predicted if predicted else 0.0
        worst_error = max(worst_error, error)
        curve.append(
            {
                "offered_over_knee": fraction,
                "offered_rate": round(point.offered_rate, 1),
                "goodput": round(point.goodput, 1),
                "model_goodput": round(predicted, 1),
                "model_error": round(error, 4),
                "rejected": point.rejected,
                "p99_ms": round(point.p99_latency_ms, 3),
            }
        )
        result.rows.append(
            ["curve", fraction, round(point.goodput / knee, 3), point.rejected,
             f"model err {error:.1%}"]
        )
    result.series["goodput_curve"] = [
        (entry["offered_rate"], entry["goodput"]) for entry in curve
    ]
    result.series["model_curve"] = [
        (entry["offered_rate"], entry["model_goodput"]) for entry in curve
    ]

    # -- defended: 2x knee must degrade gracefully and stay safe --------
    defended, linearizable, consensus_ok = _defended_run(2.0 * knee, defended_duration)
    defended_ratio = defended.goodput / knee if knee else 0.0
    result.rows.append(
        ["defended-2x", 2.0, round(defended_ratio, 3), defended.rejected,
         f"linearizable={linearizable}"]
    )

    # -- undefended: sustainable load + burst must collapse and stay ----
    collapse_rate = 0.8 * knee
    collapse, burst_start, burst_end = _collapse_run(collapse_rate, collapse_duration)
    measure_start = SETTLE + WARMUP
    tail = _tail_goodput(collapse, burst_end, measure_start)
    collapse_ratio = tail / knee if knee else 0.0
    result.rows.append(
        ["undefended-burst", 0.8, round(collapse_ratio, 3), collapse.rejected,
         f"post-burst tail (burst {burst_start:.1f}-{burst_end:.1f}s)"]
    )
    result.series["collapse_timeline"] = list(collapse.goodput_timeline)

    payload = {
        "experiment": "bench_overload",
        "mode": "fast" if fast else "full",
        "seed": SEED,
        "knee": round(knee, 1),
        "queue_limit": QUEUE_LIMIT,
        "shed_policy": SHED_POLICY,
        "request_timeout_s": REQUEST_TIMEOUT,
        "burst": {"multiplier": BURST_MULTIPLIER, "duration_s": BURST_DURATION},
        "gates": {
            "defended_floor": DEFENDED_FLOOR,
            "collapse_ceiling": COLLAPSE_CEILING,
            "model_band": band,
        },
        "curve": curve,
        "defended": {
            "offered_over_knee": 2.0,
            "goodput": round(defended.goodput, 1),
            "goodput_over_knee": round(defended_ratio, 3),
            "offered": defended.offered,
            "completed": defended.completed,
            "rejected": defended.rejected,
            "linearizable": linearizable,
            "consensus_ok": consensus_ok,
        },
        "undefended": {
            "offered_over_knee": 0.8,
            "naive_retry_timeout_s": NAIVE_RETRY_TIMEOUT,
            "naive_max_retries": NAIVE_MAX_RETRIES,
            "hysteresis_bound": round(retry_model.hysteresis_bound(), 1),
            "metastable_region": retry_model.is_metastable(collapse_rate),
            "post_burst_goodput": round(tail, 1),
            "post_burst_over_knee": round(collapse_ratio, 3),
            "timeline": [
                {"t": round(t, 3), "goodput": round(g, 1)}
                for t, g in collapse.goodput_timeline
            ],
        },
    }
    write_baseline(payload, output)

    result.notes.append(
        f"knee {knee:.0f}/s; defended 2x goodput {defended.goodput:.0f} "
        f"({defended_ratio:.2f}x knee, floor {DEFENDED_FLOOR}), "
        f"linearizable={linearizable}"
    )
    result.notes.append(
        f"undefended 0.8x + burst: post-burst goodput {tail:.0f} "
        f"({collapse_ratio:.2f}x knee, ceiling {COLLAPSE_CEILING}) — "
        f"hysteresis bound {retry_model.hysteresis_bound():.0f}/s"
    )
    result.notes.append(f"worst model error {worst_error:.1%} (band {band:.0%})")
    result.notes.append(f"wrote {output}")
    return result


def check_no_regression(path: str = OUTPUT_FILE) -> None:
    """CI gate over ``BENCH_overload.json``.

    Fails (``SystemExit``) when the defended cluster's goodput at 2x the
    knee drops below ``DEFENDED_FLOOR`` of the knee, when the defended
    history stops being linearizable, when the *undefended* cluster fails
    to exhibit metastable collapse (post-burst goodput above
    ``COLLAPSE_CEILING`` — the failure mode this benchmark exists to
    demonstrate), or when any curve point drifts outside the model band
    (``MODEL_BAND`` for a full run, ``MODEL_BAND_FAST`` otherwise).
    """
    check_gate(path, "overload", _failures, _summary)


def _failures(payload: dict):
    defended = payload.get("defended") or {}
    if defended.get("goodput_over_knee", 0.0) < DEFENDED_FLOOR:
        yield (
            f"defended goodput {defended.get('goodput_over_knee', 0.0):.2f}x knee "
            f"below floor {DEFENDED_FLOOR:.2f}"
        )
    if not defended.get("linearizable", False):
        yield "defended run is not linearizable (rejected != lost broken)"

    undefended = payload.get("undefended") or {}
    if undefended.get("post_burst_over_knee", 1.0) > COLLAPSE_CEILING:
        yield (
            f"undefended post-burst goodput {undefended.get('post_burst_over_knee', 1.0):.2f}x "
            f"knee above ceiling {COLLAPSE_CEILING:.2f} — metastable collapse not reproduced"
        )

    band = MODEL_BAND if payload.get("mode") == "full" else MODEL_BAND_FAST
    for entry in payload.get("curve") or []:
        if entry.get("model_error", 0.0) > band:
            yield (
                f"curve point {entry.get('offered_over_knee')}x knee: model error "
                f"{entry.get('model_error', 0.0):.1%} outside band {band:.0%}"
            )


def _summary(payload: dict) -> str:
    return (
        f"knee {payload.get('knee') or 0.0:.0f}/s, defended 2x "
        f"{payload['defended']['goodput_over_knee']:.2f}x, undefended post-burst "
        f"{payload['undefended']['post_burst_over_knee']:.2f}x"
    )
