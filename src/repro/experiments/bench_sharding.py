"""Sharding benchmark baseline: multi-group capacity vs one group.

Closed-loop saturation sweeps of batched MultiPaxos, once as a single
consensus group and once as a 4-shard :class:`repro.shard.cluster.
ShardedCluster` (uniform keys, hash placement, leaders spread).  Each
shard has its own leader bottleneck, so aggregate knee throughput should
approach ``shards * C1`` — the headline this baseline tracks is knee
ratio ≥ 3x at 4 shards, with the measured knee agreeing with
:class:`repro.core.sharding.ShardedCapacityModel` to within a few percent.

A second sweep holds concurrency at the knee and dials up the cross-shard
transaction mix (two-key 2PC writes), exposing the coordination tax the
model prices at ``(1 - f) + f * txn_rounds`` consensus rounds per logical
operation.

The results land in ``BENCH_sharding.json`` so CI can diff the baseline::

    python -m repro.experiments bench_sharding [--fast]

``check_no_regression()`` is the CI gate: knee ratio and model agreement
must hold, and the transaction mix must actually cost capacity.
"""

from __future__ import annotations

from repro.bench.shard_bench import (
    ShardedClosedLoopBenchmark,
    ShardedDeploymentFactory,
    sharded_closed_loop_sweep,
)
from repro.bench.workload import WorkloadSpec
from repro.core.protocol_models import BatchedPaxosModel
from repro.core.sharding import ShardedCapacityModel
from repro.core.topology import lan
from repro.experiments.common import ExperimentResult, check_gate, sweep, write_baseline
from repro.paxi.config import Config
from repro.protocols.paxos import MultiPaxos
from repro.shard.placement import ShardSpec

SHARDS = 4
BUCKETS = 64
BATCH_SIZE = 16
BATCH_WINDOW = 0.001  # seconds of virtual time
PIPELINE_DEPTH = 8
SEED = 63
TXN_KEYS = 2
TXN_RATIOS = (0.0, 0.1, 0.25)
OUTPUT_FILE = "BENCH_sharding.json"

#: CI gates: 4 shards must deliver >= 3x one group's knee, and the
#: measured 4-shard knee must sit within this fraction of the analytic
#: capacity (|sim - model| / model).
MIN_KNEE_RATIO = 3.0
MODEL_TOLERANCE = 0.06


def _config() -> Config:
    return Config.lan(
        3,
        3,
        seed=SEED,
        batch_size=BATCH_SIZE,
        batch_window=BATCH_WINDOW,
        pipeline_depth=PIPELINE_DEPTH,
    )


def _spec(count: int) -> ShardSpec:
    return ShardSpec(count=count, buckets=BUCKETS, leaders="spread")


def _model(shards: int, f: float = 0.0) -> ShardedCapacityModel:
    group = BatchedPaxosModel(lan(9), batch_size=BATCH_SIZE, batch_window=BATCH_WINDOW)
    return ShardedCapacityModel(group, shards=shards, cross_shard_ratio=f)


def _txn_mix_point(concurrency: int, txn_ratio: float, duration: float) -> dict:
    """One fixed-concurrency run with a 2PC mix (module-level so a future
    parallel fan-out can pickle it)."""
    cluster = ShardedDeploymentFactory(MultiPaxos, _config(), _spec(SHARDS))()
    bench = ShardedClosedLoopBenchmark(
        cluster,
        WorkloadSpec(keys=1000, write_ratio=0.5),
        concurrency=concurrency,
        txn_ratio=txn_ratio,
        txn_keys=TXN_KEYS,
    )
    result = bench.run(duration, warmup=duration * 0.2, settle=0.05)
    return {
        "txn_ratio": txn_ratio,
        "measured_f": round(bench.cross_shard_fraction(), 4),
        "throughput": round(result.throughput, 1),
        "mean_ms": round(result.latency.mean, 3),
        "txns_committed": bench.txns_committed,
        "txns_aborted": bench.txns_aborted,
    }


def run(fast: bool = False, output: str = OUTPUT_FILE, jobs: int = 1) -> ExperimentResult:
    single_concurrencies = (16, 96) if fast else (32, 96, 192)
    sharded_concurrencies = (64, 512) if fast else (128, 384, 768)
    mix_concurrency = 256 if not fast else 128
    duration = 0.2 if fast else 0.5
    spec = WorkloadSpec(keys=1000, write_ratio=0.5)
    result = ExperimentResult(
        experiment="bench_sharding",
        title=(
            f"Sharding baseline ({SHARDS} groups x 9-node LAN, batched "
            f"MultiPaxos B={BATCH_SIZE}, hash placement over {BUCKETS} buckets)"
        ),
        headers=["shards", "clients", "txn_ratio", "ops/s", "mean_ms", "p99_ms"],
    )
    payload: dict = {
        "experiment": "bench_sharding",
        "mode": "fast" if fast else "full",
        "shards": SHARDS,
        "buckets": BUCKETS,
        "batch_size": BATCH_SIZE,
        "batch_window_s": BATCH_WINDOW,
        "pipeline_depth": PIPELINE_DEPTH,
        "txn_keys": TXN_KEYS,
        "seed": SEED,
    }

    knees: dict[str, float] = {}
    for label, count, concurrencies in (
        ("single", 1, single_concurrencies),
        ("sharded", SHARDS, sharded_concurrencies),
    ):
        knees[label], curve = sweep(
            result, label, ShardedDeploymentFactory(MultiPaxos, _config(), _spec(count)),
            spec, concurrencies, duration, row=(count,), extra=(0.0,), jobs=jobs,
            sweeper=sharded_closed_loop_sweep,
        )
        payload[label] = {"knee": round(knees[label], 1), "curve": curve}

    knee_ratio = knees["sharded"] / knees["single"] if knees["single"] else 0.0
    model_single = _model(1).max_throughput()
    model_sharded = _model(SHARDS).max_throughput()
    agreement = abs(knees["sharded"] - model_sharded) / model_sharded
    payload["knee_ratio"] = round(knee_ratio, 3)
    payload["model"] = {
        "knee_single": round(model_single, 1),
        "knee_sharded": round(model_sharded, 1),
        "agreement": round(agreement, 4),
        "txn_rounds": _model(SHARDS).txn_rounds,
    }
    result.notes.append(
        f"knee: 1 group {knees['single']:.0f} -> {SHARDS} groups "
        f"{knees['sharded']:.0f} ops/s ({knee_ratio:.2f}x)"
    )
    result.notes.append(
        f"model: {model_sharded:.0f} ops/s at {SHARDS} shards "
        f"(sim within {agreement * 100:.1f}%)"
    )

    mix: list[dict] = []
    for ratio in TXN_RATIOS if not fast else TXN_RATIOS[:2]:
        point = _txn_mix_point(mix_concurrency, ratio, duration)
        point["model_capacity"] = round(
            _model(SHARDS, point["measured_f"]).max_throughput(), 1
        )
        mix.append(point)
        result.rows.append(
            [SHARDS, mix_concurrency, ratio, round(point["throughput"]), point["mean_ms"], "-"]
        )
        result.notes.append(
            f"txn mix f={point['measured_f']:.3f}: {point['throughput']:.0f} ops/s "
            f"({point['txns_committed']} committed, {point['txns_aborted']} aborted)"
        )
    payload["txn_mix"] = mix
    result.series["txn_mix"] = [(p["measured_f"], p["throughput"]) for p in mix]

    write_baseline(payload, output)
    result.notes.append(f"wrote {output}")
    return result


def check_no_regression(path: str = OUTPUT_FILE) -> None:
    """CI gate over the committed baseline.

    Fails (``SystemExit``) when the 4-shard knee drops below
    ``MIN_KNEE_RATIO`` x the single-group knee, when the measured knee
    drifts outside ``MODEL_TOLERANCE`` of the analytic capacity, or when a
    heavier 2PC mix somehow beats the pure single-key workload (which
    would mean the coordination tax — or the accounting — vanished).
    """
    check_gate(path, "sharding", _failures, _summary, required=("single", "sharded"))


def _knees(payload: dict) -> tuple[float, float, float]:
    """Single-group, sharded and modeled sharded knee."""
    return (
        payload["single"].get("knee", 0.0),
        payload["sharded"].get("knee", 0.0),
        (payload.get("model") or {}).get("knee_sharded", 0.0),
    )


def _failures(payload: dict):
    single, sharded, model = _knees(payload)
    ratio = sharded / single if single else 0.0
    if ratio < MIN_KNEE_RATIO:
        yield (
            f"knee ratio {ratio:.2f}x < required {MIN_KNEE_RATIO:.1f}x "
            f"({sharded:.0f} vs {single:.0f} ops/s)"
        )
    if model:
        agreement = abs(sharded - model) / model
        if agreement > MODEL_TOLERANCE:
            yield (
                f"sim {sharded:.0f} vs model {model:.0f} ops/s: "
                f"{agreement * 100:.1f}% apart (tolerance {MODEL_TOLERANCE * 100:.0f}%)"
            )
    mix = payload.get("txn_mix") or []
    if len(mix) >= 2:
        pure = mix[0]["throughput"]
        for point in mix[1:]:
            if point["txn_ratio"] > 0 and point["throughput"] > pure * 1.05:
                yield (
                    f"txn mix f={point['measured_f']} throughput "
                    f"{point['throughput']:.0f} exceeds pure workload {pure:.0f}"
                )


def _summary(payload: dict) -> str:
    single, sharded, model = _knees(payload)
    gap = f"{abs(sharded - model) / model * 100:.1f}%" if model else "not modeled"
    return f"{sharded / single:.2f}x knee at {payload['shards']} shards, sim-model gap {gap}"
