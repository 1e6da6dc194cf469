"""Shared infrastructure for the per-figure experiment drivers.

Every driver exposes ``run(fast=False) -> ExperimentResult``.  ``fast``
shrinks durations/sweeps so the driver runs inside the test suite
(``tests/test_figures.py`` checks each figure's claims on the fast run);
the full mode reproduces the paper-scale sweep.  Results carry printable
rows plus named (x, y) series and can be dumped to CSV.

The drivers share :func:`sweep`, the one saturation-sweep loop;
:func:`write_baseline`, the one ``BENCH_*.json`` layout; and
:func:`check_gate`, the one path every ``bench_*.check_no_regression``
takes over its baseline.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.bench.benchmarker import BenchmarkResult, ClosedLoopBenchmark
from repro.bench.sweep import closed_loop_sweep, max_throughput
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.message import Command

Factory = Callable[[Deployment, Any], Any]


@dataclass
class ExperimentResult:
    """Printable outcome of one table/figure reproduction."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        widths = [
            max(len(str(h)), *(len(_fmt(row[i])) for row in self.rows)) if self.rows else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(str(h).rjust(w) for h, w in zip(self.headers, widths)))
        for row in self.rows:
            lines.append("  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def write_csv(self, directory: str = "results") -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment}.csv")
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(self.headers)
            writer.writerows(self.rows)
        return path


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def sweep(
    result: ExperimentResult,
    series: str,
    make: Callable,
    spec,
    concurrencies: Sequence[int],
    duration: float,
    row: Sequence | None = (),
    extra: Sequence = (),
    jobs: int = 1,
    sweeper: Callable = closed_loop_sweep,
) -> tuple[float, list[dict]]:
    """One saturation sweep (warm-up a fifth of ``duration``, 50 ms
    settle) recorded into ``result``: a ``[*row, clients, *extra, ops/s,
    mean_ms, p99_ms]`` row per point (none when ``row`` is None) and the
    (throughput, mean latency) curve as ``result.series[series]``.
    Returns the knee and the curve as JSON-ready dicts."""
    points = sweeper(
        make,
        spec,
        concurrencies,
        duration=duration,
        warmup=duration * 0.2,
        settle=0.05,
        workers=jobs,
    )
    if row is not None:
        for p in points:
            result.rows.append(
                [*row, p.concurrency, *extra, round(p.throughput), p.mean_latency_ms, p.p99_latency_ms]
            )
    result.series[series] = [(p.throughput, p.mean_latency_ms) for p in points]
    curve = [
        {
            "clients": p.concurrency,
            "throughput": round(p.throughput, 1),
            "mean_ms": round(p.mean_latency_ms, 3),
            "p99_ms": round(p.p99_latency_ms, 3),
        }
        for p in points
    ]
    return max_throughput(points), curve


def write_baseline(payload: dict, output: str) -> None:
    """Write a ``BENCH_*.json`` baseline in its committed layout."""
    with open(output, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def check_gate(
    path: str,
    name: str,
    failures: Callable[[dict], Iterable[str]],
    summary: Callable[[dict], str],
    required: Sequence[str] = (),
) -> None:
    """The gate path shared by every ``bench_*.check_no_regression``.

    Raises ``SystemExit`` when the baseline at ``path`` is missing, when
    one of its ``required`` entries is empty, or with every message
    ``failures`` yields joined into one ``"<name> regression: ..."``;
    otherwise prints ``"<name> baseline ok: <summary>"``.  Bounds come
    from the gate's module, never from the payload it judges.
    """
    if not os.path.exists(path):
        raise SystemExit(f"{name} baseline {path!r} not found — run the bench first")
    with open(path) as f:
        payload = json.load(f)
    for key in required:
        if not payload.get(key):
            raise SystemExit(f"{name} baseline {path!r} has no {key!r} entries")
    found = list(failures(payload))
    if found:
        raise SystemExit(f"{name} regression: " + "; ".join(found))
    print(f"{name} baseline ok: {summary(payload)}")


def run_sim_benchmark(
    factory,
    config: Config,
    spec,
    concurrency: int,
    duration: float,
    warmup: float,
    settle: float = 0.5,
    sites: list[str] | None = None,
    retry_timeout: float | None = None,
    prime: Callable[[Deployment], None] | None = None,
) -> tuple[Deployment, BenchmarkResult]:
    """One fresh deployment + closed-loop run, with optional priming
    (e.g. seeding hot-key ownership at a particular region)."""
    deployment = Deployment(config).start(factory)
    if prime is not None:
        prime(deployment)
    bench = ClosedLoopBenchmark(deployment, spec, concurrency, sites, retry_timeout)
    result = bench.run(duration, warmup, settle)
    return deployment, result


def prime_key_at(deployment: Deployment, site: str, key, settle: float = 0.5) -> None:
    """Write ``key`` once from ``site`` so its ownership/token starts there
    (the paper pins the conflict object and the initial object placement
    to the Ohio region)."""
    client = deployment.new_client(site=site)
    client.invoke(Command.put(key, f"prime-{site}"))
    deployment.run_for(settle)


def region_spec(
    region_index: int,
    keys_per_region: int = 100,
    conflict_ratio: float = 0.0,
    conflict_key=777_777,
    write_ratio: float = 0.5,
) -> WorkloadSpec:
    """Per-region key ranges with an optional shared hot key — the paper's
    WAN conflict workload (section 5.3)."""
    return WorkloadSpec(
        keys=keys_per_region,
        min_key=1_000_000 * (region_index + 1),
        write_ratio=write_ratio,
        conflict_ratio=conflict_ratio,
        conflict_key=conflict_key,
    )


def locality_spec(
    region_index: int,
    keys_total: int = 180,
    sigma: float | None = None,
    write_ratio: float = 0.5,
) -> WorkloadSpec:
    """The paper's locality workload: one shared key pool, per-region
    normal popularity with distinct means (Figure 6).

    The default sigma puts region means one third of the key space apart
    with visibly overlapping tails, like the paper's Figure 6: most keys
    are region-local, a boundary band is shared between neighbours."""
    if sigma is None:
        sigma = keys_total / 9.0
    mu = keys_total * (2 * region_index + 1) / 6.0  # evenly spaced means
    return WorkloadSpec(
        keys=keys_total,
        write_ratio=write_ratio,
        distribution="normal",
        mu=mu,
        sigma=sigma,
    )
