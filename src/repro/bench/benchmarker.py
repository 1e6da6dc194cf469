"""Benchmark drivers (paper section 4.2, "Benchmarker").

Two load modes:

- :class:`ClosedLoopBenchmark` — ``concurrency`` clients each keep exactly
  one request outstanding; raising concurrency pushes the system toward
  saturation.  This is how the paper finds maximum throughput ("increasing
  the concurrency level of the workload generator until the system is
  saturated").
- :class:`repro.bench.openloop.OpenLoopEngine` — arrivals at a rate that
  is independent of completions; with ``PoissonArrivals`` this matches the
  analytic model's arrival assumption and is used for the model
  cross-validation (Figure 4).

Latencies are recorded in milliseconds of virtual time; throughput is
completed operations per virtual second within the measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.bench.stats import LatencySummary
from repro.bench.workload import WorkloadGenerator, WorkloadSpec
from repro.errors import WorkloadError
from repro.obs import WindowObservation
from repro.paxi.client import Client
from repro.paxi.deployment import Deployment

SpecBySite = WorkloadSpec | Mapping[str, WorkloadSpec]


def _arm_observation(deployment: Deployment, warmup_end: float, end: float) -> WindowObservation:
    """Window-scope the cluster's metrics: baseline busy-time at warmup end,
    periodic queue sampling only when tracing is on (it costs events)."""
    obs = deployment.cluster.obs
    samples = 64 if obs.tracer.enabled else 0
    return WindowObservation(
        obs.metrics, deployment.cluster.loop, warmup_end, end, samples=samples
    )


@dataclass
class BenchmarkResult:
    """Outcome of one benchmark run."""

    throughput: float  # completed ops / virtual second (measurement window)
    latency: LatencySummary  # milliseconds
    latencies_ms: list[float] = field(repr=False, default_factory=list)
    per_site: dict[str, LatencySummary] = field(default_factory=dict)
    per_site_latencies: dict[str, list[float]] = field(repr=False, default_factory=dict)
    completed: int = 0
    failed: int = 0
    window: float = 0.0
    # Per-node observability snapshot for the measurement window: message
    # counters by type, bytes, utilization rho, mean queue depth (see
    # repro.obs.metrics).  Populated by the benchmark drivers.
    metrics: dict | None = field(repr=False, default=None)


def _spec_for_site(spec: SpecBySite, site: str) -> WorkloadSpec:
    if isinstance(spec, WorkloadSpec):
        return spec
    try:
        return spec[site]
    except KeyError:
        raise WorkloadError(f"no workload spec for site {site!r}") from None


class _RunState:
    """Shared bookkeeping for one benchmark run."""

    def __init__(self) -> None:
        self.records: list[tuple[float, float, str]] = []  # (done_at, latency_s, site)
        self.end_time = float("inf")

    def result(self, warmup_end: float, end: float, failed: int) -> BenchmarkResult:
        in_window = [
            (latency, site)
            for done_at, latency, site in self.records
            if warmup_end <= done_at <= end
        ]
        latencies_ms = [latency * 1e3 for latency, _site in in_window]
        per_site_lat: dict[str, list[float]] = {}
        for latency, site in in_window:
            per_site_lat.setdefault(site, []).append(latency * 1e3)
        window = max(end - warmup_end, 1e-12)
        return BenchmarkResult(
            throughput=len(in_window) / window,
            latency=LatencySummary.of(latencies_ms),
            latencies_ms=latencies_ms,
            per_site={site: LatencySummary.of(ls) for site, ls in per_site_lat.items()},
            per_site_latencies=per_site_lat,
            completed=len(in_window),
            failed=failed,
            window=window,
        )


class ClosedLoopBenchmark:
    """Fixed number of clients, one outstanding request each."""

    def __init__(
        self,
        deployment: Deployment,
        spec: SpecBySite,
        concurrency: int = 1,
        sites: list[str] | None = None,
        retry_timeout: float | None = None,
    ) -> None:
        if concurrency < 1:
            raise WorkloadError(f"concurrency must be >= 1, got {concurrency}")
        self.deployment = deployment
        self._state = _RunState()
        self._drivers: list[tuple[Client, WorkloadGenerator]] = []
        chosen_sites = sites if sites is not None else list(deployment.config.topology.sites)
        streams = deployment.cluster.streams
        for index in range(concurrency):
            site = chosen_sites[index % len(chosen_sites)]
            client = deployment.new_client(site=site)
            client.retry_timeout = retry_timeout
            generator = WorkloadGenerator(
                _spec_for_site(spec, site),
                streams.stream(f"workload-{index}"),
                name=f"c{index}",
            )
            self._drivers.append((client, generator))

    def run(self, duration: float = 1.0, warmup: float = 0.2, settle: float = 0.5) -> BenchmarkResult:
        """Run the workload and return windowed results.

        ``settle`` runs the cluster idle first so leader election /
        phase-1 completes before any load arrives.
        """
        deployment = self.deployment
        deployment.run_for(settle)
        start = deployment.now
        warmup_end = start + warmup
        end = start + warmup + duration
        self._state.end_time = end
        observation = _arm_observation(deployment, warmup_end, end)
        for client, generator in self._drivers:
            self._issue(client, generator)
        deployment.run_until(end)
        failed = sum(client.failed for client, _gen in self._drivers)
        result = self._state.result(warmup_end, end, failed)
        result.metrics = observation.snapshot()
        return result

    def _issue(self, client: Client, generator: WorkloadGenerator) -> None:
        command = generator.next_command(self.deployment.now)

        def done(_reply, latency: float) -> None:
            now = self.deployment.now
            self._state.records.append((now, latency, client.site))
            if now < self._state.end_time:
                self._issue(client, generator)

        client.invoke(command, on_done=done)


def run_closed_loop(
    make_deployment: Callable[[], Deployment],
    spec: SpecBySite,
    concurrency: int,
    duration: float = 1.0,
    warmup: float = 0.2,
    settle: float = 0.5,
    sites: list[str] | None = None,
) -> BenchmarkResult:
    """Convenience wrapper: fresh deployment, one closed-loop run."""
    deployment = make_deployment()
    bench = ClosedLoopBenchmark(deployment, spec, concurrency, sites)
    return bench.run(duration, warmup, settle)
