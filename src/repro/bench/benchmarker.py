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

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

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
    # In-window samples in completion order; the drivers hand over
    # ``array('d')``s, eight bytes a sample.
    latencies_ms: Sequence[float] = field(repr=False, default_factory=list)
    per_site: dict[str, LatencySummary] = field(default_factory=dict)
    per_site_latencies: dict[str, Sequence[float]] = field(repr=False, default_factory=dict)
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
    """One run's measurement window and the samples completed inside it.

    Every driver hands each completion to :meth:`record` as it happens; only
    a completion inside ``[warmup_end, end_time]`` is kept, converted to
    milliseconds once and packed as a double into the run's array and its
    site's.  Nothing else is kept per request.
    """

    __slots__ = ("warmup_end", "end_time", "latencies_ms", "per_site")

    def __init__(self, warmup_end: float = math.inf, end_time: float = math.inf) -> None:
        self.warmup_end = warmup_end
        self.end_time = end_time
        self.latencies_ms = array("d")
        self.per_site: dict[str, array] = {}

    @property
    def window(self) -> float:
        return max(self.end_time - self.warmup_end, 1e-12)

    def record(self, now: float, latency: float, site: str) -> bool:
        """Keep a completion at ``now`` of ``latency`` seconds; True iff it
        fell inside the window."""
        if not self.warmup_end <= now <= self.end_time:
            return False
        latency_ms = latency * 1e3
        self.latencies_ms.append(latency_ms)
        samples = self.per_site.get(site)
        if samples is None:
            samples = self.per_site[site] = array("d")
        samples.append(latency_ms)
        return True

    def result(self, failed: int, cls: type = BenchmarkResult, **extra) -> BenchmarkResult:
        window = self.window
        completed = len(self.latencies_ms)
        return cls(
            throughput=completed / window,
            latency=LatencySummary.of(self.latencies_ms),
            latencies_ms=self.latencies_ms,
            per_site={site: LatencySummary.of(ls) for site, ls in self.per_site.items()},
            per_site_latencies=self.per_site,
            completed=completed,
            failed=failed,
            window=window,
            **extra,
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
        self._state = state = _RunState(warmup_end, end)
        observation = _arm_observation(deployment, warmup_end, end)
        for client, generator in self._drivers:
            self._issue(client, generator)
        deployment.run_until(end)
        result = state.result(sum(client.failed for client, _gen in self._drivers))
        result.metrics = observation.snapshot()
        return result

    def _issue(self, client: Client, generator: WorkloadGenerator) -> None:
        command = generator.next_command(self.deployment.now)

        def done(_reply, latency: float) -> None:
            now = self.deployment.now
            self._state.record(now, latency, client.site)
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
