"""Open-loop workload engine: aggregated arrival processes (ROADMAP item 4).

Closed-loop drivers model each user as an object that waits for its reply
before issuing again, so arrivals self-throttle and the system can never be
pushed *past* its knee — the regime where production outages actually
happen.  This module replaces per-client fleets with **aggregated arrival
processes**: a single scheduler injects requests at a configured (and
possibly time-varying) rate, independent of completions, simulating a
million think-time users with O(sites) client objects.  Per-request state
stays lightweight — one history record per invoke, exactly what the
linearizability checker needs and nothing more.

Arrival processes
-----------------

- :class:`PoissonArrivals` — memoryless arrivals at a fixed rate (the
  analytic model's assumption);
- :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process:
  calm/bursty rates with exponentially distributed dwell times, the
  standard bursty-traffic model;
- :class:`DiurnalArrivals` — a sinusoidal rate curve between a trough and a
  peak (day/night load), sampled by Lewis-Shedler thinning;
- :class:`TraceArrivals` — replay of an explicit arrival schedule, loadable
  from a JSONL file (:func:`TraceArrivals.from_jsonl`).

Every process draws only from the deployment's seeded streams, so runs are
bit-reproducible; the Nemesis ``"burst"`` fault kind scales any process's
rate over a seeded window via :meth:`OpenLoopEngine.apply_burst`.

The engine measures **offered load vs goodput**: completions, typed
failures (rejected / overloaded / abandoned), and a time-bucketed goodput
series — the signal that distinguishes graceful degradation (goodput
plateaus at capacity under 2x overload) from metastable collapse (goodput
stays near zero after the burst ends, sustained by retry amplification
alone).  See ``docs/OVERLOAD.md``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.bench.benchmarker import (
    BenchmarkResult,
    SpecBySite,
    _arm_observation,
    _RunState,
    _spec_for_site,
)
from repro.bench.workload import WorkloadGenerator
from repro.errors import WorkloadError
from repro.paxi.client import Client
from repro.paxi.deployment import Deployment

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "TraceArrivals",
    "OpenLoopEngine",
    "OpenLoopResult",
]


class ArrivalProcess:
    """Base class: a (possibly stateful) generator of inter-arrival gaps.

    ``next_gap(now, rng)`` returns the seconds until the next arrival when
    asked at virtual time ``now``, drawing randomness only from ``rng``
    (a seeded stream).  Return ``math.inf`` to stop arrivals for good
    (exhausted traces).  Processes are single-use per run: construct a
    fresh one per engine.
    """

    def next_gap(self, now: float, rng: random.Random) -> float:
        raise NotImplementedError

    def mean_rate(self) -> float:
        """Nominal long-run arrival rate (requests/second), for reporting
        and model comparison.  ``nan`` when the process cannot say."""
        return math.nan


@dataclass
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` requests per virtual second."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise WorkloadError(f"arrival rate must be positive, got {self.rate}")

    def next_gap(self, now: float, rng: random.Random) -> float:
        return rng.expovariate(self.rate)

    def mean_rate(self) -> float:
        return self.rate


@dataclass
class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (calm / bursty).

    The process alternates between state 0 (``rates[0]``, mean dwell
    ``dwell[0]`` seconds) and state 1, with exponentially distributed
    dwell times.  Within a state, arrivals are Poisson at that state's
    rate.  This is the classic parsimonious model of bursty traffic:
    the long-run mean rate is the dwell-weighted average, but arrivals
    cluster far more than a plain Poisson stream's.
    """

    rates: tuple[float, float] = (500.0, 5000.0)
    dwell: tuple[float, float] = (0.5, 0.1)

    def __post_init__(self) -> None:
        if min(self.rates) <= 0:
            raise WorkloadError(f"MMPP rates must be positive, got {self.rates}")
        if min(self.dwell) <= 0:
            raise WorkloadError(f"MMPP dwell times must be positive, got {self.dwell}")
        self._state = 0
        self._switch_at: float | None = None

    def next_gap(self, now: float, rng: random.Random) -> float:
        t = now
        while True:
            if self._switch_at is None:
                self._switch_at = t + rng.expovariate(1.0 / self.dwell[self._state])
            gap = rng.expovariate(self.rates[self._state])
            if t + gap <= self._switch_at:
                return (t + gap) - now
            # The state flips before the candidate arrival: restart the
            # (memoryless) draw from the switch instant in the new state.
            t = self._switch_at
            self._state = 1 - self._state
            self._switch_at = None

    def mean_rate(self) -> float:
        total = self.dwell[0] + self.dwell[1]
        return (self.rates[0] * self.dwell[0] + self.rates[1] * self.dwell[1]) / total


@dataclass
class DiurnalArrivals(ArrivalProcess):
    """A sinusoidal rate curve: trough-to-peak over ``period`` seconds.

    ``rate_at(t)`` traces ``trough + (peak - trough) * (1 - cos(2*pi*(t /
    period + phase))) / 2`` — it starts at the trough for ``phase=0``.
    Arrivals are drawn by Lewis-Shedler thinning against the peak rate,
    which is exact for any bounded rate function.
    """

    trough: float = 500.0
    peak: float = 5000.0
    period: float = 10.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.trough <= 0 or self.peak < self.trough:
            raise WorkloadError(
                f"need 0 < trough <= peak, got trough={self.trough} peak={self.peak}"
            )
        if self.period <= 0:
            raise WorkloadError(f"period must be positive, got {self.period}")

    def rate_at(self, t: float) -> float:
        swing = (1.0 - math.cos(2.0 * math.pi * (t / self.period + self.phase))) / 2.0
        return self.trough + (self.peak - self.trough) * swing

    def next_gap(self, now: float, rng: random.Random) -> float:
        t = now
        while True:
            t += rng.expovariate(self.peak)
            if rng.random() * self.peak <= self.rate_at(t):
                return t - now

    def mean_rate(self) -> float:
        return (self.trough + self.peak) / 2.0


@dataclass
class TraceArrivals(ArrivalProcess):
    """Replay an explicit arrival schedule.

    ``offsets`` are seconds from the first ``next_gap`` call (the engine's
    measurement start), ascending.  With ``loop=True`` the trace restarts
    when exhausted (offsets re-anchored at the wrap instant); otherwise
    arrivals simply stop.
    """

    offsets: Sequence[float]
    loop: bool = False

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.offsets, list(self.offsets)[1:])):
            raise WorkloadError("trace offsets must be ascending")
        if self.loop and not self.offsets:
            raise WorkloadError("cannot loop an empty trace")
        self._origin: float | None = None
        self._index = 0

    def next_gap(self, now: float, rng: random.Random) -> float:
        if self._origin is None:
            self._origin = now
        if self._index >= len(self.offsets):
            if not self.loop:
                return math.inf
            self._origin = now
            self._index = 0
        gap = max(0.0, self._origin + self.offsets[self._index] - now)
        self._index += 1
        return gap

    def mean_rate(self) -> float:
        if len(self.offsets) < 2 or self.offsets[-1] <= self.offsets[0]:
            return math.nan
        return (len(self.offsets) - 1) / (self.offsets[-1] - self.offsets[0])

    @staticmethod
    def from_jsonl(path: str, loop: bool = False) -> "TraceArrivals":
        """Load a schedule from a JSONL file.

        Two record shapes compose freely, one JSON object per line:

        - ``{"t": 1.25}`` — one arrival at that offset (seconds);
        - ``{"rate": 2000, "duration": 0.5}`` — a segment of evenly paced
          arrivals at ``rate`` for ``duration`` seconds, starting where
          the previous record ended.

        Blank lines and ``#`` comment lines are skipped.  Offsets must
        come out ascending (explicit ``t`` records may interleave with
        segments only if they respect the running clock).
        """
        offsets: list[float] = []
        cursor = 0.0
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise WorkloadError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise WorkloadError(f"{path}:{lineno}: expected an object, got {record!r}")
                if "t" in record:
                    offsets.append(float(record["t"]))
                    cursor = max(cursor, float(record["t"]))
                elif "rate" in record and "duration" in record:
                    rate = float(record["rate"])
                    duration = float(record["duration"])
                    if rate <= 0 or duration <= 0:
                        raise WorkloadError(
                            f"{path}:{lineno}: rate and duration must be positive"
                        )
                    count = int(rate * duration)
                    step = 1.0 / rate
                    offsets.extend(cursor + i * step for i in range(count))
                    cursor += duration
                else:
                    raise WorkloadError(
                        f"{path}:{lineno}: record needs either 't' or 'rate'+'duration', "
                        f"got keys {sorted(record)}"
                    )
        return TraceArrivals(offsets, loop=loop)


@dataclass
class OpenLoopResult(BenchmarkResult):
    """A :class:`~repro.bench.benchmarker.BenchmarkResult` plus the
    offered-load accounting only an open-loop driver can produce.

    ``throughput`` (inherited) counts *successful completions* per second
    — i.e. it IS the goodput; ``goodput`` aliases it for clarity.  The
    failure counters split the shed/abandoned remainder by type, and
    ``goodput_timeline`` is a ``(window_start_offset, goodput)`` series
    over fixed sub-windows of the measurement window — the evidence for
    "collapse persists after the burst ends" claims.
    """

    offered: int = 0
    offered_rate: float = 0.0
    rejected: int = 0  # explicit Rejected replies (server-side shedding)
    overloaded: int = 0  # client-side budget / breaker give-ups
    abandoned: int = 0  # requests past their patience (engine timeout)
    goodput_timeline: list[tuple[float, float]] = field(repr=False, default_factory=list)

    @property
    def goodput(self) -> float:
        return self.throughput


class OpenLoopEngine:
    """Injects an arrival process into a deployment and measures goodput.

    One lightweight :class:`~repro.paxi.client.Client` per site carries the
    requests round-robin (the per-request session the checkers need);
    arrivals never wait for completions.  The engine registers itself in
    ``deployment.rate_controllers`` so a Nemesis ``"burst"`` event can
    scale its rate over a window.

    Client-robustness knobs (all optional, default = the docile legacy
    client): ``retry_timeout`` enables retransmission, ``max_retries`` /
    ``max_attempts`` bound it, ``retry_budget`` token-buckets it,
    ``breaker_threshold``/``breaker_cooldown`` arm the circuit breaker.
    ``request_timeout`` is the per-request patience: overdue requests are
    abandoned (typed failure) and their deadline rides on the wire for
    ``shed_policy="deadline"`` replicas.
    """

    def __init__(
        self,
        deployment: Deployment,
        spec: SpecBySite,
        process: ArrivalProcess,
        sites: list[str] | None = None,
        request_timeout: float | None = None,
        retry_timeout: float | None = None,
        max_retries: int | None = None,
        max_attempts: int | None = None,
        retry_budget: float | None = None,
        retry_refill_rate: float | None = None,
        breaker_threshold: int | None = None,
        breaker_cooldown: float | None = None,
        record_history: bool = True,
        timeline_buckets: int = 20,
    ) -> None:
        self.deployment = deployment
        self.process = process
        self.request_timeout = request_timeout
        self.record_history = record_history
        self.timeline_buckets = timeline_buckets
        self._arrival_rng = deployment.cluster.streams.stream("open-loop-arrivals")
        self._state = _RunState()
        self._goodput_counts: list[int] = []  # in-window completions per timeline bucket
        self._failures: list[tuple[float, str]] = []  # (at, reason)
        self._offered = 0
        self._start = 0.0
        self._burst_windows: list[tuple[float, float, float]] = []
        chosen_sites = sites if sites is not None else list(deployment.config.topology.sites)
        streams = deployment.cluster.streams
        self._drivers: list[tuple[Client, WorkloadGenerator]] = []
        for index, site in enumerate(chosen_sites):
            client = deployment.new_client(site=site)
            if retry_timeout is not None:
                client.retry_timeout = retry_timeout
            if max_retries is not None:
                client.max_retries = max_retries
            if max_attempts is not None:
                client.max_attempts = max_attempts
            if retry_budget is not None:
                client.retry_budget = retry_budget
            if retry_refill_rate is not None:
                client.retry_refill_rate = retry_refill_rate
            if breaker_threshold is not None:
                client.breaker_threshold = breaker_threshold
            if breaker_cooldown is not None:
                client.breaker_cooldown = breaker_cooldown
            generator = WorkloadGenerator(
                _spec_for_site(spec, site),
                streams.stream(f"workload-{index}"),
                name=f"o{index}",
            )
            self._drivers.append((client, generator))
        self._next_driver = 0
        deployment.rate_controllers.append(self)

    # ------------------------------------------------------------------
    # Rate control (Nemesis "burst" target)
    # ------------------------------------------------------------------

    def apply_burst(self, at: float, duration: float, multiplier: float) -> None:
        """Scale the arrival rate by ``multiplier`` over ``[at, at +
        duration)`` (absolute virtual time).  Overlapping windows multiply.

        Gaps are divided by the multiplier active at scheduling time —
        exact for Poisson arrivals (memorylessness), a uniform time
        compression for the other processes.
        """
        if duration <= 0 or multiplier <= 0:
            raise WorkloadError(
                f"burst needs positive duration and multiplier, got "
                f"duration={duration!r} multiplier={multiplier!r}"
            )
        self._burst_windows.append((at, at + duration, multiplier))

    def multiplier_at(self, t: float) -> float:
        scale = 1.0
        for start, end, multiplier in self._burst_windows:
            if start <= t < end:
                scale *= multiplier
        return scale

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(
        self, duration: float = 1.0, warmup: float = 0.2, settle: float = 0.5
    ) -> OpenLoopResult:
        deployment = self.deployment
        deployment.run_for(settle)
        start = deployment.now
        warmup_end = start + warmup
        end = start + warmup + duration
        self._start = start
        self._state = _RunState(warmup_end, end)
        self._goodput_counts = [0] * max(1, self.timeline_buckets)
        observation = _arm_observation(deployment, warmup_end, end)
        self._schedule_arrival()
        deployment.run_until(end)
        return self._result(observation)

    def _schedule_arrival(self) -> None:
        now = self.deployment.now
        gap = self.process.next_gap(now, self._arrival_rng)
        if math.isinf(gap):
            return  # trace exhausted: arrivals stop
        scale = self.multiplier_at(now)
        if scale != 1.0:
            gap /= scale
        self.deployment.cluster.loop.call_after(gap, self._arrive)

    def _arrive(self) -> None:
        now = self.deployment.now
        if now >= self._state.end_time:
            return
        client, generator = self._drivers[self._next_driver]
        self._next_driver = (self._next_driver + 1) % len(self._drivers)
        command = generator.next_command(now)
        self._offered += 1

        def done(_reply, latency: float) -> None:
            now, state, counts = self.deployment.now, self._state, self._goodput_counts
            if state.record(now, latency, client.site):
                width = state.window / len(counts)
                counts[min(len(counts) - 1, int((now - state.warmup_end) / width))] += 1

        def fail(reason: str, _elapsed: float) -> None:
            self._failures.append((self.deployment.now, reason))

        timeout = self.request_timeout
        request_id = client.invoke(
            command,
            on_done=done,
            record=self.record_history,
            on_fail=fail,
            deadline=(now + timeout) if timeout is not None else None,
        )
        if timeout is not None:
            self.deployment.cluster.loop.call_after(
                timeout, self._expire, client, request_id
            )
        self._schedule_arrival()

    def _expire(self, client: Client, request_id: int) -> None:
        # Patience ran out: a late reply is now worthless to the issuer.
        # abandon() is a no-op if the request already finished either way.
        client.abandon(request_id)

    def _result(self, observation) -> OpenLoopResult:
        state, counts = self._state, self._goodput_counts
        fails_in_window = [
            r for at, r in self._failures if state.warmup_end <= at <= state.end_time
        ]
        width = state.window / len(counts)
        timeline = [(i * width, count / width) for i, count in enumerate(counts)]
        result = state.result(
            sum(client.failed for client, _gen in self._drivers),
            OpenLoopResult,
            offered=self._offered,
            offered_rate=self._offered / max(state.end_time - self._start, 1e-12),
            rejected=sum(1 for r in fails_in_window if r == "rejected"),
            overloaded=sum(1 for r in fails_in_window if r == "overloaded"),
            abandoned=sum(1 for r in fails_in_window if r in ("abandoned", "retries_exhausted")),
            goodput_timeline=timeline,
        )
        result.metrics = observation.snapshot()
        return result

    @property
    def clients(self) -> list[Client]:
        return [client for client, _gen in self._drivers]
