"""Failure detection for gray failures: φ-accrual + adaptive timeouts.

Crash-stop faults are easy to detect — heartbeats stop, a fixed timeout
fires.  The dominant production failure mode is different ("The
Performance of Paxos in the Cloud", PAPERS.md): a node that is *alive but
slow* keeps feeding every fixed timeout just in time while dragging the
whole quorum down to its service rate.  This module provides the three
detection primitives the protocols build their reaction on:

- :class:`PhiAccrualDetector` — Hayashibara's φ-accrual detector.  Rather
  than a boolean "up/down", it reports a *suspicion level*
  ``φ(t) = -log10 P(heartbeat arrives later than t)`` under a normal model
  of the observed inter-arrival times.  φ = 8 means the silence would be a
  1-in-10^8 event for a healthy peer.  Because the model adapts to the
  measured distribution, the same threshold works on a quiet LAN and a
  jittery WAN.  The detector also tracks a fast/slow EWMA pair of the
  inter-arrival mean whose ratio (:meth:`PhiAccrualDetector.slowdown`)
  exposes *degradation*: a fail-slow peer's heartbeats stretch (they queue
  behind its congested CPU) long before they stop, so the ratio rises
  while φ may still look tolerable.

- :class:`AdaptiveTimeout` — Jacobson/Karels RTT estimation (SRTT + 4 x
  RTTVAR with EWMA updates), the TCP retransmission-timer algorithm, as a
  drop-in replacement for fixed ``retry_timeout``/``election_timeout``
  constants.  Timeouts self-tune to the deployment's actual latency
  instead of being hand-calibrated per topology.

- :class:`NodeHealthMonitor` — a per-peer map of φ-accrual detectors with
  two thresholds, classifying each peer as ``"healthy"``, ``"degraded"``
  (slowdown ratio above ``slow_ratio``, or φ in the suspect band), or
  ``"failed"`` (φ at or above ``phi_threshold``).  Degraded leaders get a
  planned handoff (no availability gap); failed leaders get an election.

Everything here is pure bookkeeping: no timers, no RNG draws, no messages.
Feed it timestamps, read back suspicion — which is what keeps the whole
subsystem opt-in (a deployment that never constructs a monitor is
bit-identical to one before this module existed).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Hashable

from repro.errors import SimulationError

#: Suspicion is capped here: beyond it the survival probability underflows
#: and every verdict reads the same anyway.
PHI_CAP = 30.0

HEALTHY = "healthy"
DEGRADED = "degraded"
FAILED = "failed"


class PhiAccrualDetector:
    """φ-accrual failure detector over one peer's heartbeat arrivals.

    ``observe(now)`` records a heartbeat; ``phi(now)`` reports the current
    suspicion level.  The inter-arrival distribution is modeled as normal
    over a sliding window (the original paper's choice); ``min_stddev``
    keeps the model honest when the observed arrivals are nearly perfectly
    regular — without the floor, a single delayed heartbeat on a quiet
    simulated LAN would spike φ to the cap.

    ``slowdown()`` is the gray-failure companion signal: the ratio of a
    fast EWMA of the inter-arrival mean (reacting within a few heartbeats)
    to a *frozen healthy baseline* — the mean of the first
    ``baseline_samples`` intervals.  A peer whose service rate degrades by
    k stretches its heartbeat emission by roughly k while remaining
    perfectly alive; the ratio surfaces that long before φ crosses a crash
    threshold, and — unlike φ, whose window re-learns the stretched
    distribution — the frozen baseline never renormalizes a degradation
    away.
    """

    def __init__(
        self,
        window: int = 64,
        min_stddev: float = 2e-3,
        bootstrap_interval: float = 0.05,
        fast_alpha: float = 0.25,
        baseline_samples: int = 32,
    ) -> None:
        if window < 2:
            raise SimulationError(f"phi window must be >= 2, got {window}")
        if min_stddev <= 0:
            raise SimulationError(f"min_stddev must be positive, got {min_stddev!r}")
        self._window = window
        self._min_stddev = min_stddev
        self._bootstrap = bootstrap_interval
        self._intervals: deque[float] = deque()
        self._sum = 0.0
        self._sumsq = 0.0
        self._last_arrival: float | None = None
        self._fast_alpha = fast_alpha
        self._fast: float | None = None
        self._baseline_samples = baseline_samples
        self._baseline_sum = 0.0
        self._baseline_count = 0
        self._baseline: float | None = None  # frozen once warmed
        # Optional one-way delay channel (heartbeat stamped at the sender):
        # same fast-EWMA / frozen-baseline pair, measuring *emission* delay
        # instead of inter-arrival.  Preferred by slowdown() when fed,
        # because a steady timer keeps inter-arrival means honest even on a
        # peer whose every send crawls through a congested queue.
        self._delay_fast: float | None = None
        self._delay_sum = 0.0
        self._delay_count = 0
        self._delay_baseline: float | None = None

    @property
    def samples(self) -> int:
        return len(self._intervals)

    def observe(self, now: float) -> float | None:
        """Record a heartbeat arrival at local time ``now``.  Returns the
        measured inter-arrival (None for the first observation or after a
        backwards clock step) so callers can feed companion estimators
        like :class:`AdaptiveTimeout` without measuring twice."""
        last = self._last_arrival
        self._last_arrival = now
        if last is None:
            return None
        interval = now - last
        if interval < 0:
            # A backwards clock step (skew fault); treat as a fresh start
            # rather than poisoning the window with a negative interval.
            return None
        self._intervals.append(interval)
        self._sum += interval
        self._sumsq += interval * interval
        if len(self._intervals) > self._window:
            old = self._intervals.popleft()
            self._sum -= old
            self._sumsq -= old * old
        if self._fast is None:
            self._fast = interval
        else:
            self._fast += self._fast_alpha * (interval - self._fast)
        if self._baseline is None:
            self._baseline_sum += interval
            self._baseline_count += 1
            if self._baseline_count >= self._baseline_samples:
                self._baseline = self._baseline_sum / self._baseline_count
        return interval

    def note_delay(self, delay: float) -> None:
        """Record a sender-stamped one-way delay for this peer's heartbeat.
        Negative samples (clock skew between the two nodes exceeds the
        delay) are discarded rather than poisoning the baseline."""
        if delay < 0:
            return
        if self._delay_fast is None:
            self._delay_fast = delay
        else:
            self._delay_fast += self._fast_alpha * (delay - self._delay_fast)
        if self._delay_baseline is None:
            self._delay_sum += delay
            self._delay_count += 1
            if self._delay_count >= self._baseline_samples:
                self._delay_baseline = self._delay_sum / self._delay_count

    def mean(self) -> float:
        if not self._intervals:
            return self._bootstrap
        return self._sum / len(self._intervals)

    def stddev(self) -> float:
        n = len(self._intervals)
        if n < 2:
            return self._min_stddev
        variance = max(0.0, self._sumsq / n - (self._sum / n) ** 2)
        return max(math.sqrt(variance), self._min_stddev)

    def phi(self, now: float) -> float:
        """Suspicion level at ``now``: ``-log10 P(arrival later than now)``.

        0 right after a heartbeat, rising without bound (capped at
        :data:`PHI_CAP`) the longer the silence stretches relative to the
        observed distribution.  Returns 0 before the first heartbeat — an
        unseen peer is not suspect, it is unknown.
        """
        last = self._last_arrival
        if last is None:
            return 0.0
        elapsed = now - last
        if elapsed <= 0:
            return 0.0
        mu = self.mean()
        sigma = self.stddev()
        # Survival function of Normal(mu, sigma) at `elapsed`.
        z = (elapsed - mu) / (sigma * math.sqrt(2.0))
        p_later = 0.5 * math.erfc(z)
        if p_later < 10.0**-PHI_CAP:
            return PHI_CAP
        return -math.log10(p_later)

    def slowdown(self) -> float:
        """Ratio of the recent mean to the frozen healthy baseline
        (1.0 = steady).  Computed over the sender-stamped delay channel
        when it has warmed — emission delay tracks the peer's internal
        queueing even while a steady heartbeat timer keeps inter-arrivals
        flat — and over inter-arrivals otherwise.  Returns 1.0 until the
        chosen baseline has ``baseline_samples`` observations."""
        if self._delay_fast is not None and self._delay_baseline:
            return self._delay_fast / self._delay_baseline
        if not self._fast or not self._baseline:
            return 1.0
        return self._fast / self._baseline

    def reset(self) -> None:
        """Forget everything (peer changed identity, e.g. a new leader)."""
        self._intervals.clear()
        self._sum = 0.0
        self._sumsq = 0.0
        self._last_arrival = None
        self._fast = None
        self._baseline_sum = 0.0
        self._baseline_count = 0
        self._baseline = None
        self._delay_fast = None
        self._delay_sum = 0.0
        self._delay_count = 0
        self._delay_baseline = None


class AdaptiveTimeout:
    """Jacobson/Karels adaptive timeout: ``SRTT + k x RTTVAR``.

    Feed it samples (RTTs, or heartbeat inter-arrivals when timing a
    periodic signal) via :meth:`observe`; read :attr:`timeout`.  Until the
    first sample arrives the timeout is ``initial``.  ``floor``/``ceiling``
    clamp the result — the floor guards against a variance collapse on an
    idle, perfectly regular link; the ceiling bounds worst-case detection
    latency however noisy the estimate gets.
    """

    def __init__(
        self,
        initial: float = 0.15,
        floor: float = 0.01,
        ceiling: float = 2.0,
        alpha: float = 0.125,
        beta: float = 0.25,
        k: float = 4.0,
    ) -> None:
        if not 0 < floor <= ceiling:
            raise SimulationError(
                f"need 0 < floor <= ceiling, got {floor!r}/{ceiling!r}"
            )
        self._initial = initial
        self._floor = floor
        self._ceiling = ceiling
        self._alpha = alpha
        self._beta = beta
        self._k = k
        self._srtt: float | None = None
        self._rttvar = 0.0
        self.samples = 0

    def observe(self, sample: float) -> None:
        if sample < 0:
            return
        self.samples += 1
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
            return
        self._rttvar += self._beta * (abs(self._srtt - sample) - self._rttvar)
        self._srtt += self._alpha * (sample - self._srtt)

    @property
    def srtt(self) -> float | None:
        return self._srtt

    @property
    def timeout(self) -> float:
        if self._srtt is None:
            return self._initial
        return min(self._ceiling, max(self._floor, self._srtt + self._k * self._rttvar))


class NodeHealthMonitor:
    """Per-peer suspicion bookkeeping for one replica.

    One :class:`PhiAccrualDetector` per peer, lazily created, plus the two
    thresholds that turn raw suspicion into a verdict:

    - φ >= ``phi_threshold``  →  ``"failed"``   (elect a replacement);
    - slowdown >= ``slow_ratio`` (with enough samples to trust it), or φ
      past the halfway suspect band  →  ``"degraded"``  (plan a handoff);
    - otherwise  →  ``"healthy"``.

    The degraded band exists because the right reaction differs: a failed
    leader needs an election (disruptive, unavoidable); a degraded leader
    is still perfectly able to run the *coordinated* handoff that costs
    zero availability.
    """

    def __init__(
        self,
        phi_threshold: float = 8.0,
        slow_ratio: float = 2.5,
        window: int = 64,
        min_stddev: float = 2e-3,
        min_samples: int = 8,
    ) -> None:
        if phi_threshold <= 0:
            raise SimulationError(f"phi_threshold must be positive, got {phi_threshold!r}")
        if slow_ratio <= 1.0:
            raise SimulationError(f"slow_ratio must exceed 1.0, got {slow_ratio!r}")
        self.phi_threshold = phi_threshold
        self.slow_ratio = slow_ratio
        self._window = window
        self._min_stddev = min_stddev
        self._min_samples = min_samples
        self._peers: dict[Hashable, PhiAccrualDetector] = {}

    def _detector(self, peer: Hashable) -> PhiAccrualDetector:
        detector = self._peers.get(peer)
        if detector is None:
            detector = PhiAccrualDetector(
                window=self._window, min_stddev=self._min_stddev
            )
            self._peers[peer] = detector
        return detector

    def observe(
        self, peer: Hashable, now: float, delay: float | None = None
    ) -> float | None:
        """Record a heartbeat (or any liveness-bearing message) from
        ``peer`` at local time ``now``; returns the inter-arrival.
        ``delay`` is the optional sender-stamped one-way delay, feeding
        the degradation (slowdown) channel."""
        detector = self._detector(peer)
        if delay is not None:
            detector.note_delay(delay)
        return detector.observe(now)

    def phi(self, peer: Hashable, now: float) -> float:
        detector = self._peers.get(peer)
        return 0.0 if detector is None else detector.phi(now)

    def slowdown(self, peer: Hashable) -> float:
        detector = self._peers.get(peer)
        return 1.0 if detector is None else detector.slowdown()

    def samples(self, peer: Hashable) -> int:
        """Observed inter-arrivals for ``peer`` (0 = never heard from).
        Callers use this to tell a *trusted-healthy* verdict from a mere
        lack of evidence."""
        detector = self._peers.get(peer)
        return 0 if detector is None else detector.samples

    def assess(self, peer: Hashable, now: float) -> str:
        """Classify ``peer`` as healthy / degraded / failed right now.

        Silence (``FAILED``) is never suppressed by the warm-up gate —
        a peer that stopped heartbeating two samples in is just as dead
        as one with a full window.  The *degraded* verdict, by contrast,
        compares against a learned baseline and needs ``min_samples`` of
        evidence before it is trustworthy."""
        detector = self._peers.get(peer)
        if detector is None:
            return HEALTHY
        phi = detector.phi(now)
        if phi >= self.phi_threshold:
            return FAILED
        if detector.samples < self._min_samples:
            return HEALTHY
        if detector.slowdown() >= self.slow_ratio or phi >= self.phi_threshold / 2.0:
            return DEGRADED
        return HEALTHY

    def forget(self, peer: Hashable) -> None:
        """Drop ``peer``'s history (it changed role or was replaced)."""
        self._peers.pop(peer, None)
