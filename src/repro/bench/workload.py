"""Workload generation (paper Table 3 and Figure 6).

The Paxi benchmarker generates tunable workloads over a pool of ``K`` keys:

- key popularity follows a **uniform**, **normal**, **zipfian**, or
  **exponential** distribution (Figure 6);
- ``write_ratio`` splits reads from writes;
- a **conflict** knob sends a fraction of requests to one designated hot
  key that every region shares (the paper's WAN conflict experiments,
  section 5.3);
- **locality** is produced by giving each region its own mean ``mu`` for the
  normal distribution, optionally drifting over time (``move``/``speed``),
  so regions mostly touch their own keys with overlapping tails.

Write values are unique per generator so that history checkers can
distinguish every write.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, field, replace

from repro.errors import WorkloadError
from repro.paxi.message import Command

DISTRIBUTIONS = ("uniform", "normal", "zipfian", "exponential")


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one workload, mirroring the paper's Table 3."""

    keys: int = 1000  # K: total number of keys
    write_ratio: float = 0.5  # W
    distribution: str = "uniform"
    min_key: int = 0  # Random: minimum key number
    conflict_ratio: float = 0.0  # fraction of requests aimed at the hot key
    conflict_key: int | None = None  # defaults to min_key
    mu: float = 0.0  # Normal: mean
    sigma: float = 60.0  # Normal: standard deviation
    move: bool = False  # Normal: moving average
    speed_ms: float = 500.0  # Normal: moving speed in milliseconds
    zipfian_s: float = 2.0
    zipfian_v: float = 1.0
    exponential_scale: float | None = None  # defaults to keys / 10
    #: Read path for generated GETs: None (leader round), "lease",
    #: "quorum", or "local" — see ``docs/READS.md``.
    read_mode: str | None = None

    def __post_init__(self) -> None:
        if self.keys < 1:
            raise WorkloadError(f"need at least one key, got {self.keys}")
        if self.read_mode not in Command.READ_MODES:
            raise WorkloadError(
                f"unknown read_mode {self.read_mode!r}; "
                f"expected one of {Command.READ_MODES}"
            )
        if not 0.0 <= self.write_ratio <= 1.0:
            raise WorkloadError(f"write_ratio {self.write_ratio} outside [0, 1]")
        if self.distribution not in DISTRIBUTIONS:
            raise WorkloadError(
                f"unknown distribution {self.distribution!r}; "
                f"expected one of {DISTRIBUTIONS}"
            )
        if not 0.0 <= self.conflict_ratio <= 1.0:
            raise WorkloadError(
                f"conflict_ratio {self.conflict_ratio} outside [0, 1]"
            )

    def with_locality(self, mu: float) -> "WorkloadSpec":
        """A copy whose normal distribution is centered at ``mu`` — the
        paper's per-region locality control."""
        return replace(self, distribution="normal", mu=mu)


@functools.lru_cache(maxsize=16)
def _key_table(min_key: int, keys: int) -> tuple[int, ...]:
    """Every key of a spec, one ``int`` each, shared by all generators over
    the same key range: a drawn key indexes it instead of allocating a
    fresh ``int`` per command (a table per generator would cost more than
    it saves across a few hundred of them)."""
    return tuple(range(min_key, min_key + keys))


@dataclass
class WorkloadGenerator:
    """Draws commands for one client/region from a :class:`WorkloadSpec`."""

    spec: WorkloadSpec
    rng: random.Random
    name: str = "wl"
    _counter: itertools.count = field(default_factory=itertools.count, repr=False)
    _zipf_cdf: list[float] | None = field(default=None, repr=False)
    _keys: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._keys = _key_table(self.spec.min_key, self.spec.keys)

    def next_command(self, now: float = 0.0) -> Command:
        """Generate the next command; ``now`` (seconds) drives the moving
        hotspot when ``spec.move`` is set."""
        key = self._next_key(now)
        if self.rng.random() < self.spec.write_ratio:
            value = f"{self.name}#{next(self._counter)}"
            return Command.put(key, value)
        return Command.get(key, read_mode=self.spec.read_mode)

    # ------------------------------------------------------------------
    # Key selection
    # ------------------------------------------------------------------

    def _next_key(self, now: float) -> int:
        spec = self.spec
        if spec.conflict_ratio > 0.0 and self.rng.random() < spec.conflict_ratio:
            hot = spec.conflict_key if spec.conflict_key is not None else spec.min_key
            return hot
        if spec.distribution == "uniform":
            return self._keys[self.rng.randrange(spec.keys)]
        if spec.distribution == "normal":
            return self._normal_key(now)
        if spec.distribution == "zipfian":
            return self._zipfian_key()
        return self._exponential_key()

    def _normal_key(self, now: float) -> int:
        spec = self.spec
        mu = spec.mu
        if spec.move:
            # The hotspot mean drifts one key every `speed_ms` milliseconds,
            # wrapping around the key space (paper Table 3: Move/Speed).
            mu = (mu + (now * 1e3) / spec.speed_ms) % spec.keys
        offset = int(round(self.rng.gauss(mu, spec.sigma)))
        return self._keys[offset % spec.keys]

    def _zipfian_key(self) -> int:
        spec = self.spec
        if self._zipf_cdf is None:
            weights = [
                1.0 / math.pow(rank + spec.zipfian_v, spec.zipfian_s)
                for rank in range(spec.keys)
            ]
            total = sum(weights)
            cumulative = 0.0
            cdf: list[float] = []
            for w in weights:
                cumulative += w / total
                cdf.append(cumulative)
            self._zipf_cdf = cdf
        index = bisect.bisect_left(self._zipf_cdf, self.rng.random())
        return self._keys[min(index, self.spec.keys - 1)]

    def _exponential_key(self) -> int:
        spec = self.spec
        scale = spec.exponential_scale if spec.exponential_scale is not None else spec.keys / 10.0
        offset = int(self.rng.expovariate(1.0 / scale))
        return self._keys[min(offset, spec.keys - 1)]
