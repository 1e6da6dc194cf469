"""Seeded random-number streams.

Each simulation component (network pair latencies, workload generation,
service-time jitter, ...) draws from its own named stream so that adding a
new consumer of randomness does not perturb the draws seen by existing ones.
Streams are derived deterministically from a single root seed; each one is a
plain ``random.Random``.
"""

from __future__ import annotations

import random
import zlib


class PooledRandom(random.Random):
    """The class of every seeded stream: ``random.Random``, nothing added.

    The name and the three re-bound methods exist for ``perfbench/spans.py``,
    which imports this class by name and wraps the Python-level methods it
    finds in ``vars()`` (``random()`` itself is a C method and is not seen).
    """

    gauss = random.Random.gauss
    uniform = random.Random.uniform
    expovariate = random.Random.expovariate


class RandomStreams:
    """A family of independent ``random.Random`` streams under one seed."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The per-stream seed mixes the root seed with a CRC of the name, so
        distinct names yield (practically) independent streams and the same
        (seed, name) pair always yields the same sequence.
        """
        rng = self._streams.get(name)
        if rng is None:
            substream_seed = (self._seed << 32) ^ zlib.crc32(name.encode("utf-8"))
            rng = PooledRandom(substream_seed)
            self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child family of streams (e.g. one per cluster).

        The parent seed is shifted clear of the 32-bit CRC before mixing,
        so distinct ``(seed, name)`` pairs can only collide if the names
        themselves CRC-collide — a ``<< 16`` shift would let the seed's low
        bits alias against the CRC's high half (two different parents
        spawning two different names could land on the same child seed).
        """
        child_seed = (self._seed << 32) ^ zlib.crc32(name.encode("utf-8"))
        return RandomStreams(child_seed)


def truncated_normal(rng: random.Random, mu: float, sigma: float, floor: float = 0.0) -> float:
    """Sample Normal(mu, sigma) truncated below at ``floor`` by resampling.

    Network delays are modeled as normal per the paper (Figure 3) but can
    never be negative; resampling preserves the shape near the mean far
    better than clamping when ``mu`` is several sigmas above ``floor``.

    The first draw is unrolled: with realistic parameters (``mu`` several
    sigmas above ``floor``) it almost always succeeds, so the common case
    is a single ``gauss`` call with no loop setup.  Callers that inline
    that first draw themselves fall back to :func:`resample_above`, which
    continues the *same* draw sequence — 64 draws total either way, so the
    RNG stream is bit-identical however the sample is taken.
    """
    value = rng.gauss(mu, sigma)
    if value > floor:
        return value
    return resample_above(rng, mu, sigma, floor)


def resample_above(rng: random.Random, mu: float, sigma: float, floor: float) -> float:
    """Draws 2..64 of :func:`truncated_normal`, after a failed first draw."""
    for _ in range(63):
        value = rng.gauss(mu, sigma)
        if value > floor:
            return value
    # Pathological parameters (mu far below floor): fall back to the floor
    # plus a small positive offset so the simulation can proceed.
    return floor + abs(sigma) * 1e-3
