"""Benchmark driver for sharded clusters.

:class:`~repro.bench.benchmarker.ClosedLoopBenchmark` already runs against
a :class:`~repro.shard.cluster.ShardedCluster` unchanged — the cluster
hands out routing clients and quacks like a deployment.  This module adds
the two pieces sharding benchmarks need on top:

- :class:`ShardedClosedLoopBenchmark` — mixes cross-shard transactions
  into the closed loop (``txn_ratio`` of the issues run a ``txn_keys``-key
  2PC write instead of a single command), so the coordination tax of
  :class:`repro.core.sharding.ShardedCapacityModel` is measurable;
- :class:`ShardedDeploymentFactory` + :func:`sharded_closed_loop_sweep` —
  the picklable factory/sweep pair that lets sharded saturation sweeps fan
  out over worker processes exactly like the single-group ones.

A completed ``k``-key transaction contributes ``k`` records to the latency/
throughput bookkeeping (each carrying the whole transaction's latency):
throughput stays "logical operations per second", directly comparable
between the mixed and pure workloads and to the analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.bench.benchmarker import ClosedLoopBenchmark, SpecBySite
from repro.bench.sweep import SweepPoint
from repro.bench.workload import WorkloadGenerator
from repro.errors import WorkloadError
from repro.paxi.client import Client
from repro.paxi.config import Config
from repro.shard.cluster import ShardedCluster
from repro.shard.placement import ShardSpec
from repro.shard.txn import ShardedTxnRuntime, TxnResult


class ShardedClosedLoopBenchmark(ClosedLoopBenchmark):
    """Closed-loop load over a sharded cluster with a 2PC transaction mix.

    Each driver keeps one *logical operation* outstanding; with probability
    ``txn_ratio`` that operation is a cross-shard transaction writing
    ``txn_keys`` distinct keys through the two-phase commit layer, otherwise
    it is an ordinary single-key command.  Aborted transactions (lock
    conflicts) are counted in :attr:`txns_aborted` and re-issued like any
    failed closed-loop op.
    """

    def __init__(
        self,
        cluster: ShardedCluster,
        spec: SpecBySite,
        concurrency: int = 1,
        sites: list[str] | None = None,
        retry_timeout: float | None = None,
        txn_ratio: float = 0.0,
        txn_keys: int = 2,
    ) -> None:
        if not 0.0 <= txn_ratio <= 1.0:
            raise WorkloadError(f"txn_ratio must be in [0, 1], got {txn_ratio}")
        if txn_keys < 2:
            raise WorkloadError(f"txn_keys must be >= 2, got {txn_keys}")
        super().__init__(cluster, spec, concurrency, sites, retry_timeout)
        self.cluster = cluster
        self.txn_ratio = txn_ratio
        self.txn_keys = txn_keys
        self.txns_committed = 0
        self.txns_aborted = 0
        self.singles_completed = 0
        self._txn_rng = cluster.cluster.streams.stream("shard-bench-txn-mix")
        # One runtime per driver, sharing the driver's routing client.
        self._runtimes: dict[int, ShardedTxnRuntime] = {
            id(client): ShardedTxnRuntime(cluster, client=client)
            for client, _gen in self._drivers
        }

    def cross_shard_fraction(self) -> float:
        """Measured ``f``: fraction of completed logical ops that ran
        inside a committed cross-shard transaction."""
        txn_ops = self.txns_committed * self.txn_keys
        total = txn_ops + self.singles_completed
        return txn_ops / total if total else 0.0

    def _issue(self, client: Client, generator: WorkloadGenerator) -> None:
        if self.txn_ratio > 0.0 and self._txn_rng.random() < self.txn_ratio:
            self._issue_txn(client, generator)
        else:
            self._issue_single(client, generator)

    def _issue_single(self, client: Client, generator: WorkloadGenerator) -> None:
        # The base class's loop body, plus the singles counter that
        # cross_shard_fraction needs (client.completed also counts the 2PC
        # layer's internal lock/write traffic, so it cannot be used).
        command = generator.next_command(self.deployment.now)

        def done(_reply, latency: float) -> None:
            now = self.deployment.now
            self.singles_completed += 1
            self._state.record(now, latency, client.site)
            if now < self._state.end_time:
                self._issue(client, generator)

        client.invoke(command, on_done=done)

    def _issue_txn(self, client: Client, generator: WorkloadGenerator) -> None:
        now = self.deployment.now
        keys: set = set()
        attempts = 0
        while len(keys) < self.txn_keys and attempts < 32 * self.txn_keys:
            keys.add(generator._next_key(now))
            attempts += 1
        writes = {
            key: f"{generator.name}#{next(generator._counter)}" for key in sorted(keys)
        }

        def done(result: TxnResult) -> None:
            end = self.deployment.now
            if result.ok:
                self.txns_committed += 1
                latency = result.latency_ms / 1e3
                for _ in writes:
                    self._state.record(end, latency, client.site)
            else:
                self.txns_aborted += 1
            if end < self._state.end_time:
                self._issue(client, generator)

        self._runtimes[id(client)].begin(writes, [], on_done=done)


@dataclass(frozen=True)
class ShardedDeploymentFactory:
    """Picklable ``make`` callable for sharded sweeps: protocol + config
    (+ optional shard-spec override), mirroring
    :class:`repro.bench.parallel.DeploymentFactory`."""

    protocol: type
    config: Config
    spec: ShardSpec | None = None

    def __call__(self) -> ShardedCluster:
        return ShardedCluster(self.config, spec=self.spec).start(self.protocol)


def _sharded_sweep_point(
    make_cluster: Callable[[], ShardedCluster],
    spec: SpecBySite,
    concurrency: int,
    duration: float,
    warmup: float,
    settle: float,
    sites: list[str] | None,
    txn_ratio: float,
    txn_keys: int,
) -> SweepPoint:
    """One fresh sharded cluster + one run (module-level for workers)."""
    cluster = make_cluster()
    bench = ShardedClosedLoopBenchmark(
        cluster, spec, concurrency, sites, txn_ratio=txn_ratio, txn_keys=txn_keys
    )
    result = bench.run(duration, warmup, settle)
    return SweepPoint(
        concurrency=concurrency,
        throughput=result.throughput,
        mean_latency_ms=result.latency.mean,
        p50_latency_ms=result.latency.p50,
        p99_latency_ms=result.latency.p99,
        completed=result.completed,
    )


def sharded_closed_loop_sweep(
    make_cluster: Callable[[], ShardedCluster],
    spec: SpecBySite,
    concurrencies: Sequence[int],
    duration: float = 1.0,
    warmup: float = 0.2,
    settle: float = 0.5,
    sites: list[str] | None = None,
    txn_ratio: float = 0.0,
    txn_keys: int = 2,
    workers: int = 1,
) -> list[SweepPoint]:
    """Saturation sweep over a sharded cluster (one fresh cluster per
    level); with ``workers > 1``, ``make_cluster`` must be picklable — use
    :class:`ShardedDeploymentFactory`."""
    from repro.bench.parallel import run_grid

    jobs = [
        (
            _sharded_sweep_point,
            (make_cluster, spec, concurrency, duration, warmup, settle, sites,
             txn_ratio, txn_keys),
        )
        for concurrency in concurrencies
    ]
    return run_grid(jobs, workers=workers)
