"""Benchmark CLI, in the spirit of Paxi's benchmark runner.

Examples::

    python -m repro.bench --protocol paxos --zones 3 --nodes-per-zone 3 \\
        --clients 16 --duration 1.0
    python -m repro.bench --protocol wpaxos --wan VA OH CA --distribution normal
    python -m repro.bench --protocol epaxos --conflicts 40 --check

Workload flags follow the paper's Table 3 names (K, W, Distribution,
Conflicts, Mu/Sigma/Move/Speed, Zipfian s/v).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.protocols.epaxos import EPaxos
from repro.protocols.fpaxos import FPaxos
from repro.protocols.mencius import Mencius
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft
from repro.protocols.vpaxos import VPaxos
from repro.protocols.wankeeper import WanKeeper
from repro.protocols.wpaxos import WPaxos

PROTOCOLS = {
    "paxos": MultiPaxos,
    "fpaxos": FPaxos,
    "raft": Raft,
    "epaxos": EPaxos,
    "mencius": Mencius,
    "wpaxos": WPaxos,
    "wankeeper": WanKeeper,
    "vpaxos": VPaxos,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description="Run a Paxi-style benchmark."
    )
    parser.add_argument("--protocol", choices=sorted(PROTOCOLS), default="paxos")
    parser.add_argument("--zones", type=int, default=3)
    parser.add_argument("--nodes-per-zone", type=int, default=3)
    parser.add_argument("--wan", nargs="+", metavar="REGION", default=None,
                        help="deploy zones across these AWS regions instead of a LAN")
    parser.add_argument("--seed", type=int, default=0)
    # Table 3 workload parameters.
    parser.add_argument("--keys", "-K", type=int, default=1000)
    parser.add_argument("--write-ratio", "-W", type=float, default=0.5)
    parser.add_argument(
        "--distribution", choices=["uniform", "normal", "zipfian", "exponential"],
        default="uniform",
    )
    parser.add_argument("--conflicts", type=float, default=0.0,
                        help="percentage of requests aimed at the hot key")
    parser.add_argument("--mu", type=float, default=0.0)
    parser.add_argument("--sigma", type=float, default=60.0)
    parser.add_argument("--move", action="store_true")
    parser.add_argument("--speed", type=float, default=500.0, help="hotspot speed (ms/key)")
    parser.add_argument("--zipfian-s", type=float, default=2.0)
    parser.add_argument("--zipfian-v", type=float, default=1.0)
    # Batching / pipelining knobs.
    parser.add_argument("--batch-size", type=int, default=1,
                        help="max commands coalesced into one log entry (1 = off)")
    parser.add_argument("--batch-window", type=float, default=None, metavar="SECONDS",
                        help="virtual seconds the leader waits to fill a batch")
    parser.add_argument("--pipeline-depth", type=int, default=None,
                        help="max consensus instances in flight at the leader")
    # Run shape.
    parser.add_argument("--clients", type=int, default=16, help="closed-loop concurrency")
    parser.add_argument("--duration", "-T", type=float, default=1.0, help="virtual seconds")
    parser.add_argument("--warmup", type=float, default=0.2)
    parser.add_argument("--check", action="store_true",
                        help="run the linearizability + consensus checkers at the end")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the hottest functions "
                             "plus event-loop counters")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.profile:
        from repro.bench.profiling import maybe_profiled

        with maybe_profiled(True, label=f"bench:{args.protocol}"):
            return _execute(args)
    return _execute(args)


def _execute(args: argparse.Namespace) -> int:
    batching = dict(
        batch_size=args.batch_size,
        batch_window=args.batch_window,
        pipeline_depth=args.pipeline_depth,
    )
    if args.wan is not None:
        config = Config.wan(tuple(args.wan), args.nodes_per_zone, seed=args.seed, **batching)
    else:
        config = Config.lan(args.zones, args.nodes_per_zone, seed=args.seed, **batching)
    deployment = Deployment(config).start(PROTOCOLS[args.protocol])
    spec = WorkloadSpec(
        keys=args.keys,
        write_ratio=args.write_ratio,
        distribution=args.distribution,
        conflict_ratio=args.conflicts / 100.0 if args.conflicts > 1 else args.conflicts,
        mu=args.mu,
        sigma=args.sigma,
        move=args.move,
        speed_ms=args.speed,
        zipfian_s=args.zipfian_s,
        zipfian_v=args.zipfian_v,
    )
    bench = ClosedLoopBenchmark(deployment, spec, args.clients)
    result = bench.run(duration=args.duration, warmup=args.warmup)
    latency = result.latency
    print(f"protocol:    {args.protocol} on {config.n} nodes "
          f"({'WAN ' + '/'.join(args.wan) if args.wan else 'LAN'})")
    if config.batching_enabled:
        window = "off" if config.batch_window is None else f"{config.batch_window * 1e3:g}ms"
        depth = "unbounded" if config.pipeline_depth is None else str(config.pipeline_depth)
        print(f"batching:    B={config.batch_size} window={window} pipeline={depth}")
    print(f"throughput:  {result.throughput:.0f} ops/s ({result.completed} ops)")
    print(f"latency ms:  mean={latency.mean:.3f} p50={latency.p50:.3f} "
          f"p95={latency.p95:.3f} p99={latency.p99:.3f}")
    for site, summary in sorted(result.per_site.items()):
        print(f"  {site}: mean={summary.mean:.3f} ms ({summary.count} ops)")
    if args.check:
        deployment.run_for(0.5)
        linearizable, consensus = deployment.verify()
        print(f"linearizable: {linearizable}")
        print(f"consensus:    {consensus}")
        if not (linearizable and consensus):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
