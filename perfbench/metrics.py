"""Metric registry: every name the benchmark prints, with unit, direction,
and (end-to-end) regression bound or (per-layer) the end-to-end metric it
is expected to move.  ``BENCHMARK.json`` is generated from this table
(``python -m perfbench --write-spec``) and ``test_perfbench.py`` checks the
two agree.

Two kinds of number, and every name says which: **host** time is what the
person running the simulator waits for; ``sim_`` metrics are virtual-time
results of the modelled protocol, exact for a fixed seed.
"""

from __future__ import annotations

import re
from typing import NamedTuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the parent's median it may worsen by
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric it is expected to move
    source: str  # which pass of a --trace 1 run it is read from: "traced" | "untraced"


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "wall_s", "s", "lower", 0.25,
        "host perf_counter over run() (settle + warm-up + window) + drain + checkers; "
        "work is fixed by seed and --seconds",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "worker spawn -> load driver constructed (interpreter start, imports, Config, "
        "Deployment.start); median of 5 fresh-process probes after one discarded",
    ),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, "ru_maxrss of the untraced worker at exit"),
    EndToEnd(
        "sim_throughput_ops_s", "ops/sim_s", "higher", 0.06,
        "completed ops in the measured window / window (goodput for the open-loop run)",
    ),
    EndToEnd("sim_latency_p50_ms", "sim_ms", "lower", 0.10, "median request latency"),
    EndToEnd(
        "sim_latency_p99_ms", "sim_ms", "lower", 0.20,
        "p99 request latency; on fault_openloop_checked this is the failover",
    ),
    EndToEnd(
        "ok_ops_share", "ratio", "higher", 0.01,
        "logical ops that succeeded / attempted; no-reply requests and aborted "
        "transactions count against it (1 - ISSUE-11's failed_ops_share)",
    ),
)


def _layer(prefix: str, moves: str, *specs: str) -> list[PerLayer]:
    """``specs`` are ``name:unit:better[:u]`` with the layer prefix left
    off; ``:u`` marks a number read from the untraced pass (public
    counters, exact for a fixed seed unless it is a host time)."""
    out = []
    for spec in specs:
        name, unit, better, *rest = spec.split(":")
        out.append(PerLayer(f"{prefix}.{name}", unit, better, moves, "untraced" if rest else "traced"))
    return out


PER_LAYER: tuple[PerLayer, ...] = tuple(
    _layer(
        "sim.clock", "wall_s",
        "events:count:lower:u", "events_batched:count:higher:u",
        "events_per_op:1/op:lower:u", "compactions:count:lower:u",
        "cancelled:count:lower", "self_s:s:lower", "schedule_calls:count:lower",
        "schedule_self_s:s:lower",
    )
    + _layer(
        "sim.network", "wall_s",
        "transit_calls:count:lower", "self_s:s:lower",
        "messages_sent:count:lower:u", "messages_dropped:count:lower:u",
        "msgs_per_op:1/op:lower:u", "bytes_per_op:B/op:lower:u",
    )
    + _layer(
        "sim.server", "sim_latency_p99_ms",
        "submit_calls:count:lower", "self_s:s:lower",
        "leader_utilization:ratio:lower:u", "leader_wait_ms:sim_ms:lower:u",
    )
    + _layer("sim.random", "wall_s", "draws:count:lower", "self_s:s:lower")
    + _layer(
        "sim.storage", "sim_throughput_ops_s",
        "persist_calls:count:lower", "syncs:count:lower:u",
        "syncs_per_op:1/op:lower:u", "records_per_sync:ratio:higher", "self_s:s:lower",
    )
    + _layer(
        "paxi.node", "wall_s",
        "receive_calls:count:lower", "send_calls:count:lower", "multicast_calls:count:lower",
        "self_s:s:lower", "batch_mean_size:ratio:higher", "shed:count:lower:u",
    )
    + _layer(
        "paxi.client", "wall_s",
        "invoke_calls:count:lower", "retries:count:lower:u", "self_s:s:lower",
    )
    + _layer("paxi.history", "peak_rss_mb", "ops:count:lower:u", "self_s:s:lower")
    + _layer("paxi.kvstore", "wall_s", "execute_calls:count:lower", "self_s:s:lower")
    + _layer("paxi.quorum", "wall_s", "ack_calls:count:lower", "self_s:s:lower")
    + _layer("paxi.lease", "wall_s", "self_s:s:lower")
    + _layer("paxi.detector", "sim_latency_p99_ms", "self_s:s:lower")
    + _layer(
        "paxi.recovery", "sim_latency_p99_ms", "self_s:s:lower", "catchup_virtual_ms:sim_ms:lower:u"
    )
    + _layer(
        "protocols", "wall_s",
        "handler_calls:count:lower", "self_s:s:lower", "handler_self_us_p50:us:lower",
        "elections:count:lower:u", "handoffs:count:lower:u",
        "log.calls:count:lower", "log.self_s:s:lower",
        "graph.calls:count:lower", "graph.self_s:s:lower",
    )
    + _layer(
        "bench", "wall_s",
        "workload.next_command_calls:count:lower", "workload.self_s:s:lower",
        "driver.self_s:s:lower", "openloop.offered:count:higher:u",
        "openloop.late_ms:sim_ms:lower:u", "max_gap_ms:sim_ms:lower:u",
    )
    + _layer(
        "obs", "wall_s",
        "metrics.calls:count:lower", "metrics.self_s:s:lower",
        "tracing.events:count:lower", "tracing.self_s:s:lower",
        "tracing.wq_ms:sim_ms:lower:u", "tracing.ts_ms:sim_ms:lower:u",
        "tracing.dl_ms:sim_ms:lower:u", "tracing.dq_ms:sim_ms:lower:u",
    )
    + _layer(
        "checkers", "wall_s",
        "linearizability_s:s:lower:u", "consensus_s:s:lower:u",
        "ops_checked:count:lower:u",
    )
    + _layer(
        "shard", "wall_s",
        "cluster.self_s:s:lower", "cluster.steps:count:lower", "txn.self_s:s:lower",
        "txn.committed:count:higher:u", "txn.aborted:count:lower:u",
        "txn.commit_ratio:ratio:higher:u", "placement.self_s:s:lower",
    )
    + _layer(
        "host", "wall_s",
        "import_s:s:lower:u", "build_s:s:lower:u", "cpu_s:s:lower:u",
        "us_per_op:us/op:lower:u", "us_per_event:us/event:lower:u",
        "gc_s:s:lower", "gc_collections:count:lower:u", "calib_s:s:lower",
        "other_self_s:s:lower", "attributed_share:ratio:higher",
        "trace_overhead_ratio:ratio:lower", "trace_wrapper_ns:ns:lower",
    )
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}

#: Equal for a fixed seed across repeats and between the traced and the
#: untraced run; any difference is a hard failure, not noise.
DETERMINISTIC = (
    "sim_throughput_ops_s",
    "sim_latency_p50_ms",
    "sim_latency_p99_ms",
    "ok_ops_share",
    "attempted",
    "ok",
    "no_reply",
    "completed_in_window",
    "sim.clock.events",
)
