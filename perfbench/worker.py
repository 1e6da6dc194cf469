"""One pass of one workload in a fresh process.

``run.py`` spawns this (``python -m perfbench.worker``, with ``src`` and the
repo root on ``PYTHONPATH``) so that peak RSS, import cost and the
class-global event counters never bleed between runs.  Prints one JSON object on the
last line of stdout.  ``--probe`` stops after set-up (for ``setup_s``);
``--trace`` installs the span wrappers before anything is built.
"""

import sys
import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402

from perfbench import workloads  # noqa: E402  (imports repro)
from repro.bench.stats import percentile  # noqa: E402
from repro.checkers import consensus, linearizability, txn  # noqa: E402

_IMPORTED = time.perf_counter()


def _peak_rss_mb() -> float:
    """This process's high-water RSS.  Read from VmHWM, not ``ru_maxrss``:
    the latter survives fork + exec, so a worker would report at least its
    parent's footprint."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _max_gap_ms(history, start: float, end: float) -> float:
    """Longest stretch of ``[start, end]`` with no completed operation."""
    times = sorted(op.returned_at for op in history.operations if start <= op.returned_at <= end)
    edges = [start, *times, end]
    return max(b - a for a, b in zip(edges, edges[1:])) * 1e3


def _message_count(groups, type_names, sender_is_client=None) -> int:
    """Messages sent whose type is in ``type_names`` (whole run)."""
    total = 0
    for group in groups:
        for address, node in group.cluster.obs.metrics.nodes.items():
            is_client = isinstance(address, tuple) and address[:1] == ("client",)
            if sender_is_client is not None and is_client != sender_is_client:
                continue
            total += sum(node.sent[name] for name in type_names)
    return total


def _check(cell, sharded: bool) -> dict:
    """Linearizability over the (merged) history, consensus per group, and
    2PC atomicity on the sharded run — what ``verify()`` runs, timed apart."""
    started = time.perf_counter()
    history = cell.target.history.snapshot()
    linearizable = linearizability.check_history(history).ok
    mid = time.perf_counter()
    consensus_ok = all(consensus.check_deployment(group).ok for group in cell.groups)
    atomic = txn.check_txn_atomicity(cell.target).ok if sharded else True
    return {
        "linearizable": bool(linearizable),
        "consensus_ok": bool(consensus_ok),
        "txn_atomic": bool(atomic),
        "linearizability_s": mid - started,
        "consensus_s": time.perf_counter() - mid,
        "ops_checked": len(history),
    }


def _untraced_stats(cell, result, check, counts, events, wall, cpu, gc_runs) -> dict:
    """Per-layer numbers read off public counters; exact for a fixed seed
    (the host.* ones excepted)."""
    groups = cell.groups
    loop = cell.target.cluster.loop
    ops = max(1, sum(client.completed for client in cell.clients()))
    net = [group.cluster.network.stats for group in groups]
    sent = sum(s.messages_sent for s in net)
    servers = [server for group in groups for server in group.cluster.servers.values()]
    busiest = max(servers, key=lambda server: server.stats.busy_seconds)
    disks = [
        disk
        for group in groups
        for disk in (group.disk_for(node) for node in group.config.node_ids)
        if disk is not None
    ]
    syncs = sum(disk.fsyncs for disk in disks)
    invocations = _message_count(groups, ("ClientRequest",), sender_is_client=True)
    n = groups[0].config.n
    bench = cell.bench
    committed = getattr(bench, "txns_committed", 0)
    aborted = getattr(bench, "txns_aborted", 0)
    breakdowns = [
        b for group in groups for b in group.cluster.obs.tracer.breakdowns()
    ]

    def mean_ms(key: str) -> float:
        return statistics.fmean(b[key] for b in breakdowns) * 1e3 if breakdowns else 0.0

    return {
        "sim.clock.events": events,
        "sim.clock.events_batched": loop.events_batched,
        "sim.clock.events_per_op": events / ops,
        "sim.clock.compactions": loop.compactions,
        "sim.network.messages_sent": sent,
        "sim.network.messages_dropped": sum(s.messages_dropped for s in net),
        "sim.network.msgs_per_op": sent / ops,
        "sim.network.bytes_per_op": sum(s.bytes_sent for s in net) / ops,
        "sim.server.leader_utilization": busiest.stats.utilization(cell.target.now),
        "sim.server.leader_wait_ms": busiest.stats.mean_wait() * 1e3,
        "sim.storage.syncs": syncs,
        "sim.storage.syncs_per_op": syncs / ops,
        "paxi.node.shed": sum(r.shed_count for g in groups for r in g.replicas.values()),
        "paxi.client.retries": invocations - counts["requests_issued"],
        "paxi.history.ops": len(cell.target.history),
        "paxi.recovery.catchup_virtual_ms": cell.notes.get("catchup_virtual_ms", 0.0),
        "protocols.elections": _message_count(groups, ("P1a", "RequestVote")) // (n - 1),
        "protocols.handoffs": _message_count(groups, ("Handoff",)),
        "bench.openloop.offered": getattr(result, "offered", 0),
        # Arrivals fire at exact virtual instants: lateness is 0 by
        # construction of a simulated generator.
        "bench.openloop.late_ms": 0.0,
        "bench.max_gap_ms": counts["max_gap_ms"],
        "obs.tracing.wq_ms": mean_ms("wq"),
        "obs.tracing.ts_ms": mean_ms("ts"),
        "obs.tracing.dl_ms": mean_ms("dl"),
        "obs.tracing.dq_ms": mean_ms("dq"),
        "checkers.linearizability_s": check["linearizability_s"],
        "checkers.consensus_s": check["consensus_s"],
        "checkers.ops_checked": check["ops_checked"],
        "shard.txn.committed": committed,
        "shard.txn.aborted": aborted,
        "shard.txn.commit_ratio": committed / (committed + aborted) if committed + aborted else 0.0,
        "host.cpu_s": cpu,
        "host.us_per_op": wall * 1e6 / ops,
        "host.us_per_event": wall * 1e6 / max(1, events),
        "host.gc_collections": gc_runs,
    }


def _traced_stats(tracer, wall: float, gc_s: float, cost: dict) -> dict:
    """Per-layer host self times and call counts from the span aggregates,
    corrected for the wrappers' own cost."""
    from perfbench.spans import OTHER

    # Span name -> self seconds less the wrappers' calibrated share of it.
    corrected = {
        name: max(0.0, own - (count * cost["inner_ns"] + children * cost["outer_ns"]) * 1e-9)
        for name, (count, own, children, _index) in tracer.acc.items()
    }
    layer_self: dict[str, float] = {}
    for name, seconds in corrected.items():
        layer = name.split(":")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds

    def calls(*names: str) -> int:
        return sum(tracer.acc[name][0] for name in names if name in tracer.acc)

    def self_s(layer: str) -> float:
        return layer_self.get(layer, 0.0)

    def layer_calls(layer: str) -> int:
        return sum(acc[0] for name, acc in tracer.acc.items() if name.split(":")[0] == layer)

    schedule_self = corrected.get("sim.clock:schedule", 0.0)
    persists = calls("sim.storage:persist")
    flushed = sum(b.batches_flushed for b in tracer.batchers)
    samples = sorted(tracer.handler_self_us)
    named = sum(acc[1] for name, acc in tracer.acc.items() if name.split(":")[0] != OTHER)
    return {
        "sim.clock.cancelled": calls("sim.clock:cancel"),
        "sim.clock.self_s": self_s("sim.clock") - schedule_self,
        "sim.clock.schedule_calls": calls("sim.clock:schedule"),
        "sim.clock.schedule_self_s": schedule_self,
        "sim.network.transit_calls": calls("sim.network:transit"),
        "sim.network.self_s": self_s("sim.network"),
        "sim.server.submit_calls": calls("sim.server:submit", "sim.server:submit_priority"),
        "sim.server.self_s": self_s("sim.server"),
        "sim.random.draws": layer_calls("sim.random"),
        "sim.random.self_s": self_s("sim.random"),
        "sim.storage.persist_calls": persists,
        "sim.storage.self_s": self_s("sim.storage"),
        "paxi.node.receive_calls": calls("paxi.node:on_network_receive"),
        "paxi.node.send_calls": calls("paxi.node:send"),
        "paxi.node.multicast_calls": calls("paxi.node:multicast"),
        "paxi.node.self_s": self_s("paxi.node"),
        "paxi.node.batch_mean_size": (
            sum(b.commands_flushed for b in tracer.batchers) / flushed if flushed else 0.0
        ),
        "paxi.client.invoke_calls": calls("paxi.client:invoke"),
        "paxi.client.self_s": self_s("paxi.client"),
        "paxi.history.self_s": self_s("paxi.history"),
        "paxi.kvstore.execute_calls": calls("paxi.kvstore:execute"),
        "paxi.kvstore.self_s": self_s("paxi.kvstore"),
        "paxi.quorum.ack_calls": calls("paxi.quorum:ack"),
        "paxi.quorum.self_s": self_s("paxi.quorum"),
        "paxi.lease.self_s": self_s("paxi.lease"),
        "paxi.detector.self_s": self_s("paxi.detector"),
        "paxi.recovery.self_s": self_s("paxi.recovery"),
        "protocols.handler_calls": calls("protocols:handler"),
        "protocols.self_s": self_s("protocols"),
        "protocols.handler_self_us_p50": percentile(samples, 0.5) if samples else 0.0,
        "protocols.log.calls": layer_calls("protocols.log"),
        "protocols.log.self_s": self_s("protocols.log"),
        "protocols.graph.calls": layer_calls("protocols.graph"),
        "protocols.graph.self_s": self_s("protocols.graph"),
        "bench.workload.next_command_calls": calls("bench.workload:next_command"),
        "bench.workload.self_s": self_s("bench.workload"),
        "bench.driver.self_s": self_s("bench.driver"),
        "obs.metrics.calls": layer_calls("obs.metrics"),
        "obs.metrics.self_s": self_s("obs.metrics"),
        "obs.tracing.events": layer_calls("obs.tracing"),
        "obs.tracing.self_s": self_s("obs.tracing"),
        "shard.cluster.self_s": self_s("shard.cluster"),
        "shard.cluster.steps": calls(
            "shard.cluster:run_until", "shard.cluster:run_for", "shard.cluster:drain"
        ),
        "shard.txn.self_s": self_s("shard.txn"),
        "shard.placement.self_s": self_s("shard.placement"),
        "host.gc_s": gc_s,
        "host.other_self_s": self_s(OTHER),
        # Raw (uncorrected) span time in named layers over the traced
        # wall: how much of the run the wrapping reaches at all.
        "host.attributed_share": named / wall,
        "host.trace_wrapper_ns": cost["total_ns"],
    }


def _write_trace(path: str, tracer, stats: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    document = {
        "columns": ["name", "start_us", "end_us", "parent", "request"],
        "requests": tracer.requests,
        "aggregates": {
            name: {"calls": a[0], "self_s": a[1], "children": a[2]}
            for name, a in sorted(tracer.acc.items())
        },
        "per_layer": stats,
        "spans": tracer.kept_spans(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        # dumps (not dump): one shot through the C encoder.
        handle.write(json.dumps(document, separators=(",", ":")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    cost = None
    calib_s = None
    if args.trace and not args.probe:
        from perfbench import calib, spans

        calib_s = calib.host_calibration()
        cost = calib.wrapper_cost()
        tracer = spans.SpanTracer()
        tracer.install()

    build_started = time.perf_counter()
    cell = workloads.WORKLOADS[args.workload].build(args.seed)
    built = time.perf_counter()
    setup = {
        "import_s": _IMPORTED - _STARTED,
        "build_s": built - build_started,
        "ready_at": time.time(),
    }
    if args.probe:
        print(json.dumps(setup))
        return 0

    gc_s = [0.0, 0.0]  # [total, start of the collection in progress]
    if tracer is not None:

        def on_gc(phase, _info):
            if phase == "start":
                gc_s[1] = time.perf_counter()
            else:
                gc_s[0] += time.perf_counter() - gc_s[1]

        gc.callbacks.append(on_gc)
    gc_before = sum(generation["collections"] for generation in gc.get_stats())
    loop = cell.target.cluster.loop
    sharded = len(cell.groups) > 1

    if tracer is not None:
        tracer.reset()
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    result = cell.run(workloads.virtual_factor(args.seconds))
    check = _check(cell, sharded)
    wall = time.perf_counter() - wall_started
    cpu = time.process_time() - cpu_started
    gc_runs = sum(generation["collections"] for generation in gc.get_stats()) - gc_before

    attempted, ok = cell.tally(cell, result)
    window_end = cell.target.now - cell.drain_s
    clients = cell.clients()
    counts = {
        "attempted": attempted,
        "ok": ok,
        "no_reply": sum(c.failed for c in clients) + cell.target.history.in_flight,
        "completed_in_window": result.completed,
        "requests_issued": sum(c.completed + c.failed for c in clients)
        + cell.target.history.in_flight,
        "max_gap_ms": _max_gap_ms(cell.target.history, window_end - result.window, window_end),
    }
    events = loop.events_fired
    latency = result.latency
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": tracer is not None,
        "setup": setup,
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "sim": {
            "sim_throughput_ops_s": result.throughput,
            "sim_latency_p50_ms": latency.p50,
            "sim_latency_p99_ms": latency.p99,
            "ok_ops_share": ok / attempted if attempted else 0.0,
            "latency_samples": latency.count,
        },
        "counts": counts,
        "check": check,
        "notes": cell.notes,
        "stats": _untraced_stats(cell, result, check, counts, events, wall, cpu, gc_runs),
    }
    if tracer is not None:
        traced = _traced_stats(tracer, wall, gc_s[0], cost)
        traced["host.calib_s"] = calib_s
        persists = traced["sim.storage.persist_calls"]
        syncs = out["stats"]["sim.storage.syncs"]
        traced["sim.storage.records_per_sync"] = persists / syncs if syncs else 0.0
        out["traced_stats"] = traced
        if args.trace_out:
            _write_trace(args.trace_out, tracer, traced)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
