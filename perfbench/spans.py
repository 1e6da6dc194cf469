"""Outside-in span tracing: every layer boundary of ``repro`` is wrapped at
class level from here, before the deployment is built, so ``src/`` is
untouched and an untraced run executes no benchmark code on its hot path.

A span is (name, start, end, parent); spans nest on a stack.  With ~10 M
spans per run they are aggregated as they close — per span name: calls,
self time (duration minus the part covered by child spans) and number of
direct children — and only the spans caused by the first
:data:`TRACE_REQUESTS` client requests are kept whole.  "Caused by" is
tracked by carrying the issuing request through every scheduled event and
queued server job.

Callables that cross a layer boundary as *data* (event callbacks, queued
jobs, reply callbacks, registered handlers, network receivers) are wrapped
where they are handed over and labelled with the module that owns them,
read from ``fn.__module__`` — no private name is spelled here.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array

#: Requests whose full span trees are kept for ``<workload>.trace.json``,
#: and a cap on the spans kept for them (a conflicting EPaxos request
#: causes ~400 spans; the file is ~60 bytes per span).
TRACE_REQUESTS = 2000
TRACE_SPANS = 250_000

# module -> layer; the longest matching prefix wins.  Layers are this
# repo's module names.
_LAYERS = (
    ("repro.sim.clock", "sim.clock"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.server", "sim.server"),
    ("repro.sim.random", "sim.random"),
    ("repro.sim.storage", "sim.storage"),
    ("repro.paxi.node", "paxi.node"),
    ("repro.paxi.protocol", "paxi.node"),
    ("repro.paxi.client", "paxi.client"),
    ("repro.paxi.history", "paxi.history"),
    ("repro.paxi.kvstore", "paxi.kvstore"),
    ("repro.paxi.quorum", "paxi.quorum"),
    ("repro.paxi.lease", "paxi.lease"),
    ("repro.paxi.detector", "paxi.detector"),
    ("repro.paxi.recovery", "paxi.recovery"),
    ("repro.protocols.log", "protocols.log"),
    ("repro.protocols.graph", "protocols.graph"),
    ("repro.protocols", "protocols"),
    ("repro.bench.workload", "bench.workload"),
    ("repro.bench", "bench.driver"),
    ("perfbench", "bench.driver"),
    ("repro.obs.tracing", "obs.tracing"),
    ("repro.obs", "obs.metrics"),
    ("repro.checkers", "checkers"),
    ("repro.shard.txn", "shard.txn"),
    ("repro.shard.placement", "shard.placement"),
    ("repro.shard", "shard.cluster"),
)
#: Layer for code owned by a module the table does not name.
OTHER = "other"


def layer_of(module: str | None) -> str:
    best, best_len = OTHER, 0
    for prefix, layer in _LAYERS:
        if (
            module is not None
            and len(prefix) > best_len
            and (module == prefix or module.startswith(prefix + "."))
        ):
            best, best_len = layer, len(prefix)
    return best


class SpanTracer:
    """Aggregating span stack.  One instance per traced process."""

    def __init__(self) -> None:
        # Per open span: time and count of its closed direct children.
        # Index 0 is a sink for top-level spans.
        self._tstack = [0.0]
        self._nstack = [0]
        # The client request that caused the code now running, or None.
        self._ctx: list = [None]
        #: span name -> [calls, self seconds, direct child spans, name index]
        self.acc: dict[str, list] = {}
        self._by_module: dict[str | None, list] = {}
        # Kept spans, column-wise in typed arrays so that millions of them
        # add nothing for the garbage collector to traverse.
        self._kept_name = array("i")  # index into _names
        self._kept_t0 = array("d")
        self._kept_t1 = array("d")
        self._kept_depth = array("i")
        self._kept_request = array("i")
        self._names: list[str] = []
        self.requests: list[tuple] = []  # request index -> (client, request_id)
        self.handler_self_us = array("d")
        self.batchers: list = []
        self.fire = self._make_fire()

    # -- accumulators ----------------------------------------------------

    def _acc(self, name: str) -> list:
        acc = self.acc.get(name)
        if acc is None:
            acc = self.acc[name] = [0, 0.0, 0, len(self._names)]
            self._names.append(name)
        return acc

    def _module_acc(self, module: str | None) -> list:
        acc = self._by_module.get(module)
        if acc is None:
            acc = self._by_module[module] = self._acc(layer_of(module) + ":callback")
        return acc

    def _keep(self, acc: list, t0: float, t1: float) -> None:
        if len(self._kept_t0) >= TRACE_SPANS:
            return
        self._kept_name.append(acc[3])
        self._kept_t0.append(t0)
        self._kept_t1.append(t1)
        self._kept_depth.append(len(self._tstack))
        self._kept_request.append(self._ctx[0])

    # -- wrappers --------------------------------------------------------

    def span(self, fn, name: str, samples: array | None = None):
        """``fn`` as a span called ``name`` (``layer:op``)."""
        acc = self._acc(name)
        tstack, nstack, ctx, keep = self._tstack, self._nstack, self._ctx, self._keep
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tstack.append(0.0)
            nstack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                duration = t1 - t0
                own = duration - tstack.pop()
                acc[0] += 1
                acc[1] += own
                acc[2] += nstack.pop()
                tstack[-1] += duration
                nstack[-1] += 1
                if samples is not None:
                    samples.append(own * 1e6)
                if ctx[0] is not None:
                    keep(acc, t0, t1)

        wrapper.perfbench_span = True
        return wrapper

    def _make_fire(self):
        """The trampoline scheduled in place of a callback: restores the
        causing request and runs the callback as a span labelled with the
        module that owns it."""
        tstack, nstack, ctx, keep = self._tstack, self._nstack, self._ctx, self._keep
        by_module, module_acc = self._by_module, self._module_acc
        clock = time.perf_counter

        def fire(request, fn, *args):
            module = getattr(fn, "__module__", None)
            acc = by_module.get(module) or module_acc(module)
            previous = ctx[0]
            ctx[0] = request
            tstack.append(0.0)
            nstack.append(0)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                t1 = clock()
                duration = t1 - t0
                acc[0] += 1
                acc[1] += duration - tstack.pop()
                acc[2] += nstack.pop()
                tstack[-1] += duration
                nstack[-1] += 1
                if request is not None:
                    keep(acc, t0, t1)
                ctx[0] = previous

        return fire

    def adopt(self, fn):
        """A long-lived callback handed to another layer (handler,
        receiver, flush function): a span labelled by its owner."""
        if fn is None or getattr(fn, "perfbench_span", False):
            return fn
        return self.span(fn, layer_of(getattr(fn, "__module__", None)) + ":callback")

    def carry(self, fn):
        """A per-call callback (reply, durability): fired under the request
        that is current now."""
        if fn is None:
            return None
        return functools.partial(self.fire, self._ctx[0], fn)

    # -- installation ------------------------------------------------------

    def wrap_methods(self, cls: type, layer: str, names=None) -> None:
        """Wrap plain public methods defined on ``cls`` (all, or ``names``)."""
        for name, value in list(vars(cls).items()):
            if names is not None and name not in names:
                continue
            if name.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            setattr(cls, name, self.span(value, f"{layer}:{name}"))

    def wrap_module(self, module_name: str) -> None:
        """Wrap the public functions and the public classes' public methods
        of a module, rebinding functions wherever ``repro`` imported them."""
        module = importlib.import_module(module_name)
        layer = layer_of(module_name)
        for name, value in list(vars(module).items()):
            if name.startswith("_") or getattr(value, "__module__", None) != module_name:
                continue
            if isinstance(value, type):
                self.wrap_methods(value, layer)
            elif isinstance(value, types.FunctionType):
                wrapped = self.span(value, f"{layer}:{name}")
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and (
                        vars(other).get(name) is value
                    ):
                        setattr(other, name, wrapped)

    def install(self) -> None:
        """Patch every layer boundary.  Call once, before any deployment,
        benchmark driver or client exists."""
        from repro.bench.benchmarker import ClosedLoopBenchmark
        from repro.bench.openloop import OpenLoopEngine
        from repro.bench.workload import WorkloadGenerator
        from repro.obs.metrics import MetricsHub
        from repro.obs.tracing import Tracer
        from repro.paxi.client import Client
        from repro.paxi.history import HistoryRecorder
        from repro.paxi.kvstore import MultiVersionStore
        from repro.paxi.node import Batcher, Replica
        from repro.sim.clock import EventHandle, EventLoop
        from repro.sim.network import Network
        from repro.sim.random import PooledRandom
        from repro.sim.server import Server
        from repro.sim.storage import WalWriter

        fire, ctx, adopt, carry = self.fire, self._ctx, self.adopt, self.carry

        # Whole modules whose public surface is small and all of interest.
        for module_name in (
            "repro.protocols.log",
            "repro.protocols.graph",
            "repro.paxi.quorum",
            "repro.paxi.lease",
            "repro.paxi.detector",
            "repro.paxi.recovery",
            "repro.shard.cluster",
            "repro.shard.txn",
            "repro.shard.placement",
            "repro.checkers.linearizability",
            "repro.checkers.consensus",
            "repro.checkers.txn",
        ):
            self.wrap_module(module_name)

        self.wrap_methods(Network, "sim.network", ("transit", "transit_all"))
        self.wrap_methods(PooledRandom, "sim.random", ("gauss", "random", "uniform", "expovariate"))
        self.wrap_methods(WalWriter, "sim.storage", ("persist",))
        self.wrap_methods(Replica, "paxi.node", ("on_network_receive", "send", "multicast", "broadcast"))
        self.wrap_methods(WorkloadGenerator, "bench.workload", ("next_command",))
        self.wrap_methods(HistoryRecorder, "paxi.history", ("begin", "complete", "discard", "snapshot"))
        self.wrap_methods(MultiVersionStore, "paxi.kvstore", ("execute",))
        self.wrap_methods(MetricsHub, "obs.metrics", ("on_sent", "on_received", "on_dropped"))
        self.wrap_methods(Tracer, "obs.tracing", ("begin", "event", "end", "fail"))
        self.wrap_methods(EventLoop, "sim.clock", ("run_until", "run", "next_time"))
        self.wrap_methods(EventHandle, "sim.clock", ("cancel",))
        self.wrap_methods(ClosedLoopBenchmark, "bench.driver", ("run",))
        self.wrap_methods(OpenLoopEngine, "bench.driver", ("run",))

        # Boundaries that hand a callable across: the callable is replaced
        # by the trampoline (or an adopted span) as it crosses.
        call_at = EventLoop.call_at

        def traced_call_at(loop, when, fn, *args):
            return call_at(loop, when, fire, ctx[0], fn, *args)

        EventLoop.call_at = self.span(functools.wraps(call_at)(traced_call_at), "sim.clock:schedule")

        for name in ("submit", "submit_priority"):
            submit = getattr(Server, name)

            def traced_submit(server, cost, fn, *args, _submit=submit):
                return _submit(server, cost, fire, ctx[0], fn, *args)

            setattr(Server, name, self.span(functools.wraps(submit)(traced_submit), f"sim.server:{name}"))

        evict_oldest = Server.evict_oldest

        @functools.wraps(evict_oldest)
        def traced_evict_oldest(server, match):
            # Queued jobs hold (fire, (request, fn, *args)); the caller's
            # predicate and the returned job speak (fn, args).
            job = evict_oldest(
                server,
                lambda fn, args: match(args[1], args[2:]) if fn is fire else match(fn, args),
            )
            if job is not None and job[2] is fire:
                job = (job[0], job[1], job[3][1], job[3][2:])
            return job

        Server.evict_oldest = traced_evict_oldest

        set_timer = Replica.set_timer

        @functools.wraps(set_timer)
        def traced_set_timer(replica, delay, fn, *args):
            return set_timer(replica, delay, fire, ctx[0], fn, *args)

        Replica.set_timer = traced_set_timer

        register = Replica.register

        @functools.wraps(register)
        def traced_register(replica, message_type, handler):
            layer = layer_of(getattr(handler, "__module__", None))
            samples = self.handler_self_us if layer == "protocols" else None
            return register(replica, message_type, self.span(handler, f"{layer}:handler", samples))

        Replica.register = traced_register

        persist = Replica.persist

        def traced_persist(replica, kind, data, *args, **kwargs):
            if kwargs.get("then") is not None:
                kwargs["then"] = carry(kwargs["then"])
            elif len(args) == 3:  # (slot, size_bytes, then)
                args = (*args[:2], carry(args[2]))
            return persist(replica, kind, data, *args, **kwargs)

        Replica.persist = self.span(functools.wraps(persist)(traced_persist), "paxi.node:persist")

        register_endpoint = Network.register

        @functools.wraps(register_endpoint)
        def traced_register_endpoint(network, address, site, on_receive):
            return register_endpoint(network, address, site, adopt(on_receive))

        Network.register = traced_register_endpoint

        replace_receiver = Network.replace_receiver

        @functools.wraps(replace_receiver)
        def traced_replace_receiver(network, address, on_receive, *args, **kwargs):
            return replace_receiver(network, address, adopt(on_receive), *args, **kwargs)

        Network.replace_receiver = traced_replace_receiver

        batcher_init = Batcher.__init__

        @functools.wraps(batcher_init)
        def traced_batcher_init(batcher, replica, flush_fn, *args, **kwargs):
            batcher_init(batcher, replica, adopt(flush_fn), *args, **kwargs)
            self.batchers.append(batcher)

        Batcher.__init__ = traced_batcher_init

        invoke = Client.invoke

        @functools.wraps(invoke)
        def carrying_invoke(
            client, command, target=None, on_done=None, record=True, on_fail=None, deadline=None
        ):
            return invoke(client, command, target, carry(on_done), record, carry(on_fail), deadline)

        spanned_invoke = self.span(carrying_invoke, "paxi.client:invoke")
        requests = self.requests

        @functools.wraps(invoke)
        def traced_invoke(client, command, *args, **kwargs):
            # A new request starts a new causal context: the invoke span,
            # what it schedules, and its reply callbacks all run under it.
            previous = ctx[0]
            index = len(requests)
            ctx[0] = index if index < TRACE_REQUESTS else None
            try:
                request_id = spanned_invoke(client, command, *args, **kwargs)
            finally:
                ctx[0] = previous
            if index < TRACE_REQUESTS:
                requests.append((str(client.address), request_id))
            return request_id

        Client.invoke = traced_invoke

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        """Forget what was aggregated so far (set-up), so the aggregates
        cover exactly the measured phase."""
        for acc in self.acc.values():
            acc[0], acc[1], acc[2] = 0, 0.0, 0
        self._tstack[0] = 0.0
        self._nstack[0] = 0

    def kept_spans(self) -> list[list]:
        """The kept spans as ``[name, start_us, end_us, parent, request]``
        rows (parent is a row index or -1), times relative to the first."""
        if not self._kept_t0:
            return []
        origin = min(self._kept_t0)
        rows: list[list] = []
        waiting: dict[int, list[int]] = {}  # depth -> closed spans awaiting their parent
        for name, t0, t1, depth, request in zip(
            self._kept_name, self._kept_t0, self._kept_t1, self._kept_depth, self._kept_request
        ):
            index = len(rows)
            rows.append(
                [self._names[name], round((t0 - origin) * 1e6, 2), round((t1 - origin) * 1e6, 2), -1, request]
            )
            # Spans close children-first, so everything waiting one level
            # down that this span's interval covers is its child.
            for child in waiting.pop(depth + 1, ()):
                if rows[child][1] >= rows[index][1]:
                    rows[child][3] = index
            if depth <= 1:
                waiting.clear()
            else:
                waiting.setdefault(depth, []).append(index)
        return rows
