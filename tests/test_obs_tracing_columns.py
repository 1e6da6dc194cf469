"""The request tracer keeps columns and hands out values.

:class:`~repro.obs.tracing.Tracer` stores each event as a few packed
fields and each span as a row; :class:`Span` / :class:`SpanEvent` are
built when read.  These tests pin what a reader gets back: the exact
times, services (``None`` is not ``0.0``), the very actor objects that
were stamped, failed spans, unmatched events, and — on one traced faulty
run — the whole ``to_json()`` dump and the breakdowns, as digests taken
from the object-per-event tracer these columns replaced.
"""

import hashlib
import json

import pytest

from repro.bench.openloop import OpenLoopEngine, PoissonArrivals
from repro.bench.workload import WorkloadSpec
from repro.obs.tracing import Span, SpanEvent, Spans, Tracer
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.protocols.paxos import MultiPaxos

CLIENT = ("client", 1)
REPLICA = NodeID(1, 1)


def _served(tracer: Tracer, request_id: int, t0: float, service: float | None = 0.25) -> None:
    key = (CLIENT, request_id)
    tracer.begin(CLIENT, request_id, t0, "PUT", f"k{request_id}")
    tracer.event(key, "server_enqueue", t0 + 1.0, REPLICA)
    tracer.event(key, "handler", t0 + 2.0, REPLICA, service=service)
    tracer.event(key, "quorum", t0 + 3.0, REPLICA)
    tracer.event(key, "reply_sent", t0 + 4.0, REPLICA)
    tracer.end(key, t0 + 5.0, CLIENT)


def test_a_span_reads_back_what_was_stamped():
    tracer = Tracer(enabled=True)
    _served(tracer, 7, 0.5)
    (span,) = tracer.finished
    assert isinstance(span, Span) and span.span_key == (CLIENT, 7)
    assert (span.request_id, span.op, span.key, span.submitted_at) == (7, "PUT", "k7", 0.5)
    assert span.done and not span.failed and span.monotone()
    assert span.events == (
        SpanEvent("submit", 0.5, CLIENT),
        SpanEvent("server_enqueue", 1.5, REPLICA),
        SpanEvent("handler", 2.5, REPLICA, 0.25),
        SpanEvent("quorum", 3.5, REPLICA),
        SpanEvent("reply_sent", 4.5, REPLICA),
        SpanEvent("reply_recv", 5.5, CLIENT),
    )
    # The actors are the objects the hooks passed, not equal copies.
    assert span.client is CLIENT
    assert all(e.actor is (CLIENT if e.name in ("submit", "reply_recv") else REPLICA)
               for e in span.events)  # fmt: skip
    assert tracer.breakdowns() == [
        {"wq": 0.75, "ts": 1.25, "dl": 2.0, "dq": 1.0, "total": 5.0}
    ]


def test_a_zero_service_is_not_a_missing_one():
    tracer = Tracer(enabled=True)
    _served(tracer, 1, 0.0, service=0.0)
    _served(tracer, 2, 10.0, service=None)
    zero, missing = (span.events[2] for span in tracer.finished)
    assert zero.service == 0.0 and zero.service is not None
    assert zero.to_dict() == {"name": "handler", "t": 2.0, "actor": "1.1", "service": 0.0}
    assert missing.service is None and "service" not in missing.to_dict()
    # Without a service charge there is no wQ, so only the first decomposes.
    assert [d["total"] for d in tracer.breakdowns()] == [5.0]


def test_a_request_the_client_gave_up_on_ends_failed():
    tracer = Tracer(enabled=True)
    key = (CLIENT, 3)
    tracer.begin(CLIENT, 3, 1.0, "GET", "k")
    tracer.event(key, "retry", 2.0, CLIENT)
    tracer.fail(key, 3.0, CLIENT)
    (span,) = tracer.finished
    assert span.done and span.failed
    assert [e.name for e in span.events] == ["submit", "retry", "gave_up"]
    assert tracer.open_count == 0 and tracer.breakdowns() == []


def test_events_for_no_open_span_are_counted_not_kept():
    tracer = Tracer(enabled=True)
    _served(tracer, 1, 0.0)
    tracer.event((CLIENT, 1), "reply_sent", 9.0, REPLICA)  # a duplicate reply
    tracer.end((CLIENT, 1), 9.5, CLIENT)
    tracer.fail((CLIENT, 2), 9.5, CLIENT)
    assert tracer.unmatched_events == 3
    assert len(tracer.finished[0].events) == 6


def test_open_spans_and_views():
    tracer = Tracer(enabled=True)
    _served(tracer, 1, 0.0)
    tracer.begin(CLIENT, 2, 6.0, "CAS", "k2")
    tracer.event((CLIENT, 2), "commit_point", 7.0, REPLICA)
    view = tracer.finished
    _served(tracer, 3, 10.0)
    assert isinstance(view, Spans) and len(view) == 1 and len(tracer.finished) == 2
    assert view[-1] == view[0] and list(view) == [view[0]]
    with pytest.raises(IndexError):
        view[1]
    assert [s.request_id for s in tracer.finished] == [1, 3]
    dump = tracer.to_json()
    (still_open,) = dump["open"]
    assert still_open["op"] == "CAS" and not still_open["done"]
    assert [e["name"] for e in still_open["events"]] == ["submit", "commit_point"]
    assert tracer.open_count == 1


def test_a_disabled_tracer_keeps_nothing():
    tracer = Tracer()
    _served(tracer, 1, 0.0)
    assert len(tracer.finished) == 0 and tracer.unmatched_events == 0
    assert len(tracer.times) == 0


def test_a_traced_faulty_run_dumps_as_before():
    """Two crashed replicas and a dropped link under open-loop load with
    retries and a request timeout: failed spans, retries and hundreds of
    unmatched events.  The digests were taken from the same run on the
    object-per-event tracer."""
    config = Config.lan(3, 3, seed=7, election_timeout=0.15)
    deployment = Deployment(config).start(MultiPaxos)
    tracer = deployment.cluster.obs.tracer
    tracer.enabled = True
    engine = OpenLoopEngine(
        deployment,
        WorkloadSpec(keys=20, write_ratio=0.5),
        PoissonArrivals(300),
        request_timeout=0.2,
        retry_timeout=0.03,
        max_retries=2,
    )
    for node in config.node_ids[:2]:
        deployment.crash(node, duration=0.3, at=0.3)
    deployment.drop(None, config.node_ids[4], duration=0.1, at=0.3)
    engine.run(duration=0.4, warmup=0.05, settle=0.2)
    assert len(tracer.finished) == 137
    assert sum(span.failed for span in tracer.finished) == 23
    assert tracer.unmatched_events == 366
    dump = json.dumps(tracer.to_json(), sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "27a4a4b2fbadf6b5da58c96b2552d342a30436f69fbfdbad841e831441f5c2fb"
    )
    breakdowns = repr([sorted(d.items()) for d in tracer.breakdowns()])
    assert hashlib.sha256(breakdowns.encode()).hexdigest() == (
        "7c1db80c731d86204c54b059009b7104ffa7234249f945577aaf5d98fb5e37c3"
    )
