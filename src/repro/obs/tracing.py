"""Request lifecycle tracing on virtual time.

One :class:`Span` covers one client request, keyed by
``(client_address, request_id)`` — the same pair every protocol already
carries in ``ClientRequest``/``ClientReply``/``RequestInfo``, which is why
the runtime can stamp events without protocol cooperation.  The canonical
event sequence is::

    submit          client issues the request               (client, t0)
    server_enqueue  request hits a replica's CPU+NIC queue  (replica, t1)
    handler         the request's handler runs; the event   (replica, t2)
                    carries ``service`` = the queue
                    occupancy charged for the message,
                    so wQ = t2 - t1 - service
    quorum          protocol commit point (one-line         (replica, t3)
                    ``self.trace_mark(request)`` in the
                    protocol; see docs/WRITING_A_PROTOCOL.md)
    reply_sent      the serving replica queues the reply    (replica, t4)
    reply_recv      the client observes the reply           (client, t5)

Forwarded or retried requests repeat ``server_enqueue``/``handler`` once
per hop; the breakdown helpers use the serving pair (the last one at the
replica that sent the reply).  Every span ends exactly once: ``reply_recv``
on success, ``failed`` when the client gives up — the invariants the
property tests assert (no orphan spans, monotone timestamps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

SpanKey = tuple[Hashable, int]


@dataclass(slots=True)
class SpanEvent:
    name: str
    t: float
    actor: Hashable
    service: float | None = None  # queue occupancy, on ``handler`` events

    def to_dict(self) -> dict:
        out = {"name": self.name, "t": self.t, "actor": str(self.actor)}
        if self.service is not None:
            out["service"] = self.service
        return out


@dataclass(slots=True)
class Span:
    """The life of one client request, in virtual time.

    One per traced request and one :class:`SpanEvent` per hop, so both are
    slotted: neither carries a ``__dict__`` or takes ad-hoc attributes.
    """

    client: Hashable
    request_id: int
    op: str
    key: Any
    submitted_at: float
    events: list[SpanEvent] = field(default_factory=list)
    done: bool = False
    failed: bool = False

    @property
    def span_key(self) -> SpanKey:
        return (self.client, self.request_id)

    @property
    def completed_at(self) -> float | None:
        return self.events[-1].t if self.done and self.events else None

    def mark(self, name: str, t: float, actor: Hashable, service: float | None = None) -> None:
        self.events.append(SpanEvent(name, t, actor, service))

    def first(self, name: str) -> SpanEvent | None:
        for event in self.events:
            if event.name == name:
                return event
        return None

    def last(self, name: str, before: float | None = None) -> SpanEvent | None:
        found = None
        for event in self.events:
            if event.name == name and (before is None or event.t <= before):
                found = event
        return found

    def monotone(self) -> bool:
        return all(a.t <= b.t for a, b in zip(self.events, self.events[1:]))

    def breakdown(self) -> dict[str, float] | None:
        """Map the span onto the paper's ``wQ / ts / DL / DQ`` decomposition.

        Uses the serving hop: the last ``server_enqueue``/``handler`` pair
        emitted by the replica that sent the reply.  Returns ``None`` for
        spans missing the canonical events (failed or un-annotated
        protocols).

        - ``DL``  = client->replica wire time + reply wire time,
        - ``wQ``  = queue wait of the request message at the replica,
        - ``ts``  = the request's own service charge plus commit-to-reply
          processing (execution + reply serialization queueing),
        - ``DQ``  = handler -> quorum: the replication round trip.
        """
        if not self.done or self.failed:
            return None
        reply_sent = self.last("reply_sent")
        reply_recv = self.last("reply_recv")
        if reply_sent is None or reply_recv is None:
            return None
        enqueue = self.last("server_enqueue", before=reply_sent.t)
        handler = self.last("handler", before=reply_sent.t)
        quorum = self.last("quorum", before=reply_sent.t)
        if enqueue is None or handler is None or handler.service is None:
            return None
        if handler.t < enqueue.t:  # unmatched pair (e.g. retry mid-flight)
            return None
        t0 = self.submitted_at
        wq = max(0.0, handler.t - enqueue.t - handler.service)
        dl = max(0.0, enqueue.t - t0) + max(0.0, reply_recv.t - reply_sent.t)
        dq = max(0.0, quorum.t - handler.t) if quorum is not None else 0.0
        commit_at = quorum.t if quorum is not None else handler.t
        ts = handler.service + max(0.0, reply_sent.t - commit_at)
        return {
            "wq": wq,
            "ts": ts,
            "dl": dl,
            "dq": dq,
            "total": reply_recv.t - t0,
        }

    def to_dict(self) -> dict:
        return {
            "client": str(self.client),
            "request_id": self.request_id,
            "op": self.op,
            "key": str(self.key),
            "submitted_at": self.submitted_at,
            "done": self.done,
            "failed": self.failed,
            "events": [event.to_dict() for event in self.events],
        }


class Tracer:
    """Collects spans.  Disabled by default; every hook checks ``enabled``
    first, so the tracing seams cost one attribute load when off."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.open: dict[SpanKey, Span] = {}
        self.finished: list[Span] = []
        self.unmatched_events = 0

    # -- lifecycle --------------------------------------------------------

    def begin(self, client: Hashable, request_id: int, t: float, op: str, key: Any) -> None:
        if not self.enabled:
            return
        span = Span(client, request_id, op, key, t)
        span.mark("submit", t, client)
        self.open[span.span_key] = span

    def event(
        self,
        span_key: SpanKey,
        name: str,
        t: float,
        actor: Hashable,
        service: float | None = None,
    ) -> None:
        if not self.enabled:
            return
        span = self.open.get(span_key)
        if span is None:
            # Late messages for an already-completed request (duplicate
            # replies, retries racing the original) are normal; count them
            # so the property tests can assert nothing *else* goes missing.
            self.unmatched_events += 1
            return
        span.mark(name, t, actor, service)

    def end(self, span_key: SpanKey, t: float, actor: Hashable) -> None:
        if not self.enabled:
            return
        span = self.open.pop(span_key, None)
        if span is None:
            self.unmatched_events += 1
            return
        span.mark("reply_recv", t, actor)
        span.done = True
        self.finished.append(span)

    def fail(self, span_key: SpanKey, t: float, actor: Hashable) -> None:
        if not self.enabled:
            return
        span = self.open.pop(span_key, None)
        if span is None:
            self.unmatched_events += 1
            return
        span.mark("gave_up", t, actor)
        span.done = True
        span.failed = True
        self.finished.append(span)

    # -- queries ----------------------------------------------------------

    @property
    def open_count(self) -> int:
        return len(self.open)

    def completed(self) -> list[Span]:
        return [span for span in self.finished if not span.failed]

    def breakdowns(self, since: float | None = None) -> list[dict[str, float]]:
        out = []
        for span in self.finished:
            if since is not None and span.submitted_at < since:
                continue
            decomposition = span.breakdown()
            if decomposition is not None:
                out.append(decomposition)
        return out

    def to_json(self) -> dict:
        return {
            "finished": [span.to_dict() for span in self.finished],
            "open": [span.to_dict() for span in self.open.values()],
            "unmatched_events": self.unmatched_events,
        }
