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
on success, ``gave_up`` when the client gives up — the invariants the
property tests assert (no orphan spans, monotone timestamps).

The :class:`Tracer` keeps its events and spans in columns, a few dozen
bytes per event; readers get :class:`Span` and :class:`SpanEvent` values
built from a row when it is read (see :class:`Spans`).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import index as _as_index
from typing import Any, Hashable, Iterator

SpanKey = tuple[Hashable, int]

#: Event name codes the runtime stamps; other names get the next free code.
_CANONICAL = (
    "submit", "server_enqueue", "handler", "quorum",
    "reply_sent", "reply_recv", "gave_up", "retry",
)  # fmt: skip
_ENQUEUE, _HANDLER, _QUORUM, _REPLY_SENT, _REPLY_RECV = map(
    _CANONICAL.index, ("server_enqueue", "handler", "quorum", "reply_sent", "reply_recv")
)

#: Span states, one byte per span.
_OPEN, _DONE, _FAILED = 0, 1, 2


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
    """The life of one client request, in virtual time, as read from a
    :class:`Tracer`'s row: a value, kept by no one once dropped."""

    client: Hashable
    request_id: int
    op: str
    key: Any
    submitted_at: float
    events: tuple[SpanEvent, ...]
    done: bool
    failed: bool

    @property
    def span_key(self) -> SpanKey:
        return (self.client, self.request_id)

    def monotone(self) -> bool:
        return all(a.t <= b.t for a, b in zip(self.events, self.events[1:]))

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


class Spans(Sequence):
    """A read-only sequence of a tracer's ended spans, in the order they
    ended.  Each :class:`Span` is built when it is accessed; spans that
    end after the view was taken are outside it."""

    __slots__ = ("_tracer", "_stop")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._stop = len(tracer.ended)

    def __len__(self) -> int:
        return self._stop

    def __getitem__(self, position: int) -> Span:
        position = _as_index(position)
        if position < 0:
            position += self._stop
        if not 0 <= position < self._stop:
            raise IndexError("span index out of range")
        return self._tracer.span(self._tracer.ended[position])

    def __iter__(self) -> Iterator[Span]:
        span, ended = self._tracer.span, self._tracer.ended
        for position in range(self._stop):
            yield span(ended[position])

    def __repr__(self) -> str:
        return f"Spans({self._stop} spans)"


class Tracer:
    """Collects spans.  Disabled by default; every hook checks ``enabled``
    first, so the tracing seams cost one attribute load when off.

    Two append-only tables of columns.  Event ``e``: its virtual time
    ``times[e]``, its ``services[e]`` (NaN when it carries none), a name
    code ``names[e]`` into ``name_table``, an actor index ``actors[e]``
    into ``actor_table``, and ``links[e]``, the span's previous event (-1
    at its first).  Span ``s``: its last event ``tails[s]``, whose chain
    of links leads back to its first, ``submit`` (that event's actor is
    the client and its time the submission), ``request_ids[s]``,
    ``ops[s]``, ``keys[s]`` and a state byte (open, done, failed).
    ``open`` maps a span key to its row while the request is in flight;
    ``ended`` lists rows in the order they ended.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.open: dict[SpanKey, int] = {}
        self.unmatched_events = 0
        self.times = array("d")
        self.services = array("d")
        self.names = bytearray()
        self.actors = array("I")
        self.links = array("i")
        self.name_table = list(_CANONICAL)
        self.actor_table: list[Hashable] = []
        self._name_codes = {name: code for code, name in enumerate(_CANONICAL)}
        self._actor_indices: dict[Hashable, int] = {}
        self.tails = array("I")
        self.request_ids = array("q")
        self.ops: list[str] = []
        self.keys: list[Any] = []
        self.states = bytearray()
        self.ended = array("I")

    def _append_event(
        self, name: str, t: float, actor: Hashable, service: float | None, previous: int
    ) -> int:
        """Append one event after ``previous``, its span's last so far (-1
        for a span's first), and return its index."""
        code = self._name_codes.get(name)
        if code is None:
            code = self._name_codes[name] = len(self.name_table)
            self.name_table.append(name)
        actor_index = self._actor_indices.get(actor)
        if actor_index is None:
            actor_index = self._actor_indices[actor] = len(self.actor_table)
            self.actor_table.append(actor)
        self.times.append(t)
        self.services.append(math.nan if service is None else service)
        self.names.append(code)
        self.actors.append(actor_index)
        self.links.append(previous)
        return len(self.links) - 1

    # -- lifecycle --------------------------------------------------------

    def begin(self, client: Hashable, request_id: int, t: float, op: str, key: Any) -> None:
        if not self.enabled:
            return
        self.open[(client, request_id)] = len(self.states)
        self.tails.append(self._append_event("submit", t, client, None, -1))
        self.request_ids.append(request_id)
        self.ops.append(op)
        self.keys.append(key)
        self.states.append(_OPEN)

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
        row = self.open.get(span_key)
        if row is None:
            # Late messages for an already-completed request (duplicate
            # replies, retries racing the original) are normal; count them
            # so the property tests can assert nothing *else* goes missing.
            self.unmatched_events += 1
            return
        self.tails[row] = self._append_event(name, t, actor, service, self.tails[row])

    def end(self, span_key: SpanKey, t: float, actor: Hashable) -> None:
        self._finish(span_key, "reply_recv", t, actor, _DONE)

    def fail(self, span_key: SpanKey, t: float, actor: Hashable) -> None:
        self._finish(span_key, "gave_up", t, actor, _FAILED)

    def _finish(self, span_key: SpanKey, name: str, t: float, actor: Hashable, state: int) -> None:
        if not self.enabled:
            return
        row = self.open.pop(span_key, None)
        if row is None:
            self.unmatched_events += 1
            return
        self.tails[row] = self._append_event(name, t, actor, None, self.tails[row])
        self.states[row] = state
        self.ended.append(row)

    # -- queries ----------------------------------------------------------

    @property
    def open_count(self) -> int:
        return len(self.open)

    @property
    def finished(self) -> Spans:
        """The ended spans, successful and failed, in the order they ended."""
        return Spans(self)

    def _chain(self, row: int) -> list[int]:
        """Span ``row``'s event indices, in the order they were stamped."""
        chain = []
        links = self.links
        event = self.tails[row]
        while event >= 0:
            chain.append(event)
            event = links[event]
        chain.reverse()
        return chain

    def span(self, row: int) -> Span:
        """Span ``row`` as a :class:`Span` value."""
        times, services, names, actors = self.times, self.services, self.names, self.actors
        name_table, actor_table = self.name_table, self.actor_table
        chain = self._chain(row)
        events = tuple(
            SpanEvent(
                name_table[names[e]],
                times[e],
                actor_table[actors[e]],
                None if math.isnan(services[e]) else services[e],
            )
            for e in chain
        )
        state = self.states[row]
        head = chain[0]
        return Span(
            actor_table[actors[head]],
            self.request_ids[row],
            self.ops[row],
            self.keys[row],
            times[head],
            events,
            state != _OPEN,
            state == _FAILED,
        )

    def _breakdown(self, chain: list[int]) -> dict[str, float] | None:
        """Map a span's events (``chain``, in order) onto the paper's
        ``wQ / ts / DL / DQ`` decomposition.

        Uses the serving hop: the last ``server_enqueue``/``handler`` pair
        stamped no later than the last ``reply_sent``.  Returns ``None`` for
        spans missing the canonical events (un-annotated protocols).

        - ``DL``  = client->replica wire time + reply wire time,
        - ``wQ``  = queue wait of the request message at the replica,
        - ``ts``  = the request's own service charge plus commit-to-reply
          processing (execution + reply serialization queueing),
        - ``DQ``  = handler -> quorum: the replication round trip.
        """
        times, names = self.times, self.names
        sent = received = -1
        for e in chain:
            code = names[e]
            if code == _REPLY_SENT:
                sent = e
            elif code == _REPLY_RECV:
                received = e
        if sent < 0 or received < 0:
            return None
        cutoff = times[sent]
        enqueue = handler = quorum = -1
        for e in chain:
            if times[e] <= cutoff:
                code = names[e]
                if code == _ENQUEUE:
                    enqueue = e
                elif code == _HANDLER:
                    handler = e
                elif code == _QUORUM:
                    quorum = e
        if enqueue < 0 or handler < 0:
            return None
        service = self.services[handler]
        if math.isnan(service):
            return None
        t_enqueue, t_handler = times[enqueue], times[handler]
        if t_handler < t_enqueue:  # unmatched pair (e.g. retry mid-flight)
            return None
        t0 = times[chain[0]]
        t_sent, t_received = times[sent], times[received]
        wq = max(0.0, t_handler - t_enqueue - service)
        dl = max(0.0, t_enqueue - t0) + max(0.0, t_received - t_sent)
        dq = max(0.0, times[quorum] - t_handler) if quorum >= 0 else 0.0
        commit_at = times[quorum] if quorum >= 0 else t_handler
        ts = service + max(0.0, t_sent - commit_at)
        return {
            "wq": wq,
            "ts": ts,
            "dl": dl,
            "dq": dq,
            "total": t_received - t0,
        }

    def breakdowns(self, since: float | None = None) -> list[dict[str, float]]:
        """The decomposition of every successful span submitted at or after
        ``since``, in the order the spans ended."""
        out = []
        times, states = self.times, self.states
        for row in self.ended:
            if states[row] != _DONE:
                continue
            chain = self._chain(row)
            if since is not None and times[chain[0]] < since:
                continue
            decomposition = self._breakdown(chain)
            if decomposition is not None:
                out.append(decomposition)
        return out

    def to_json(self) -> dict:
        return {
            "finished": [span.to_dict() for span in self.finished],
            "open": [self.span(row).to_dict() for row in self.open.values()],
            "unmatched_events": self.unmatched_events,
        }
