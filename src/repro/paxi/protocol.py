"""The documented surface for protocol authors.

Historically protocols subclassed :class:`~repro.paxi.node.Replica`
directly and inherited a grab-bag of runtime plumbing.  :class:`Protocol`
makes the contract explicit.  A protocol author implements

- :meth:`on_request` — handle one client request (the only abstract method;
  the runtime wires ``ClientRequest`` to it automatically), and optionally
- :meth:`propose_batch` — admit a group of coalesced requests as one
  proposal.  The default degrades gracefully by re-admitting each request
  individually, so protocols without native batching still run (without the
  amortization benefit) under a batching config.

and *uses* the inherited runtime surface:

- :meth:`~repro.paxi.node.Replica.register` — route a message dataclass to
  a handler,
- ``send`` / ``multicast`` / ``broadcast`` / ``set_timer`` / ``local_work``
  — the non-blocking messaging primitives,
- :meth:`~repro.paxi.node.Replica.trace_mark` — annotate a request's span
  at the protocol's commit point,
- ``self.replies`` — the at-most-once table
  (:class:`~repro.paxi.replies.ReplyTable`): :meth:`answer_duplicate` on
  the way in, ``self.replies.execute(info, self.store.execute, command)``
  where commands execute,
- :meth:`make_batcher` — construct a :class:`~repro.paxi.node.Batcher`
  honoring the deployment's typed batching knobs (``Config.batch_size`` /
  ``Config.batch_window``), or ``None`` when batching is disabled.

See ``docs/WRITING_A_PROTOCOL.md`` for a walkthrough.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Hashable

from repro.paxi.message import ClientReply, ClientRequest
from repro.paxi.node import Batcher, Replica
from repro.paxi.replies import ReplyTable

if TYPE_CHECKING:
    from repro.paxi.deployment import Deployment
    from repro.paxi.ids import NodeID


class Protocol(Replica, abc.ABC):
    """Base class every replication protocol implements.

    Subclass, implement :meth:`on_request`, and register handlers for your
    own message types in ``__init__`` (after calling ``super().__init__``;
    the base constructor registers ``ClientRequest`` -> ``on_request`` for
    you).
    """

    def __init__(self, deployment: "Deployment", node_id: "NodeID") -> None:
        super().__init__(deployment, node_id)
        #: Which client requests executed here, and the replies their
        #: clients may still ask for again.
        self.replies = ReplyTable()
        self.register(ClientRequest, self.on_request)

    @abc.abstractmethod
    def on_request(self, src: Hashable, m: ClientRequest) -> None:
        """Handle one client request (forward, propose, or serve it)."""

    def answer_duplicate(self, m: ClientRequest, leader_hint: Hashable = None) -> bool:
        """Answer ``m`` from the reply table if it already executed here
        (a retransmission, or a copy the network delayed); True = done."""
        if not self.replies.seen(m):
            return False
        self.send(
            m.client,
            ClientReply(
                request_id=m.request_id,
                ok=True,
                value=self.replies.value(m),
                replied_by=self.id,
                leader_hint=leader_hint,
            ),
        )
        return True

    def propose_batch(self, requests: list[ClientRequest]) -> None:
        """Admit a coalesced group of requests as one proposal.

        Protocols with native batching (MultiPaxos, Raft) override this to
        replicate the group as a single multi-command log entry.  The
        default keeps unbatched protocols functional by degrading to one
        proposal per request.
        """
        for request in requests:
            self.on_request(request.client, request)

    def make_batcher(
        self, flush_fn: Callable[[list[ClientRequest]], None] | None = None
    ) -> Batcher | None:
        """Build a batcher from the config's typed knobs, or ``None``.

        Batching is enabled when ``Config.batch_size > 1`` or a
        ``Config.batch_window`` is set; otherwise every request proposes
        immediately and this returns ``None``.  ``flush_fn`` defaults to
        :meth:`propose_batch`.
        """
        cfg = self.config
        if cfg.batch_size <= 1 and cfg.batch_window is None:
            return None
        window = cfg.batch_window if cfg.batch_window is not None else 0.0
        return Batcher(
            self,
            flush_fn if flush_fn is not None else self.propose_batch,
            window=window,
            max_size=max(1, cfg.batch_size),
        )
