"""The at-most-once table against an unbounded-dict oracle.

``seen`` must be exact forever (forgetting that a request executed
re-applies an acknowledged write), ``value`` must match inside the client's
retransmit window, ``len`` must stay what the dict's was (snapshots size
their modelled payload from it), and the values actually held must stay
inside the window.
"""

from dataclasses import dataclass

from hypothesis import given, strategies as st

from repro.paxi.message import ClientRequest, Command
from repro.paxi.replies import ReplyTable
from repro.protocols.log import RequestInfo


def _run(command):
    return ("ran", command)


class TestReplyTable:
    def test_executes_once_and_replays_the_reply(self):
        table, calls = ReplyTable(), []
        info = RequestInfo("c", 1)
        run = lambda command: calls.append(command) or f"reply-{len(calls)}"
        assert table.execute(info, run, "cmd") == "reply-1"
        assert table.execute(info, run, "cmd") == "reply-1"  # duplicate: skipped
        assert calls == ["cmd"]
        assert table.seen(info) and table.value(info) == "reply-1"
        assert len(table) == 1

    def test_request_without_routing_just_runs(self):
        table = ReplyTable()
        assert table.execute(None, _run, "noop-fill") == ("ran", "noop-fill")
        assert len(table) == 0

    def test_accepts_client_requests_and_request_infos_alike(self):
        table = ReplyTable()
        m = ClientRequest(command=Command.put("k", 1), client="c", request_id=3, ack_upto=2)
        assert not table.seen(m)
        table.execute(RequestInfo.of(m), _run, m.command)
        assert table.seen(m) and table.value(m) == ("ran", m.command)
        assert RequestInfo.of(m) == RequestInfo("c", 3, 2)

    def test_ack_evicts_values_but_never_forgets_execution(self):
        table, calls = ReplyTable(), []
        run = lambda command: calls.append(command) or command
        table.execute(RequestInfo("c", 1), run, "w1")
        table.execute(RequestInfo("c", 2, ack_upto=1), run, "w2")
        assert table.retained() == 1 and len(table) == 2
        # The late copy of the acknowledged write is recognised, skipped,
        # and answered with nothing (its client dropped the request).
        assert table.execute(RequestInfo("c", 1), run, "w1") is None
        assert calls == ["w1", "w2"]
        assert table.seen(RequestInfo("c", 1)) and table.value(RequestInfo("c", 1)) is None

    def test_acknowledged_id_that_never_ran_still_executes(self):
        table, calls = ReplyTable(), []
        run = lambda command: calls.append(command) or command
        table.execute(RequestInfo("c", 3, ack_upto=2), run, "w3")  # 1, 2 abandoned
        assert not table.seen(RequestInfo("c", 2))
        table.execute(RequestInfo("c", 2), run, "w2")  # the abandoned copy lands
        assert calls == ["w3", "w2"]
        assert table.retained() == 1  # nobody will ask for w2's reply

    def test_out_of_order_ids_drain_into_the_watermark(self):
        table = ReplyTable()
        for request_id in (3, 2, 5, 1, 4):
            table.execute(RequestInfo("c", request_id), _run, request_id)
        row = table._rows["c"]
        assert row.upto == 5 and not row.above
        assert not table.seen(RequestInfo("c", 6))

    def test_nonpositive_ids_are_not_mistaken_for_executed(self):
        table = ReplyTable()
        assert not table.seen(RequestInfo("c", 0))
        table.execute(RequestInfo("c", 0), _run, "x")
        assert table.seen(RequestInfo("c", 0)) and not table.seen(RequestInfo("c", -1))

    def test_record_overwrites_like_a_dict_store(self):
        table = ReplyTable()
        table.record(RequestInfo("c", 1), "first")
        table.record(RequestInfo("c", 1), "second")
        assert table.value(RequestInfo("c", 1)) == "second" and len(table) == 1

    def test_in_flight_marks(self):
        table = ReplyTable()
        m = ClientRequest(client="c", request_id=1)
        assert table.admit(m) and not table.admit(m)
        table.withdraw(m)
        assert table.admit(m)
        table.execute(RequestInfo.of(m), _run, "cmd")  # executing clears the mark
        assert table.admit(m)
        table.withdraw(ClientRequest(client="stranger", request_id=9))  # no-op

    def test_copy_is_independent_and_drops_in_flight_marks(self):
        table = ReplyTable()
        table.execute(RequestInfo("c", 1), _run, "a")
        table.execute(RequestInfo("c", 3), _run, "c")
        table.admit(ClientRequest(client="c", request_id=4))
        clone = table.copy()
        table.execute(RequestInfo("c", 2, ack_upto=1), _run, "b")
        assert len(clone) == 2 and not clone.seen(RequestInfo("c", 2))
        assert clone.value(RequestInfo("c", 1)) == ("ran", "a")
        assert clone.admit(ClientRequest(client="c", request_id=4))
        clone.execute(RequestInfo("c", 7), _run, "g")
        assert not table.seen(RequestInfo("c", 7))

    def test_two_replies_in_one_window_are_both_kept(self):
        table = ReplyTable()
        table.execute(RequestInfo("c", 1), _run, "a")
        table.execute(RequestInfo("c", 2), _run, "b")  # pipelined: 1 still open
        assert table.retained() == 2
        assert table._rows["c"].overflow is not None
        assert table.value(RequestInfo("c", 1)) == ("ran", "a")
        assert table.execute(RequestInfo("c", 2), _run, "b again") == ("ran", "b")

    def test_ack_drops_exactly_the_ids_at_or_below_it(self):
        table = ReplyTable()
        for request_id in (3, 1, 2, 4):  # 3 inline, the rest overflow
            table.execute(RequestInfo("c", request_id), _run, request_id)
        table.execute(RequestInfo("c", 5, ack_upto=2), _run, 5)
        kept = [r for r in range(1, 6) if table.value(RequestInfo("c", r)) is not None]
        assert kept == [3, 4, 5] and table.retained() == 3
        table.execute(RequestInfo("c", 6, ack_upto=4), _run, 6)  # evicts the inline 3
        assert table.retained() == 2 and table.value(RequestInfo("c", 5)) == ("ran", 5)
        table.execute(RequestInfo("c", 7, ack_upto=6), _run, 7)
        row = table._rows["c"]
        assert (row.reply_id, row.overflow) == (7, None)  # one reply: no dict

    def test_one_outstanding_client_never_allocates_overflow(self):
        table = ReplyTable()
        for request_id in range(1, 50):
            table.execute(RequestInfo("c", request_id, ack_upto=request_id - 1), _run, request_id)
            assert table._rows["c"].overflow is None
        assert table.retained() == 1

    def test_evicted_id_answers_none(self):
        table, calls = ReplyTable(), []
        run = lambda command: calls.append(command) or command
        table.execute(RequestInfo("c", 1), run, "w1")
        table.execute(RequestInfo("c", 2), run, "w2")
        table.execute(RequestInfo("c", 3, ack_upto=2), run, "w3")
        for request_id in (1, 2):
            assert table.value(RequestInfo("c", request_id)) is None
            assert table.execute(RequestInfo("c", request_id), run, "late") is None
        assert calls == ["w1", "w2", "w3"]

    def test_copy_keeps_inline_and_overflow_values(self):
        table = ReplyTable()
        for request_id in (1, 2, 3):
            table.execute(RequestInfo("c", request_id), _run, request_id)
        clone = table.copy()
        table.execute(RequestInfo("c", 4, ack_upto=3), _run, 4)
        assert clone.retained() == 3 and table.retained() == 1
        for request_id in (1, 2, 3):
            assert clone.value(RequestInfo("c", request_id)) == ("ran", request_id)


# ----------------------------------------------------------------------
# Property: indistinguishable from the unbounded dict wherever a client can
# still look, for any interleaving of fresh ids, duplicates, out-of-order
# arrival and acknowledgements (monotone per client; stamps may lag).
# ----------------------------------------------------------------------


@dataclass
class _Step:
    client: int
    request_id: int
    ack_gap: int  # how far below the client's highest issued id the stamp sits
    via_record: bool
    executes: bool  # False: issued but served off the log, like a lease read


_steps = st.lists(
    st.builds(
        _Step,
        client=st.integers(0, 2),
        # Dense small ids, plus ids far enough apart that the executed-id
        # mask spans several 30-bit digits.
        request_id=st.integers(1, 12) | st.integers(1, 240),
        ack_gap=st.integers(0, 12),
        via_record=st.booleans(),
        executes=st.booleans(),
    ),
    max_size=60,
)


@given(_steps)
def test_table_matches_an_unbounded_dict_oracle(steps):
    table, oracle = ReplyTable(), {}
    acked: dict[int, int] = {}
    highest: dict[int, int] = {}
    # Per client, every id a step touched and its neighbours: the mask's edges.
    probes = {c: {0, 255} for c in range(3)}
    for s in steps:
        probes[s.client].update((s.request_id - 1, s.request_id, s.request_id + 1))
    for n, step in enumerate(steps):
        client, request_id = step.client, step.request_id
        highest[client] = max(highest.get(client, 0), request_id)
        # A client only acknowledges below what it has issued and never
        # takes an acknowledgement back — but a delayed copy still carries
        # the older, lower stamp it left with.
        stamp = max(0, min(request_id - 1, highest[client] - step.ack_gap))
        info = RequestInfo(client, request_id, stamp)
        value = (n, client, request_id)
        # A step that does not execute was served off the log: the table
        # never sees its id nor its stamp, and later stamps pass the id.
        if step.executes:
            ack = acked[client] = max(acked.get(client, 0), stamp)
            if step.via_record:
                table.record(info, value)
                oracle[(client, request_id)] = value
            else:
                got = table.execute(info, lambda _command, value=value: value, None)
                expected = oracle.setdefault((client, request_id), value)
                if request_id > ack:
                    assert got == expected

        assert len(table) == len(oracle)
        # Every retained reply belongs to an id some step touched, so
        # counting the probes the table still answers counts each row.
        held = dict.fromkeys(range(3), 0)
        for c in range(3):
            for r in probes[c]:
                probe = RequestInfo(c, r)
                assert table.seen(probe) == ((c, r) in oracle)
                if r > acked.get(c, 0):
                    assert table.value(probe) == oracle.get((c, r))
                held[c] += table.value(probe) is not None
        for c in table._rows:
            assert held[c] <= highest[c] - acked[c]
        assert table.retained() == sum(held.values())

    clone = table.copy()
    clone.execute(RequestInfo(9, 1), _run, "only in the clone")
    assert len(clone) == len(table) + 1 and not table.seen(RequestInfo(9, 1))
    for c in range(3):
        for r in probes[c]:
            assert clone.seen(RequestInfo(c, r)) == table.seen(RequestInfo(c, r))
            assert clone.value(RequestInfo(c, r)) == table.value(RequestInfo(c, r))
