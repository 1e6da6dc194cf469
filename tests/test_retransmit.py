"""Pins on the proposer's retransmit path, one lossy schedule per host.

In a clean run every accept commits well inside the retransmit timeout, so
no golden scenario or benchmark ever re-sends one.  Each schedule below
cuts a proposer off from the votes it needs while client commands are in
flight, heals the cut, and records every accept the proposer sends a
second time: the tick it left on, the slot it carries and who it went to.
The pins hold the exact re-sends, the completions, and both checkers.
"""

from __future__ import annotations

import pytest

from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.protocols.fpaxos import FPaxos
from repro.protocols.group import GAccept
from repro.protocols.log import CommandLog
from repro.protocols.mencius import MAccept, Mencius
from repro.protocols.paxos import MultiPaxos, P2a
from repro.protocols.wankeeper import WanKeeper
from repro.protocols.wpaxos import WP2a, WPaxos

from tests.conftest import assert_correct

LEADER = NodeID(1, 1)


def _record_resends(replica, accept: type) -> list:
    """Spy on ``replica``'s multicasts: every ``accept`` it sends again for
    a (key, ballot, slot) it sent before lands in the returned list as
    ``(ms, key, slot, targets)``."""
    sent: set = set()
    resends: list = []
    multicast = replica.multicast

    def spy(dsts, message):
        dsts = list(dsts)
        if type(message) is accept:
            ident = (getattr(message, "key", None), getattr(message, "ballot", None), message.slot)
            if ident in sent:
                targets = tuple(sorted(str(d) for d in dsts if d != replica.id))
                resends.append((round(replica.now * 1e3, 3), ident[0], message.slot, targets))
            sent.add(ident)
        multicast(dsts, message)

    replica.multicast = spy
    return resends


def _per_tick(resends: list) -> list:
    """Group re-sends by the tick that emitted them, each tick's in (key,
    slot) order: ``[(ms, [(key, slot, targets), ...]), ...]``."""
    ticks: dict = {}
    for ms, key, slot, targets in resends:
        ticks.setdefault(ms, []).append((key, slot, targets))
    return [(ms, sorted(group, key=repr)) for ms, group in sorted(ticks.items())]


def _lossy_run(dep, proposer, accept, cut, durations, keys, gap=0.1) -> dict:
    """Drop ``proposer``'s messages to each peer in ``cut`` (for the
    matching entry of ``durations``), invoke a put on each of ``keys``
    ``gap`` seconds apart, note what completed 0.3 s in (nothing can),
    run until every put has long completed, and return what the proposer
    re-sent and what completed when (ms)."""
    resends = _record_resends(dep.replicas[proposer], accept)
    for peer, duration in zip(cut, durations):
        dep.drop(proposer, peer, duration, at=dep.now)
    done: list = []
    for i, key in enumerate(keys):
        client = dep.new_client()
        value = f"{key}{i}@{round(dep.now * 1e3)}"
        client.invoke(Command.put(key, value), target=proposer, on_done=lambda r, _l: done.append((r.value, round(dep.now * 1e3, 3))))
        if gap:
            dep.run_for(gap)
    if not gap:
        dep.run_for(0.3)
    stalled = sorted(done)
    dep.run_for(1.5)
    assert_correct(dep)
    return {"stalled": stalled, "done": sorted(done), "ticks": _per_tick(resends)}


def paxos_schedule() -> dict:
    """MultiPaxos leader 1.1 of nine loses its accepts to five peers for
    0.5 s, so three staggered slots gather only four of five votes."""
    dep = Deployment(Config.lan(3, 3, seed=62)).start(MultiPaxos)
    dep.run_for(0.05)
    cut = [NodeID(1, 2), NodeID(1, 3), NodeID(2, 1), NodeID(2, 2), NodeID(2, 3)]
    return _lossy_run(dep, LEADER, P2a, cut, [0.5] * 5, "abc")


def fpaxos_thrifty_schedule() -> dict:
    """Thrifty FPaxos (|q2| = 3) sends accepts to its two nearest peers
    only; losing one of them for 0.5 s stalls three staggered slots, and
    the re-sends go to that peer alone."""
    dep = Deployment(Config.lan(3, 3, seed=62, thrifty=True)).start(FPaxos)
    dep.run_for(0.05)
    nearest = dep.replicas[LEADER].phase2_targets()
    return _lossy_run(dep, LEADER, P2a, nearest[1:], [0.5], "abc")


def wpaxos_schedule() -> dict:
    """WPaxos owner 1.1 of two objects loses its accepts to six of eight
    peers for 0.5 s (no zone keeps two voters) while puts on both objects,
    interleaved in one instant, leave all four slots due in one tick."""
    dep = Deployment(Config.lan(3, 3, seed=64)).start(WPaxos)
    warm = dep.new_client()
    warm.invoke(Command.put("x", "warm"), target=LEADER)
    dep.run_for(0.05)
    warm.invoke(Command.put("y", "warm"), target=LEADER)
    dep.run_for(0.05)
    cut = [NodeID(z, n) for z in (1, 2, 3) for n in (1, 2, 3) if (z, n) not in {(1, 1), (2, 3), (3, 3)}]
    return _lossy_run(dep, LEADER, WP2a, cut, [0.5] * 6, "xyxy", gap=0.0)


def group_schedule() -> dict:
    """WanKeeper's one-zone group: master and zone leader 1.1 loses its
    accepts to member 1.3 for 0.25 s and to 1.2 for 0.5 s while it
    replicates three staggered commands through its GroupEngine."""
    dep = Deployment(Config.lan(1, 3, seed=5)).start(WanKeeper)
    dep.run_for(0.05)
    return _lossy_run(dep, LEADER, GAccept, [NodeID(1, 2), NodeID(1, 3)], [0.5, 0.25], "abc")


def mencius_schedule() -> dict:
    """Mencius node 1.1 loses its accepts to both other nodes for 0.5 s
    while it proposes three staggered commands into its own slots."""
    dep = Deployment(Config.lan(1, 3, seed=9)).start(Mencius)
    dep.run_for(0.05)
    return _lossy_run(dep, LEADER, MAccept, [NodeID(1, 2), NodeID(1, 3)], [0.5, 0.5], "abc")


SCHEDULES = {
    "paxos": paxos_schedule,
    "fpaxos_thrifty": fpaxos_thrifty_schedule,
    "wpaxos": wpaxos_schedule,
    "group": group_schedule,
    "mencius": mencius_schedule,
}

#: What each schedule re-sent, tick by tick, and when each put completed:
#: ``ticks`` is ``[(ms, [(key, slot, targets), ...]), ...]``, each tick's
#: re-sends in (key, slot) order.  WPaxos emits them object by object, in
#: the order the owner first saw each object (x before y here), so the
#: order its four re-sends leave in sets its completion times.
PINS = {'paxos': {'stalled': [],
           'done': [('a0@50', 661.194), ('b1@150', 761.235), ('c2@250', 761.271)],
           'ticks': [(360.486, [(None, 1, ('1.2', '1.3', '2.1', '2.2', '2.3'))]),
                     (460.486, [(None, 2, ('1.2', '1.3', '2.1', '2.2', '2.3'))]),
                     (560.486, [(None, 3, ('1.2', '1.3', '2.1', '2.2', '2.3'))]),
                     (660.486, [(None, 1, ('1.2', '1.3', '2.1', '2.2', '2.3'))]),
                     (760.486, [(None, 2, ('1.2', '1.3', '2.1', '2.2', '2.3'))])]},
 'fpaxos_thrifty': {'stalled': [],
                    'done': [('a0@50', 661.183), ('b1@150', 761.236), ('c2@250', 761.246)],
                    'ticks': [(360.513, [(None, 1, ('1.3',))]),
                              (460.513, [(None, 2, ('1.3',))]),
                              (560.513, [(None, 3, ('1.3',))]),
                              (660.513, [(None, 1, ('1.3',))]),
                              (760.513, [(None, 2, ('1.3',))])]},
 'wpaxos': {'stalled': [],
            'done': [('x0@100', 720.777),
                     ('x2@100', 720.921),
                     ('y1@100', 720.652),
                     ('y3@100', 720.672)],
            'ticks': [(420.0,
                       [('x', 2, ('1.2', '1.3', '2.1', '2.2', '3.1', '3.2')),
                        ('x', 3, ('1.2', '1.3', '2.1', '2.2', '3.1', '3.2')),
                        ('y', 2, ('1.2', '1.3', '2.1', '2.2', '3.1', '3.2')),
                        ('y', 3, ('1.2', '1.3', '2.1', '2.2', '3.1', '3.2'))]),
                      (720.0,
                       [('x', 2, ('1.2', '1.3', '2.1', '2.2', '3.1', '3.2')),
                        ('x', 3, ('1.2', '1.3', '2.1', '2.2', '3.1', '3.2')),
                        ('y', 2, ('1.2', '1.3', '2.1', '2.2', '3.1', '3.2')),
                        ('y', 3, ('1.2', '1.3', '2.1', '2.2', '3.1', '3.2'))])]},
 'group': {'stalled': [],
           'done': [('a0@50', 360.719), ('b1@150', 460.66), ('c2@250', 560.68)],
           'ticks': [(360.0, [(None, 1, ('1.2', '1.3'))]),
                     (460.0, [(None, 2, ('1.2', '1.3'))]),
                     (560.0, [(None, 3, ('1.2', '1.3'))])]},
 'mencius': {'stalled': [],
             'done': [('a0@50', 660.688), ('b1@150', 760.628), ('c2@250', 760.693)],
             'ticks': [(360.0, [(None, 0, ('1.2', '1.3'))]),
                       (460.0, [(None, 3, ('1.2', '1.3'))]),
                       (560.0, [(None, 6, ('1.2', '1.3'))]),
                       (660.0, [(None, 0, ('1.2', '1.3'))]),
                       (760.0, [(None, 3, ('1.2', '1.3'))])]}}


@pytest.mark.parametrize("host", sorted(SCHEDULES))
def test_retransmit_resends_exactly_the_pinned_accepts(host):
    assert SCHEDULES[host]() == PINS[host]


@pytest.mark.parametrize("host", sorted(SCHEDULES))
def test_a_scan_that_never_finds_a_slot_due_is_caught(host, monkeypatch):
    """Planted bug: the shared scan yields nothing.  Every host then
    re-sends no accept and strands the puts the cut swallowed."""
    monkeypatch.setattr(CommandLog, "due", lambda self, *scan: iter(()))
    observed = SCHEDULES[host]()
    assert observed["ticks"] == []
    assert len(observed["done"]) < len(PINS[host]["done"])
