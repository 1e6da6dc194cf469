"""Unit tests for the simulated CPU+NIC server queue."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.protocols.paxos import MultiPaxos
from repro.sim.clock import EventLoop
from repro.sim.server import Server, ServerStats, ServiceProfile


def make() -> tuple[EventLoop, Server]:
    loop = EventLoop()
    return loop, Server(loop)


def test_single_job_completes_after_cost():
    loop, server = make()
    done = []
    server.submit(0.5, lambda: done.append(loop.now))
    loop.run()
    assert done == [0.5]


def test_fifo_ordering_and_serialization():
    loop, server = make()
    done = []
    server.submit(1.0, lambda: done.append(("a", loop.now)))
    server.submit(1.0, lambda: done.append(("b", loop.now)))
    loop.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_queue_wait_accumulates():
    loop, server = make()
    for _ in range(3):
        server.submit(1.0, lambda: None)
    loop.run()
    # Jobs waited 0, 1, and 2 seconds respectively.
    assert server.stats.wait_seconds == pytest.approx(3.0)
    assert server.stats.mean_wait() == pytest.approx(1.0)


def test_idle_then_busy_utilization():
    loop, server = make()
    loop.call_at(1.0, server.submit, 1.0, lambda: None)
    loop.run()
    assert server.stats.busy_seconds == pytest.approx(1.0)
    assert server.stats.utilization(loop.now) == pytest.approx(0.5)


def test_zero_cost_job():
    loop, server = make()
    done = []
    server.submit(0.0, done.append, "x")
    loop.run()
    assert done == ["x"]


def test_negative_cost_rejected():
    _loop, server = make()
    with pytest.raises(SimulationError):
        server.submit(-1.0, lambda: None)


def test_freeze_delays_queued_work():
    loop, server = make()
    done = []
    server.freeze(2.0)
    server.submit(0.5, lambda: done.append(loop.now))
    loop.run()
    assert done == [2.5]


def test_freeze_extends_not_stacks():
    loop, server = make()
    server.freeze(2.0)
    server.freeze(1.0)  # shorter freeze must not shorten the first
    done = []
    server.submit(0.0, lambda: done.append(loop.now))
    loop.run()
    assert done == [2.0]


def test_jobs_submitted_during_freeze_run_after():
    loop, server = make()
    done = []
    loop.call_at(0.0, server.freeze, 1.0)
    loop.call_at(0.5, server.submit, 0.25, lambda: done.append(loop.now))
    loop.run()
    assert done == [1.25]


def test_stats_jobs_completed():
    loop, server = make()
    for _ in range(4):
        server.submit(0.1, lambda: None)
    loop.run()
    assert server.stats.jobs_completed == 4
    assert server.stats.max_queue_length == 4


def test_completion_callback_can_submit_more():
    loop, server = make()
    done = []

    def chain(n):
        done.append(loop.now)
        if n > 0:
            server.submit(1.0, chain, n - 1)

    server.submit(1.0, chain, 2)
    loop.run()
    assert done == [1.0, 2.0, 3.0]


class _Probe:
    """A message the replica's cost path can price: class traits only."""

    WEIGHT = 1.0
    SIZE_BYTES = 100


class _Heavy(_Probe):
    WEIGHT = 2.0


def _charging_replica(monkeypatch, profile):
    """A replica of a 6-node cluster on ``profile`` that records what it
    charges its server queue instead of running the job."""
    deployment = Deployment(Config.lan(1, 6, seed=1, profile=profile)).start(MultiPaxos)
    replica = deployment.replicas[NodeID(1, 1)]
    charged = []
    monkeypatch.setattr(replica._server, "submit", lambda cost, fn, *args: charged.append(cost))
    return replica, charged


class TestServiceProfile:
    """A replica charges ``t·weight + copies·size/bandwidth``: ``t_in`` and
    one copy for a received message, ``t_out`` once and one NIC copy per
    peer for a sent one."""

    PROFILE = ServiceProfile(t_in=1e-6, t_out=2e-6, bandwidth_bps=1e6)

    def test_default_paxos_calibration(self):
        """The default profile puts 9-node Paxos saturation near 8,000/s
        (paper Figure 7)."""
        p = ServiceProfile()
        ts = p.t_out * 2 + 9 * p.t_in + 18 * (100 / p.bandwidth_bps)
        assert 1 / ts == pytest.approx(8000, rel=0.05)

    def test_incoming_cost(self, monkeypatch):
        replica, charged = _charging_replica(monkeypatch, self.PROFILE)
        replica.on_network_receive(replica.peers[0], _Probe(), 100)
        assert charged == [pytest.approx(1e-6 + 100 / 1e6)]

    def test_outgoing_cost_serializes_once(self, monkeypatch):
        replica, charged = _charging_replica(monkeypatch, self.PROFILE)
        replica.send(replica.peers[0], _Probe())
        replica.multicast(replica.peers, _Probe())
        one, many = charged
        assert len(replica.peers) == 5
        assert one == pytest.approx(2e-6 + 100 / 1e6)
        assert many - one == pytest.approx(4 * 100 / 1e6)

    def test_weight_scales_cpu_only(self, monkeypatch):
        replica, charged = _charging_replica(monkeypatch, self.PROFILE)
        replica.on_network_receive(replica.peers[0], _Heavy(), 100)
        assert charged == [pytest.approx(2e-6 + 1e-4)]

    def test_zero_copies_rejected(self, monkeypatch):
        """A multicast with no peer but the sender is not sent: it costs
        nothing."""
        replica, charged = _charging_replica(monkeypatch, self.PROFILE)
        replica.multicast([], _Probe())
        replica.multicast([replica.id], _Probe())
        assert charged == []


@given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=30))
def test_busy_time_equals_sum_of_costs(costs):
    loop, server = make()
    for cost in costs:
        server.submit(cost, lambda: None)
    loop.run()
    assert server.stats.busy_seconds == pytest.approx(sum(costs))
    assert loop.now == pytest.approx(sum(costs))


# --- engine equivalence -----------------------------------------------------
#
# ``Server`` starts a job on an idle machine without queueing it.
# ``ReferenceServer`` is the queue spelled out: every job goes through its
# lane's deque, one function starts the next, every queue-length change
# accrues the area first.  The two must agree with
# ``==`` (not approximately: the golden fingerprints digest these floats) on
# every completion time, every ``ServerStats`` field and the admission gauges.


class ReferenceServer:
    def __init__(self, loop):
        self.loop, self.priority, self.data = loop, deque(), deque()
        self.busy, self.frozen_until, self.slow, self.epoch = False, 0.0, 1.0, 0
        self.area_at, self.backlog_seconds, self.stats = loop.now, 0.0, ServerStats()

    @property
    def queue_length(self):
        return len(self.priority) + len(self.data) + self.busy

    def touch_queue_area(self):
        self.stats.queue_area += self.queue_length * (self.loop.now - self.area_at)
        self.area_at = self.loop.now

    def submit(self, cost, fn, *args, lane=None):
        cost = cost * self.slow if self.slow != 1.0 else cost
        self.touch_queue_area()
        (self.data if lane is None else lane).append((self.loop.now, cost, fn, args))
        self.backlog_seconds += cost
        self.stats.max_queue_length = max(self.stats.max_queue_length, self.queue_length)
        self.start()

    def submit_priority(self, cost, fn, *args):
        self.submit(cost, fn, *args, lane=self.priority)

    def start(self):
        if self.busy or not (self.priority or self.data):
            return
        if self.loop.now < self.frozen_until:
            if not math.isinf(self.frozen_until):
                self.loop.call_at(self.frozen_until, self.start)
            return
        enqueued_at, cost, fn, args = (self.priority or self.data).popleft()
        self.backlog_seconds -= cost
        if not (self.priority or self.data):
            self.backlog_seconds = 0.0
        self.busy = True
        self.stats.wait_seconds += self.loop.now - enqueued_at
        self.loop.call_at(self.loop.now + cost, self.complete, self.epoch, cost, fn, args)

    def complete(self, epoch, cost, fn, args):
        if epoch != self.epoch:
            return
        self.touch_queue_area()
        self.busy = False
        self.stats.jobs_completed += 1
        self.stats.busy_seconds += cost
        fn(*args)
        self.start()

    def freeze(self, duration):
        self.frozen_until = max(self.frozen_until, self.loop.now + duration)
        if not self.busy and not math.isinf(self.frozen_until):  # inf: powered off
            self.loop.call_at(self.frozen_until, self.start)

    def power_off(self):
        self.touch_queue_area()
        self.priority.clear()
        self.data.clear()
        self.backlog_seconds, self.busy, self.frozen_until = 0.0, False, math.inf
        self.epoch += 1

    def power_on(self):
        self.frozen_until = self.loop.now
        self.start()

    def evict_oldest(self, match):
        for index, job in enumerate(self.data):
            if match(job[2], job[3]):
                self.touch_queue_area()
                del self.data[index]
                self.backlog_seconds = self.backlog_seconds - job[1] if self.data else 0.0
                return job
        return None

    def set_slow_factor(self, factor):
        self.slow = factor


def _seeded_mix(seed: int, actions: int = 400) -> list[tuple]:
    """A schedule that mixes every operation at irregular instants, with
    costs whose sums do not round nicely."""
    rng = random.Random(seed)
    script, at, powered = [], 0.0, True
    for index in range(actions):
        at += rng.choice((0.0, 0.0, rng.uniform(0.0, 3e-5), rng.uniform(0.0, 4e-4)))
        kind = rng.choices(
            ("submit", "submit_priority", "chain", "freeze", "power", "evict", "slow", "probe"),
            (50, 10, 10, 3, 2, 5, 3, 17),
        )[0]
        if kind == "power":
            powered = not powered
            script.append((at, "power_on" if powered else "power_off"))
        elif kind in ("submit", "submit_priority"):
            script.append((at, kind, rng.uniform(0.0, 1e-4), f"job{index}"))
        elif kind == "chain":
            script.append((at, "chain", rng.uniform(1e-6, 5e-5), f"chain{index}", rng.randint(1, 4)))
        elif kind == "freeze":
            script.append((at, "freeze", rng.uniform(0.0, 2e-4)))
        elif kind == "evict":
            script.append((at, "evict", rng.choice(("job", "chain"))))
        elif kind == "slow":
            script.append((at, "slow", rng.choice((1.0, 1.0, 2.5, 0.5, 7.0))))
        else:
            script.append((at, "probe"))
    if not powered:
        script.append((at + 1e-3, "power_on"))
    return script


SCHEDULES = {
    # Every arrival finds the machine idle.
    "idle_starts": [(i * 1.0, "submit", 0.25 + i / 7, f"j{i}") for i in range(6)],
    # A burst at one instant, then arrivals that land while it drains.
    "back_to_back": [(0.0, "submit", 0.1 + i / 30, f"a{i}") for i in range(5)]
    + [(0.05 * i, "submit", 0.07, f"b{i}") for i in range(1, 9)]
    + [(0.3, "probe"), (2.0, "probe")],
    # A completion that submits: onto an idle machine, and behind a queue.
    "submit_from_completion": [
        (0.0, "chain", 0.3, "lone", 3),
        (2.0, "chain", 0.3, "crowded", 3),
        (2.0, "submit", 0.2, "x0"),
        (2.1, "submit", 0.2, "x1"),
    ],
    # Freeze with work queued and in service; arrivals during the freeze,
    # exactly at the thaw, and a second freeze that must not shorten it.
    "freeze": [
        (0.0, "submit", 1.0, "running"),
        (0.0, "submit", 0.5, "queued"),
        (0.5, "freeze", 2.0),
        (0.6, "freeze", 0.1),
        (1.0, "submit", 0.25, "during"),
        (2.5, "submit", 0.25, "at_thaw"),
        (2.5, "probe"),
        (5.0, "freeze", 1.0),
        (5.5, "submit", 0.1, "idle_frozen"),
        (6.0, "submit", 0.1, "idle_at_thaw"),
    ],
    # Reboot: queued and in-service work is lost, the stale completion is
    # ignored, arrivals while down wait for power_on.
    "power_cycle": [
        (0.0, "submit", 1.0, "lost_running"),
        (0.0, "submit", 1.0, "lost_queued"),
        (0.5, "power_off"),
        (0.5, "probe"),
        (0.7, "submit", 0.2, "while_down"),
        (0.9, "power_on"),
        (1.0, "submit", 0.3, "after"),
        (1.0, "probe"),
        (3.0, "submit", 0.3, "idle_after"),
    ],
    "priority_lane": [
        (0.0, "submit_priority", 0.2, "p_idle"),
        (0.0, "submit", 0.3, "d0"),
        (0.0, "submit", 0.3, "d1"),
        (0.1, "submit_priority", 0.1, "p_jumps"),
        (0.1, "probe"),
        (0.15, "submit_priority", 0.1, "p_second"),
        (5.0, "submit", 0.1, "d_idle"),
    ],
    "evict_oldest": [(0.0, "submit", 0.2 + i / 13, f"e{i}") for i in range(6)]
    + [
        (0.0, "submit_priority", 0.1, "p_never_evicted"),
        (0.1, "evict", "e"),  # e0 is in service: e1 goes
        (0.1, "evict", "e4"),
        (0.1, "evict", "nothing"),
        (0.1, "probe"),
        (0.3, "evict", "e"),
        (9.0, "evict", "e"),  # empty queue
    ],
    "slow_factor": [
        (0.0, "submit", 0.1, "healthy"),
        (0.05, "slow", 2.5),
        (0.05, "submit", 0.1, "slow_queued"),
        (1.0, "submit", 0.1, "slow_idle"),
        (1.05, "slow", 1.0),
        (1.05, "submit", 0.1, "restored"),
        (1.05, "submit_priority", 0.1, "restored_p"),
    ],
    **{f"seeded_mix_{seed}": _seeded_mix(seed) for seed in (1, 2, 3)},
}


def _play(server_class, schedule: list[tuple]):
    """Run ``schedule`` against a fresh server; returns everything the two
    implementations must agree on."""
    loop = EventLoop()
    server = server_class(loop)
    log: list[tuple] = []

    def done(label, chain_cost=None, more=0):
        log.append((label, loop.now))
        if more:
            server.submit(chain_cost, done, f"{label}+", chain_cost, more - 1)

    def act(kind, *args):
        if kind in ("submit", "submit_priority"):
            getattr(server, kind)(args[0], done, args[1])
        elif kind == "chain":
            server.submit(args[0], done, args[1], args[0], args[2])
        elif kind == "evict":
            job = server.evict_oldest(lambda fn, job_args: job_args[0].startswith(args[0]))
            log.append(("evicted", loop.now, job and (job[0], job[1], job[3][0])))
        elif kind == "slow":
            server.set_slow_factor(args[0])
        elif kind == "probe":
            log.append(("probe", loop.now, server.queue_length, server.backlog_seconds))
        else:
            getattr(server, kind)(*args)

    for at, kind, *args in schedule:
        loop.call_at(at, act, kind, *args)
    loop.run()
    server.touch_queue_area()
    return log, server.stats, server.queue_length, server.backlog_seconds


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_server_matches_the_reference_queue_exactly(name):
    schedule = SCHEDULES[name]
    log, stats, queue_length, backlog = _play(Server, schedule)
    ref_log, ref_stats, ref_queue_length, ref_backlog = _play(ReferenceServer, schedule)
    assert log == ref_log
    assert stats == ref_stats  # dataclass ==: every field, no tolerance
    assert (queue_length, backlog) == (ref_queue_length, ref_backlog)
    if not name.startswith("evict"):
        assert stats.jobs_completed > 0 and stats.busy_seconds > 0.0
