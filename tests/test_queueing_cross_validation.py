"""Cross-validation: the simulator's Server IS the queue the models assume.

The whole two-pronged method rests on the analytic queue formulas and the
simulated CPU+NIC server describing the same object.  Here we drive the
simulator's ``Server`` directly as an M/D/1 (and M/M/1) queue — Poisson
arrivals, constant (or exponential) service — and check the measured mean
wait against Table 1's closed forms.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.queueing import MD1, MM1
from repro.errors import ConfigError
from repro.paxi.config import Config
from repro.sim.clock import EventLoop
from repro.sim.server import Server


def simulate_queue(arrival_rate, service, jobs=20_000, seed=1):
    """Poisson arrivals into a Server; ``service()`` draws each job's cost.
    Returns the measured mean queueing delay (excluding service)."""
    loop = EventLoop()
    server = Server(loop)
    rng = random.Random(seed)
    t = 0.0
    for _ in range(jobs):
        t += rng.expovariate(arrival_rate)
        loop.call_at(t, server.submit, service(rng), lambda: None)
    loop.run()
    return server.stats.mean_wait()


SERVICE_TIME = 125e-6  # the calibrated Paxos round, mu = 8000/s


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8, 0.9])
def test_server_matches_md1_formula(rho):
    lam = rho / SERVICE_TIME
    measured = simulate_queue(lam, lambda rng: SERVICE_TIME)
    predicted = MD1.from_service_time(SERVICE_TIME).wait_time(lam)
    assert measured == pytest.approx(predicted, rel=0.12)


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_server_matches_mm1_formula(rho):
    lam = rho / SERVICE_TIME
    measured = simulate_queue(lam, lambda rng: rng.expovariate(1 / SERVICE_TIME))
    predicted = MM1(1 / SERVICE_TIME).wait_time(lam)
    assert measured == pytest.approx(predicted, rel=0.15)


def test_md1_beats_mm1_in_simulation_too():
    """The Table-1 ordering (deterministic service halves the wait) is a
    measured fact of the simulator, not just a formula."""
    lam = 0.7 / SERVICE_TIME
    deterministic = simulate_queue(lam, lambda rng: SERVICE_TIME)
    exponential = simulate_queue(lam, lambda rng: rng.expovariate(1 / SERVICE_TIME))
    assert deterministic < exponential
    assert deterministic == pytest.approx(exponential / 2, rel=0.25)


@settings(max_examples=10, deadline=None)
@given(rho=st.floats(min_value=0.1, max_value=0.85), seed=st.integers(0, 100))
def test_md1_formula_is_an_unbiased_predictor(rho, seed):
    lam = rho / SERVICE_TIME
    measured = simulate_queue(lam, lambda rng: SERVICE_TIME, jobs=8_000, seed=seed)
    predicted = MD1.from_service_time(SERVICE_TIME).wait_time(lam)
    # Short runs are noisy; bound the relative error generously.
    assert measured == pytest.approx(predicted, rel=0.5, abs=5e-6)


@settings(max_examples=20, deadline=None)
@given(
    zones=st.integers(1, 4),
    per_zone=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    q2=st.integers(1, 4),
)
def test_config_json_roundtrip_property(zones, per_zone, seed, q2):
    """Any grid configuration round-trips through JSON losslessly; one
    whose phase-2 quorum outnumbers its nodes is refused when built."""
    if q2 > zones * per_zone:
        with pytest.raises(ConfigError, match="q2_size"):
            Config.lan(zones, per_zone, seed=seed, q2_size=q2)
        return
    original = Config.lan(zones, per_zone, seed=seed, q2_size=q2)
    restored = Config.from_json(original.to_json())
    assert restored.node_ids == original.node_ids
    assert restored.seed == original.seed
    assert restored.params == original.params
    assert restored.topology.sites == original.topology.sites
