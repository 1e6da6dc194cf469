"""Unit tests for seeded random streams."""

from repro.sim.random import RandomStreams, truncated_normal


def test_same_seed_same_name_same_sequence():
    a = RandomStreams(1).stream("net")
    b = RandomStreams(1).stream("net")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    streams = RandomStreams(1)
    a = [streams.stream("net").random() for _ in range(5)]
    streams2 = RandomStreams(1)
    _burn = [streams2.stream("other").random() for _ in range(100)]
    b = [streams2.stream("net").random() for _ in range(5)]
    assert a == b  # consuming "other" does not perturb "net"


def test_different_seeds_differ():
    a = RandomStreams(1).stream("x")
    b = RandomStreams(2).stream("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    streams = RandomStreams(0)
    assert streams.stream("a") is streams.stream("a")


def test_spawn_derives_deterministic_children():
    a = RandomStreams(1).spawn("child").stream("s")
    b = RandomStreams(1).spawn("child").stream("s")
    assert a.random() == b.random()


class TestTruncatedNormal:
    def test_always_above_floor(self):
        rng = RandomStreams(3).stream("t")
        for _ in range(500):
            assert truncated_normal(rng, 0.1, 1.0, floor=0.0) > 0.0

    def test_tracks_mean_when_far_from_floor(self):
        rng = RandomStreams(4).stream("t")
        samples = [truncated_normal(rng, 100.0, 1.0) for _ in range(2000)]
        assert abs(sum(samples) / len(samples) - 100.0) < 0.2

    def test_pathological_parameters_fall_back(self):
        rng = RandomStreams(5).stream("t")
        value = truncated_normal(rng, -1000.0, 0.001, floor=0.0)
        assert value > 0.0


def test_spawn_distinct_seed_name_pairs_do_not_alias():
    """Regression for the old ``(seed << 16) ^ crc32(name)`` mix: two names
    whose CRCs agree in the low 16 bits let two different parents collide
    onto one child seed.  The ``<< 32`` mix keeps seed and CRC bits apart."""
    import zlib

    by_low: dict[int, str] = {}
    pair = None
    for i in range(100_000):
        name = f"n{i}"
        low = zlib.crc32(name.encode()) & 0xFFFF
        if low in by_low:
            pair = (by_low[low], name)
            break
        by_low[low] = name
    assert pair is not None, "no low-16-bit CRC collision found"
    n1, n2 = pair
    c1, c2 = zlib.crc32(n1.encode()), zlib.crc32(n2.encode())
    s1 = 1
    s2 = s1 ^ ((c1 ^ c2) >> 16)
    assert (s1, n1) != (s2, n2)
    assert (s1 << 16) ^ c1 == (s2 << 16) ^ c2  # the old mix aliased here
    a = RandomStreams(s1).spawn(n1)
    b = RandomStreams(s2).spawn(n2)
    assert a.seed != b.seed
    assert [a.stream("s").random() for _ in range(4)] != [
        b.stream("s").random() for _ in range(4)
    ]


def test_spawn_children_unique_across_small_grid():
    seen: dict[int, tuple[int, int]] = {}
    for seed in range(32):
        parent = RandomStreams(seed)
        for i in range(32):
            child_seed = parent.spawn(f"c{i}").seed
            assert child_seed not in seen, (seen[child_seed], (seed, i))
            seen[child_seed] = (seed, i)


# --- draw-order equivalence ------------------------------------------------
#
# A stream is a plain random.Random seeded with (seed << 32) ^ crc32(name):
# every method, in any interleaving, returns exactly what the reference
# generator returns.  The golden fingerprints rest on this.


def _reference_for(name: str, seed: int = 1):
    import random as _random
    import zlib

    return _random.Random((seed << 32) ^ zlib.crc32(name.encode()))


def _script(rng, ops: list[tuple]) -> list:
    out = []
    for op in ops:
        kind, args = op[0], op[1:]
        out.append(getattr(rng, kind)(*args))
    return out


def test_stream_matches_reference_draw_for_draw():
    """One interleaved script over every method the simulator draws with
    (and ``getstate``, which must expose the same Mersenne position and
    Box-Muller spare), more than 10k draws long."""
    seq = list(range(10))
    ops = []
    for i in range(4000):
        ops.append(("random",))
        ops.append(("gauss", 1.0, 0.25))
        if i % 2 == 0:
            ops.append(("uniform", 0.5, 2.5))
        if i % 3 == 0:
            ops.append(("expovariate", 3.0))
        if i % 5 == 0:
            ops.append(("randint", 0, 99))
        if i % 7 == 0:
            ops.append(("choice", seq))
        if i % 501 == 0:
            ops.append(("shuffle", list(seq)))  # returns None; advances the state
        if i % 1000 == 0:
            ops.append(("getstate",))
    assert len(ops) > 10_000
    stream = RandomStreams(1).stream("script")
    reference = _reference_for("script")
    assert _script(stream, ops) == _script(reference, ops)
    assert stream.getstate() == reference.getstate()


def test_pooled_and_fallthrough_interleaving_matches_reference():
    """Mixing pooled draws with methods the pool does not cover (randint,
    choice, shuffle) forces resyncs; the merged sequence must still be
    bit-identical to the reference generator."""
    seq = list(range(10))
    ops = []
    for i in range(500):
        ops.append(("random",))
        ops.append(("randint", 0, 99))
        ops.append(("gauss", 0.0, 1.0))
        ops.append(("choice", seq))
        if i % 11 == 0:
            ops.append(("expovariate", 0.5))
    pooled = RandomStreams(3).stream("mixed")
    ref = _reference_for("mixed", seed=3)
    assert _script(pooled, ops) == _script(ref, ops)


def test_getstate_setstate_round_trip_preserves_sequence():
    pooled = RandomStreams(4).stream("state")
    ref = _reference_for("state", 4)
    for _ in range(300):
        assert pooled.random() == ref.random()
    state = pooled.getstate()
    ahead = [pooled.gauss(0, 1) for _ in range(50)]
    pooled.setstate(state)
    replay = [pooled.gauss(0, 1) for _ in range(50)]
    assert ahead == replay
