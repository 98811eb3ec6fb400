"""The pure-Python seed sequences and streams, with NumPy as the oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import seeded_stream
from phosmarket.bootstrap import replication_streams
from phosmarket.rng import SeedSequence, Stream

SEEDS = st.integers(0, 2**64)  # up to three 32-bit entropy words
REPLICATIONS = st.integers(0, 2**40)
LEMIRE_REJECTS = 3 * 2**30  # 2**32 % k == 2**30: a quarter of the draws are redrawn
BOUNDS = st.one_of(
    st.sampled_from([1, 2, 3, 1000, LEMIRE_REJECTS, 2**32 - 1]),
    st.integers(1, 2**32 - 1),
)
# Interleaved calls leave odd numbers of 32-bit halves, so they exercise
# the buffered upper half of each 64-bit output.
CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("signs"), st.integers(0, 12)),
        st.tuples(st.just("below"), BOUNDS),
    ),
    max_size=30,
)


def oracle_draw(rng: np.random.Generator, method: str, arg: int):
    if method == "signs":
        return (rng.integers(0, 2, size=arg) * 2 - 1).tolist()
    return int(rng.integers(arg))


def assert_same_state(stream: Stream, rng: np.random.Generator) -> None:
    state = rng.bit_generator.state
    assert stream._state == state["state"]["state"]
    assert stream._inc == state["state"]["inc"]
    assert stream._high == (state["uinteger"] if state["has_uint32"] else None)


def assert_same_draws(stream: Stream, rng: np.random.Generator, calls) -> None:
    for method, arg in calls:
        assert getattr(stream, method)(arg) == oracle_draw(rng, method, arg)
    assert_same_state(stream, rng)


@given(seed=SEEDS, replication=REPLICATIONS, n_children=st.integers(1, 12))
@example(seed=2**64, replication=2**40, n_children=3)  # five entropy words
@settings(max_examples=100, deadline=None)
def test_spawned_seed_sequences_match_numpy(seed, replication, n_children):
    ours = SeedSequence([seed, replication])
    theirs = np.random.SeedSequence([seed, replication])
    assert ours.pool == theirs.pool.tolist()
    for a, b in zip(ours.spawn(n_children), theirs.spawn(n_children)):
        assert a.pool == b.pool.tolist()
        assert a.generate_state(8) == b.generate_state(8).tolist()
    # A second spawn continues the indices; grandchildren extend the key.
    ours_child, theirs_child = ours.spawn(1)[0], theirs.spawn(1)[0]
    assert theirs_child.spawn_key == (n_children,)
    assert ours_child.pool == theirs_child.pool.tolist()
    for a, b in zip(ours_child.spawn(2), theirs_child.spawn(2)):
        assert a.pool == b.pool.tolist()


@given(seed=SEEDS, replication=REPLICATIONS, n_regions=st.integers(1, 10), calls=CALLS)
@settings(max_examples=100, deadline=None)
def test_replication_streams_draw_what_numpy_draws(seed, replication, n_regions, calls):
    demand, capacity, costs = replication_streams(seed, replication, n_regions)
    children = np.random.SeedSequence([seed, replication]).spawn(n_regions + 2)
    assert len(demand) == n_regions
    for stream, child in zip([*demand, capacity, costs], children):
        assert_same_draws(stream, np.random.default_rng(child), calls)


@given(seed=SEEDS, calls=CALLS)
@settings(max_examples=100, deadline=None)
def test_seeded_stream_draws_what_default_rng_draws(seed, calls):
    assert_same_draws(seeded_stream(seed), np.random.default_rng(seed), calls)


@pytest.mark.parametrize("seed", [0, 1, 2**64])
def test_lemire_rejection_redraws_like_numpy(seed):
    stream, rng = seeded_stream(seed), np.random.default_rng(seed)
    assert_same_draws(stream, rng, [("below", LEMIRE_REJECTS)] * 64)
    unrejected = seeded_stream(seed)
    for _ in range(64):
        unrejected._next32()
    assert (unrejected._state, unrejected._high) != (stream._state, stream._high)


def test_one_value_range_draws_nothing():
    stream, rng = seeded_stream(5), np.random.default_rng(5)
    assert_same_draws(stream, rng, [("below", 1)] * 3 + [("signs", 1), ("below", 1)])
    assert stream._high is not None  # only the sign drew a 32-bit half


@pytest.mark.parametrize("k", [0, -1, 2**32, 2**40])
def test_below_rejects_bounds_outside_32_bits(k):
    with pytest.raises(ValueError, match="outside"):
        seeded_stream(0).below(k)


def test_negative_entropy_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        SeedSequence([-5, 0])
