"""The pure-Python seeding and streams, with NumPy as the oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import seeded_stream
from phosmarket.bootstrap import replication_streams
from phosmarket.rng import Stream, spawn, stream_seeds

# one, two and three 32-bit entropy words
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**96 - 1)
)
# indices of 2**32 and more are two words, which the run's constants do not serve
REPLICATIONS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))
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
        st.tuples(st.just("below"), st.lists(BOUNDS, max_size=4)),
    ),
    max_size=30,
)


def oracle_draw(rng: np.random.Generator, method: str, arg):
    if method == "signs":
        return (rng.integers(0, 2, size=arg) * 2 - 1).tolist()
    return [int(rng.integers(k)) for k in arg]


def assert_same_state(stream: Stream, rng: np.random.Generator) -> None:
    state = rng.bit_generator.state
    assert stream._state == state["state"]["state"]
    assert stream._inc == state["state"]["inc"]
    assert stream._high == (state["uinteger"] if state["has_uint32"] else None)


def assert_same_draws(stream: Stream, rng: np.random.Generator, calls) -> None:
    for method, arg in calls:
        assert getattr(stream, method)(arg) == oracle_draw(rng, method, arg)
    assert_same_state(stream, rng)


@given(seed=SEEDS, replication=REPLICATIONS, n_children=st.integers(1, 12), index=REPLICATIONS)
@example(seed=2**64, replication=2**40, n_children=3, index=0)  # five entropy words
@example(seed=2**96 + 1, replication=0, n_children=2, index=2**40)  # four and six words
@settings(max_examples=100, deadline=None)
def test_spawned_seed_sequences_match_numpy(seed, replication, n_children, index):
    # The constants serve any index: those of another index length are
    # rebuilt, and the children's seeding is NumPy's either way.
    seeds = stream_seeds(seed, n_children, index)
    children = np.random.SeedSequence([seed, replication]).spawn(n_children)
    for stream, child in zip(spawn(seeds, replication), children, strict=True):
        assert_same_state(stream, np.random.default_rng(child))


@given(seed=SEEDS, replication=REPLICATIONS, n_regions=st.integers(1, 10), calls=CALLS)
@example(  # three seed words and a two-word index; odd sign counts leave upper halves
    seed=2**64 + 3,
    replication=2**40 + 1,
    n_regions=3,
    calls=[("signs", 3), ("below", [5, 2]), ("signs", 1), ("below", [LEMIRE_REJECTS, 7])],
)
@settings(max_examples=100, deadline=None)
def test_replication_streams_draw_what_numpy_draws(seed, replication, n_regions, calls):
    # the run's constants, as load_context computes them
    demand, capacity, costs = replication_streams(stream_seeds(seed, n_regions + 2), replication)
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
    batched = [("below", [LEMIRE_REJECTS] * 32)] + [("below", [LEMIRE_REJECTS])] * 32
    assert_same_draws(stream, rng, batched)
    unrejected = seeded_stream(seed)
    unrejected.signs(64)  # 64 32-bit halves, one per unrejected draw
    assert (unrejected._state, unrejected._high) != (stream._state, stream._high)


@given(seed=SEEDS, calls=CALLS, k=BOUNDS, count=st.integers(0, 40))
@example(seed=0, calls=[], k=LEMIRE_REJECTS, count=40)  # pairs whose first draw is redrawn
@example(seed=0, calls=[("signs", 1)], k=1000, count=3)  # a buffered half goes first
@example(seed=0, calls=[], k=1, count=3)  # a one-value range draws nothing
@settings(max_examples=100, deadline=None)
def test_pairs_draw_what_below_draws(seed, calls, k, count):
    stream, rng = seeded_stream(seed), np.random.default_rng(seed)
    assert_same_draws(stream, rng, calls)
    assert stream.pairs(k, count) == oracle_draw(rng, "below", [k, 2] * count)
    assert_same_state(stream, rng)


def test_one_value_range_draws_nothing():
    stream, rng = seeded_stream(5), np.random.default_rng(5)
    assert_same_draws(stream, rng, [("below", [1, 1]), ("below", [1]), ("signs", 1), ("below", [1])])
    assert stream._high is not None  # only the sign drew a 32-bit half


@pytest.mark.parametrize("k", [0, -1, 2**32, 2**40])
def test_below_rejects_bounds_outside_32_bits(k):
    with pytest.raises(ValueError, match="outside"):
        seeded_stream(0).below([k])


def test_negative_entropy_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        stream_seeds(-5, 3)
    with pytest.raises(ValueError, match="non-negative"):
        spawn(stream_seeds(5, 3), -1)
