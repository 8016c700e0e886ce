"""The batched draw kernels against the one-draw-at-a-time stream.

``DrawStream.draws`` computes a whole request on packed 64-bit lanes; it
must return exactly what the same number of ``next_below`` calls return
and leave the stream in the same state, rejections included.
``trial_draws`` packs several trials' draws into one int; it must return
exactly what one ``DrawStream`` per trial returns.
"""

import hashlib
import struct
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from impsel.core import format_profile
from impsel.generators import gen_random_multi, gen_random_single
from impsel.mechanisms import DrawStream, MechanismSpec, _lanes, derive_seed, resolve_k, trial_draws

COUNTS = (0, 1, 63, 1023, 1024, 1025, 3000)
# 3 * 2^62 rejects a quarter of raw values, so nearly every request replays;
# the last bound rejects one raw value in 3000, so some requests first
# reject in a later chunk of lanes
BOUNDS = (1, 2, 7, 4096, 2**53, 2**64 - 1, 3 * 2**62, 2**64 - 2**64 // 3000)
SEEDS = (0, 1, 2**64 - 1) + tuple(derive_seed(17, i) for i in range(4))


def scalar(seed, count, n):
    stream = DrawStream(seed)
    values = [stream.next_below(n) for _ in range(count)]
    return values, stream.next_raw()


def batched(seed, count, n):
    stream = DrawStream(seed)
    values = stream.draws(count, n)
    return values, stream.next_raw()


@pytest.mark.parametrize("n", BOUNDS)
@pytest.mark.parametrize("count", COUNTS)
def test_draws_match_next_below(count, n):
    for seed in SEEDS:
        assert batched(seed, count, n) == scalar(seed, count, n), (seed, count, n)


# every power of two 2^0..2^64 and its neighbours within 1..2^64: a power of two
# is masked on the lanes, its neighbours take the modulo, at every width
POWER_BOUNDS = sorted({b for j in range(65) for b in (2**j - 1, 2**j, 2**j + 1) if 1 <= b <= 2**64})
POWER_COUNTS = (1, 1023, 1024, 1025)


@pytest.mark.parametrize("count", POWER_COUNTS)
def test_power_of_two_bounds_match_next_below(count):
    for n in POWER_BOUNDS:
        for seed in SEEDS[:2]:
            assert batched(seed, count, n) == scalar(seed, count, n), (seed, count, n)


def test_grid_rejects_in_a_later_chunk():
    n = BOUNDS[-1]
    limit = 2**64 - 2**64 % n

    def first_rejection(seed):
        stream = DrawStream(seed)
        return next((j for j in range(3000) if stream.next_raw() >= limit), None)

    assert any(j is not None and j >= 1024 for j in map(first_rejection, SEEDS))


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2500),
    st.one_of(st.integers(1, 5000), st.integers(1, 2**64)),
)
@settings(max_examples=60, deadline=None)
def test_draws_match_next_below_property(seed, count, n):
    assert batched(seed, count, n) == scalar(seed, count, n)


@pytest.mark.parametrize("n", (0, -3, 2**64 + 1, 2**70))
def test_bound_out_of_range_is_rejected(n):
    with pytest.raises(ValueError, match="bound"):
        DrawStream(0).next_below(n)
    with pytest.raises(ValueError, match="bound"):
        DrawStream(0).draws(5, n)
    with pytest.raises(ValueError, match="bound"):
        DrawStream(0).draws(0, n)


def per_trial(master, trials, k, n):
    return [DrawStream(derive_seed(master, i)).draws(k, n) for i in range(trials)]


# (k, n) of the C4 (random-k:auto) and C5 (simple-k:auto) sweep rows
C4_SHAPES = tuple((resolve_k(MechanismSpec.random_k(), n), n) for n in (64, 128, 256, 512, 1024, 2048, 4096))
C5_SHAPES = tuple((resolve_k(MechanismSpec.simple_k(), n), n) for n in (128, 256, 512, 1024, 2048, 4096))
# either side of one trial per block (k > 512) and of one trial per lane pass (k > 1024)
EDGE_SHAPES = tuple((k, 4096) for k in (512, 513, 1024, 1025))
# 2^63 + 1 rejects nearly half of all raw values, so every block replays
HALF_REJECTING = 2**63 + 1


def blocks_of(k):
    """Trials per packed block: 1024 lanes' worth, one when a trial needs more than 512."""
    return max(1024 // k, 1)


@pytest.mark.parametrize("k, n", C4_SHAPES + C5_SHAPES + EDGE_SHAPES)
def test_trial_draws_match_one_stream_per_trial(k, n):
    size = blocks_of(k)
    # one trial; one whole block; a partial last block
    for trials in (1, size, 2 * size + 3):
        for bound in (n, HALF_REJECTING, BOUNDS[-1]):
            for master in SEEDS[:4]:
                got = list(trial_draws(master, trials, k, bound))
                assert got == per_trial(master, trials, k, bound), (master, trials, k, bound)


@pytest.mark.parametrize("k", POWER_COUNTS)
def test_trial_draws_at_power_of_two_bounds_match_one_stream_per_trial(k):
    for n in POWER_BOUNDS:
        assert list(trial_draws(SEEDS[1], 3, k, n)) == per_trial(SEEDS[1], 3, k, n), (k, n)


def test_trial_draws_blocks_straddle_seed_chunks():
    # seeds are drawn 1024 at a time and k = 3 packs 341 trials per block, so
    # block 4 takes seeds from chunks 1 and 2, and the partial block 7 from
    # chunk 2 and the partial chunk 3
    k, trials = 3, 2 * 1024 + 7
    for n in (10, HALF_REJECTING, BOUNDS[-1]):
        for master in SEEDS[:4]:
            assert list(trial_draws(master, trials, k, n)) == per_trial(master, trials, k, n), (master, n)


def test_trial_draws_hold_one_seed_chunk_at_a_time():
    draws = trial_draws(5, 10**6, 8, 64)
    tracemalloc.start()
    try:
        next(draws), next(draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a seed chunk, a block's draws and their lane constants take about 200 KB;
    # a million seeds held at once would take over 30 MB
    assert peak < 2**19, peak


def test_lane_constants_fit_the_cache_across_sweeps():
    """Three rounds of the C4, C5 single and C5 multi sweeps' draws, at more trials
    than one seed chunk, build every lane constant in the first round only."""
    trials = 1024 + 5
    _lanes.cache_clear()
    misses = []
    for _ in range(3):
        for k, n in C4_SHAPES + C5_SHAPES:
            deque(trial_draws(46, trials, k, n), 0)
        # the multi rows' trials have the shapes of C5's first two rows, so only
        # their profiles' draws add lane constants
        for n in (128, 256):
            gen_random_multi(n, 0.05, 48)
        misses.append(_lanes.cache_info().misses)
    assert misses[0] == misses[1] == misses[2], misses


def test_trial_draws_reject_in_a_later_block():
    # BOUNDS[-1] rejects one raw value in 3000, so the first rejection can
    # come after a whole block of k = 8 trials drew cleanly
    n, k = BOUNDS[-1], 8
    limit = 2**64 - 2**64 % n

    def rejects(seed):
        stream = DrawStream(seed)
        return any(stream.next_raw() >= limit for _ in range(k))

    firsts = {master: next(i for i in range(10**4) if rejects(derive_seed(master, i))) for master in SEEDS}
    later = {master: first for master, first in firsts.items() if first >= blocks_of(k)}
    assert later
    for master, first in later.items():
        trials = first + blocks_of(k)
        assert list(trial_draws(master, trials, k, n)) == per_trial(master, trials, k, n)


@given(
    st.integers(0, 2**64 - 1),
    st.integers(1, 1100).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 3 * blocks_of(k) + 2))),
    st.one_of(st.integers(1, 5000), st.integers(1, 2**64)),
)
@settings(max_examples=60, deadline=None)
def test_trial_draws_match_one_stream_per_trial_property(master, shape, n):
    k, trials = shape
    assert list(trial_draws(master, trials, k, n)) == per_trial(master, trials, k, n)


@pytest.mark.parametrize("master", SEEDS + (-5, 2**70 + 3))
def test_derive_seed_is_the_masters_raw_stream(master):
    # trial_draws computes a block's seeds as consecutive raw values of DrawStream(master)
    stream = DrawStream(master)
    assert [stream.next_raw() for _ in range(300)] == [derive_seed(master, i) for i in range(300)]


@pytest.mark.parametrize("order", ("little", "big"))
def test_low_words_slice_for_either_byte_order(order):
    # the kernel reads lane i's low 64 bits from the native-endian words of
    # the packed int serialised in the host's byte order; emulate both hosts
    low = [(0x0123456789ABCDEF * (i + 3)) % 2**64 for i in range(5)]
    packed = sum(((0xDEAD << 64) | w) << (128 * i) for i, w in enumerate(low))
    words = struct.unpack(("<" if order == "little" else ">") + "10Q", packed.to_bytes(80, order))
    step = 2 if order == "little" else -2
    assert list(words[::step]) == low


def digest(profile):
    return hashlib.sha256(format_profile(profile).encode()).hexdigest()


# sha256 of format_profile output, recorded with the one-draw-at-a-time generators
RANDOM_SINGLE_DIGESTS = {
    (2, 0): "56c4739a694613dec581dedc9ac450ebb98cf6a9a69c8c796ea69778a8120dad",
    (7, 3): "cc8ddd339881df9d27da904a75afcd18f44d3f27f2370fa7d6474f1cf56b0429",
    (1000, 11): "b2b39b7d82e9b1abc91e930785230c55b7272db7f8ffd01be9fc9b84c1813ab0",
    (4097, 5): "239a1e373ff10247ec3417e432f90c4a152e6c37fd86f2c3d0a3c6951c5e36cb",
}
RANDOM_MULTI_DIGESTS = {
    (2, 0.5, 0): "e9efd481650d17ee4023d538ff50167a823ff1e92914aa06c6d89b6b006d0ca7",
    (9, 0.3, 1): "861541d2da72a88067c81d7ec42ef203c78f0cf1e45c11a85f2ce9ab3be7b06a",
    (60, 0.5, 2): "b028851575ef270498b1f12494c2b022bcec19c66438eedb32f20c2b45d1882e",
    (1026, 0.01, 4): "57566763f6614c86ce287fa5a1a8e8873b49bb3c195ffa2fcce0ec38abbc2f1d",
}


@pytest.mark.parametrize("args", sorted(RANDOM_SINGLE_DIGESTS))
def test_random_single_bytes_are_pinned(args):
    assert digest(gen_random_single(*args)) == RANDOM_SINGLE_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(RANDOM_MULTI_DIGESTS))
def test_random_multi_bytes_are_pinned(args):
    assert digest(gen_random_multi(*args)) == RANDOM_MULTI_DIGESTS[args]
