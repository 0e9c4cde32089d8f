import numpy as np
import pytest
from hypothesis import given, strategies as st

from ckle.rng import lemire_open, make_rng, stream_states, uniform_open

# 2**63 - 1 is the largest benchmark sub-seed; 2**200 + 3 has seven entropy
# words, more than the four-word pool, so its last three are mixed in after
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**200 + 3, np.int64(801)]
# indices of one and of two entropy words, and both sides of 2**32
RUNS = [(0, 301), (2**32 - 3, 2**32 + 3), (2**40, 2**40 + 2)]
# a word numpy's integers(1, 2**53) redraws: its leftover is 2047
REJECTED = 2**53 - 2047


def _numpy_open(rng, size):
    # the oracle: numpy's own bounded integers
    return rng.integers(1, 2**53, size=size) / 2**53


def _raw_open(rng, size):
    # a study's draw: the stream's raw words through the map, none rejected
    u, rejected = lemire_open(rng.bit_generator.random_raw(size))
    assert not rejected.any()
    return u


def _hex(values):
    return [v.hex() for v in values.tolist()]


def _assert_streams_match(seed, start, stop):
    states = stream_states(seed, start, stop)
    assert len(states) == stop - start
    rng = np.random.Generator(np.random.PCG64(0))
    for r, state in zip(range(start, stop), states):
        want = make_rng(seed, r)
        assert state == want.bit_generator.state, (seed, r)
        rng.bit_generator.state = state
        assert _hex(_raw_open(rng, 64)) == _hex(_numpy_open(want, 64)), (seed, r)
        assert rng.bit_generator.state == want.bit_generator.state, (seed, r)


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("start,stop", RUNS)
def test_stream_states_are_make_rng_bitwise(seed, start, stop):
    _assert_streams_match(seed, start, stop)


@given(seed=st.one_of(st.integers(0, 2**64), st.integers(0, 2**256)),
       start=st.one_of(st.integers(0, 1000), st.integers(2**32 - 50, 2**32 + 50),
                       st.integers(0, 2**70)),
       count=st.integers(0, 12))
def test_stream_states_are_make_rng_on_any_run(seed, start, count):
    _assert_streams_match(seed, start, start + count)


def _lemire(word):
    # numpy's rule on Python integers: the high word of w (2**53 - 1) plus
    # one, redrawn when the low word is below 2048
    product = word * (2**53 - 1)
    return ((product >> 64) + 1) / 2**53, product % 2**64 < 2048


def _assert_lemire(words):
    u, rejected = lemire_open(np.array(words, dtype=np.uint64))
    assert u.dtype == np.float64 and rejected.dtype == bool
    want = [_lemire(w) for w in words]
    assert _hex(u) == [v.hex() for v, _ in want]
    assert rejected.tolist() == [r for _, r in want]


def test_lemire_map_on_edge_words():
    # 0 and 2**53 - 2047 are rejected; 2**64 - 1 gives the largest k
    edges = [0, 1, 2047, 2048, 2049, REJECTED - 1, REJECTED, REJECTED + 1,
             2**53, 2**63, 2**64 - 2048, 2**64 - 1]
    _assert_lemire(edges)
    u, rejected = lemire_open(np.array(edges, dtype=np.uint64))
    assert rejected.tolist() == [w in (0, REJECTED) for w in edges]
    assert u[-1] == (2**53 - 1) / 2**53 and u.min() > 0


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_lemire_map_is_numpys_rule(words):
    _assert_lemire(words)


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("size", [1, 64, 325, 70_000])
def test_raw_words_through_the_map_are_numpys_integers(seed, size):
    got, want = make_rng(seed, 3), make_rng(seed, 3)
    assert _hex(_raw_open(got, size)) == _hex(_numpy_open(want, size))
    assert got.bit_generator.state == want.bit_generator.state
    # the next draw continues the same stream, and uniform_open is numpy's
    assert _hex(_raw_open(got, 5)) == _hex(uniform_open(want, 5))


def test_constructed_state_gives_the_word(state_before_word):
    bits = np.random.PCG64(0)
    for ahead in (0, 1, 7):
        bits.state = state_before_word(REJECTED, ahead)
        assert int(bits.random_raw(ahead + 1)[-1]) == REJECTED


@pytest.mark.parametrize("ahead,size", [(0, 3), (0, 1), (2, 3), (5, 64), (63, 64)])
def test_numpy_redraws_the_word_the_map_rejects(state_before_word, ahead, size):
    # numpy skips the word, so it spends size + 1 words on size values:
    # (0, 3) spends four words on three; the map flags that word alone and
    # gives numpy's values from the others
    state = state_before_word(REJECTED, ahead)
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = state
    want = _hex(uniform_open(rng, size))
    bits = np.random.PCG64(0)
    bits.state = state
    words = bits.random_raw(size + 1)
    u, rejected = lemire_open(words)
    assert np.flatnonzero(rejected).tolist() == [ahead]
    assert _hex(np.delete(u, ahead)) == want
    assert rng.bit_generator.state == bits.state
