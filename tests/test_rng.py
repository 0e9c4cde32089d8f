import numpy as np
import pytest
from hypothesis import given, strategies as st

from ckle.rng import make_rng, stream_states, uniform_open

# 2**63 - 1 is the largest benchmark sub-seed; 2**200 + 3 has seven entropy
# words, more than the four-word pool, so its last three are mixed in after
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**200 + 3, np.int64(801)]
# indices of one and of two entropy words, and both sides of 2**32
RUNS = [(0, 301), (2**32 - 3, 2**32 + 3), (2**40, 2**40 + 2)]


def _assert_streams_match(seed, start, stop):
    states = stream_states(seed, start, stop)
    assert len(states) == stop - start
    rng = np.random.Generator(np.random.PCG64(0))
    for r, state in zip(range(start, stop), states):
        want = make_rng(seed, r)
        assert state == want.bit_generator.state, (seed, r)
        rng.bit_generator.state = state
        got = uniform_open(rng, 64)
        assert [v.hex() for v in got.tolist()] == [
            v.hex() for v in uniform_open(want, 64).tolist()], (seed, r)


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
