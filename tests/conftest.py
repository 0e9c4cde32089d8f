import hypothesis
import pytest

hypothesis.settings.register_profile(
    "ci", deadline=None, derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("ci")


_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _state_before_word(word: int, ahead: int = 0, inc: int = 0xDA3E39CB94B95BDB,
                       hi: int = 0x9E3779B97F4A7C15) -> dict:
    """A PCG64 ``state`` dict whose raw word number ``ahead`` (from 0) is
    ``word``.  PCG64 steps its 128-bit state s to s M + inc and outputs
    rotr64(hi ^ lo, hi >> 58) of the new state (hi, lo), so the state after
    that step is (hi, hi ^ rotl64(word, hi >> 58)), and each step back is
    (s - inc) M^-1 mod 2**128."""
    rot = hi >> 58
    rotl = (word << rot | word >> (64 - rot)) & _MASK64
    state = hi << 64 | (hi ^ rotl)
    back = pow(_PCG_MULT, -1, 1 << 128)
    for _ in range(ahead + 1):
        state = (state - inc) * back & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@pytest.fixture
def state_before_word():
    """The PCG64 state builder ``_state_before_word``."""
    return _state_before_word
