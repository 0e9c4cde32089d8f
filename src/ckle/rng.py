"""Deterministic random-number streams.

All simulation entry points take a master seed, an integer of at least 0
(any other is a ``DomainError`` from ``errors.seed``), and derive independent
substreams as ``(seed, stream_index)`` through :class:`numpy.random.SeedSequence`
feeding a PCG64 bit generator.  Uniform variates for inverse-transform
sampling are drawn as ``k / 2**53`` with ``k`` uniform on ``{1, ..., 2**53-1}``,
so they lie strictly inside (0, 1) and every quantile function is safe to
apply.  Identical ``(seed, stream)`` pairs reproduce identical draws on any
platform.

``uniform_open`` draws ``k`` with numpy's ``Generator.integers(1, 2**53)``.
numpy maps each raw 64-bit word w by Lemire's multiply-and-reject rule
(ACM TOMACS 29(1), 2019): k = 1 + floor(w (2**53 - 1) / 2**64), and it
redraws w when the low 64 bits of that product, the leftover, are below
its threshold (2**64 - 2**53 + 1) mod (2**53 - 1) = 2048, one word in
2**53.  ``lemire_open`` restates that rule on a uint64 array of raw PCG64
words and returns the uniforms with the mask of the words numpy would
redraw.  A study maps the raw words of a whole group of streams in one
call and draws a stream with a rejected word again by ``uniform_open``;
one stream alone keeps numpy's own single pass, which is faster than
reading raw words and mapping them.

``make_rng`` builds one stream.  ``stream_states`` seeds a run of
consecutive streams in one pass: it restates numpy's ``SeedSequence``
entropy hash on uint32 arrays, one element per stream, and numpy's PCG64
seeding on Python integers, so that each returned state, set on any PCG64
through its ``state`` setter, gives the stream ``make_rng`` gives bit for
bit.
"""

from __future__ import annotations

import numpy as np

from . import errors

_TWO53 = 1 << 53
# Lemire's rule for integers(1, 2**53): the split of a word at bit 11 and
# the leftover below which numpy redraws
_LOW11, _SHIFT11, _SHIFT53 = np.uint64(2047), np.uint64(11), np.uint64(53)
_THRESHOLD = np.uint64(2048)
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), its
# pool of four words, and the 128-bit multiplier of PCG64's LCG step
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for substream ``stream`` of master ``seed``."""
    entropy = (errors.seed(seed), errors.count("stream", stream, 0))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def lemire_open(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k / 2**53, rejected) for a uint64 array of raw PCG64 words: k is
    the value ``integers(1, 2**53)`` gives for each word and ``rejected``
    marks the words it redraws.  With w = 2**11 h + l, the product
    w (2**53 - 1) is h 2**64 + (l 2**53 - w), so with b = l 2**53 its high
    word is h - (w > b), which makes k = h + (w <= b), and its low word, the
    leftover, is b - w mod 2**64."""
    b = words & _LOW11
    b <<= _SHIFT53
    k = words >> _SHIFT11
    k += words <= b
    b -= words
    # k < 2**53 converts exactly, and from int64 faster than from uint64;
    # in place, a large group allocates one array fewer
    u = k.view(np.int64).astype(np.float64)
    u *= 1.0 / _TWO53
    return u, b < _THRESHOLD


def uniform_open(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform draws on the open interval (0, 1), exactly representable."""
    return rng.integers(1, _TWO53, size=errors.count("size", size, 0)) / _TWO53


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an integer: its uint32 words, least
    significant first, and one zero word for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pool(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's mixed pool for each column of ``entropy``, a (words,
    streams) uint32 array.  The hash constant runs through the same values
    for every column, so it stays a Python integer; every product wraps in
    uint32 arrays, which warn on no overflow."""
    hc = _INIT_A

    def hashmix(value):
        nonlocal hc
        value = value ^ np.uint32(hc)
        hc = hc * _MULT_A & _MASK32
        value = value * np.uint32(hc)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_states(pool: list[np.ndarray]) -> list[dict]:
    """PCG64's state dicts seeded from each column of a SeedSequence pool:
    ``generate_state(4, uint64)`` gives the seed s and the stream number q,
    then inc = 2q + 1 and the state is ((inc + s)·M + inc) mod 2**128."""
    hc = _INIT_B
    words = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(hc)
        hc = hc * _MULT_B & _MASK32
        value = value * np.uint32(hc)
        words.append(value ^ (value >> 16))
    w = np.array(words, dtype=np.uint64)
    s_hi, s_lo, q_hi, q_lo = (w[0::2] | (w[1::2] << np.uint64(32))).tolist()
    states = []
    for a, b, c, d in zip(s_hi, s_lo, q_hi, q_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def stream_states(seed: int, start: int, stop: int) -> list[dict]:
    """The PCG64 ``state`` of ``make_rng(seed, r)`` for r = start..stop-1,
    from one hash pass per run of streams whose index has the same number
    of uint32 words (one below 2**32)."""
    seed_words = _words(int(seed))
    states = []
    r = int(start)
    while r < stop:
        m = len(_words(r))
        rs = range(r, min(int(stop), 1 << (32 * m)))
        entropy = np.empty((len(seed_words) + m, len(rs)), dtype=np.uint32)
        entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
        for j in range(m):
            entropy[len(seed_words) + j] = [x >> (32 * j) & _MASK32 for x in rs]
        states += _pcg64_states(_pool(entropy))
        r = rs.stop
    return states
