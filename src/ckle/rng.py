"""Deterministic random-number streams.

All simulation entry points take a non-negative integer master seed (any
other is a ``DomainError`` from ``check_seed``) and derive independent
substreams as ``(seed, stream_index)`` through :class:`numpy.random.SeedSequence`
feeding a PCG64 bit generator.  Uniform variates for inverse-transform
sampling are drawn as ``k / 2**53`` with ``k`` uniform on ``{1, ..., 2**53-1}``,
so they lie strictly inside (0, 1) and every quantile function is safe to
apply.  Identical ``(seed, stream)`` pairs reproduce identical draws on any
platform.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError

_TWO53 = 1 << 53


def check_seed(seed) -> None:
    """Raise DomainError unless seed is a non-negative integer (a Python or
    numpy integer, not a bool); entry points check it before any draw."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for substream ``stream`` of master ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def uniform_open(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform draws on the open interval (0, 1), exactly representable."""
    return rng.integers(1, _TWO53, size=size) / _TWO53
