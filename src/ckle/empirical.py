"""Empirical CDF / survival function and exact functionals of the step curves.

The empirical CDF is the right-continuous step function F_n(x) = #{x_i <= x}/n,
extended with F_n = 0 below the smallest order statistic and F_n = 1 above the
largest; the empirical survival function is its complement.  Ties are allowed
and zero-length intervals contribute nothing to any integral.
``build_sample`` computes the mean, mean |x| and mean x^2 of every sample.
Validation, in order: an empty input is a ``ParseError``; the sorted values
are then summed, and only when a sum is non-finite are they scanned, the
first non-finite value in input order being a ``ParseError`` and, when
there is none, the overflow a ``DataError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError


@dataclass(frozen=True)
class Sample:
    """Sorted observations with the negative/nonnegative split and their moments.

    ``k`` counts strictly negative observations, so ``obs[k]`` (when it exists)
    is the first nonnegative value.
    """

    obs: np.ndarray
    n: int
    k: int
    mean: float
    mean_abs: float
    mean_sq: float

    def __post_init__(self):
        self.obs.setflags(write=False)


def build_sample(raw) -> Sample:
    """Validate, sort and summarize raw observations.

    Raises ``ParseError`` (a ``DataError``) for an empty input or any
    non-finite value (reported at its position in the original ordering),
    and ``DataError`` when a moment overflows.  The moment sums are the
    finiteness check, since any NaN or +-inf makes the plain sum
    non-finite; only then is the input scanned to tell the two apart.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    n = arr.size
    if n == 0:
        raise ParseError("empty sample")
    obs = np.sort(arr)
    # a.sum() / n is bitwise ndarray.mean(): the same pairwise sum, one
    # division; |x| is x bit for bit when every x > 0, but not for -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(obs.sum())
        abs_total = total if obs[0] > 0 else float(np.abs(obs).sum())
        sq_total = float((obs * obs).sum())
    if not (math.isfinite(total) and math.isfinite(abs_total) and math.isfinite(sq_total)):
        finite = np.isfinite(arr)
        if not finite.all():
            raise ParseError(f"non-finite observation at index {int(np.argmin(finite))}")
        raise DataError("moments overflow: data too large in magnitude")
    k = 0 if obs[0] >= 0 else int(np.searchsorted(obs, 0.0, side="left"))
    return Sample(obs=obs, n=n, k=k, mean=total / n, mean_abs=abs_total / n,
                  mean_sq=sq_total / n)


def ecdf_eval(sample: Sample, x: float) -> float:
    """F_n(x) = #{x_i <= x}/n, right-continuous."""
    return np.searchsorted(sample.obs, x, side="right") / sample.n


def esf_eval(sample: Sample, x: float) -> float:
    """Empirical survival function, 1 - F_n(x) for every x."""
    return 1.0 - ecdf_eval(sample, x)


def _xlogx(v: np.ndarray) -> np.ndarray:
    # 0*log(0) := 0
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


def empirical_entropy_constant(sample: Sample) -> float:
    """The parameter-free entropy term C_n of the empirical divergence.

    C_n = int_{-inf}^0 F_n log F_n dx + int_0^inf sfbar_n log sfbar_n dx,
    evaluated exactly over the step function.  Always <= 0; zero iff n = 1
    or all observations coincide.
    """
    obs, n, k = sample.obs, sample.n, sample.k
    total = 0.0
    if k > 0:
        # intervals [x_(i), x_(i+1)) below zero carry F_n = i/n; the last one
        # is capped at 0
        breaks = np.concatenate((obs[:k], [0.0]))
        widths = np.diff(breaks)
        vals = np.arange(1, k + 1) / n
        total += float(widths @ _xlogx(vals))
    if k < n:
        # intervals from 0 through the nonnegative order statistics carry
        # survival values 1 - i/n; beyond x_(n) the survival is 0
        breaks = np.concatenate(([0.0], obs[k:]))
        widths = np.diff(breaks)
        vals = 1.0 - np.arange(k, n) / n
        total += float(widths @ _xlogx(vals))
    return total
