"""Empirical CDF / survival function and exact functionals of the step curves.

The empirical CDF is the right-continuous step function F_n(x) = #{x_i <= x}/n,
extended with F_n = 0 below the smallest order statistic and F_n = 1 above the
largest; the empirical survival function is its complement.  Ties are allowed
and zero-length intervals contribute nothing to any integral.
``build_samples`` is the one sample builder: it takes one or more 2-D
arrays of rows, one size each, and returns a read-only ``Samples`` batch
of all their rows in order, sorting each array's rows and summing them
along axis 1 (over C-contiguous rows the pairwise sum of each row alone,
bit for bit).  The batch holds each array's sorted rows and per-row arrays
of n, k, the mean, mean |x| and mean x^2; a row's ``Sample`` is built only
when the batch is iterated, and it is the one ``build_sample`` gives for
that row alone, Python ``int`` and ``float`` fields included.
``build_sample`` summarizes one row the same way.  Validation, array by array
and in order: an empty row is a ``ParseError``; the sorted rows are then
summed, and only the first row whose sums are non-finite is scanned, its
first non-finite value in input order being a ``ParseError`` and, when
there is none, the overflow a ``DataError``.  So a row raises what
``build_sample`` raises on it alone, and the first failing array raises
at its first failing row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import errors
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
    """Validate, sort and summarize raw observations: the sample
    ``build_samples`` gives for the one row they make.

    Raises ``ParseError`` (a ``DataError``) for anything but one row of
    numbers, an empty row or any non-finite value (reported at its position
    in the original ordering), and ``DataError`` when a moment overflows.
    """
    row = errors.floats("observations", raw, error=ParseError)
    obs, k, mean, mean_abs, mean_sq = _summarize(row[None])
    return Sample(obs[0], obs.shape[1], int(k[0]), float(mean[0]), float(mean_abs[0]),
                  float(mean_sq[0]))


class Samples:
    """A read-only batch of samples, one per row: ``obs`` is a tuple of
    row-sorted 2-D arrays, one per sample size, and ``n``, ``k``, ``mean``,
    ``mean_abs`` and ``mean_sq`` are per-row arrays over all their rows in
    order.  Iterating it builds each row's ``Sample`` then, the one
    ``build_sample`` gives for that row."""

    __slots__ = ("obs", "n", "k", "mean", "mean_abs", "mean_sq")

    def __init__(self, obs: tuple[np.ndarray, ...], n: np.ndarray, k: np.ndarray,
                 mean: np.ndarray, mean_abs: np.ndarray, mean_sq: np.ndarray):
        for a in (*obs, n, k, mean, mean_abs, mean_sq):
            a.setflags(write=False)
        self.obs, self.n, self.k = obs, n, k
        self.mean, self.mean_abs, self.mean_sq = mean, mean_abs, mean_sq

    def __len__(self) -> int:
        return len(self.n)

    def __iter__(self):
        return map(Sample, chain.from_iterable(self.obs), self.n.tolist(), self.k.tolist(),
                   self.mean.tolist(), self.mean_abs.tolist(), self.mean_sq.tolist())


def _summarize(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(obs, k, mean, mean_abs, mean_sq) of one 2-D array of rows, or the
    error of its first failing row.  The mean of squares is the finiteness
    check: any NaN or +-inf makes it non-finite, and while it is finite
    every |x| <= 1.4e154, so the plain sum and the sum of |x| are finite
    too.  Only the first row where it is not is scanned to tell the two
    errors apart."""
    n = rows.shape[1]
    if n == 0:
        raise ParseError("empty sample")
    obs = np.sort(rows, axis=1)
    # a.sum() / n is bitwise ndarray.mean(): the same pairwise sum, one
    # division; |x| is x bit for bit when every x > 0, but not for -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        mean_sq = np.add.reduce(obs * obs, axis=1) / n
    finite = np.isfinite(mean_sq)
    if not finite.all():
        raw = rows[np.argmin(finite)]
        ok = np.isfinite(raw)
        if not ok.all():
            raise ParseError(f"non-finite observation at index {int(np.argmin(ok))}")
        raise DataError("moments overflow: data too large in magnitude")
    total = np.add.reduce(obs, axis=1)
    low = np.minimum.reduce(obs[:, 0])
    abs_total = total if low > 0 else np.add.reduce(np.abs(obs), axis=1)
    # on sorted finite rows, the count below 0 is searchsorted(0.0, "left")
    k = np.add.reduce(obs < 0, axis=1) if low < 0 else np.zeros(len(obs), dtype=int)
    return obs, k, total / n, abs_total / n, mean_sq


def build_samples(*blocks: np.ndarray) -> Samples:
    """The ``Samples`` batch of the rows of the 2-D float arrays
    ``blocks``, in order, each row's sample bit for bit the sample of that
    row alone; the arrays are summarized one after another, so the first
    one with a failing row raises."""
    obs, *moments = zip(*map(_summarize, blocks))
    n = np.repeat([rows.shape[1] for rows in obs], [len(rows) for rows in obs])
    return Samples(obs, n, *map(np.concatenate, moments))


def ecdf_eval(sample: Sample, x: float) -> float:
    """F_n(x) = #{x_i <= x}/n, right-continuous, at x or each entry of it; NaN at NaN."""
    x = errors.floats("x", x, row=False)
    return np.where(x == x, np.searchsorted(sample.obs, x, side="right") / sample.n, np.nan)[()]


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
    # the n intervals between x_(1)..x_(k), 0, x_(k+1)..x_(n): below zero
    # [x_(i), x_(i+1)) carries F_n = i/n, the last one capped at 0; from 0
    # up they carry the survival 1 - i/n, which is 0 beyond x_(n)
    widths = np.diff(np.concatenate((obs[:k], [0.0], obs[k:])))
    vals = np.concatenate((np.arange(1, k + 1) / n, 1.0 - np.arange(k, n) / n))
    return float(widths @ _xlogx(vals))
