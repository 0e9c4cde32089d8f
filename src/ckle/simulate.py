"""Seeded Monte Carlo: estimator comparisons, bias and variance curves,
interval coverage, test size and resampled region cutoffs.

Every entry point runs its replicates through one engine,
``_replicate_chunk``: replicate r reads the stream (seed, r), its sizes are
consecutive slices of that stream in the order given, and each of the
caller's cells maps a ``Samples`` batch to (rows, width) floats, NaN where
a row fails, called as ``cell(family, samples)`` once per replicate group
and draw block on one batch of all the block's sizes (rows size by size,
replicate by replicate, each with its own n).  A per-sample cell runs
through ``_each``, the one loop that turns a ``CkleError`` into a NaN row;
``run_study``'s estimator cells for the families with ``fit_rows`` (the
Exponential and the Laplace) read the batch's moment arrays.  One budget,
``_GROUP_VALUES`` (2**16 values), bounds memory at any replicate count: a
replicate draws its sizes in one block when they total at most that, else
one block per size (each slice holds what a draw of its size alone gives),
and a group of consecutive replicates holds at most that many values of
its largest block, or one replicate.  A group's streams are
seeded in one pass (``rng.stream_states``, bit for bit ``make_rng``'s) and
set in turn on one generator, and a replicate's state is kept from block to
block.  For each block, each replicate of a group reads its row of raw
64-bit words (``random_raw``) from its own stream, one ``rng.lemire_open``
call maps the (group, block) array to uniforms by numpy's bounded-integer
rule, so each row is ``uniform_open``'s draw bit for bit; a stream with a
word numpy would redraw takes ``uniform_open`` again from its start state.
One ``family.quantile`` call maps the uniforms, and one ``build_samples``
call sorts and sums each size's column slice, size by size.  Errors
propagate in that order: all of a group's draws of a block (a non-finite
draw is a ``DataError`` naming the family and parameters) come before any
sample of that block is built, and a ``build_samples`` error (a moment
overflow) is raised at the block's first failing size, at its first
failing replicate.  Values are aggregated in replicate order, so no report
depends on the worker count.  Every entry point raises ``DomainError`` for
a seed that is not a non-negative integer before it draws.

``run_study`` counts a row's failures and aggregates its finite estimates:
the mean, the mean over the true value (NaN when that is 0) and the sample
variance (0 for one success), all NaN when every replicate failed.  The
failure-free columns are reduced together, one contiguous row each, which
sums in the order a column alone does; a column with failures is reduced
alone.  Counts (sizes, replicates, threads, n, reps) are integers, numpy
ones too, and anything else is a ``DomainError``.
``bias_check_exponential`` is the mckle row of a one-size study and raises
``InferenceError`` if a replicate failed; ``coverage_study`` counts failed
fits or intervals and reports coverage over the rest;
``divergence_region_cutoffs`` raises ``InferenceError`` when more than 5%
of its fits fail.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .empirical import Sample, Samples, build_samples
from .errors import CkleError, DataError, DomainError, InferenceError
from .inference import _scalar_family, avar_scalar, divergence_interval, wald_ci
from .models import EXPONENTIAL, Family, get_family
from .objective import g_objective
from .rng import check_seed, lemire_open, stream_states, uniform_open
from .solver import fit

_ESTIMATORS = ("mckle", "mckle_unbiased", "mle", "mle_unbiased")
# the draw budget: a replicate's sizes share one block, and replicates one
# group, up to this many values
_GROUP_VALUES = 1 << 16


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise DomainError unless value is an integer (a Python or numpy
    integer, not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}")


def _check_levels(name: str, levels) -> tuple[float, ...]:
    """The sequence ``levels`` as floats, or DomainError unless each is a
    real number in (0, 1)."""
    if not isinstance(levels, Iterable):
        raise DomainError(f"{name} must be a sequence of numbers in (0, 1), got {levels!r}")
    levels = tuple(levels)
    if not all(isinstance(lv, numbers.Real) and 0.0 < lv < 1.0 for lv in levels):
        raise DomainError(f"{name} must be in (0, 1)")
    return tuple(map(float, levels))


@dataclass(frozen=True)
class StudyConfig:
    family: str
    params: tuple[float, ...]
    sizes: tuple[int, ...]
    replicates: int
    seed: int
    estimators: tuple[str, ...] = ("mckle", "mle")
    threads: int = 1

    def __post_init__(self):
        _check_count("replicates", self.replicates)
        if not isinstance(self.sizes, Iterable) or not tuple(self.sizes):
            raise DomainError(f"sizes must be a nonempty sequence of integers, got {self.sizes!r}")
        for size in self.sizes:
            _check_count("sizes", size)
        _check_count("threads", self.threads)
        for est in self.estimators:
            if est not in _ESTIMATORS:
                raise DomainError(f"unknown estimator {est!r}")
            if est.endswith("_unbiased") and not get_family(self.family).has_hook(est):
                raise DomainError(f"{est} is not defined for the {self.family} family")
        check_seed(self.seed)


@dataclass(frozen=True)
class StudyRow:
    size: int
    estimator: str
    param: str
    mean: float
    ratio: float
    variance: float
    failures: int


@dataclass(frozen=True)
class SimulationReport:
    rows: tuple[StudyRow, ...]
    seed: int
    replicates: int

    def to_csv(self) -> str:
        lines = ["size,estimator,param,mean,ratio,variance,failures"]
        for r in self.rows:
            lines.append(f"{r.size},{r.estimator},{r.param},{r.mean:.12g},"
                         f"{r.ratio:.12g},{r.variance:.12g},{r.failures}")
        return "\n".join(lines) + "\n"

    def row(self, size: int, estimator: str, param: str) -> StudyRow:
        for r in self.rows:
            if (r.size, r.estimator, r.param) == (size, estimator, param):
                return r
        raise KeyError((size, estimator, param))


def _estimate(est: str, family: Family, sample: Sample | Samples):
    """The study cell of estimator ``est`` (a name StudyConfig accepted).
    On a ``Samples`` batch of a family with ``fit_rows`` (a one-parameter
    family) the same calls give each parameter's per-row array, NaN where
    the cell raises CkleError on that row's sample."""
    if est == "mckle":
        if isinstance(sample, Samples):
            return family.fit_rows(sample)
        res = fit(family, sample)
        if not res.converged:
            raise InferenceError("fit did not converge")
        return res.params.values
    if est == "mckle_unbiased":
        return family.mckle_unbiased(family.closed_form(sample), sample.n)
    if est == "mle":
        return family.mle(sample)
    return family.mle_unbiased(sample)


def _estimate_rows(est: str, family: Family, samples: Samples) -> np.ndarray:
    """The batch cell of estimator ``est`` for a family with ``fit_rows``,
    read from the batch's moment arrays.  As on one sample's Python floats,
    a quotient past the doubles is +inf without a warning."""
    with np.errstate(all="ignore"):
        return np.column_stack(_estimate(est, family, samples))


def _each(fn, width: int, family: Family, samples: Samples) -> np.ndarray:
    """The batch cell of the per-sample ``fn(family, sample)`` of ``width``
    floats, a NaN row where ``fn`` raises CkleError: the one place a study
    turns an error into a failed row."""
    out = np.full((len(samples), width), math.nan)
    for row, sample in zip(out, samples):
        try:
            row[:] = fn(family, sample)
        except CkleError:
            pass
    return out


def _cell(est: str, family: Family):
    """The picklable batch cell of estimator ``est``."""
    if family.has_hook("fit_rows"):
        return functools.partial(_estimate_rows, est)
    return functools.partial(_each, functools.partial(_estimate, est), family.dim)


def _size_blocks(sizes: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(first, stop, total) of each run of consecutive sizes drawn in one
    call: all of them when they total at most _GROUP_VALUES values, else
    one size per call."""
    total = sum(sizes)
    if total <= _GROUP_VALUES:
        return [(0, len(sizes), total)]
    return [(si, si + 1, n) for si, n in enumerate(sizes)]


def _replicate_chunk(args) -> np.ndarray:
    """Cell values of replicates start..stop-1, shape (replicates, sizes,
    cells, width): each cell is called as cell(family, samples) once per
    group and draw block, on the batch of all the block's sizes, and
    returns (rows, width) floats.  A group is as many replicates as
    _GROUP_VALUES holds of the largest block, and at least one, so it holds
    at most max(largest size, _GROUP_VALUES) values."""
    family, theta, sizes, cells, width, seed, start, stop = args
    blocks = _size_blocks(sizes)
    group = max(1, _GROUP_VALUES // max(total for _, _, total in blocks))
    out = np.empty((stop - start, len(sizes), len(cells), width))
    # each replicate's stream is set on this one generator in turn; a fixed
    # seed spares an OS entropy read
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    keep = len(blocks) > 1  # the next block continues each stream
    for g0 in range(start, stop, group):
        reps = range(g0, min(g0 + group, stop))
        states = stream_states(seed, reps.start, reps.stop)
        for first, last, total in blocks:
            words = np.empty((len(reps), total), dtype=np.uint64)
            ends = []
            for state, row in zip(states, words):
                bits.state = state
                row[:] = bits.random_raw(total)
                if keep:
                    ends.append(bits.state)
            draws, rejected = lemire_open(words)
            # numpy redraws a rejected word, so such a stream is drawn again
            # from its start, where uniform_open takes numpy's own draw
            for i in np.flatnonzero(rejected.any(axis=1)).tolist():
                bits.state = states[i]
                draws[i] = uniform_open(rng, total)
                if keep:
                    ends[i] = bits.state
            states = ends
            # every quantile is elementwise, so each slice holds the values a
            # draw of its size alone gives
            with np.errstate(over="ignore", invalid="ignore"):
                draws = np.asarray(family.quantile(theta, draws), dtype=float)
            if not np.isfinite(draws).all():
                at = tuple(float(t) for t in theta)
                raise DataError(f"simulated draws are not finite: {family.name} "
                                f"at {at} overflows")
            cuts = list(accumulate(sizes[first:last], initial=0))
            samples = build_samples(*(draws[:, a:b] for a, b in zip(cuts[:-1], cuts[1:])))
            # the batch's rows run size by size, replicate by replicate
            block = out[g0 - start:reps.stop - start, first:last].swapaxes(0, 1)
            for ci, cell in enumerate(cells):
                block[:, :, ci] = cell(family, samples).reshape(*block.shape[:2], width)
    return out


def run_study(config: StudyConfig) -> SimulationReport:
    """Draw, fit and aggregate; deterministic for a fixed seed regardless of
    the worker count.  Per-replicate failures are counted, not fatal.  A
    row's mean, ratio and variance are over its finite estimates: the ratio
    is NaN when the true value is 0, the variance is 0 for a single success,
    and all three are NaN when every replicate failed."""
    family = get_family(config.family)
    theta = family.validate(config.params)
    R = config.replicates
    sizes = tuple(int(s) for s in config.sizes)
    estimators = tuple(config.estimators)
    cells = tuple(_cell(est, family) for est in estimators)
    study = (family, theta, sizes, cells, family.dim, config.seed)

    threads = min(int(config.threads), R)
    if threads == 1:
        estimates = _replicate_chunk((*study, 0, R))
    else:
        from multiprocessing import Pool  # only a threaded study pays its import

        bounds = np.linspace(0, R, threads * 4 + 1, dtype=int)
        chunks = [(*study, int(a), int(b))
                  for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with Pool(processes=threads) as pool:
            estimates = np.concatenate(pool.map(_replicate_chunk, chunks))

    ok = np.isfinite(estimates).all(axis=3)
    failures = R - ok.sum(axis=0)
    clean = failures == 0
    # (size, estimator, parameter, replicate) rows: each failure-free column
    # is one contiguous row, which reduces with the same pairwise sums as
    # the column alone
    columns = np.ascontiguousarray(estimates.transpose(1, 2, 3, 0)[clean])
    means = np.full(estimates.shape[1:], math.nan)
    variances = np.full(estimates.shape[1:], math.nan)
    # a column whose sum or squares pass the doubles has mean or variance
    # +inf, without a warning
    with np.errstate(over="ignore"):
        means[clean] = columns.mean(axis=2)
        variances[clean] = columns.var(axis=2, ddof=1) if R > 1 else 0.0
        for si, ei in zip(*np.nonzero(~clean)):
            vals = estimates[ok[:, si, ei], si, ei, :]
            for pi in range(family.dim):
                col = vals[:, pi]
                if col.size:
                    means[si, ei, pi] = col.mean()
                    variances[si, ei, pi] = col.var(ddof=1) if col.size > 1 else 0.0
    rows = []
    for si, n in enumerate(sizes):
        for ei, est in enumerate(estimators):
            for pi, pname in enumerate(family.param_names):
                mean = float(means[si, ei, pi])
                truth = float(theta[pi])
                ratio = mean / truth if truth != 0.0 else math.nan
                rows.append(StudyRow(size=n, estimator=est, param=pname, mean=mean,
                                     ratio=ratio, variance=float(variances[si, ei, pi]),
                                     failures=int(failures[si, ei])))
    return SimulationReport(rows=tuple(rows), seed=config.seed, replicates=R)


@dataclass(frozen=True)
class BiasReport:
    lambda_true: float
    n: int
    replicates: int
    mean_mckle: float
    bias: float
    first_order_bias: float
    mean_unbiased: float
    unbiased_bias: float


def bias_check_exponential(lambda_true: float, n: int, reps: int,
                           seed: int) -> BiasReport:
    """Mean bias of the exponential estimate against its first-order value
    15 lambda / (8n), and the effect of the family's bias correction, from
    the mckle row of a one-size study; a failed replicate raises."""
    _check_count("n", n, 10)
    _check_count("reps", reps)
    lam = float(EXPONENTIAL.validate((lambda_true,))[0])
    row = run_study(StudyConfig("exponential", (lam,), (n,), reps, seed,
                                estimators=("mckle",))).rows[0]
    if row.failures:
        raise InferenceError(f"{row.failures} of {reps} replicate fits failed")
    mean_hat = row.mean
    mean_u = EXPONENTIAL.mckle_unbiased((mean_hat,), n)[0]
    return BiasReport(lambda_true=lam, n=n, replicates=reps,
                      mean_mckle=mean_hat, bias=mean_hat - lam,
                      first_order_bias=15.0 * lam / (8.0 * n),
                      mean_unbiased=mean_u, unbiased_bias=mean_u - lam)


@dataclass(frozen=True)
class CoverageReport:
    family: str
    n: int
    replicates: int
    level: float
    kind: str
    covered: float
    standard_error: float
    failures: int


def coverage_study(family, params, n: int, reps: int, level: float,
                   kind: str, seed: int) -> CoverageReport:
    """Fraction of seeded replicates whose interval covers the truth."""
    family = _scalar_family(family, "coverage_study")
    theta = family.validate(params)
    if kind not in ("wald", "divergence"):
        raise DomainError("kind must be 'wald' or 'divergence'")
    _check_count("n", n)
    _check_count("reps", reps)
    check_seed(seed)
    _check_levels("level", (level,))
    true_val = float(theta[0])

    def covers(family, sample):
        res = fit(family, sample)
        if kind == "wald":
            ci = wald_ci(res, avar_scalar(family, res.params.values).sigma2, level)
        else:
            ci = divergence_interval(family, sample, res, level)
        return (float(ci.lower <= true_val <= ci.upper),)

    cells = (functools.partial(_each, covers, 1),)
    hit = _replicate_chunk((family, theta, (n,), cells, 1, seed, 0, reps)).ravel()
    ok = ~np.isnan(hit)
    used = int(ok.sum())
    failures = reps - used
    p = int(hit[ok].sum()) / used if used else math.nan
    se = math.sqrt(p * (1.0 - p) / used) if used else math.nan
    return CoverageReport(family=family.name, n=n, replicates=reps, level=level,
                          kind=kind, covered=p, standard_error=se, failures=failures)


@dataclass(frozen=True)
class RegionCutoffs:
    levels: tuple[float, ...]
    cutoffs: tuple[float, ...]
    reps: int
    used: int
    failures: int


def divergence_region_cutoffs(family, theta_true, n: int, reps: int,
                              levels, seed: int) -> RegionCutoffs:
    """Empirical quantiles of g(theta_true) - g(theta_hat) over seeded
    replicate fits; these calibrate divergence-based confidence regions when
    the parameter has dimension above one.  A fit that fails or does not
    converge is left out, and more than 5% of them raise InferenceError."""
    family = get_family(family)
    theta_true = family.validate(theta_true)
    if family.dim < 2:
        raise DomainError("region cutoffs apply to vector parameters")
    _check_count("n", n)
    _check_count("reps", reps, 100)
    check_seed(seed)
    levels = _check_levels("levels", levels)

    def gap(family, sample):
        res = fit(family, sample)
        if not res.converged:
            raise InferenceError("fit did not converge")
        return (g_objective(family, theta_true, sample) - res.g_at_opt,)

    cells = (functools.partial(_each, gap, 1),)
    gaps = _replicate_chunk((family, theta_true, (n,), cells, 1, seed, 0, reps)).ravel()
    gaps = sorted(gaps[~np.isnan(gaps)].tolist())
    used = len(gaps)
    failures = reps - used
    if failures > 0.05 * reps:
        raise InferenceError(f"{failures} of {reps} replicate fits failed")
    cutoffs = tuple(gaps[min(math.ceil(lv * used), used) - 1] for lv in levels)
    return RegionCutoffs(levels=levels, cutoffs=cutoffs, reps=reps,
                         used=used, failures=failures)
