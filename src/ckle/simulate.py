"""Seeded Monte Carlo: estimator comparisons, bias and variance curves,
interval coverage, test size and resampled region cutoffs.

Every entry point runs its replicates through one engine,
``_replicate_chunk``: replicate r reads the stream (seed, r), its sizes are
consecutive slices of that stream in the order given, and each of the
caller's cells maps (family, sample) to a fixed number of floats; a cell
raising ``CkleError`` is a NaN row.  A cell may carry a group form,
``cell.group(family, samples)``, which gives those floats for every row of
a ``Samples`` batch at once, NaN where the cell raises; the engine calls it
instead of the cell.  The estimator cells of ``run_study`` have one for the
families with ``fit_rows`` (the Exponential and the Laplace), read from the
batch's moment arrays; rows below ``_MOMENT_SQ_FLOOR`` take the cell.  One
budget, ``_GROUP_VALUES`` (2**16 values), bounds memory at any replicate
count: a replicate draws its sizes in one block when they total at most
that, else one block per size (each slice holds what a draw of its size
alone gives), and a group of consecutive replicates holds at most that many
values of its largest block, or one replicate.  A group's streams are
seeded in one pass (``rng.stream_states``, bit for bit ``make_rng``'s) and
set in turn on one generator, and a replicate's state is kept from block to
block.  For each block, each replicate of a group reads its row of uniforms
(``uniform_open``) from its own stream, one ``family.quantile`` call maps
the (group, block) array, and
each size's column slice is sorted and summed in one ``build_samples``
call.  Errors propagate in that order: all of a group's draws of a block (a
non-finite draw is a ``DataError`` naming the family and parameters) come
before any sample of that block is built, and a ``build_samples`` error (a
moment overflow) is raised at the block's first failing size, at its first
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
from dataclasses import dataclass

import numpy as np

from .empirical import Sample, Samples, build_samples
from .errors import CkleError, DataError, DomainError, InferenceError
from .inference import _scalar_family, avar_scalar, divergence_interval, wald_ci
from .models import _MOMENT_SQ_FLOOR, EXPONENTIAL, Family, get_family
from .objective import g_objective
from .rng import check_seed, stream_states, uniform_open
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
        if not self.sizes:
            raise DomainError("sizes must be nonempty")
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
    """The group form of the ``_estimate`` cell: (rows, dim) floats.  Rows
    whose mean of squares is below ``_MOMENT_SQ_FLOOR``, where the scalar
    families' g is summed per element, take the cell itself.  As on one
    sample's Python floats, a quotient past the doubles is +inf without a
    warning."""
    with np.errstate(all="ignore"):
        values = np.column_stack(_estimate(est, family, samples))
    for i in np.flatnonzero(samples.mean_sq < _MOMENT_SQ_FLOOR).tolist():
        try:
            values[i] = _estimate(est, family, samples[i])
        except CkleError:
            values[i] = math.nan
    return values


def _cell(est: str, family: Family):
    """The picklable cell of estimator ``est``, with its group form where
    the family fits a batch."""
    cell = functools.partial(_estimate, est)
    if family.has_hook("fit_rows"):
        cell.group = functools.partial(_estimate_rows, est)
    return cell


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
    cells, width): each cell is called as cell(family, sample) and returns
    width floats, and a cell that raises CkleError gives a NaN row; a cell
    with a group form is called once per size and group instead.  A
    group is as many replicates as _GROUP_VALUES holds of the largest
    block, and at least one, so it holds at most max(largest size,
    _GROUP_VALUES) values."""
    family, theta, sizes, cells, width, seed, start, stop = args
    blocks = _size_blocks(sizes)
    group = max(1, _GROUP_VALUES // max(total for _, _, total in blocks))
    failed = (math.nan,) * width
    grouped = [(ci, cell.group) for ci, cell in enumerate(cells) if hasattr(cell, "group")]
    loose = [ci for ci, cell in enumerate(cells) if not hasattr(cell, "group")]
    out = np.empty((stop - start, len(sizes), len(cells), width))
    # each replicate's stream is set on this one generator in turn; a fixed
    # seed spares an OS entropy read
    rng = np.random.Generator(np.random.PCG64(0))
    for g0 in range(start, stop, group):
        reps = range(g0, min(g0 + group, stop))
        states = stream_states(seed, reps.start, reps.stop)
        for first, last, total in blocks:
            # the stream is read in order and every quantile is elementwise,
            # so each slice holds the values a draw of its size alone gives
            draws = np.empty((len(reps), total))
            for i, row in enumerate(draws):
                rng.bit_generator.state = states[i]
                row[:] = uniform_open(rng, total)
                if len(blocks) > 1:  # the next block continues the stream
                    states[i] = rng.bit_generator.state
            with np.errstate(over="ignore", invalid="ignore"):
                draws = np.asarray(family.quantile(theta, draws), dtype=float)
            if not np.isfinite(draws).all():
                at = tuple(float(t) for t in theta)
                raise DataError(f"simulated draws are not finite: {family.name} "
                                f"at {at} overflows")
            offset = 0
            for si, n in enumerate(sizes[first:last], first):
                samples = build_samples(draws[:, offset:offset + n])
                offset += n
                block = out[g0 - start:reps.stop - start, si]
                for ci, group_form in grouped:
                    block[:, ci] = group_form(family, samples)
                if loose:
                    values = []
                    for sample in samples:
                        for ci in loose:
                            try:
                                values.append(cells[ci](family, sample))
                            except CkleError:
                                values.append(failed)
                    block[:, loose] = np.reshape(values, (len(reps), len(loose), width))
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
    row = run_study(StudyConfig("exponential", (lambda_true,), (n,), reps, seed,
                                estimators=("mckle",))).rows[0]
    if row.failures:
        raise InferenceError(f"{row.failures} of {reps} replicate fits failed")
    mean_hat = row.mean
    mean_u = EXPONENTIAL.mckle_unbiased((mean_hat,), n)[0]
    return BiasReport(lambda_true=lambda_true, n=n, replicates=reps,
                      mean_mckle=mean_hat, bias=mean_hat - lambda_true,
                      first_order_bias=15.0 * lambda_true / (8.0 * n),
                      mean_unbiased=mean_u, unbiased_bias=mean_u - lambda_true)


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
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    true_val = float(theta[0])

    def covers(family, sample):
        res = fit(family, sample)
        if kind == "wald":
            ci = wald_ci(res, avar_scalar(family, res.params.values).sigma2, level)
        else:
            ci = divergence_interval(family, sample, res, level)
        return (float(ci.lower <= true_val <= ci.upper),)

    hit = _replicate_chunk((family, theta, (n,), (covers,), 1, seed, 0, reps)).ravel()
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
    levels = tuple(float(lv) for lv in levels)
    for lv in levels:
        if not 0.0 < lv < 1.0:
            raise DomainError("levels must be in (0, 1)")

    def gap(family, sample):
        res = fit(family, sample)
        if not res.converged:
            raise InferenceError("fit did not converge")
        return (g_objective(family, theta_true, sample) - res.g_at_opt,)

    gaps = _replicate_chunk((family, theta_true, (n,), (gap,), 1, seed, 0, reps)).ravel()
    gaps = sorted(gaps[~np.isnan(gaps)].tolist())
    used = len(gaps)
    failures = reps - used
    if failures > 0.05 * reps:
        raise InferenceError(f"{failures} of {reps} replicate fits failed")
    cutoffs = tuple(gaps[min(math.ceil(lv * used), used) - 1] for lv in levels)
    return RegionCutoffs(levels=levels, cutoffs=cutoffs, reps=reps,
                         used=used, failures=failures)
