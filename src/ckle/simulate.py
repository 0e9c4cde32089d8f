"""Seeded Monte Carlo: estimator comparisons, bias and variance curves,
interval coverage, test size and resampled region cutoffs.

Every entry point runs its replicates through one engine,
``_replicate_chunk``: replicate r reads the stream (seed, r), its sizes are
consecutive slices of that stream in the order given, and each of the
caller's cells maps (family, sample) to a fixed number of floats; a cell
raising ``CkleError`` is a NaN row.  One budget, ``_GROUP_VALUES`` (2**16
values), bounds memory at any replicate count: a replicate draws its sizes
in one block when they total at most that, else one block per size (each
slice holds what a draw of its size alone gives), and a group of
consecutive replicates holds at most that many values of its largest
block, or one replicate.  For each block, each replicate of a group draws
its row of a (group, block) array, and each size's column slice is sorted
and summed in one ``build_samples`` call.  Errors propagate in that order:
all of a group's draws of a block (a ``draw`` error, then a non-finite
draw as a ``DataError`` naming the family and parameters) come before any
sample of that block is built, and a ``build_samples`` error (a moment
overflow) is raised at the block's first failing size, at its first
failing replicate.  Values are aggregated in replicate order, so no report
depends on the worker count.

``run_study`` counts a row's failures and aggregates its finite estimates:
the mean, the mean over the true value (NaN when that is 0) and the sample
variance (0 for one success), all NaN when every replicate failed.
``bias_check_exponential`` is the mckle row of a one-size study and raises
``InferenceError`` if a replicate failed; ``coverage_study`` counts failed
fits or intervals and reports coverage over the rest;
``divergence_region_cutoffs`` raises ``InferenceError`` when more than 5%
of its fits fail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .empirical import Sample, build_samples
from .errors import CkleError, DataError, DomainError, InferenceError
from .inference import avar_scalar, divergence_interval, wald_ci
from .models import EXPONENTIAL, Family, get_family
from .objective import g_objective
from .rng import make_rng
from .solver import fit

_ESTIMATORS = ("mckle", "mckle_unbiased", "mle", "mle_unbiased")
# the draw budget: a replicate's sizes share one block, and replicates one
# group, up to this many values
_GROUP_VALUES = 1 << 16


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
        if self.replicates < 1:
            raise DomainError("replicates must be >= 1")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise DomainError("sizes must be nonempty and positive")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")
        for est in self.estimators:
            if est not in _ESTIMATORS:
                raise DomainError(f"unknown estimator {est!r}")
            if est.endswith("_unbiased") and not get_family(self.family).has_hook(est):
                raise DomainError(f"{est} is not defined for the {self.family} family")


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


def _estimate(est: str, family: Family, sample: Sample):
    """The study cell of estimator ``est`` (a name StudyConfig accepted)."""
    if est == "mckle":
        res = fit(family, sample)
        if not res.converged:
            raise InferenceError("fit did not converge")
        return res.params.values
    if est == "mckle_unbiased":
        return family.mckle_unbiased(family.closed_form(sample), sample.n)
    if est == "mle":
        return family.mle(sample)
    return family.mle_unbiased(sample)


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
    width floats, and a cell that raises CkleError gives a NaN row.  A
    group is as many replicates as _GROUP_VALUES holds of the largest
    block, and at least one, so it holds at most max(largest size,
    _GROUP_VALUES) values."""
    family, theta, sizes, cells, width, seed, start, stop = args
    blocks = _size_blocks(sizes)
    group = max(1, _GROUP_VALUES // max(total for _, _, total in blocks))
    failed = (math.nan,) * width
    out = np.empty((stop - start, len(sizes), len(cells), width))
    for g0 in range(start, stop, group):
        reps = range(g0, min(g0 + group, stop))
        rngs = [make_rng(seed, r) for r in reps]
        for first, last, total in blocks:
            # the stream is read in order and every quantile is elementwise,
            # so each slice holds the values a draw of its size alone gives
            draws = np.empty((len(reps), total))
            with np.errstate(over="ignore", invalid="ignore"):
                for row, rng in zip(draws, rngs):
                    row[:] = family.draw(theta, total, rng)
            if not np.isfinite(draws).all():
                at = tuple(float(t) for t in theta)
                raise DataError(f"simulated draws are not finite: {family.name} "
                                f"at {at} overflows")
            offset = 0
            for si, n in enumerate(sizes[first:last], first):
                values = []
                for sample in build_samples(draws[:, offset:offset + n]):
                    for cell in cells:
                        try:
                            values.append(cell(family, sample))
                        except CkleError:
                            values.append(failed)
                offset += n
                out[g0 - start:reps.stop - start, si] = np.reshape(
                    values, (len(reps), len(cells), width))
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
    cells = tuple(functools.partial(_estimate, est) for est in estimators)
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

    rows = []
    for si, n in enumerate(sizes):
        for ei, est in enumerate(estimators):
            block = estimates[:, si, ei, :]
            ok = np.all(np.isfinite(block), axis=1)
            failures = int(R - ok.sum())
            vals = block[ok]
            for pi, pname in enumerate(family.param_names):
                col = vals[:, pi]
                if col.size:
                    mean = float(col.mean())
                    truth = float(theta[pi])
                    ratio = mean / truth if truth != 0.0 else math.nan
                    var = float(col.var(ddof=1)) if col.size > 1 else 0.0
                else:
                    mean = ratio = var = math.nan
                rows.append(StudyRow(size=n, estimator=est, param=pname,
                                     mean=mean, ratio=ratio, variance=var,
                                     failures=failures))
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
    if n < 10:
        raise DomainError("n must be >= 10")
    if reps < 1:
        raise DomainError("reps must be >= 1")
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
    family = get_family(family)
    theta = family.validate(params)
    if family.dim != 1:
        raise DomainError("coverage_study expects a scalar family")
    if kind not in ("wald", "divergence"):
        raise DomainError("kind must be 'wald' or 'divergence'")
    if n < 1 or reps < 1:
        raise DomainError("n and reps must be >= 1")
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
    if n < 1:
        raise DomainError("n must be >= 1")
    if reps < 100:
        raise DomainError("reps must be >= 100")
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
