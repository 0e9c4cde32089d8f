"""Seeded Monte Carlo studies: estimator comparisons, bias and variance
curves, interval coverage, and test size.

Replicate r of a study draws from the stream (seed, r), so runs are
reproducible and embarrassingly parallel; estimates are collected per
replicate and aggregated in index order afterwards, which makes the report
bytes independent of the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .empirical import Sample, build_sample
from .errors import CkleError, DomainError, InferenceError
from .inference import avar_scalar, divergence_interval, wald_ci
from .models import Family, ParamVector, get_family
from .rng import make_rng
from .solver import fit

_ESTIMATORS = ("mckle", "mckle_unbiased", "mle", "mle_unbiased")


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


def mle_fit(family, sample: Sample) -> ParamVector:
    """Closed-form maximum-likelihood estimates used as the comparison arm."""
    family = get_family(family)
    return family.param_vector(family.mle(sample))


def _estimate(family: Family, est: str, sample: Sample) -> np.ndarray:
    if est == "mckle":
        res = fit(family, sample)
        if not res.converged:
            raise InferenceError("fit did not converge")
        return np.asarray(res.params.values)
    if est == "mckle_unbiased":
        return np.asarray(family.mckle_unbiased(family.closed_form(sample), sample.n))
    if est == "mle":
        return np.asarray(family.mle(sample))
    if est == "mle_unbiased":
        return np.asarray(family.mle_unbiased(sample))
    raise DomainError(f"unknown estimator {est!r}")


def _replicate_chunk(args):
    family_name, params, sizes, estimators, seed, start, stop = args
    family = get_family(family_name)
    theta = np.asarray(params, dtype=float)
    dim = family.dim
    out = np.full((stop - start, len(sizes), len(estimators), dim), np.nan)
    for i, r in enumerate(range(start, stop)):
        rng = make_rng(seed, r)
        for si, n in enumerate(sizes):
            xs = family.draw(theta, n, rng)
            sample = build_sample(xs)
            for ei, est in enumerate(estimators):
                try:
                    out[i, si, ei, :] = _estimate(family, est, sample)
                except CkleError:
                    pass
    return start, out


def run_study(config: StudyConfig) -> SimulationReport:
    """Draw, fit and aggregate; deterministic for a fixed seed regardless of
    the worker count.  Per-replicate failures are counted, not fatal."""
    family = get_family(config.family)
    theta = family.validate(config.params)
    R = config.replicates
    sizes = tuple(int(s) for s in config.sizes)
    estimators = tuple(config.estimators)
    dim = family.dim

    threads = max(int(config.threads), 1)
    threads = min(threads, R)
    if threads == 1:
        _, estimates = _replicate_chunk(
            (family.name, tuple(theta), sizes, estimators, config.seed, 0, R))
    else:
        bounds = np.linspace(0, R, threads * 4 + 1, dtype=int)
        chunks = [(family.name, tuple(theta), sizes, estimators, config.seed,
                   int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        estimates = np.full((R, len(sizes), len(estimators), dim), np.nan)
        with Pool(processes=threads) as pool:
            for start, block in pool.imap(_replicate_chunk, chunks):
                estimates[start:start + block.shape[0]] = block

    rows = []
    for si, n in enumerate(sizes):
        for ei, est in enumerate(estimators):
            block = estimates[:, si, ei, :]
            ok = np.all(np.isfinite(block), axis=1)
            failures = int(R - ok.sum())
            vals = block[ok]
            for pi, pname in enumerate(family.param_names):
                col = vals[:, pi]
                mean = float(col.mean()) if col.size else math.nan
                var = float(col.var(ddof=1)) if col.size > 1 else 0.0
                ratio = mean / theta[pi] if col.size else math.nan
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
    15 lambda / (8n), and the effect of the family's bias correction."""
    if n < 10:
        raise DomainError("n must be >= 10")
    family = get_family("exponential")
    total = 0.0
    for r in range(reps):
        rng = make_rng(seed, r)
        sample = build_sample(family.draw((lambda_true,), n, rng))
        total += family.closed_form(sample)[0]
    mean_hat = total / reps
    mean_u = family.mckle_unbiased((mean_hat,), n)[0]
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
    true_val = float(theta[0])
    hits = 0
    failures = 0
    for r in range(reps):
        rng = make_rng(seed, r)
        sample = build_sample(family.draw(theta, n, rng))
        try:
            res = fit(family, sample)
            if kind == "wald":
                sigma2 = avar_scalar(family, res.params.values).sigma2
                ci = wald_ci(res, sigma2, level)
            else:
                ci = divergence_interval(family, sample, res, level)
            hits += int(ci.lower <= true_val <= ci.upper)
        except CkleError:
            failures += 1
    used = reps - failures
    p = hits / used if used else math.nan
    se = math.sqrt(p * (1.0 - p) / used) if used else math.nan
    return CoverageReport(family=family.name, n=n, replicates=reps, level=level,
                          kind=kind, covered=p, standard_error=se, failures=failures)
