"""Asymptotic inference for minimum cumulative-KL estimates.

Scalar estimates are asymptotically normal with variance A/B^2, where
A = Var[ds(X)/dtheta] and B integrates (dF/dtheta)^2/F over the negative
axis plus (dSF/dtheta)^2/SF over the nonnegative axis; the vector version is
B^-1 A B^-1 / n.  The data-driven counterpart is the sandwich
V = I^-1 J I^-1 / n with J the average outer product of psi and I the
average derivative of psi.

For the one-parameter families g is a/t + b t + c with coefficients from
the sample moments (``models._PositiveScalar``), so ``c_value`` and
``divergence_interval`` take c(theta) and the interval (two roots of a
quadratic) from the family's ``closed_c`` and ``closed_divergence_interval``.

Where a family has no closed A and B, both come from one fixed tanh-sinh
(double-exponential) rule per side of zero, in probability space: nodes
u = F(x) on (0, F(0)) mapped back by ``quantile`` on the negative side, and
v = SF(x) on (0, SF(max(lower, 0))) mapped back by ``isf`` on the
nonnegative side.  The step is h = 1/16, with at most 241 nodes per side; a
side whose mass is exactly 0.0 has no nodes.  Every entry of A and B then
comes from one matrix product over the same nodes, and the rule is scale-
and location-invariant by construction.

The normal quantile behind the Wald half-width and the chi-square(1)
quantile, and the chi-square(1) tail, are scalars from the standard library
(``statistics.NormalDist``, ``math.erfc``), so intervals and tests of the
closed-form families never load scipy.special; the tanh-sinh table, which
needs its ``expit``, is built on the first quadrature variance.

The Monte Carlo cutoffs of vector divergence regions,
``divergence_region_cutoffs``, live in ``simulate`` with every replicate loop.

Note on the sign of I: the average derivative of psi is the Hessian of g
(``ObjectiveContext.hessian``, since mean psi = grad g), positive definite at
a minimum, so I is taken with the plus sign here; the sign squares away
inside the sandwich either way.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .empirical import Sample
from .errors import DataError, DomainError, InferenceError, SupportViolation
from .models import Family, _special, get_family
from .models import quad  # noqa: F401  the name exists for perfbench/tracer.py to bind
from .objective import ObjectiveContext, g_objective, positive_definite, psi_matrix
from .solver import FitResult, fit


# ---------------------------------------------------------------- chi-square

def _two_sided_z(q: float, name: str, given: float) -> float:
    """Phi^-1((1+q)/2), the z with P(|Z| <= z) = q, from the standard
    library's normal quantile (Wichura's AS 241).  ``name`` and ``given``
    are the probability the caller was given (q itself, a level, alpha or
    beta); the DomainError names it when (1+q)/2 rounds to 1, where the
    quantile is infinite."""
    p = (1.0 + q) / 2.0
    if p >= 1.0:
        raise DomainError(f"{name} = {given!r} is too extreme: "
                          "its normal quantile is infinite in double precision")
    return NormalDist().inv_cdf(p)


def chi2_quantile_df1(q: float, name: str = "q", given: float | None = None) -> float:
    """q-quantile of chi-square with 1 df, via the normal quantile:
    (Phi^-1((1+q)/2))^2.  ``name`` and ``given`` (default: q) name the
    probability the caller was given in the error for an infinite quantile."""
    if not 0.0 < q <= 1.0:      # q = 1.0 (1 - alpha for a tiny alpha) is named below
        raise DomainError("quantile requires 0 < q < 1")
    return _two_sided_z(q, name, q if given is None else given) ** 2


def chi2_sf_df1(t: float) -> float:
    """P(chi-square_1 > t)."""
    if t <= 0.0:
        return 1.0
    return math.erfc(math.sqrt(t / 2.0))


# ---------------------------------------------------------- variance limits

@dataclass(frozen=True)
class AsymptoticVariance:
    A: np.ndarray
    B: np.ndarray
    V_n: np.ndarray | None          # B^-1 A B^-1 / n when n was supplied
    sigma2: float | None            # scalar case A/B^2
    source: str                     # closed-form | quadrature


@dataclass(frozen=True)
class SandwichEstimate:
    J: np.ndarray
    I: np.ndarray
    V_hat: np.ndarray


@functools.cache
def _tanh_sinh_unit():
    """Tanh-sinh nodes and weights on (0, 1) with step 1/16: u_k =
    expit(pi sinh t_k) for t_k = k / 16, |k| <= 120, and w_k = u_k'(t_k) / 16
    (Takahasi & Mori, Publ. RIMS 9, 1974).  u is built from its own formula,
    never as 1 - (1 - u), so it keeps full relative accuracy near 0.  Nodes
    whose u underflows to 0 or rounds to 1 are dropped; those rounding to 1
    carry under 1e-16 of the weight, where every integrand here is bounded.
    Built on first use and cached read-only."""
    expit = _special().expit
    h = 1.0 / 16.0
    t = h * np.arange(-120, 121)
    u = expit(np.pi * np.sinh(t))
    w = h * np.pi * np.cosh(t) * u * expit(-np.pi * np.sinh(t))
    keep = (u > 0.0) & (u < 1.0)
    u, w = u[keep], w[keep]
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _avar_quadrature(family: Family, theta) -> tuple[np.ndarray, np.ndarray]:
    """A and B by numerical integration; the independent cross-check path.

    Substituting u = F(x) below zero and v = SF(x) from max(lower, 0) up,
    B = int (dF/dtheta / f)(dF/dtheta)^T / p dp and A = int ds ds^T dp - m m^T
    with p = u or v and m = d E|X| / d theta.  Each side is one tanh-sinh
    rule (h = 1/16, at most 241 nodes) scaled to the side's mass F(0) or
    SF(max(lower, 0)); a side whose mass is exactly 0.0 is skipped.  The
    nodes of both sides are concatenated, so ds/dtheta is one
    ``ds_dtheta_matrix`` call on one node array (2k ``s_values`` calls for
    the Normal) and A and B are one matrix product each.  dF/f is formed before
    the product and A is summed as (sqrt(w) ds)^T (sqrt(w) ds), so neither
    underflows nor overflows in the far tails; nodes where the density is
    0.0 (underflow) add nothing to B.

    The rule stops where p underflows, near 1e-308; the mass beyond is
    below 1e-10 of every integral here except Pareto A as alpha -> 2, whose
    integrand approaches v^-1 log^2 v: at alpha = 2.05 A[0, 0] is 6.9e-6
    below its closed form (under 1e-14 at alpha = 2.2).  Pareto reaches this path
    only directly, because it has ``closed_avar``.
    """
    family = get_family(family)
    theta = family.validate(theta)
    lower = family.support_lower(theta)
    family.check_avar(theta)
    neg_mass = float(family.cdf(theta, 0.0)) if lower < 0 else 0.0
    pos_mass = float(family.sf(theta, max(lower, 0.0)))
    ts_u, ts_w = _tanh_sinh_unit()
    xs, ps, ws = [], [], []
    for inverse, mass in ((family.quantile, neg_mass), (family.isf, pos_mass)):
        p = mass * ts_u
        keep = p > 0.0
        xs.append(inverse(theta, p[keep]))
        ps.append(p[keep])
        ws.append(mass * ts_w[keep])
    x, p, w = (np.concatenate(a) for a in (xs, ps, ws))

    dF = family.dcdf_dtheta(theta, x)
    with np.errstate(over="ignore"):
        f = family.pdf(theta, x)
    ok = f > 0.0
    B = (w[ok] * dF[:, ok] / f[ok]) @ (dF[:, ok] / p[ok]).T
    B = (B + B.T) / 2.0
    if not np.all(np.isfinite(B)) or abs(np.linalg.det(B)) < 1e-300:
        raise InferenceError("variance integral diverges")

    G = family.ds_dtheta_matrix(theta, x) * np.sqrt(w)[:, None]
    mag = family.mean_abs_grad(theta)
    A = G.T @ G - np.outer(mag, mag)
    return (A + A.T) / 2.0, B


def _scalar_family(family, what: str) -> Family:
    """The family ``family`` names, or DomainError naming the function
    ``what`` when it has more than one parameter."""
    family = get_family(family)
    if family.dim != 1:
        raise DomainError(f"{what} expects a one-parameter family")
    return family


def avar_scalar(family, theta, method: str = "auto") -> AsymptoticVariance:
    """Asymptotic variance for the one-parameter families.

    The family's closed form where it has one (``Family.closed_avar``,
    whose V_1 is sigma^2, so sigma^2 is finite even where A or B^2 is not),
    the quadrature otherwise; ``method='quadrature'`` forces the integral
    path.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    family = _scalar_family(family, "avar_scalar")
    theta = family.validate(theta)
    if method == "auto" and family.has_hook("closed_avar"):
        A, B, V = family.closed_avar(theta, 1)
        return AsymptoticVariance(A, B, None, float(V[0, 0]), "closed-form")
    A, B = _avar_quadrature(family, theta)
    return AsymptoticVariance(A, B, None, float(A[0, 0] / B[0, 0] ** 2), "quadrature")


def avar_matrix(family, theta, n: int) -> AsymptoticVariance:
    """Asymptotic covariance V_n for the two-parameter families."""
    family = get_family(family)
    theta = family.validate(theta)
    if family.dim < 2:
        raise DomainError("avar_matrix expects a vector family")
    if n < 1:
        raise DomainError("n must be >= 1")
    if family.has_hook("closed_avar"):
        A, B, V = family.closed_avar(theta, n)
        return AsymptoticVariance(A, B, V, None, "closed-form")
    A, B = _avar_quadrature(family, theta)
    Binv = np.linalg.inv(B)
    V = Binv @ A @ Binv / n
    return AsymptoticVariance(A, B, (V + V.T) / 2.0, None, "quadrature")


def sandwich(family, fit_result: FitResult, sample: Sample) -> SandwichEstimate:
    """Sample ('sandwich') covariance V = I^-1 J I^-1 / n at the fitted point;
    InferenceError where I fails ``positive_definite``, exactly where the
    fit's ``hessian_pd`` is False.  V is formed in the units
    D = sqrt(diag I) of that rule, from Psi D^-1 and D^-1 I D^-1, so it is
    finite wherever its entries are doubles; an entry of the reported J
    that is not a double is +inf."""
    family = get_family(family)
    if not fit_result.converged:
        raise InferenceError("sandwich requires a converged fit")
    theta = np.asarray(fit_result.params.values, dtype=float)
    n = sample.n
    Psi = psi_matrix(family, theta, sample)
    I = ObjectiveContext(family, sample).hessian(theta)
    if not positive_definite(I):
        raise InferenceError("objective locally flat")
    # r = D^-1; scaling row by row, then column by column, overflows only
    # where the scaled matrix itself does
    r = 1.0 / np.sqrt(np.diag(I))
    Psi_r = Psi * r
    J_r = Psi_r.T @ Psi_r / n
    Iinv_r = np.linalg.inv(I * r[:, None] * r[None, :])
    V = Iinv_r @ J_r @ Iinv_r / n * r[:, None] * r[None, :]
    V = (V + V.T) / 2.0
    with np.errstate(over="ignore"):
        J = J_r / r[:, None] / r[None, :]
    return SandwichEstimate(J=J, I=I, V_hat=V)


# ----------------------------------------------------------------- intervals

@dataclass(frozen=True)
class IntervalResult:
    lower: float
    upper: float
    level: float
    kind: str                      # wald | divergence
    cutoff_k: float | None = None
    c_theta: float | None = None


def wald_ci(fit_result: FitResult, variance, level: float) -> IntervalResult:
    """theta_hat -+ z_{alpha/2} sigma_hat / sqrt(n) for a scalar parameter."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    if isinstance(variance, AsymptoticVariance):
        variance = variance.sigma2
    if variance is None or variance <= 0:
        raise InferenceError("nonpositive variance")
    if len(fit_result.params.values) != 1:
        raise DomainError("wald_ci expects a scalar parameter")
    theta = fit_result.params.values[0]
    z = _two_sided_z(level, "level", level)
    half = z * math.sqrt(variance) / math.sqrt(fit_result.n)
    return IntervalResult(theta - half, theta + half, level, "wald")


def c_value(family, sample: Sample, theta) -> float:
    """c(theta) = sigma_F^2(theta) * g''(theta), the scale constant of the
    chi-square limits, in the one-parameter family's closed form; DataError
    where it is 0 (a Laplace sample whose mean of squares is 0), since the
    limits then have no scale."""
    family = _scalar_family(family, "c_value")
    c = family.closed_c(family.validate(theta), sample)
    if c == 0.0:
        raise DataError("degenerate data: c(theta) = 0")
    return c


def divergence_interval(family, sample: Sample, fit_result: FitResult,
                        level: float) -> IntervalResult:
    """Parameter set with normalized divergence above the cutoff
    k = exp(-c(theta_hat) chi2_{alpha,1} / (2n)), in the one-parameter
    family's closed form."""
    family = _scalar_family(family, "divergence_interval")
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    if not fit_result.converged:
        raise InferenceError("divergence interval requires a converged fit")
    theta_hat = fit_result.params.values[0]
    c_hat = c_value(family, sample, (theta_hat,))
    log_k = -c_hat * chi2_quantile_df1(level, "level") / (2.0 * sample.n)
    lower, upper = family.closed_divergence_interval(sample, log_k)
    return IntervalResult(lower, upper, level, "divergence",
                          cutoff_k=math.exp(log_k), c_theta=c_hat)


def pivotal_q(family, sample: Sample, fit_result: FitResult, theta) -> float:
    """Q(theta_hat, theta) = 2n [g(theta) - g(theta_hat)] / (sigma_F^2 g''(theta_hat));
    asymptotically chi-square with 1 df under the model."""
    family = _scalar_family(family, "pivotal_q")
    theta_hat = fit_result.params.values[0]
    n = sample.n
    denom = c_value(family, sample, (theta_hat,))
    num = 2.0 * n * (g_objective(family, theta, sample)
                     - g_objective(family, (theta_hat,), sample))
    return num / denom


# ------------------------------------------------------------------- testing

@dataclass(frozen=True)
class TestResult:
    statistic_gddt: float
    c_at_null: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    theta_hat: float
    theta_null: float
    region_mean_sq: tuple[float, float] | None = None


def gddt_test(family, sample: Sample, theta0, alpha: float) -> TestResult:
    """Divergence-difference test of a point null (or the minimizer over a
    finite null grid): statistic 2n [g(theta0_hat) - g(theta_hat)], limiting
    law c(theta0_hat) chi-square_1."""
    family = _scalar_family(family, "gddt_test")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    nulls = np.atleast_1d(np.asarray(theta0, dtype=float))
    for t0 in nulls:
        family.validate((t0,))
    fit_result = fit(family, sample)
    theta_hat = fit_result.params.values[0]
    n = sample.n
    g0_vals = [g_objective(family, (t0,), sample) for t0 in nulls]
    i0 = int(np.argmin(g0_vals))
    theta0_hat = float(nulls[i0])
    stat = 2.0 * n * (g0_vals[i0] - fit_result.g_at_opt)
    c0 = c_value(family, sample, (theta0_hat,))
    chi2 = chi2_quantile_df1(1.0 - alpha, "alpha", alpha)
    critical = c0 * chi2
    p = chi2_sf_df1(max(stat, 0.0) / c0)
    try:
        region = family.closed_test_region(theta0_hat, n, chi2)
    except (OverflowError, ZeroDivisionError):
        # a null so far from unit scale that a bound of the region is not
        # a double (theta0**2 overflows, or underflows to 0): no region
        region = None
    return TestResult(statistic_gddt=float(stat), c_at_null=float(c0),
                      critical_value=float(critical), p_value=float(p),
                      reject=bool(stat > critical), alpha=alpha,
                      theta_hat=float(theta_hat), theta_null=theta0_hat,
                      region_mean_sq=region)


def _g_and_c(family, sample: Sample, theta0, theta1):
    """(g0, g1, c0, c1) at the scalars theta0 and theta1; SupportViolation,
    before c is read, where g is +inf at either (data below the support
    start), since the test has no law there."""
    thetas = ((float(theta0),), (float(theta1),))
    g0, g1 = (g_objective(family, t, sample) for t in thetas)
    if math.inf in (g0, g1):
        raise SupportViolation("support violation: objective is +inf at theta0 or theta1")
    c0, c1 = (c_value(family, sample, t) for t in thetas)
    return g0, g1, c0, c1


def power_approx(family, sample: Sample, theta0, theta1, alpha: float,
                 n: int | None = None) -> float:
    """Tail approximation of the test power at the alternative theta1:
    P(chi2_1 > (2n [g(theta1) - g(theta0)] + c(theta0) chi2_{alpha,1}) / c(theta1))."""
    family = get_family(family)
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    n = sample.n if n is None else int(n)
    g0, g1, c0, c1 = _g_and_c(family, sample, theta0, theta1)
    threshold = (2.0 * n * (g1 - g0) + c0 * chi2_quantile_df1(1.0 - alpha, "alpha", alpha)) / c1
    return chi2_sf_df1(threshold)


@dataclass(frozen=True)
class SampleSizeResult:
    n_star: int
    n0: float
    g_theta0: float
    g_theta1: float
    c_theta0: float
    c_theta1: float
    chi2_alpha: float
    chi2_beta: float


def required_sample_size(family, sample: Sample, theta0, theta1,
                         alpha: float, beta: float) -> SampleSizeResult:
    """Smallest integer n with approximate power beta at theta1:
    n* = [n0] + 1 with n0 = (c1 chi2_{beta,1} - c0 chi2_{alpha,1}) / (2 [g1 - g0])."""
    family = get_family(family)
    if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
        raise DomainError("alpha and beta must be in (0, 1)")
    g0, g1, c0, c1 = _g_and_c(family, sample, theta0, theta1)
    if g1 == g0:
        raise InferenceError("indistinguishable alternative")
    chi_a = chi2_quantile_df1(1.0 - alpha, "alpha", alpha)
    chi_b = chi2_quantile_df1(1.0 - beta, "beta", beta)
    n0 = (c1 * chi_b - c0 * chi_a) / (2.0 * (g1 - g0))
    if n0 <= 0:
        warnings.warn("requested power is reached at any sample size; returning 1")
        n_star = 1
    else:
        n_star = int(math.floor(n0)) + 1
    return SampleSizeResult(n_star=n_star, n0=float(n0), g_theta0=g0, g_theta1=g1,
                            c_theta0=c0, c_theta1=c1, chi2_alpha=chi_a, chi2_beta=chi_b)
