"""The sample objective g, the estimating function psi, and their derivatives.

For a sample x_1..x_n and in-domain parameters theta,

    g(theta) = E_theta|X| - mean_i s(x_i; theta),

where s integrates the model's log-CDF on the negative axis and log-survival
on the nonnegative axis.  Minimizing g is equivalent to minimizing the
empirical cumulative KL divergence, since the divergence equals
C_n + g(theta) - mean|x| with both extra terms parameter-free.

Support violations (an observation where the model CDF vanishes on the
negative axis) make g = +inf; the sentinel keeps numeric minimizers total.

Derivatives are central differences with per-coordinate steps relative to
|theta| (1e-5 for first derivatives, 1e-4 for the Hessian), halved until
both probes lie inside the domain.  One first-order loop, ``_central_diff``,
serves the gradient of g, the d s/d theta fallback behind psi and the
sandwich's derivative of psi; the Hessian keeps its own second differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr

from .empirical import Sample, ecdf_eval, empirical_entropy_constant, esf_eval
from .errors import DomainError, SupportViolation
from .models import Family, get_family

_SQRT2PI = math.sqrt(2.0 * math.pi)
_GRAD_STEP = 1e-5       # relative step of first differences
_HESS_STEP = 1e-4       # relative step of the Hessian's second differences


@dataclass
class ObjectiveContext:
    """The evaluator of g and its derivatives, caching per-sample pieces."""

    family: Family
    sample: Sample
    _s_sum: object = field(default=None, repr=False)

    def __post_init__(self):
        self.family = get_family(self.family)
        self._s_sum = self.family.s_sum_fn(self.sample)

    def g(self, theta) -> float:
        theta = self.family.validate(theta)
        try:
            return self.family.mean_abs(theta) - self._s_sum(theta) / self.sample.n
        except SupportViolation:
            return math.inf

    def gradient(self, theta) -> np.ndarray:
        """Central-difference gradient with per-coordinate relative steps."""
        theta = self.family.validate(theta)
        return _central_diff(self.g, theta, _steps(self.family, theta, _GRAD_STEP))

    def hessian(self, theta) -> np.ndarray:
        """Central-difference Hessian, symmetrized as (H + H^T)/2."""
        g = self.g
        theta = self.family.validate(theta)
        steps = _steps(self.family, theta, _HESS_STEP)
        k = theta.size
        H = np.empty((k, k))
        g0 = g(theta)
        for j in range(k):
            tp = theta.copy(); tp[j] += steps[j]
            tm = theta.copy(); tm[j] -= steps[j]
            H[j, j] = (g(tp) - 2 * g0 + g(tm)) / steps[j] ** 2
            for l in range(j + 1, k):
                tpp = tp.copy(); tpp[l] += steps[l]
                tpm = tp.copy(); tpm[l] -= steps[l]
                tmp = tm.copy(); tmp[l] += steps[l]
                tmm = tm.copy(); tmm[l] -= steps[l]
                H[j, l] = H[l, j] = (g(tpp) - g(tpm) - g(tmp) + g(tmm)) / (4 * steps[j] * steps[l])
        return (H + H.T) / 2.0


def make_g(family, sample: Sample):
    """theta -> g(theta) with per-sample precomputation done once."""
    return ObjectiveContext(family, sample).g


def g_objective(family, theta, sample: Sample) -> float:
    """g(theta) = E_theta|X| - mean(s); +inf on support violation."""
    return ObjectiveContext(family, sample).g(theta)


def ckl_divergence(family, theta, sample: Sample) -> float:
    """Empirical cumulative KL divergence at theta; nonnegative, +inf on
    support violation."""
    g = g_objective(family, theta, sample)
    if math.isinf(g):
        return math.inf
    return empirical_entropy_constant(sample) + g - sample.mean_abs


def _steps(family: Family, theta: np.ndarray, rel: float) -> np.ndarray:
    """Per-coordinate central-difference steps, shrunk to stay in the domain."""
    steps = rel * np.maximum(np.abs(theta), 1.0)
    for j in range(theta.size):
        while steps[j] >= 1e-12:
            ok = True
            for sgn in (1.0, -1.0):
                t = theta.copy()
                t[j] += sgn * steps[j]
                try:
                    family.validate(t)
                except DomainError:
                    ok = False
                    break
            if ok:
                break
            steps[j] /= 2.0
        if steps[j] < 1e-12:
            raise DomainError("boundary point: differentiation step underflow")
    return steps


def _central_diff(fn, theta: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(fn(theta + h_j e_j) - fn(theta - h_j e_j)) / (2 h_j) for each
    coordinate j, stacked along a new last axis; fn may return a scalar or
    an array."""
    cols = []
    for j in range(theta.size):
        tp = theta.copy(); tp[j] += steps[j]
        tm = theta.copy(); tm[j] -= steps[j]
        cols.append((fn(tp) - fn(tm)) / (2 * steps[j]))
    return np.stack(cols, axis=-1)


def ds_dtheta_fn(family: Family, theta: np.ndarray):
    """xs -> d s(x; theta) / d theta, shape (n, dim): the family's analytic
    gradient where it has one, else central differences of the vectorized s
    values with steps fixed once for theta."""
    if family.has_hook("ds_dtheta_matrix"):
        return lambda xs: family.ds_dtheta_matrix(theta, xs)
    steps = _steps(family, theta, _GRAD_STEP)
    return lambda xs: _central_diff(lambda t: family.s_values(t, xs), theta, steps)


def psi_matrix(family, theta, sample_or_xs) -> np.ndarray:
    """Per-observation estimating function, shape (n, dim):
    psi(x, theta) = d E|X| / d theta - d s(x) / d theta.
    """
    family = get_family(family)
    theta = family.validate(theta)
    xs = sample_or_xs.obs if isinstance(sample_or_xs, Sample) else np.asarray(sample_or_xs, float)
    ds = ds_dtheta_fn(family, theta)(xs)
    return family.mean_abs_grad(theta)[None, :] - ds


def psi(family, theta, x) -> np.ndarray:
    """Estimating function at one observation."""
    return psi_matrix(family, theta, np.atleast_1d(float(x)))[0]


def gee_sum(family, theta, sample: Sample) -> np.ndarray:
    """Sum of psi over the sample; equals n times the gradient of g."""
    return psi_matrix(family, theta, sample).sum(axis=0)


def g_gradient(family, theta, sample: Sample) -> np.ndarray:
    """Central-difference gradient of g with per-coordinate relative steps."""
    return ObjectiveContext(family, sample).gradient(theta)


def g_hessian(family, theta, sample: Sample) -> np.ndarray:
    """Central-difference Hessian of g, symmetrized as (H + H^T)/2."""
    return ObjectiveContext(family, sample).hessian(theta)


def _phi_over_cdf(z: np.ndarray) -> np.ndarray:
    # phi(z)/Phi(z), stable for z far in the left tail
    return np.exp(-0.5 * z * z - math.log(_SQRT2PI) - log_ndtr(z))


def normal_equation_residuals(sample: Sample, mu: float, sigma: float) -> dict[str, float]:
    """Residual diagnostics for the Gaussian estimating equations.

    ``eq_mu`` and ``eq_sigma`` are n times the partial derivatives of g in mu
    and sigma, written with the integrals of z*phi/Phi resolved per
    observation; ``eq_sigma_ecdf`` is the equivalent form that weights a
    single integral by the empirical CDF/SF, and equals eq_sigma/n.  All
    three vanish at the minimizer.
    """
    if sigma <= 0:
        raise DomainError("normal: parameter sigma must be positive")
    obs, n, k = sample.obs, sample.n, sample.k
    m = mu / sigma
    neg = obs[:k]
    pos = obs[k:]

    eq_mu = 2 * n * ndtr(m) - n + k * log_ndtr(-m) - (n - k) * log_ndtr(m)
    if k:
        eq_mu -= log_ndtr((neg - mu) / sigma).sum()
    if k < n:
        eq_mu += log_ndtr((mu - pos) / sigma).sum()

    def w_low(z):
        return z * _phi_over_cdf(np.asarray(z, float))

    def w_high(z):
        return z * _phi_over_cdf(-np.asarray(z, float))

    eq_sigma = 2 * n * math.exp(-0.5 * m * m) / _SQRT2PI
    for x in neg:
        eq_sigma += quad(w_low, (x - mu) / sigma, -m, epsabs=1e-12, epsrel=1e-10)[0]
    for x in pos:
        eq_sigma -= quad(w_high, -m, (x - mu) / sigma, epsabs=1e-12, epsrel=1e-10)[0]

    # single-integral form weighted by the empirical step functions, resolved
    # panel by panel between the knots where the step value is constant
    eq_ecdf = 2 * math.exp(-0.5 * m * m) / _SQRT2PI
    if k:
        knots = np.unique(np.concatenate(((neg - mu) / sigma, [-m])))
        for a, b in zip(knots[:-1], knots[1:]):
            fn_val = ecdf_eval(sample, mu + sigma * 0.5 * (a + b))
            eq_ecdf += fn_val * quad(w_low, a, b, epsabs=1e-12, epsrel=1e-10)[0]
    if k < n:
        knots = np.unique(np.concatenate(([-m], (pos - mu) / sigma)))
        for a, b in zip(knots[:-1], knots[1:]):
            sf_val = esf_eval(sample, mu + sigma * 0.5 * (a + b))
            eq_ecdf -= sf_val * quad(w_high, a, b, epsabs=1e-12, epsrel=1e-10)[0]
    return {"eq_mu": float(eq_mu), "eq_sigma": float(eq_sigma),
            "eq_sigma_ecdf": float(eq_ecdf)}
