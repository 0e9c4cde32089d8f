"""The sample objective g, the estimating function psi, and their derivatives.

For a sample x_1..x_n and in-domain parameters theta,

    g(theta) = E_theta|X| - mean_i s(x_i; theta),

where s integrates the model's log-CDF on the negative axis and log-survival
on the nonnegative axis.  Minimizing g is equivalent to minimizing the
empirical cumulative KL divergence, since the divergence equals
C_n + g(theta) - mean|x| with both extra terms parameter-free.

Support violations (an observation where the model CDF vanishes on the
negative axis) make g = +inf; the sentinel keeps numeric minimizers total.

``ObjectiveContext`` is the one evaluator of g (through the evaluator that
the family's ``g_fn`` builds for the sample) and of its derivatives; psi
takes d s/d theta from the family's ``ds_dtheta_matrix``.  The derivatives
of g are central differences from ``models._central_diff``, the one owner of
the step rule: the gradient differences g, and the Hessian differences psi
and averages over the observations, since mean psi = grad g.  That Hessian
is the sandwich's I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .empirical import Sample, ecdf_eval, empirical_entropy_constant, esf_eval
from .errors import DomainError
from .models import Family, _central_diff, get_family, log_ndtr, ndtr, quad

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass
class ObjectiveContext:
    """The evaluator of g and its derivatives, caching per-sample pieces."""

    family: Family
    sample: Sample
    _g: object = field(default=None, repr=False)

    def __post_init__(self):
        self.family = get_family(self.family)
        self._g = self.family.g_fn(self.sample)

    def g(self, theta) -> float:
        return self._g(theta)

    def gradient(self, theta) -> np.ndarray:
        """Central-difference gradient of g."""
        return _central_diff(self.family, self.g, self.family.validate(theta))

    def hessian(self, theta) -> np.ndarray:
        """I = mean_i d psi_i / d theta, the Hessian of g: psi differenced per
        observation, averaged, and symmetrized as (I + I^T)/2."""
        I = _central_diff(self.family, lambda t: psi_matrix(self.family, t, self.sample),
                          self.family.validate(theta)).mean(axis=0)
        return (I + I.T) / 2.0


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


def psi_matrix(family, theta, sample_or_xs) -> np.ndarray:
    """Per-observation estimating function, shape (n, dim):
    psi(x, theta) = d E|X| / d theta - d s(x) / d theta.
    """
    family = get_family(family)
    theta = family.validate(theta)
    xs = sample_or_xs.obs if isinstance(sample_or_xs, Sample) else np.asarray(sample_or_xs, float)
    ds = family.ds_dtheta_matrix(theta, xs)
    return family.mean_abs_grad(theta)[None, :] - ds


def gee_sum(family, theta, sample: Sample) -> np.ndarray:
    """Sum of psi over the sample; equals n times the gradient of g."""
    return psi_matrix(family, theta, sample).sum(axis=0)


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
