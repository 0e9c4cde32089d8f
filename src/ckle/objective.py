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
takes d s/d theta from the family's ``ds_dtheta_matrix``, and ``gee_sum``,
its sum over the sample, is the estimating equations, n grad g.  The
Hessian of g, the sandwich's I, is exact where the family has the
``d2s_mean`` hook (every family but the Normal): the Hessian of E|X| minus
the mean Hessian of s.  Central differences from ``models._central_diff``,
the one owner of the step rule, remain for the gradient, which differences
g, and for the Normal's Hessian, which differences psi and averages over
the observations, since mean psi = grad g.  The sandwich and
``FitResult.hessian_pd`` judge I with one rule, ``positive_definite``,
which does not depend on the parameters' units.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors
from .empirical import Sample, empirical_entropy_constant
from .models import _central_diff, get_family
from .models import quad  # noqa: F401  the name exists for perfbench/tracer.py to bind


class ObjectiveContext:
    """The evaluator of g and its derivatives, caching per-sample pieces."""

    def __init__(self, family, sample: Sample):
        self.family = get_family(family)
        self.sample = sample
        self._g = self.family.g_fn(sample)

    def g(self, theta) -> float:
        return self._g(theta)

    def gradient(self, theta) -> np.ndarray:
        """Central-difference gradient of g."""
        return _central_diff(self.family, self.g, self.family.validate(theta))

    def hessian(self, theta) -> np.ndarray:
        """I = mean_i d psi_i / d theta, the Hessian of g, symmetrized as
        (I + I^T)/2: the Hessian of E|X| minus ``d2s_mean`` where the family
        has that hook, else psi differenced per observation and averaged."""
        family, theta = self.family, self.family.validate(theta)
        if family.has_hook("d2s_mean"):
            I = family.mean_abs_hess(theta) - family.d2s_mean(theta, self.sample)
        else:
            I = _central_diff(family, lambda t: psi_matrix(family, t, self.sample),
                              theta).mean(axis=0)
        return (I + I.T) / 2.0


def positive_definite(H: np.ndarray) -> bool:
    """Whether H is finite and D^-1 H D^-1 (D = sqrt(diag H): H without the
    parameters' units) has its smallest eigenvalue above 1e-10 times the
    dimension, which bounds its condition number by 1e10."""
    d = np.diag(H)
    if not (np.all(np.isfinite(H)) and np.all(d > 0)):
        return False
    r = 1.0 / np.sqrt(d)
    try:
        return bool(np.linalg.eigvalsh(H * np.outer(r, r)).min() > 1e-10 * len(H))
    except np.linalg.LinAlgError:
        return False


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
    xs = sample_or_xs.obs if isinstance(sample_or_xs, Sample) else errors.floats("xs", sample_or_xs)
    ds = family.ds_dtheta_matrix(theta, xs)
    return family.mean_abs_grad(theta)[None, :] - ds


def gee_sum(family, theta, sample: Sample) -> np.ndarray:
    """Sum of psi over the sample; equals n times the gradient of g."""
    return psi_matrix(family, theta, sample).sum(axis=0)
