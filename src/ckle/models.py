"""Parametric families and every model-side quantity the objective needs.

A family is one ``Family`` subclass.  It sets ``name``, ``param_names``
and ``lower`` (each parameter's open lower bound, or None where it has
none); ``Family.validate``, the difference steps of ``_central_diff`` and
the simplex's coordinates (``solver._simplex_map``) read their bounds from
``lower`` alone, and ``support_lower`` (-inf unless overridden) says where
the support starts.  It implements on its open domain
``cdf``/``sf``/``pdf``, ``dcdf_dtheta``, ``mean_abs`` = E|X| with
``mean_abs_grad``, the integrated log-tail ``s_values`` per observation
(s(x) = int_0^x log sf(y) dy for x >= 0, int_x^0 log cdf(y) dy for x < 0)
with its gradient ``ds_dtheta_matrix`` (central differences of s for the
Normal, whose s has no closed form), ``quantile``, the upper-tail quantile
``isf`` (accurate for tiny survival probabilities) and ``mle``, where a
simplex fit starts.  The optional hooks ``d2s_mean`` (the mean over a
sample of the Hessian of s in theta, in closed form, which every family
but the Normal supplies together with ``mean_abs_hess``, the Hessian of
E|X|), ``closed_form``, ``profile_fit``, ``closed_fit_warning``,
``check_sample``, ``fit_rows``, ``mckle_unbiased``, ``mle_unbiased``,
``check_avar``, ``closed_avar`` and ``closed_test_region`` default to the
generic numerical path, so callers ask the family (through ``has_hook``
where the choice of path depends on it) instead of its name.
``s_sum_fn`` and ``g_fn`` build the per-sample evaluators of sum_i s(x_i)
and of g from the methods above; the Normal supplies its own, on fixed
panel nodes and Python floats, from the one panel builder ``_sides`` that
its ``s_values`` shares.

A one-parameter family (the Exponential and the Laplace) subclasses
``_PositiveScalar``: its g is a/t + b t + c, and it states the three
coefficients from the sample's moments (``_coefficients``).  From them
``_PositiveScalar`` derives g in O(1) (within a few ulp of the per-element
sum), the estimate sqrt(a/b), c(t) = sigma^2 g''(t) = 5a/(2t) (both have
sigma^2 = 5t^2/4) and the divergence interval, the two roots of
b t^2 - (2 sqrt(ab) + d) t + a; below a mean of squares of
``_MOMENT_SQ_FLOOR``, where some x^2 may have underflowed, g keeps the
per-element path.  ``_coefficients``, ``closed_form``, ``mle``,
``mckle_unbiased`` and ``mle_unbiased`` also take a ``Samples`` batch, whose
n and moments are per-row arrays: the same expressions give per-row arrays, NaN
where one sample raises (``_require``), and ``fit_rows`` is ``solver.fit``
on each row, also below the floor, since no estimate reads g.

Families with support bounded below truncate s where the model survival is
identically 1; an observation on the negative axis below the support start
makes s integrate log 0 over positive measure, which ``_check_support``
raises as ``SupportViolation`` from ``s_values``, ``ds_dtheta_matrix`` and
``d2s_mean`` (the objective is +inf there, and psi undefined).  The
two-parameter exponential's ``ds_dtheta_matrix`` and ``d2s_mean`` also
raise it for a negative observation at the support start, where psi is
-inf.  s has kinks at x = mu (the two-parameter exponential) and x = beta
(the Pareto); there ``d2s_mean`` takes the side that mu or beta
increases into, the one where s is flat.

``scipy.special`` is imported on first use, through the cached accessor
``_special``: ``log_ndtr``, ``ndtr``, ``ndtri`` and ``spence`` are
module-level functions that forward to its ufuncs (same values, bit for
bit), so ``import ckle`` does not load it, and the Normal code looks
``log_ndtr`` up here at call time, where a wrapper can be bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .empirical import Sample, Samples
from .errors import DataError, DomainError, InferenceError, SupportViolation
from .rng import uniform_open

_SQRT2PI = math.sqrt(2.0 * math.pi)
_GLX, _GLW = np.polynomial.legendre.leggauss(16)
# panels one Normal panel build may add beyond one per interval; each costs
# about 0.9 kB at peak, so the cap keeps its arrays under about 200 MB
_MAX_EXTRA_PANELS = 200_000
# below this mean of squares some x^2 may have underflowed (the Exponential's
# per-element (lambda x) x keeps them), so the scalar families evaluate g per
# element there; at or above it, rounding the squares that fall below the
# normal range (by at most 2.5e-324 each) moves mean_sq by under 1e-33 of it
_MOMENT_SQ_FLOOR = 1e-290


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first call: scipy.integrate
    (with scipy.optimize and scipy.linalg behind it) would add about 300
    modules to ``import ckle``, and only the adaptive reference path
    ``Normal.s_value`` uses it."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


@functools.cache
def _special():
    """``scipy.special``, imported on first use: with the array-API shim
    behind it, it is about half of a bare ``import ckle``, and only the
    Normal, the two-parameter exponential's dilogarithm and the quadrature
    variance use it.  The four functions below forward to it through this
    cached lookup (about 0.2 us a call) and never rebind themselves, so a
    wrapper put on ``ckle.models.log_ndtr`` stays in place."""
    import scipy.special
    return scipy.special


def log_ndtr(x):
    return _special().log_ndtr(x)


def ndtr(x):
    return _special().ndtr(x)


def ndtri(p):
    return _special().ndtri(p)


def spence(z):
    return _special().spence(z)


@dataclass(frozen=True)
class ParamVector:
    """Named, ordered parameter values for one family."""

    names: tuple[str, ...]
    values: tuple[float, ...]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values))

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.values[self.names.index(key)]
        return self.values[key]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype)


def _as_theta(theta) -> np.ndarray:
    if type(theta) is np.ndarray and theta.dtype == np.float64 and theta.ndim:
        return theta                # the same array the general path returns
    return np.atleast_1d(np.asarray(theta, dtype=float))


def _where(cond, x, y):
    """``x if cond else y`` on one sample's Python bool, ``np.where`` on a
    batch's array."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else x if cond else y


def _require(ok, value, message: str = "degenerate data"):
    """value where ok holds: on one sample's Python bool a failure raises
    DataError(message), on a batch's array its rows are NaN."""
    if isinstance(ok, np.ndarray):
        return np.where(ok, value, math.nan)
    if not ok:
        raise DataError(message)
    return value


def _sqrt(x):
    # both correctly rounded: math keeps a Python float, numpy takes arrays
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _open_unit(p) -> np.ndarray:
    p = errors.floats("p", p, row=False)
    # one pass, and NaN fails both comparisons
    if not ((p > 0) & (p < 1)).all():
        raise DomainError("quantile requires 0 < p < 1")
    return p


def _dilog(w):
    # Li2(w) = spence(1 - w) in scipy's convention
    return spence(1.0 - w)


def _central_diff(family: "Family", fn, theta: np.ndarray) -> np.ndarray:
    """(fn(theta + h_j e_j) - fn(theta - h_j e_j)) / (2 h_j) for each
    coordinate j, stacked along a new last axis; fn may return a scalar or
    an array.  A coordinate with an open lower bound lo_j (``Family.lower``)
    steps by h_j = 1e-5 (theta_j - lo_j), so both probes stay in the domain
    and the step scales with the parameter; an unbounded one steps by
    1e-5 max(|theta_j|, 1).  A probe that rounds back onto theta_j raises
    DomainError."""
    cols = []
    for j, lo in enumerate(family.lower):
        t = theta[j]
        h = 1e-5 * (t - lo) if lo is not None else 1e-5 * max(abs(t), 1.0)
        tp = theta.copy(); tp[j] += h
        tm = theta.copy(); tm[j] -= h
        if not tm[j] < t < tp[j]:
            raise DomainError("boundary point: differentiation step underflow")
        fp, fm = fn(tp), fn(tm)
        with np.errstate(invalid="ignore"):     # inf - inf: NaN, never positive definite
            cols.append((fp - fm) / (2 * h))
    return np.stack(cols, axis=-1)


class Family:
    """Shared plumbing; subclasses fill in the closed forms."""

    name: str = ""
    param_names: tuple[str, ...] = ()
    # per parameter, its open lower bound, or None where it is unbounded
    lower: tuple[float | None, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.param_names)

    def has_hook(self, hook: str) -> bool:
        """Whether this family's class supplies the optional ``hook`` instead
        of inheriting the generic default."""
        return getattr(type(self), hook) is not getattr(Family, hook)

    @functools.cached_property      # built once: every g call reads theta through _theta
    def _what(self) -> str:
        return f"{self.name} parameters"

    def _theta(self, theta) -> np.ndarray:
        """theta as a 1-D array, raising DomainError unless it has dim floats."""
        th = errors.floats(self._what, theta)
        if th.size != len(self.param_names):
            raise DomainError(f"{self.name} expects {self.dim} parameters, got {th.size}")
        return th

    def param_vector(self, values) -> ParamVector:
        return ParamVector(self.param_names, tuple(self._theta(values).tolist()))

    def validate(self, theta) -> np.ndarray:
        """Return theta as an array, raising DomainError naming the bad
        parameter: each must be finite, and above its bound in ``lower``."""
        th = self._theta(theta)
        for pname, value, lo in zip(self.param_names, th.tolist(), self.lower):
            if not math.isfinite(value):
                raise DomainError(f"{self.name}: parameter {pname} must be finite, got {value}")
            if lo is not None and not value > lo:
                bound = "be positive" if lo == 0 else f"exceed {lo:g}"
                raise DomainError(f"{self.name}: parameter {pname} must {bound}, got {value}")
        return th

    def support_lower(self, theta) -> float:
        return -np.inf

    # --- distribution functions (vectorized over x) ---
    def cdf(self, theta, x):
        raise NotImplementedError

    def sf(self, theta, x):
        raise NotImplementedError

    def pdf(self, theta, x):
        raise NotImplementedError

    def dcdf_dtheta(self, theta, x) -> np.ndarray:
        """Analytic gradient of the CDF in theta, shape (dim,) + shape(x)."""
        raise NotImplementedError

    # --- moments and integrated log-tails ---
    def mean_abs(self, theta) -> float:
        raise NotImplementedError

    def mean_abs_grad(self, theta) -> np.ndarray:
        raise NotImplementedError

    def mean_abs_hess(self, theta) -> np.ndarray:
        """The Hessian of E|X| in theta, shape (dim, dim); a family that
        supplies ``d2s_mean`` supplies it."""
        raise NotImplementedError

    def s_values(self, theta, xs: np.ndarray) -> np.ndarray:
        """s(x) per observation; SupportViolation if cdf vanishes on a
        positive-measure part of (x, 0)."""
        raise NotImplementedError

    def s_sum_fn(self, sample: Sample):
        """Callable theta -> sum_i s(x_i); built once per sample for speed."""
        xs = sample.obs

        def fn(theta):
            return float(self.s_values(theta, xs).sum())

        return fn

    def g_fn(self, sample: Sample):
        """Callable theta -> g(theta) = E|X| - mean_i s(x_i), built once per
        sample; it validates theta and is +inf on SupportViolation."""
        s_sum, n = self.s_sum_fn(sample), sample.n

        def g(theta):
            theta = self.validate(theta)
            try:
                return self.mean_abs(theta) - s_sum(theta) / n
            except SupportViolation:
                return math.inf

        return g

    def ds_dtheta_matrix(self, theta, xs: np.ndarray) -> np.ndarray:
        """Per-observation gradient of s in theta, shape (n, dim)."""
        raise NotImplementedError

    # --- sampling ---
    def quantile(self, theta, p):
        raise NotImplementedError

    def isf(self, theta, v):
        """Inverse survival function: the x with sf(x) = v, computed from v
        itself so that it keeps full relative accuracy as v -> 0."""
        raise NotImplementedError

    def draw(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws by inverse transform on open-interval uniforms."""
        if n < 1:
            raise DataError("need at least one draw")
        return np.asarray(self.quantile(theta, uniform_open(rng, n)), dtype=float)

    # --- the maximum-likelihood estimate, where the simplex starts ---
    def mle(self, sample: Sample) -> tuple[float, ...]:
        """The maximum-likelihood estimate, inside the open domain, or DataError."""
        raise NotImplementedError

    # --- optional hooks: a default of None (or no check) selects the
    # generic path in the solver, inference and simulation layers ---
    def d2s_mean(self, theta, sample: Sample):
        """mean_i d^2 s(x_i) / d theta^2 over the sample, shape (dim, dim), in
        closed form; it raises SupportViolation where ``ds_dtheta_matrix``
        does on the sample's observations."""

    def closed_form(self, sample: Sample):
        """Closed-form minimum-divergence estimate."""

    def profile_fit(self, sample: Sample):
        """(theta, converged) from a profiled root-solve."""

    def closed_fit_warning(self, theta, sample: Sample) -> bool:
        """Extra support-warning rule for the closed-form estimate."""
        return False

    def check_sample(self, sample: Sample) -> None:
        """Raise DataError when g has no minimizer inside the domain."""

    def fit_rows(self, samples: Samples):
        """(values,) of ``solver.fit`` on each row of a batch: the estimate
        where the fit converges, NaN where it raises or does not."""

    def mckle_unbiased(self, theta, n: int):
        """Bias-corrected minimum-divergence estimate theta at sample size n."""

    def mle_unbiased(self, sample: Sample):
        """Unbiased variant of the maximum-likelihood estimate."""

    def check_avar(self, theta) -> None:
        """Raise InferenceError where the variance integrals diverge."""

    def closed_avar(self, theta, n: int):
        """(A, B, V_n) of the asymptotic variance at sample size n; V_n =
        B^-1 A B^-1 / n is formed directly, not from A and B."""

    def closed_test_region(self, theta0: float, n: int, chi2: float):
        """Interval of the mean of squares where the test at theta0 accepts."""

    def _check_support(self, theta, xs: np.ndarray) -> None:
        # below zero s integrates log cdf, which is -inf under the support start
        if xs.size and xs.min() < min(0.0, self.support_lower(theta)):
            raise SupportViolation("support violation: observation below the support start")


class _PositiveScalar(Family):
    """One positive parameter t, with g(t) = a/t + b t + c for the
    coefficients (a, b, c) that ``_coefficients`` reads from the sample's
    moments.  The estimate, g, c(t) and the divergence interval come from
    them here."""

    lower = (0.0,)

    def check_sample(self, sample):
        # with a mean of squares of 0 no theta in the domain minimizes g
        if sample.mean_sq <= 0:
            raise DataError("degenerate data")

    def _coefficients(self, sample: Sample) -> tuple[float, float, float]:
        """(a, b, c) of g(t) = a/t + b t + c; a is +inf where g is +inf at
        every t (data below the support start).  On a ``Samples`` batch
        they are per-row arrays, or floats shared by every row."""
        raise NotImplementedError

    @staticmethod
    def _g(a, b, c, t):
        # summed in this order, g is bit for bit each family's moment
        # formula 1/t + t mean_sq/2 or t + c + (mean_sq/2)/t
        return b * t + c + a / t

    def g_fn(self, sample):
        # O(1) from the coefficients, with validate's checks inline as in
        # Normal.g_fn
        if sample.mean_sq < _MOMENT_SQ_FLOOR:
            return Family.g_fn(self, sample)
        a, b, c = self._coefficients(sample)
        lo, g_at, read = self.lower[0], self._g, self._theta

        def g(theta):
            t = read(theta).item()
            if not lo < t < math.inf:
                self.validate(t)        # raises the DomainError naming the parameter
            return g_at(a, b, c, t)

        return g

    def closed_form(self, sample):
        # the minimizer of a/t + b t is sqrt(a/b); per row of a batch, NaN
        # where one sample raises
        a, b, _ = self._coefficients(sample)
        a = _require(a != math.inf, a, "negative data for nonnegative family")
        a = _require((a > 0) & (b > 0), a)
        return (_sqrt(a / b),)

    def fit_rows(self, samples):
        # the closed fit converges where g is finite at the estimate; the
        # moment g is +inf or NaN where validate refuses t (0, +inf, or NaN
        # where mean_sq = 0 fails check_sample) and finite elsewhere, as the
        # per-element g is: no term (t x) x or (x / t) x overflows there
        a, b, c = self._coefficients(samples)
        t = self.closed_form(samples)[0]
        return (_require(np.isfinite(self._g(a, b, c, t)), t),)

    def closed_divergence_interval(self, sample: Sample, log_k: float) -> tuple[float, float]:
        """(lower, upper) of the set where g - g(t_hat) <= d = -log_k.

        g(t) - g(t_hat) = (sqrt(a/t) - sqrt(b t))^2, so the endpoints are
        the roots of b t^2 - (2 sqrt(ab) + d) t + a: the discriminant
        d (d + 4 sqrt(ab)) has no cancellation, and the lower root is
        (a/b) / upper."""
        a, b, _ = self._coefficients(sample)
        d = -log_k
        r = math.sqrt(a * b)
        upper = (2.0 * r + d + math.sqrt(d * (d + 4.0 * r))) / (2.0 * b)
        return (a / b) / upper, upper

    def closed_c(self, theta, sample: Sample) -> float:
        # sigma^2 g'' = (5 t^2 / 4)(2 a / t^3) in both families; +inf where a is
        return 5.0 * self._coefficients(sample)[0] / (2.0 * _as_theta(theta).item())


class Exponential(_PositiveScalar):
    """Exp(rate lambda) on [0, inf): sf(x) = exp(-lambda x)."""

    name = "exponential"
    param_names = ("lambda",)

    def support_lower(self, theta):
        return 0.0

    def cdf(self, theta, x):
        lam = _as_theta(theta)[0]
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, -np.expm1(-lam * np.maximum(x, 0.0)))

    def sf(self, theta, x):
        lam = _as_theta(theta)[0]
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 1.0, np.exp(-lam * np.maximum(x, 0.0)))

    def pdf(self, theta, x):
        lam = _as_theta(theta)[0]
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, lam * np.exp(-lam * np.maximum(x, 0.0)))

    def dcdf_dtheta(self, theta, x):
        lam = _as_theta(theta)[0]
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, x * np.exp(-lam * np.maximum(x, 0.0)))[None, ...]

    def mean_abs(self, theta):
        return 1.0 / _as_theta(theta)[0]

    def mean_abs_grad(self, theta):
        lam = _as_theta(theta)[0]
        return np.array([-1.0 / lam**2])

    def s_values(self, theta, xs):
        lam = _as_theta(theta)[0]
        xs = np.asarray(xs, dtype=float)
        self._check_support(theta, xs)
        return -lam * xs * xs / 2.0

    def ds_dtheta_matrix(self, theta, xs):
        xs = np.asarray(xs, dtype=float)
        self._check_support(theta, xs)
        return (-xs * xs / 2.0)[:, None]

    def mean_abs_hess(self, theta):
        # on Python floats, inf or 0 without a warning where 2 / lambda^3
        # leaves the doubles (lambda beyond about 1e+-102)
        lam = float(_as_theta(theta)[0])
        return np.array([[2.0 / lam / lam / lam]])

    def d2s_mean(self, theta, sample):
        # s = -lambda x^2 / 2 is linear in lambda
        self._check_support(theta, sample.obs)
        return np.zeros((1, 1))

    def _coefficients(self, sample):
        # g = 1/lambda + lambda mean_sq / 2, +inf below the support start
        return _where(sample.k > 0, math.inf, 1.0), sample.mean_sq / 2.0, 0.0

    def quantile(self, theta, p):
        lam = _as_theta(theta)[0]
        p = _open_unit(p)
        return -np.log1p(-p) / lam

    def isf(self, theta, v):
        lam = _as_theta(theta)[0]
        return -np.log(_open_unit(v)) / lam

    def mle(self, sample):
        return (1.0 / _require(sample.mean > 0, sample.mean),)

    def mckle_unbiased(self, theta, n):
        # removes the first-order bias 15 lambda / (8n)
        return (8.0 * n / (8.0 * n + 15.0) * theta[0],)

    def mle_unbiased(self, sample):
        return ((sample.n - 1.0) / (sample.n * _require(sample.mean > 0, sample.mean)),)

    def closed_avar(self, theta, n):
        # sigma^2 = A / B^2 = 5 lambda^2 / 4; A and B leave the doubles
        # beyond lambda = 1e+-77, sigma^2 only beyond 1e+-154
        lam = _as_theta(theta)[0]
        with np.errstate(over="ignore", divide="ignore"):
            A, B = np.array([[5.0 / lam**4]]), np.array([[2.0 / lam**3]])
        return A, B, np.array([[5.0 * lam**2 / (4.0 * n)]])

    def closed_test_region(self, theta0, n, chi2):
        # roots t of a t^2 - b t + c: the discriminant b^2 - 4ac is exactly
        # 10 n theta0^2 chi2, and the product of the roots is c/a, so the
        # lower root is taken from the upper one; it is <= 0 when c <= 0
        a = n * theta0**2
        b = 2.0 * math.sqrt(2.0) * n * theta0
        c = 2.0 * n - 2.5 * chi2
        t_hi = (b + theta0 * math.sqrt(10.0 * n * chi2)) / (2.0 * a)
        t_lo = (c / a) / t_hi if c > 0 else 0.0
        return (t_lo**2, t_hi**2)


class Laplace(_PositiveScalar):
    """Double exponential centered at 0 with scale theta:
    pdf(x) = exp(-|x|/theta) / (2 theta)."""

    name = "laplace"
    param_names = ("theta",)

    def cdf(self, theta, x):
        th = _as_theta(theta)[0]
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.5 * np.exp(np.minimum(x, 0.0) / th),
                        1.0 - 0.5 * np.exp(-np.maximum(x, 0.0) / th))

    def sf(self, theta, x):
        return self.cdf(theta, -np.asarray(x, dtype=float))

    def pdf(self, theta, x):
        th = _as_theta(theta)[0]
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x) / th) / (2.0 * th)

    def dcdf_dtheta(self, theta, x):
        th = _as_theta(theta)[0]
        x = np.asarray(x, dtype=float)
        return (-0.5 * (x / th**2) * np.exp(-np.abs(x) / th))[None, ...]

    def mean_abs(self, theta):
        return _as_theta(theta)[0]

    def mean_abs_grad(self, theta):
        return np.array([1.0])

    def s_values(self, theta, xs):
        th = _as_theta(theta)[0]
        xs = np.asarray(xs, dtype=float)
        # x/theta first: x * x underflows on data near 1e-200
        return -np.abs(xs) * math.log(2.0) - (xs / th) * xs / 2.0

    def ds_dtheta_matrix(self, theta, xs):
        th = _as_theta(theta)[0]
        xs = np.asarray(xs, dtype=float)
        # x/theta first: x * x underflows on data near 1e-200
        return ((xs / th) ** 2 / 2.0)[:, None]

    def mean_abs_hess(self, theta):
        return np.zeros((1, 1))

    def d2s_mean(self, theta, sample):
        # d^2 s / d theta^2 = -(x/theta)^2 / theta: from the mean of squares,
        # as g, unless some x^2 may have underflowed; then x/theta first
        th = _as_theta(theta).item()
        if sample.mean_sq >= _MOMENT_SQ_FLOOR:
            return np.array([[-sample.mean_sq / th / th / th]])
        u = sample.obs / th
        return np.array([[-(u * u).sum() / u.size / th]])

    def _coefficients(self, sample):
        # g = mean_sq / (2 theta) + theta + log 2 mean_abs
        return sample.mean_sq / 2.0, 1.0, math.log(2.0) * sample.mean_abs

    def quantile(self, theta, p):
        th = _as_theta(theta)[0]
        p = _open_unit(p)
        return np.where(p < 0.5, th * np.log(2.0 * p), -th * np.log(2.0 * (1.0 - p)))

    def isf(self, theta, v):
        # the law is symmetric about zero: sf(x) = cdf(-x)
        return -self.quantile(theta, v)

    def mle(self, sample):
        # scale MLE for the zero-centered model
        return (_require(sample.mean_abs > 0, sample.mean_abs),)

    def closed_avar(self, theta, n):
        # |X| is exponential, so sigma^2 = 5 theta^2 / 4 as for the exponential
        th = _as_theta(theta)[0]
        V = np.array([[5.0 * th**2 / (4.0 * n)]])
        return np.array([[5.0]]), np.array([[2.0 / th]]), V


class _LocationScale(Family):
    """Location mu and scale sigma."""

    param_names = ("mu", "sigma")
    lower = (None, 0.0)

    def check_sample(self, sample):
        # with no spread the objective decreases all the way to sigma = 0
        if sample.obs[0] == sample.obs[-1]:
            raise DataError("degenerate data")


class TwoParamExponential(_LocationScale):
    """Shifted exponential on [mu, inf) with scale sigma."""

    name = "twoparamexp"

    def support_lower(self, theta):
        return _as_theta(theta)[0]

    def cdf(self, theta, x):
        mu, sig = _as_theta(theta)
        t = np.maximum((np.asarray(x, dtype=float) - mu) / sig, 0.0)
        return -np.expm1(-t)

    def sf(self, theta, x):
        mu, sig = _as_theta(theta)
        t = np.maximum((np.asarray(x, dtype=float) - mu) / sig, 0.0)
        return np.exp(-t)

    def pdf(self, theta, x):
        mu, sig = _as_theta(theta)
        x = np.asarray(x, dtype=float)
        t = (x - mu) / sig
        return np.where(t < 0, 0.0, np.exp(-np.maximum(t, 0.0)) / sig)

    def dcdf_dtheta(self, theta, x):
        mu, sig = _as_theta(theta)
        x = np.asarray(x, dtype=float)
        t = (x - mu) / sig
        inside = t >= 0
        e = np.where(inside, np.exp(-np.maximum(t, 0.0)), 0.0)
        return np.stack([-e / sig, -np.maximum(t, 0.0) * e / sig])

    def mean_abs(self, theta):
        mu, sig = _as_theta(theta)
        if mu >= 0:
            return mu + sig
        return -mu - sig + 2.0 * sig * math.exp(mu / sig)

    def mean_abs_grad(self, theta):
        mu, sig = _as_theta(theta)
        if mu >= 0:
            return np.array([1.0, 1.0])
        e = math.exp(mu / sig)
        return np.array([-1.0 + 2.0 * e, -1.0 + 2.0 * e * (1.0 - mu / sig)])

    def mean_abs_hess(self, theta):
        # the mu >= 0 side at mu = 0, as in mean_abs
        mu, sig = _as_theta(theta)
        if mu >= 0:
            return np.zeros((2, 2))
        # (2 e^m / sigma)(1, -m, m^2) with m = mu/sigma; e m m is formed as
        # (e m) m, which is 0, not 0 times inf, where m^2 overflows
        m = mu / sig
        e = 2.0 * math.exp(m) / sig
        return np.array([[e, -e * m], [-e * m, e * m * m]])

    def s_values(self, theta, xs):
        mu, sig = _as_theta(theta)
        xs = np.asarray(xs, dtype=float)
        self._check_support(theta, xs)
        a = np.maximum(xs - mu, 0.0)
        b = max(-mu, 0.0)
        out = -(a * a - b * b) / (2.0 * sig)
        neg = xs < 0
        if np.any(neg):
            xn = xs[neg]
            # int log(1 - e^{-t}) dt = -Li2(e^{-t}) + const
            out[neg] = sig * (_dilog(np.exp(mu / sig)) - _dilog(np.exp((mu - xn) / sig)))
        return out

    def ds_dtheta_matrix(self, theta, xs):
        mu, sig = _as_theta(theta)
        xs = np.asarray(xs, dtype=float)
        self._check_support(theta, xs)
        a = np.maximum(xs - mu, 0.0)
        b = max(-mu, 0.0)
        dmu = (a - b) / sig
        dsig = (a * a - b * b) / (2.0 * sig**2)
        neg = xs < 0
        if np.any(neg):
            xn = xs[neg]
            t0 = -mu / sig
            tx = (xn - mu) / sig
            if not tx.min() > 0:
                # d s / d mu has log(1 - e^{-t}), which is -inf at t = 0
                raise SupportViolation("support violation: a negative observation "
                                       "at the support start")
            dmu[neg] = np.log(-np.expm1(-tx)) - math.log(-math.expm1(-t0))
            G = lambda t: t * np.log(-np.expm1(-t)) - _dilog(np.exp(-t))
            dsig[neg] = G(tx) - G(t0)
        return np.column_stack([dmu, dsig])

    def d2s_mean(self, theta, sample):
        # sigma times the Hessian of s is a function of (x - mu)/sigma and
        # -mu/sigma alone, so the mean is formed in those units and divided
        # by sigma once
        mu, sig = _as_theta(theta)
        self._check_support(theta, sample.obs)
        pos = sample.obs[sample.k:]
        # x >= 0: with B = max(-mu, 0)/sigma and D = max(x - mu, 0)/sigma - B
        # (never negative), sigma d2s = (1{mu < 0} - 1{x > mu}, -D,
        # -D (D + 2B)), taking 1{x > mu} = 0 at the kink x = mu
        B = max(-mu, 0.0) / sig
        D = np.maximum(pos - mu, 0.0) / sig - B
        d_sum = D.sum()
        mm = (pos.size if mu < 0 else 0) - np.count_nonzero(pos > mu)
        ms, ss = -d_sum, -((D * D).sum() + 2.0 * B * d_sum)
        if sample.k:
            # x < 0 (so mu < x): with t = (x - mu)/sigma, t0 = -mu/sigma and
            # r(t) = 1/expm1(t), sigma d2s = (r(t0) - r(t), t0 r(t0) - t r(t),
            # t0^2 r(t0) - t^2 r(t))
            t, t0 = (sample.obs[:sample.k] - mu) / sig, -mu / sig
            if not t.min() > 0:
                raise SupportViolation("support violation: a negative observation "
                                       "at the support start")
            # e^-t / (1 - e^-t) is 0, not inf/inf, at large t, and t (t r)
            # keeps t^2 from overflowing there; r overflows only within a
            # subnormal t of the support start (inf or NaN then, never
            # positive definite)
            r = lambda t: np.exp(-t) / -np.expm1(-t)
            with np.errstate(over="ignore", invalid="ignore"):
                r0, rt, k = r(t0), r(t), t.size
                mm += k * r0 - rt.sum()
                ms += k * (t0 * r0) - (t * rt).sum()
                ss += k * (t0 * (t0 * r0)) - (t * (t * rt)).sum()
        return np.array([[mm, ms], [ms, ss]]) / (sig * sample.n)

    def quantile(self, theta, p):
        mu, sig = _as_theta(theta)
        p = _open_unit(p)
        return mu - sig * np.log1p(-p)

    def isf(self, theta, v):
        mu, sig = _as_theta(theta)
        return mu - sig * np.log(_open_unit(v))

    def closed_form(self, sample):
        var = sample.mean_sq - sample.mean**2
        if var <= 0:
            raise DataError("degenerate data")
        sd = math.sqrt(var)
        return (sample.mean - sd, sd)

    def mle(self, sample):
        x1 = float(sample.obs[0])
        if sample.mean <= x1:
            raise DataError("degenerate data")
        return (x1, sample.mean - x1)

    def closed_fit_warning(self, theta, sample):
        # the closed pair is derived on the nonnegative-support branch
        return theta[0] < 0 or sample.k > 0

    def check_avar(self, theta):
        # (dF/dmu)^2/F ~ 1/(x - mu) at the support start: log-divergent
        if _as_theta(theta)[0] < 0:
            raise InferenceError("variance integral diverges")

    def closed_avar(self, theta, n):
        self.check_avar(theta)
        mu, sig = _as_theta(theta)
        A = np.array([[1.0, 2.0], [2.0, 5.0]])
        B = np.array([[1.0, 1.0], [1.0, 2.0]]) / sig
        V = sig**2 * np.array([[1.0, -1.0], [-1.0, 2.0]]) / n
        return A, B, V


class Pareto(Family):
    """Pareto on [beta, inf) with shape alpha > 1 (finite mean) and scale beta."""

    name = "pareto"
    param_names = ("alpha", "beta")
    lower = (1.0, 0.0)

    def support_lower(self, theta):
        return _as_theta(theta)[1]

    def cdf(self, theta, x):
        a, b = _as_theta(theta)
        x = np.asarray(x, dtype=float)
        r = np.maximum(x, b) / b
        return -np.expm1(-a * np.log(r))

    def sf(self, theta, x):
        a, b = _as_theta(theta)
        x = np.asarray(x, dtype=float)
        r = np.maximum(x, b) / b
        return np.exp(-a * np.log(r))

    def pdf(self, theta, x):
        a, b = _as_theta(theta)
        x = np.asarray(x, dtype=float)
        return np.where(x < b, 0.0, a * b**a / np.maximum(x, b) ** (a + 1))

    def dcdf_dtheta(self, theta, x):
        a, b = _as_theta(theta)
        x = np.asarray(x, dtype=float)
        r = np.maximum(x, b) / b
        s = np.exp(-a * np.log(r))
        inside = x >= b
        return np.stack([np.where(inside, s * np.log(r), 0.0),
                         np.where(inside, -(a / b) * s, 0.0)])

    def mean_abs(self, theta):
        a, b = _as_theta(theta)
        if a <= 1:
            raise DomainError("infinite mean")
        return a * b / (a - 1.0)

    def mean_abs_grad(self, theta):
        a, b = _as_theta(theta)
        return np.array([-b / (a - 1.0) ** 2, a / (a - 1.0)])

    def s_values(self, theta, xs):
        a, b = _as_theta(theta)
        xs = np.asarray(xs, dtype=float)
        self._check_support(theta, xs)
        z = np.maximum(xs, b)
        return -a * (z * (np.log(z) - math.log(b) - 1.0) + b)

    def ds_dtheta_matrix(self, theta, xs):
        a, b = _as_theta(theta)
        xs = np.asarray(xs, dtype=float)
        self._check_support(theta, xs)
        z = np.maximum(xs, b)
        da = -(z * (np.log(z) - math.log(b) - 1.0) + b)
        db = a * (z - b) / b
        return np.column_stack([da, db])

    def mean_abs_hess(self, theta):
        a, b = _as_theta(theta)
        d = a - 1.0
        return np.array([[2.0 * b / d**3, -1.0 / d**2], [-1.0 / d**2, 0.0]])

    def d2s_mean(self, theta, sample):
        # s = 0 for x <= beta (the side beta increases into at x = beta);
        # above, d2s/dalpha dbeta = x/beta - 1 and d2s/dbeta2 = -alpha x/beta^2
        a, b = _as_theta(theta)
        self._check_support(theta, sample.obs)
        above = sample.obs[np.searchsorted(sample.obs, b, side="right"):]
        m = above.sum() / b / sample.n       # mean of 1{x > beta} x/beta
        off = m - above.size / sample.n
        return np.array([[0.0, off], [off, -a * m / b]])

    def quantile(self, theta, p):
        a, b = _as_theta(theta)
        p = _open_unit(p)
        return b * np.exp(-np.log1p(-p) / a)

    def isf(self, theta, v):
        a, b = _as_theta(theta)
        return b * np.exp(-np.log(_open_unit(v)) / a)

    def mle(self, sample):
        if sample.obs[0] <= 0:
            raise DataError("degenerate data")
        x1 = float(sample.obs[0])
        logs = np.log(sample.obs / x1)
        if logs.sum() <= 0:
            raise DataError("degenerate data")
        return (sample.n / float(logs.sum()), x1)

    def profile_fit(self, sample):
        from .solver import solve_pareto_profile      # the solver imports this module
        alpha, beta, resid = solve_pareto_profile(sample)
        return np.array([alpha, beta]), resid <= 1e-10

    def check_avar(self, theta):
        # (d s / d alpha)^2 grows like x^2 log^2 x against the density x^-(alpha+1)
        if _as_theta(theta)[0] <= 2.0:
            raise InferenceError("asymptotic variance undefined")

    def closed_avar(self, theta, n):
        self.check_avar(theta)
        a, b = _as_theta(theta)
        V = (np.array([[2.0 * a * (a - 1.0) ** 4, a * b * (a - 1.0) ** 2],
                       [a * b * (a - 1.0) ** 2, b**2 / a * (a * a - 2.0 * a + 2.0)]])
             / (n * (a - 2.0) ** 3))
        B = np.array([[2.0 * b / (a - 1.0) ** 3, -a / (a - 1.0) ** 2],
                      [-a / (a - 1.0) ** 2, a * a / (b * (a - 1.0))]])
        A = B @ (n * V) @ B
        return A, B, V


def _normal_mean_abs(mu: float, sig: float) -> float:
    # E|X| of the Normal on python floats: the values of numpy scalar math, faster
    m = mu / sig
    return mu * (2.0 * ndtr(m) - 1.0) + 2.0 * sig * math.exp(-0.5 * m * m) / _SQRT2PI


class Normal(_LocationScale):
    """Gaussian on the real line.

    The CDF and quantile go through scipy's Cephes routines (``ndtr``,
    ``ndtri``): erf-based with absolute error far below 1e-12, and a rational
    approximation polished to give the inverse to ~1e-15.  ``s`` has no
    closed form; ``s_values`` uses fixed 16-node Gauss-Legendre panels no
    longer than half a scale, which agrees to machine precision (the
    integrand is entire) with the adaptive quadrature of ``s_value``
    (QUADPACK, relative tolerance 1e-10).
    """

    name = "normal"

    def cdf(self, theta, x):
        mu, sig = _as_theta(theta)
        return ndtr((np.asarray(x, dtype=float) - mu) / sig)

    def sf(self, theta, x):
        mu, sig = _as_theta(theta)
        return ndtr(-(np.asarray(x, dtype=float) - mu) / sig)

    def pdf(self, theta, x):
        mu, sig = _as_theta(theta)
        z = (np.asarray(x, dtype=float) - mu) / sig
        return np.exp(-0.5 * z * z) / (sig * _SQRT2PI)

    def dcdf_dtheta(self, theta, x):
        mu, sig = _as_theta(theta)
        z = (np.asarray(x, dtype=float) - mu) / sig
        phi = np.exp(-0.5 * z * z) / _SQRT2PI
        return np.stack([-phi / sig, -z * phi / sig])

    def mean_abs(self, theta):
        return _normal_mean_abs(*_as_theta(theta).tolist())

    def mean_abs_grad(self, theta):
        # Python floats, as in _normal_mean_abs: m * m may overflow at a probe
        mu, sig = _as_theta(theta).tolist()
        m = mu / sig
        phi = math.exp(-0.5 * m * m) / _SQRT2PI
        return np.array([2.0 * ndtr(m) - 1.0, 2.0 * phi])

    def s_value(self, theta, x) -> float:
        """s at one point by adaptive quadrature; the reference the panel
        paths are tested against."""
        x = float(x)
        if x == 0:
            return 0.0
        mu, sig = _as_theta(theta)
        sign = 1.0 if x < 0 else -1.0       # log cdf below zero, log sf above
        val, _ = quad(lambda y: log_ndtr(sign * (y - mu) / sig), min(x, 0.0), max(x, 0.0),
                      epsabs=1e-13, epsrel=1e-10, limit=200)
        return val

    @staticmethod
    def _sides(srt: np.ndarray, k: int, max_len: float):
        """Gauss-Legendre panels of length <= max_len between zero and the
        sorted observations ``srt``, whose first k are negative.

        Returns one (sign, nodes, weights, interval, count) per nonempty side
        of zero, the side at and above zero first.  A side's breaks are zero
        and its observations; interval[i] is the index of node i's interval
        between consecutive breaks, count is the number of intervals, and a
        weight is the GL weight times its panel's halfwidth.  s integrates
        log_ndtr((y - mu) / (sign * sigma)) over a side: log sf above zero
        (sign -1), log cdf below (sign +1); IEEE negation is exact, so that
        is (mu - y) / sigma above zero, bit for bit.  Raises DataError before
        allocating when a side spans more than _MAX_EXTRA_PANELS panel
        lengths, which bounds the panels beyond one per interval.
        """
        sides = []
        if k < srt.size:
            sides.append((-1.0, np.concatenate(([0.0], srt[k:]))))
        if k > 0:
            sides.append((1.0, np.concatenate((srt[:k], [0.0]))))
        for _, breaks in sides:
            span = float(breaks[-1] - breaks[0])
            if span > _MAX_EXTRA_PANELS * max_len:
                raise DataError(f"normal: data span {span:.3g} from zero is too wide "
                                f"for panels of length {max_len:.3g}")
        out = []
        for sign, breaks in sides:
            a, b = breaks[:-1], breaks[1:]
            counts = np.maximum(np.ceil((b - a) / max_len).astype(int), 1)
            # panel p of interval j spans edges p and p + 1 of
            # np.linspace(a[j], b[j], counts[j] + 1), computed as linspace does;
            # its zero-step branch gives the same edges here, because the step
            # is zero only for a zero-length interval
            ends = np.cumsum(counts)
            parents = np.repeat(np.arange(a.size), counts)
            p = (np.arange(ends[-1]) - np.repeat(ends - counts, counts)).astype(float)
            step = ((b - a) / counts)[parents]
            lo = a[parents]
            left = p * step + lo
            right = (p + 1) * step + lo
            right[ends - 1] = b
            mid = 0.5 * (left + right)
            half = 0.5 * (right - left)
            out.append((sign, (mid[:, None] + half[:, None] * _GLX[None, :]).ravel(),
                        (half[:, None] * _GLW[None, :]).ravel(),
                        np.repeat(parents, _GLX.size), a.size))
        return out

    def s_values(self, theta, xs):
        mu, sig = _as_theta(theta)
        xs = np.asarray(xs, dtype=float)
        out = np.empty_like(xs)
        order = np.argsort(xs, kind="stable")
        srt = xs[order]
        kneg = int(np.searchsorted(srt, 0.0, side="left"))
        vals = np.empty_like(srt)
        for sign, nodes, w, interval, count in self._sides(srt, kneg, 0.5 * sig):
            # accumulate panel integrals back onto their intervals, then the
            # intervals outward from zero
            seg = np.bincount(interval, weights=log_ndtr((nodes - mu) / (sign * sig)) * w,
                              minlength=count)
            if sign < 0:
                vals[kneg:] = np.cumsum(seg)
            else:
                vals[:kneg] = np.cumsum(seg[::-1])[::-1]
        out[order] = vals
        return out

    def ds_dtheta_matrix(self, theta, xs):
        # s has no closed form here, so its gradient is differenced too
        theta = self.validate(theta)
        return _central_diff(self, lambda t: self.s_values(t, xs), theta)

    def s_sum_fn(self, sample: Sample):
        # Precompute panel nodes once; each objective evaluation is then a
        # single log-CDF pass and a dot product.  Panel lengths are tied to a
        # reference scale; accuracy is machine-level for fitted scales within
        # a factor of a few of it (tested against the adaptive path).
        obs = sample.obs
        sig_ref = float(obs.std()) or max(abs(float(obs[0])), 1.0)
        signs, nodes, weights = [], [], []
        for sign, x, w, interval, count in self._sides(obs, sample.k, 0.4 * sig_ref):
            # interval j enters s(x_i) of every x_i at or beyond it from zero
            mult = count - np.arange(count) if sign < 0 else np.arange(1, count + 1)
            signs.append(np.full(x.size, sign))
            nodes.append(x)
            weights.append(w * mult[interval])
        all_sign = np.concatenate(signs)
        all_w = np.concatenate(weights)
        signed = all_sign * np.concatenate(nodes)

        def fn(theta):
            mu, sig = theta[0], theta[1]
            return float(log_ndtr((signed - all_sign * mu) / sig) @ all_w)

        return fn

    def g_fn(self, sample):
        # Family.g_fn on Python floats, with validate's checks inline: the
        # same values, without the numpy scalars and calls between them
        s_sum, n, lo, read = self.s_sum_fn(sample), sample.n, self.lower[1], self._theta

        def g(theta):
            mu, sig = read(theta).tolist()
            if not (math.isfinite(mu) and lo < sig < math.inf):
                self.validate((mu, sig))    # raises the DomainError naming the parameter
            return _normal_mean_abs(mu, sig) - s_sum((mu, sig)) / n

        return g

    def quantile(self, theta, p):
        mu, sig = _as_theta(theta)
        p = _open_unit(p)
        return mu + sig * ndtri(p)

    def isf(self, theta, v):
        mu, sig = _as_theta(theta)
        return mu - sig * ndtri(_open_unit(v))

    def mle(self, sample):
        sd = math.sqrt(max(sample.mean_sq - sample.mean**2, 0.0))
        if sd <= 0:
            raise DataError("degenerate data")
        return (sample.mean, sd)


EXPONENTIAL = Exponential()
LAPLACE = Laplace()
TWOPARAMEXP = TwoParamExponential()
PARETO = Pareto()
NORMAL = Normal()

FAMILIES: dict[str, Family] = {
    f.name: f for f in (EXPONENTIAL, LAPLACE, TWOPARAMEXP, PARETO, NORMAL)
}


def get_family(family: str | Family) -> Family:
    """The registered family of that name; a Family instance is returned as is."""
    if isinstance(family, Family):
        return family
    return FAMILIES[errors.choice("family", family, FAMILIES)]
