"""Minimization of the sample objective.

Dispatch order: the family's closed form, else its profile root-solve (the
Pareto pair), else Nelder-Mead on transformed coordinates (log for positive
parameters, identity for locations, alpha = 1 + exp(t) for the Pareto shape)
with deterministic restarts from perturbed optima.  ``FitOptions`` sets only
the method, the iteration cap and the start point; the simplex tolerance,
the restart count and the profile bracket are fixed.
Everything here is pure and reentrant; identical inputs give bitwise
identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .empirical import Sample
from .errors import DataError, DomainError
from .models import ParamVector, get_family
from .objective import ObjectiveContext


@dataclass(frozen=True)
class FitOptions:
    method: str = "auto"            # auto | closed | numeric
    max_iter: int = 2000
    start: tuple | None = None      # explicit initial point; None uses moment seeds

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if self.method not in ("auto", "closed", "numeric"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class FitResult:
    family: str
    params: ParamVector
    g_at_opt: float
    method: str                     # closed | profile | simplex
    iterations: int
    converged: bool
    hessian_pd: bool
    support_warning: bool
    n: int
    covariance: np.ndarray | None = field(default=None, compare=False)


@dataclass(frozen=True)
class NMResult:
    point: np.ndarray
    value: float
    iterations: int
    evaluations: int
    converged: bool


def minimize_nelder_mead(fn, x0, max_iter: int = 2000, tol: float = 1e-10,
                         init_scale: float = 0.05) -> NMResult:
    """Nelder-Mead with reflection/expansion/contraction/shrink coefficients
    (1, 2, 0.5, 0.5); stops when the simplex objective spread falls below
    ``tol`` or the iteration cap is reached.  The objective must be total
    (+inf marks infeasible points).

    A simplex straddling a minimum symmetrically has near-zero spread, so the
    stopping test probes the simplex centroid once; the probe replaces the
    worst vertex when it improves on the best, otherwise the run stops."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    m = x0.size
    sim = [x0.copy()]
    for i in range(m):
        p = x0.copy()
        p[i] += init_scale * max(abs(p[i]), 1.0)
        sim.append(p)
    sim = np.array(sim)
    fv = np.array([fn(p) for p in sim])
    nev = sim.shape[0]
    for it in range(max_iter):
        order = fv.argsort(kind="stable")
        sim, fv = sim[order], fv[order]
        spread = fv[-1] - fv[0]
        if not math.isfinite(spread):
            spread = math.inf
        if spread <= tol:
            # sum / count is the arithmetic of ndarray.mean, without its overhead
            probe = sim.sum(axis=0) / (m + 1)
            fp = fn(probe); nev += 1
            if fp < fv[0]:
                sim[-1], fv[-1] = probe, fp
                continue
            return NMResult(sim[0], float(fv[0]), it, nev, True)
        centroid = sim[:-1].sum(axis=0) / m
        xr = centroid + (centroid - sim[-1])
        fr = fn(xr); nev += 1
        if fr < fv[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = fn(xe); nev += 1
            if fe < fr:
                sim[-1], fv[-1] = xe, fe
            else:
                sim[-1], fv[-1] = xr, fr
        elif fr < fv[-2]:
            sim[-1], fv[-1] = xr, fr
        else:
            if fr < fv[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (sim[-1] - centroid)
            fc = fn(xc); nev += 1
            if fc < min(fr, fv[-1]):
                sim[-1], fv[-1] = xc, fc
            else:
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fv[1:] = [fn(p) for p in sim[1:]]
                nev += m
    order = fv.argsort(kind="stable")
    return NMResult(sim[order][0], float(fv[order][0]), max_iter, nev, False)


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisection until the bracket is narrower than ``tol``; returns the
    midpoint.  Requires a sign change over [lo, hi]."""
    if not (hi > lo):
        raise DomainError("bisect_root needs lo < hi")
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise DomainError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:      # bracket at floating-point resolution
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _profile_equation(alpha: float, d: float) -> float:
    return math.log(alpha / (alpha - 1.0)) - 1.0 / (alpha - 1.0) + d


def solve_pareto_profile(sample: Sample):
    """Solve the Pareto pair by profiling the scale out of the objective.

    The scale satisfies beta = mean * (alpha - 1) / alpha at any stationary
    point, which reduces the problem to the scalar root of
    log(a/(a-1)) - 1/(a-1) + mean_xlogx/mean - log(mean) = 0 in alpha.
    Returns (alpha, beta, residual); the root is bisected on log(alpha - 1)
    with bracket expansion, then polished by Newton steps so the residual is
    far below 1e-10 for any non-degenerate sample.
    """
    if sample.obs[0] <= 0 or sample.mean_xlogx is None:
        raise DataError("pareto profile requires strictly positive data")
    d = sample.mean_xlogx / sample.mean - math.log(sample.mean)
    if d <= 0:
        raise DataError("degenerate data")
    # the bracket starts at alpha = 1 + 1e-8; (1 + 1e-8) - 1 is not 1e-8 exactly
    lo_t = math.log((1.0 + 1e-8) - 1.0)
    hi_t = math.log(1e6 - 1.0)
    r_of_t = lambda t: _profile_equation(1.0 + math.exp(t), d)
    expansions = 0
    while r_of_t(hi_t) < 0:
        hi_t += math.log(10.0)
        expansions += 1
        if expansions > 12:
            raise DataError(
                f"no bracket for the profile equation: d={d:.3e}, "
                f"alpha searched up to {1 + math.exp(hi_t):.3e}")
    while r_of_t(lo_t) > 0:
        lo_t -= math.log(10.0)
        expansions += 1
        if expansions > 24:
            raise DataError(f"no bracket for the profile equation: d={d:.3e}")
    t = bisect_root(r_of_t, lo_t, hi_t, tol=1e-13)
    alpha = 1.0 + math.exp(t)
    # Newton polish: r'(a) = 1/(a (a-1)^2)
    for _ in range(6):
        r = _profile_equation(alpha, d)
        step = r * alpha * (alpha - 1.0) ** 2
        new = alpha - step
        if not (new > 1.0) or not math.isfinite(new):
            break
        if abs(_profile_equation(new, d)) >= abs(r):
            break
        alpha = new
    beta = sample.mean * (alpha - 1.0) / alpha
    return alpha, beta, abs(_profile_equation(alpha, d))


_SIMPLEX_TOL = 1e-10       # Nelder-Mead stop on the simplex objective spread
_RESTARTS = 3
_RESTART_SCALE = 1e-3
_RESTART_SIMPLEX = 1e-4


def _numeric_fit(family, ctx: ObjectiveContext, opts: FitOptions):
    sample = ctx.sample
    g = ctx.g

    def obj(t):
        # g validates theta; a point outside the domain is infeasible
        try:
            return g(family.from_internal(t))
        except (DomainError, OverflowError):
            return math.inf

    start = opts.start if opts.start is not None else family.start_point(sample)
    t0 = family.to_internal(np.asarray(start, dtype=float))
    res = minimize_nelder_mead(obj, t0, max_iter=opts.max_iter, tol=_SIMPLEX_TOL)
    best = res
    iters = res.iterations

    for r in range(_RESTARTS):
        base = best.point.copy()
        j = r % base.size
        base[j] += _RESTART_SCALE * max(abs(base[j]), 1.0) * (1.0 if r % 2 == 0 else -1.0)
        res_r = minimize_nelder_mead(obj, base, max_iter=opts.max_iter,
                                     tol=_SIMPLEX_TOL, init_scale=_RESTART_SIMPLEX)
        iters += res_r.iterations
        if res_r.value < best.value:
            best = res_r
    # final unperturbed polish with a tiny simplex and a tighter spread
    # tolerance, so the stationarity diagnostic is reachable
    res_p = minimize_nelder_mead(obj, best.point.copy(), max_iter=opts.max_iter,
                                 tol=_SIMPLEX_TOL * 1e-3, init_scale=1e-6)
    iters += res_p.iterations
    if res_p.value <= best.value:
        best = NMResult(res_p.point, res_p.value, res_p.iterations,
                        res_p.evaluations, best.converged or res_p.converged)
    theta = family.from_internal(best.point)
    return theta, iters, best.converged


def fit(family, sample: Sample, options: FitOptions | None = None) -> FitResult:
    """Minimize g for one family on one sample.

    ``auto`` uses the closed-form estimate when the family has one, its
    profile solve when it has one, and transformed Nelder-Mead otherwise.
    Non-convergence is reported through ``converged``, never raised; an
    infeasible family/sample combination (negative data for nonnegative
    support, or data the family calls degenerate) raises DataError.
    """
    family = get_family(family)
    opts = options or FitOptions()
    has_closed = family.descriptor().has_closed_form
    method = opts.method
    if method == "closed" and not has_closed:
        raise ValueError(f"{family.name} has no closed-form estimator")
    if method == "auto":
        method = "closed" if has_closed else "numeric"
    family.check_sample(sample)

    ctx = ObjectiveContext(family, sample)
    if method == "closed":
        theta = np.asarray(family.closed_form(sample), dtype=float)
        method_used, iterations = "closed", 0
    elif (profiled := family.profile_fit(sample)) is not None:
        theta, converged = profiled
        method_used, iterations = "profile", 0
    else:
        theta, iterations, nm_ok = _numeric_fit(family, ctx, opts)
        method_used = "simplex"
        converged = nm_ok

    g_at = ctx.g(theta)
    if math.isinf(g_at) and method_used == "simplex":
        raise DataError("empty feasible region: objective is infinite at the optimum")
    if method_used == "closed":
        # a closed form stationary on the support can land where g is +inf
        converged = math.isfinite(g_at)

    if method_used == "simplex" and converged:
        try:
            grad = ctx.gradient(theta)
            converged = bool(np.linalg.norm(grad) < 1e-6 * (1.0 + abs(g_at)))
        except (DomainError, FloatingPointError):
            converged = False

    hessian_pd = False
    try:
        H = ctx.hessian(theta)
        if np.all(np.isfinite(H)):
            evals = np.linalg.eigvalsh(H)
            hessian_pd = bool(evals.min() > 1e-10 * max(abs(np.trace(H)), 1e-300))
    except (DomainError, np.linalg.LinAlgError):
        hessian_pd = False

    warn = family.support_lower(theta) > float(sample.obs[0])
    if method_used == "closed":
        warn = warn or family.closed_fit_warning(theta, sample)

    return FitResult(family=family.name, params=family.param_vector(theta),
                     g_at_opt=g_at, method=method_used, iterations=iterations,
                     converged=converged, hessian_pd=hessian_pd,
                     support_warning=bool(warn), n=sample.n)
