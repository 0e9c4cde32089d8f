"""Minimization of the sample objective.

Dispatch order: the family's closed form, else its profile root-solve (the
Pareto pair), else Nelder-Mead with deterministic restarts from perturbed
optima, started at ``Family.mle`` in coordinates built from ``Family.lower``
alone (``_simplex_map``).  The only choice a caller makes is the method;
the iteration cap, the simplex tolerance and the restart count are fixed.
The Pareto profile is a Newton iteration with no tuning constant: it
starts above its root and stops when it stops descending.
The simplex works on Python floats and ranks a NaN value worst of all; a
numeric fit reads g through a memo keyed on the exact internal point, which
lives as long as that fit, so no point is evaluated twice.  A first simplex
run that finds no finite point ends the fit without restarts.
``FitResult.hessian_pd``, the post-fit check that the Hessian of g (the
averaged derivative of psi) is positive definite, is computed on first read
and cached, so the result keeps a reference to its sample; it is False
without a Hessian where g is +inf.
Everything here is pure and reentrant; identical inputs give bitwise
identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add, itemgetter

import numpy as np

from .empirical import Sample
from .errors import DataError, DomainError, SupportViolation
from .models import ParamVector, get_family
from .objective import ObjectiveContext, positive_definite


@dataclass
class FitResult:
    family: str
    params: ParamVector
    g_at_opt: float
    method: str                     # closed | profile | simplex
    iterations: int
    converged: bool
    support_warning: bool
    n: int
    # (family, sample, theta, g at theta): what hessian_pd needs; the
    # context is rebuilt on the read because its g closure does not pickle
    _hessian_inputs: tuple = field(repr=False, compare=False)

    @cached_property
    def hessian_pd(self) -> bool:
        """Whether the Hessian of g at the estimate is positive definite by
        ``objective.positive_definite``, the sandwich's rule; False where g
        is +inf, since psi stays finite there.  Computed on first read and
        cached."""
        family, sample, theta, g_at = self._hessian_inputs
        if math.isinf(g_at):
            return False
        try:
            return positive_definite(ObjectiveContext(family, sample).hessian(theta))
        except (DomainError, SupportViolation):
            # a difference probe can cross an observation where g is finite
            return False


@dataclass(frozen=True)
class NMResult:
    point: np.ndarray
    value: float
    iterations: int
    evaluations: int
    converged: bool


_by_rank = itemgetter(0, 1)
_MAX_ITER = 2000           # Nelder-Mead iteration cap of every run


def minimize_nelder_mead(fn, x0, tol: float = 1e-10,
                         init_scale: float = 0.05) -> NMResult:
    """Nelder-Mead with reflection/expansion/contraction/shrink coefficients
    (1, 2, 0.5, 0.5); stops when the simplex objective spread falls below
    ``tol`` or after the fixed cap of ``_MAX_ITER`` iterations, reported
    as not converged.  The objective must be total (+inf marks infeasible
    points; NaN ranks worst of all).

    A simplex straddling a minimum symmetrically has near-zero spread, so the
    stopping test probes the simplex centroid once; the probe replaces the
    worst vertex when it improves on the best, otherwise the run stops.

    Vertices and values are Python floats, sorted stably before every step,
    and centroids sum the sorted vertices row by row; ``fn`` gets each point
    as a fresh 1-D float64 array."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).tolist()
    m = len(x0)

    def vertex(p):
        # (NaN flag, value, point): the rank order is ascending value with
        # NaN last, the order of argsort(kind="stable")
        f = float(fn(np.array(p)))
        return (f != f, f, p)

    points = [x0]
    for i in range(m):
        p = list(x0)
        p[i] += init_scale * max(abs(p[i]), 1.0)
        points.append(p)
    sim = [vertex(p) for p in points]
    nev = m + 1
    for it in range(_MAX_ITER):
        sim.sort(key=_by_rank)
        _, fb, best = sim[0]
        _, fw, worst = sim[-1]
        spread = fw - fb
        if spread != spread:           # inf - inf: an infinite spread
            spread = math.inf
        pts = [p for _, _, p in sim]
        if spread <= tol:
            probe = vertex([reduce(add, col) / (m + 1) for col in zip(*pts)]); nev += 1
            if probe[1] < fb:
                sim[-1] = probe
                continue
            return NMResult(np.array(best), fb, it, nev, True)
        centroid = [reduce(add, col) / m for col in zip(*pts[:-1])]
        xr = vertex([c + (c - w) for c, w in zip(centroid, worst)]); nev += 1
        fr = xr[1]
        if fr < fb:
            xe = vertex([c + 2.0 * (c - w) for c, w in zip(centroid, worst)]); nev += 1
            sim[-1] = xe if xe[1] < fr else xr
        elif fr < sim[-2][1]:
            sim[-1] = xr
        else:
            toward = xr[2] if fr < fw else worst
            xc = vertex([c + 0.5 * (q - c) for c, q in zip(centroid, toward)]); nev += 1
            if xc[1] < min(fr, fw):
                sim[-1] = xc
            else:
                sim[1:] = [vertex([b + 0.5 * (q - b) for b, q in zip(best, p)])
                           for p in pts[1:]]
                nev += m
    sim.sort(key=_by_rank)
    _, fb, best = sim[0]
    return NMResult(np.array(best), fb, _MAX_ITER, nev, False)


def solve_pareto_profile(sample: Sample):
    """Solve the Pareto pair by profiling the scale out of the objective.

    The scale satisfies beta = mean * (alpha - 1) / alpha at any stationary
    point, which reduces the problem to one equation in alpha.  With
    u = 1/(alpha - 1) it reads h(u) = u - log1p(u) = d, where
    d = mean(x log x)/m - log(m) > 0 for the sample mean m, computed without
    cancellation as mean((1 + e) log1p(e) - e) with e = (x - m)/m, since
    mean(e) = 0.  h is convex and increasing on
    u > 0 and h(u) >= u^2/(2(1 + u)), so Newton's method started where that
    bound equals d decreases monotonically onto the root; it stops at the
    first step that does not lower u.  Returns (alpha, beta, |h(u) - d|).
    The rounding of log1p(u) against h(u) ~ u^2/2 bounds the relative error
    of alpha near 1e-16 alpha.
    """
    if sample.obs[0] <= 0:
        raise DataError("pareto profile requires strictly positive data")
    e = (sample.obs - sample.mean) / sample.mean
    w = 1.0 + e
    # (1 + e) log1p(e) -> 0 as e -> -1, where an observation below m 2^-53 rounds
    log1p = np.log1p(e, out=np.zeros_like(e), where=w > 0)
    d = float((w * log1p - e).sum()) / sample.n
    if not d > 0:
        raise DataError("degenerate data")
    u = d + math.sqrt(d * (d + 2.0))
    # h'(u) = u / (1 + u)
    while (new := u - (u - math.log1p(u) - d) * (1.0 + u) / u) < u:
        u = new
    return 1.0 + 1.0 / u, sample.mean / (1.0 + u), abs(u - math.log1p(u) - d)


_SIMPLEX_TOL = 1e-10       # Nelder-Mead stop on the simplex objective spread
_RESTARTS = 3
_RESTART_SCALE = 1e-3
_RESTART_SIMPLEX = 1e-4


def _simplex_map(lower):
    """(into, back) between theta and the simplex's t for the open lower
    bounds ``lower`` (``Family.lower``): t_j = log(theta_j - lo_j), or
    theta_j where lo_j is None.  Python floats and ``math`` throughout
    (numpy's exp can differ in the last ulp); back may raise OverflowError."""
    bounded = [(j, lo) for j, lo in enumerate(lower) if lo is not None]

    def into(theta):
        return [v if lo is None else math.log(v - lo) for v, lo in zip(theta, lower)]

    def back(t):
        theta = t.tolist()
        for j, lo in bounded:
            theta[j] = lo + math.exp(theta[j])
        return np.array(theta)

    return into, back


def _numeric_fit(family, ctx: ObjectiveContext):
    """Restarted Nelder-Mead from the family's ``mle``; returns (theta,
    iterations, converged, g(theta)).  The objective is memoized for this
    fit on the bytes of the internal point, so no point is evaluated twice
    and g at the optimum is the simplex's own value."""
    into, back = _simplex_map(family.lower)
    g = ctx.g
    memo = {}

    def obj(t):
        key = t.tobytes()
        value = memo.get(key)
        if value is None:
            # g validates theta; a point outside the domain is infeasible
            try:
                value = g(back(t))
            except (DomainError, OverflowError):
                value = math.inf
            memo[key] = value
        return value

    res = minimize_nelder_mead(obj, into(family.mle(ctx.sample)), tol=_SIMPLEX_TOL)
    if res.value == math.inf:
        # no feasible point reached: restarts near it would find none either
        return back(res.point), res.iterations, False, res.value
    best = res
    iters = res.iterations

    for r in range(_RESTARTS):
        base = best.point.copy()
        j = r % base.size
        base[j] += _RESTART_SCALE * max(abs(base[j]), 1.0) * (1.0 if r % 2 == 0 else -1.0)
        res_r = minimize_nelder_mead(obj, base, tol=_SIMPLEX_TOL,
                                     init_scale=_RESTART_SIMPLEX)
        iters += res_r.iterations
        if res_r.value < best.value:
            best = res_r
    # final unperturbed polish with a tiny simplex and a tighter spread
    # tolerance, so the stationarity diagnostic is reachable
    res_p = minimize_nelder_mead(obj, best.point.copy(), tol=_SIMPLEX_TOL * 1e-3,
                                 init_scale=1e-6)
    iters += res_p.iterations
    if res_p.value <= best.value:
        best = NMResult(res_p.point, res_p.value, res_p.iterations,
                        res_p.evaluations, best.converged or res_p.converged)
    return back(best.point), iters, best.converged, best.value


def fit(family, sample: Sample, method: str = "auto") -> FitResult:
    """Minimize g for one family on one sample.

    ``method`` is ``auto``, ``closed`` or ``numeric``.  ``auto`` uses the
    closed-form estimate when the family has one, its profile solve when it
    has one (the Pareto's Newton iteration in ``solve_pareto_profile``), and
    transformed Nelder-Mead otherwise; ``numeric`` skips only the closed
    form, so a family with a profile solve still takes it.
    Non-convergence is reported through ``converged``, never raised; an
    infeasible family/sample combination (negative data for nonnegative
    support, or data the family calls degenerate) raises DataError.
    """
    family = get_family(family)
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    has_closed = family.has_hook("closed_form")
    if method == "closed" and not has_closed:
        raise ValueError(f"{family.name} has no closed-form estimator")
    if method == "auto":
        method = "closed" if has_closed else "numeric"
    family.check_sample(sample)

    ctx = ObjectiveContext(family, sample)
    if method == "closed":
        theta = np.asarray(family.closed_form(sample), dtype=float)
        method_used, iterations = "closed", 0
        g_at = ctx.g(theta)
        # a closed form stationary on the support can land where g is +inf
        converged = math.isfinite(g_at)
    elif (profiled := family.profile_fit(sample)) is not None:
        theta, converged = profiled
        method_used, iterations = "profile", 0
        g_at = ctx.g(theta)
    else:
        theta, iterations, converged, g_at = _numeric_fit(family, ctx)
        method_used = "simplex"
        if math.isinf(g_at):
            raise DataError("empty feasible region: objective is infinite at the optimum")

    if method_used == "simplex" and converged:
        try:
            grad = ctx.gradient(theta)
            converged = bool(np.linalg.norm(grad) < 1e-6 * (1.0 + abs(g_at)))
        except DomainError:
            converged = False

    warn = family.support_lower(theta) > float(sample.obs[0])
    if method_used == "closed":
        warn = warn or family.closed_fit_warning(theta, sample)

    return FitResult(family=family.name, params=family.param_vector(theta),
                     g_at_opt=g_at, method=method_used, iterations=iterations,
                     converged=converged, support_warning=bool(warn), n=sample.n,
                     _hessian_inputs=(family, sample, theta, g_at))
