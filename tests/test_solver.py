import math
import pickle
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ckle import (DataError, DomainError, ObjectiveContext, build_sample,
                  ckl_divergence, fit, get_family, make_rng,
                  minimize_nelder_mead, psi_matrix, solve_pareto_profile)
from ckle import solver


def test_nm_quadratic():
    res = minimize_nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.0])
    assert res.converged
    assert abs(res.point[0] - 3.0) < 1e-6


def test_nm_rosenbrock():
    def rosen(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    res = minimize_nelder_mead(rosen, [-1.2, 1.0], tol=1e-12)
    assert res.iterations < 2000
    assert np.abs(res.point - 1.0).max() < 1e-4


def test_nm_constant_objective():
    res = minimize_nelder_mead(lambda x: 5.0, [1.0, 2.0])
    assert res.converged
    assert res.iterations == 0
    assert res.point.tolist() == [1.0, 2.0]


def test_nm_handles_inf_sentinel():
    def f(x):
        return math.inf if x[0] < 0 else (x[0] - 1.0) ** 2
    res = minimize_nelder_mead(f, [2.0])
    assert abs(res.point[0] - 1.0) < 1e-5


def reference_nelder_mead(fn, x0, max_iter=2000, tol=1e-10, init_scale=0.05):
    """The ndarray simplex that the float one replaced, kept as an oracle."""
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
        with np.errstate(invalid="ignore"):     # inf - inf warned here
            spread = fv[-1] - fv[0]
        if not math.isfinite(spread):
            spread = math.inf
        if spread <= tol:
            probe = sim.sum(axis=0) / (m + 1)
            fp = fn(probe); nev += 1
            if fp < fv[0]:
                sim[-1], fv[-1] = probe, fp
                continue
            return sim[0], float(fv[0]), it, nev, True
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
    return sim[order][0], float(fv[order][0]), max_iter, nev, False


def assert_same_run(fn, x0, **kwargs):
    """The simplex and the reference oracle agree bit for bit."""
    res = minimize_nelder_mead(fn, x0, **kwargs)
    point, value, iterations, evaluations, converged = reference_nelder_mead(
        fn, x0, **kwargs)
    assert res.point.dtype == np.float64 and res.point.ndim == 1
    assert res.point.tobytes() == point.tobytes()
    assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
    assert (res.iterations, res.evaluations, res.converged) == (
        iterations, evaluations, converged)
    return res


def _nan_above_line(x):
    # NaN on the half-plane x0 + x1 > 2, which holds the bowl's centre
    if x[0] + x[1] > 2.0:
        return math.nan
    return (x[0] - 1.5) ** 2 + (x[1] - 1.0) ** 2


def _nan_below_line_inf_right(x):
    # NaN where x0 + x1 < 0.1 (the start), +inf where x0 > 2.5
    if x[0] + x[1] < 0.1:
        return math.nan
    if x[0] > 2.5:
        return math.inf
    return (x[0] - 2.0) ** 2 + (x[1] - 2.0) ** 2


@pytest.mark.parametrize("fn,x0,kwargs", [
    (lambda x: (x[0] - 3.0) ** 2, [0.0], {}),
    (lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2, [-1.2, 1.0],
     {"tol": 1e-12}),
    (lambda x: 5.0, [1.0, 2.0], {}),
    (lambda x: math.inf if x[0] < 0 else (x[0] - 1.0) ** 2, [2.0], {}),
    (_nan_above_line, [0.0, 0.0], {}),
    (_nan_below_line_inf_right, [0.0, 0.0], {"init_scale": 1.0}),
    (lambda x: (x[0] - 1) ** 2 + 2 * (x[1] + 2) ** 2 + 3 * (x[2] - 0.5) ** 2
     + x[0] * x[2], [0.3, -1.0, 2.0], {}),
], ids=["quadratic", "rosenbrock", "constant", "inf-sentinel", "nan-half-plane",
        "nan-start-and-inf", "bowl-3d"])
def test_nm_matches_reference_simplex(fn, x0, kwargs):
    assert_same_run(fn, x0, **kwargs)


def test_nm_nan_ranks_worst():
    seen = []

    def f(x):
        seen.append(_nan_above_line(x))
        return seen[-1]

    res = assert_same_run(f, [0.0, 0.0])
    assert any(math.isnan(v) for v in seen)
    assert math.isfinite(res.value) and res.point.sum() <= 2.0


@pytest.mark.parametrize("n", range(10, 60, 5))
def test_nm_matches_reference_on_normal_objective(n):
    # the criterion-8 Normal grid, with every (tol, init_scale) pair of a fit
    from ckle.solver import _RESTART_SIMPLEX, _SIMPLEX_TOL
    fam = get_family("normal")
    s = build_sample(fam.draw(np.array([2.0, 3.0]), n, make_rng(8, n)))
    ctx = ObjectiveContext(fam, s)
    into, back = solver._simplex_map(fam.lower)

    def obj(t):
        try:
            return ctx.g(back(t))
        except (DomainError, OverflowError):
            return math.inf

    t0 = into(fam.mle(s))
    first = assert_same_run(obj, t0, tol=_SIMPLEX_TOL)
    assert_same_run(obj, first.point + 1e-3, tol=_SIMPLEX_TOL,
                    init_scale=_RESTART_SIMPLEX)
    assert_same_run(obj, first.point, tol=_SIMPLEX_TOL * 1e-3, init_scale=1e-6)


def test_nm_passes_a_fresh_float_vector():
    def rosen(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    def clobber(x):
        assert type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1
        assert x.flags.owndata
        value = rosen(x)
        x[:] = np.nan
        return value

    a = minimize_nelder_mead(rosen, [-1.2, 1.0], tol=1e-12)
    b = minimize_nelder_mead(clobber, [-1.2, 1.0], tol=1e-12)
    assert a.point.tobytes() == b.point.tobytes()
    assert (a.value, a.iterations, a.evaluations, a.converged) == (
        b.value, b.iterations, b.evaluations, b.converged)


def test_normal_fit_evaluates_each_point_once(monkeypatch):
    # the per-fit memo: no internal point reaches the sample sum twice, and
    # g at the optimum and the Hessian centre reuse the simplex's value
    from ckle.models import Normal
    points = []
    original = Normal.s_sum_fn

    def counting_s_sum_fn(self, sample):
        fn = original(self, sample)

        def counted(theta):
            points.append(np.asarray(theta, dtype=float).tobytes())
            return fn(theta)

        return counted

    monkeypatch.setattr(Normal, "s_sum_fn", counting_s_sum_fn)
    for stream in range(3):
        points.clear()
        s = build_sample(get_family("normal").draw(np.array([2.0, 3.0]), 30,
                                                   make_rng(801, stream)))
        res = fit("normal", s)
        assert res.method == "simplex" and res.converged
        assert len(points) > 100
        assert len(points) == len(set(points))
        g = ObjectiveContext("normal", s).g(np.array(res.params.values))
        assert np.float64(res.g_at_opt).tobytes() == np.float64(g).tobytes()


def test_profile_matches_grid_scan_on_profile_equation():
    s = build_sample(get_family("pareto").draw((3.0, 5.0), 500, make_rng(21, 0)))
    d = float((s.obs * np.log(s.obs)).mean()) / s.mean - math.log(s.mean)
    root, _, _ = solve_pareto_profile(s)
    grid = np.linspace(1.001, 20.0, 2_000_001)
    vals = np.log(grid / (grid - 1)) - 1 / (grid - 1) + d
    best = grid[np.argmin(np.abs(vals))]
    assert root == pytest.approx(best, abs=2e-5)


def _profile_samples():
    """(alpha range, samples): Pareto draws and nearly equal data whose
    profile roots fall below 1e3, in [1e3, 1e6) and at or above 1e6."""
    pareto = get_family("pareto")

    def draws(alphas):
        return [pareto.draw((a, 2.0), n, make_rng(seed, 0))
                for a in alphas for n in (5, 30, 300) for seed in range(4)]

    def near_equal(eps):
        return [c * (1.0 + eps * np.linspace(0.0, 1.0, 50)) for c in (0.7, 1.0, 3.0, 1e5)]

    return [((1.0, 1e3), 1e-13, draws((1.2, 2.0, 4.0, 30.0))),
            ((1e3, 1e6), 1e-10, draws((1e4, 1e5)) + near_equal(1e-3) + near_equal(1e-5)),
            ((1e6, math.inf), 1e-8, draws((1e7,)) + near_equal(1e-7))]


@pytest.mark.parametrize("lo, hi, bound, samples", [
    pytest.param(lo, hi, bound, samples, id=f"alpha_{lo:.0e}_to_{hi:.0e}")
    for (lo, hi), bound, samples in _profile_samples()])
def test_pareto_profile_root_matches_mpmath(lo, hi, bound, samples):
    # the reference is the 40-digit root of the 40-digit d of the data, so
    # the rounding of d is measured with the solve
    mp = pytest.importorskip("mpmath")
    for xs in samples:
        s = build_sample(xs)
        alpha, beta, resid = solve_pareto_profile(s)
        with mp.workdps(40):
            x = [mp.mpf(v) for v in s.obs.tolist()]
            m = mp.fsum(x) / len(x)
            md = mp.fsum(v * mp.log(v) for v in x) / len(x) / m - mp.log(m)
            u = mp.findroot(lambda u: u - mp.log1p(u) - md, md + mp.sqrt(md * (md + 2)))
            ref = 1 + 1 / u
            assert lo <= ref < hi
            assert abs(alpha - ref) / ref < bound
        assert beta == pytest.approx(s.mean * (alpha - 1) / alpha, rel=1e-14)
        assert resid <= 1e-10


def test_pareto_profile_residual_and_identity():
    s = build_sample(get_family("pareto").draw((2.0, 5.0), 10_000, make_rng(22, 0)))
    alpha, beta, resid = solve_pareto_profile(s)
    assert resid < 1e-10
    assert alpha == pytest.approx(2.0, rel=0.1)     # sampling error
    assert beta == pytest.approx(s.mean * (alpha - 1) / alpha, rel=1e-14)
    res = fit("pareto", s)
    assert res.method == "profile"
    assert res.params.values == (alpha, beta)
    # "numeric" skips only a closed form, so the Pareto still takes its profile
    assert fit("pareto", s, method="numeric") == res
    # nearly equal data put the root far above 1e6; at a spread of 1e-8,
    # mean(x log x)/mean - log(mean) is no longer positive, but d is
    for eps in (1e-7, 1e-8):
        res = fit("pareto", build_sample(1.0 + eps * np.linspace(0.0, 1.0, 50)))
        assert res.converged and res.params["alpha"] > 1e6


def test_pareto_profile_with_an_observation_below_m_ulp():
    # e = (x - m)/m rounds to -1 for x = 5e-324, where (1 + e) log1p(e) is
    # taken as its limit 0: d = log 2, and the fit exists without a warning
    s = build_sample([5e-324, 1.0])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        alpha, beta, resid = solve_pareto_profile(s)
        res = fit("pareto", s)
    u = 1.0 / (alpha - 1.0)
    assert resid < 1e-15
    assert u - math.log1p(u) == pytest.approx(math.log(2.0), rel=1e-14)
    assert beta == s.mean / (1.0 + u)
    assert res.converged and res.params.values == (alpha, beta)


def test_pareto_profile_degenerate():
    with pytest.raises(DataError, match="degenerate"):
        solve_pareto_profile(build_sample([5.0, 5.0, 5.0]))
    with pytest.raises(DataError):
        solve_pareto_profile(build_sample([-1.0, 2.0]))


def test_fit_worked_example():
    rng = make_rng(99, 0)
    base = get_family("exponential").draw((3.0,), 30, rng)
    xs = base * math.sqrt(0.2063127 / float((base**2).mean()))
    res = fit("exponential", build_sample(xs))
    assert res.method == "closed"
    assert res.converged and res.hessian_pd and not res.support_warning
    assert res.params["lambda"] == pytest.approx(3.113522, abs=1e-5)


def test_fit_laplace_closed():
    res = fit("laplace", build_sample([-1.0, 1.0]))
    assert res.method == "closed"
    assert res.params["theta"] == pytest.approx(0.707107, abs=1e-6)


def test_fit_method_validation():
    s = build_sample([1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        fit("pareto", s, method="closed")
    with pytest.raises(ValueError):
        fit("pareto", s, method="magic")


def test_fit_exponential_negative_data_errors():
    s = build_sample([-0.5, 1.0, 2.0])
    with pytest.raises(DataError, match="negative data"):
        fit("exponential", s)


@pytest.mark.parametrize("name,theta,stream", [
    ("exponential", (2.0,), 7),
    ("laplace", (1.5,), 7),
    ("twoparamexp", (3.0, 2.0), 1),   # stream chosen support-respecting
])
def test_dispatch_consistency_closed_vs_numeric(name, theta, stream):
    s = build_sample(get_family(name).draw(np.asarray(theta), 300,
                                           make_rng(42, stream)))
    closed = fit(name, s, method="closed")
    assert not closed.support_warning
    numeric = fit(name, s, method="numeric")
    assert numeric.converged
    assert abs(numeric.g_at_opt - closed.g_at_opt) < 1e-8
    rel = np.abs(np.array(numeric.params.values)
                 / np.array(closed.params.values) - 1.0)
    assert rel.max() < 1e-4


def test_normal_fit_against_grid_scan():
    # 200 x 200 scan of the objective surface around the moment seed; the
    # surface has a single interior minimum and the simplex fit lands on it
    from ckle import gee_sum
    s = build_sample(get_family("normal").draw(np.array([2.0, 3.0]), 100,
                                               make_rng(321, 0)))
    res = fit("normal", s)
    assert res.converged and res.hessian_pd
    assert np.abs(gee_sum("normal", res.params.values, s)).max() < 1e-5 * s.n
    g = ObjectiveContext("normal", s).g
    mus = np.linspace(s.mean - 1.5, s.mean + 1.5, 200)
    sds = np.linspace(res.params["sigma"] / 1.6, res.params["sigma"] * 1.6, 200)
    vals = np.array([[g(np.array([m, sd])) for sd in sds] for m in mus])
    i, j = np.unravel_index(vals.argmin(), vals.shape)
    assert 0 < i < 199 and 0 < j < 199          # interior minimum
    assert abs(mus[i] - res.params["mu"]) <= mus[1] - mus[0]
    assert abs(sds[j] - res.params["sigma"]) <= sds[1] - sds[0]
    assert res.g_at_opt <= vals.min() + 1e-12


def test_numeric_convergence_implies_small_gradient():
    for stream in range(3):
        s = build_sample(get_family("normal").draw(np.array([2.0, 3.0]), 60,
                                                   make_rng(55, stream)))
        res = fit("normal", s)
        assert res.method == "simplex"
        assert res.converged
        grad = ObjectiveContext("normal", s).gradient(res.params.values)
        assert np.linalg.norm(grad) < 1e-6 * (1.0 + abs(res.g_at_opt))


def test_fit_deterministic():
    s = build_sample(get_family("normal").draw(np.array([2.0, 3.0]), 50,
                                               make_rng(9, 9)))
    a = fit("normal", s)
    b = fit("normal", s)
    assert a.params.values == b.params.values
    assert a.g_at_opt == b.g_at_opt
    assert (a.iterations, a.converged, a.hessian_pd) == (
        b.iterations, b.converged, b.hessian_pd)


def test_numeric_iterates_stay_inside_domain(monkeypatch):
    seen = []
    simplex_map = solver._simplex_map

    def recording_map(lower):
        into, back = simplex_map(lower)

        def recording_back(t):
            theta = back(t)
            seen.append(float(theta[0]))
            return theta

        return into, recording_back

    monkeypatch.setattr(solver, "_simplex_map", recording_map)
    fam = get_family("laplace")
    s = build_sample(fam.draw((1.5,), 40, make_rng(13, 0)))
    fit(fam, s, method="numeric")
    assert seen and all(v > 0 for v in seen)


def test_support_warning_flags():
    # beta_hat above the sample minimum is reported, not clamped
    for stream in range(25):
        s = build_sample(get_family("pareto").draw(np.array([3.0, 5.0]), 200,
                                                   make_rng(33, stream)))
        res = fit("pareto", s)
        if res.params["beta"] > float(s.obs[0]):
            assert res.support_warning
            assert math.isfinite(res.g_at_opt)
            break
    else:
        pytest.fail("no support-violating replicate found")
    # negative data flips the closed two-parameter pair onto the real-line
    # objective where the formulas are no longer stationary
    s = build_sample([-0.5, 1.0, 2.0, 4.0])
    res = fit("twoparamexp", s)
    assert res.support_warning


def test_normal_degenerate_data_raises():
    for xs in ([2.0, 2.0, 2.0], [2.0]):
        s = build_sample(xs)
        with pytest.raises(DataError, match="degenerate data"):
            fit("normal", s)


@pytest.mark.parametrize("name", ["exponential", "laplace"])
@pytest.mark.parametrize("xs", [[0.0, 0.0], [2.2e-308]])
@pytest.mark.parametrize("method", ["auto", "numeric"])
def test_scalar_zero_mean_square_is_degenerate_for_every_method(name, xs, method):
    # the squares of 2.2e-308 underflow, so the mean of squares is 0 and g
    # keeps decreasing towards the domain's edge: no estimate exists
    with pytest.raises(DataError, match="degenerate data"):
        fit(name, build_sample(xs), method=method)


NORMAL_WIDE_SPAN = {
    "near-equal": [2.0, 2.0, 2.0000000000000004],
    "location 1e8": (1e8 + make_rng(5, 0).uniform(-1.0, 1.0, 30)).tolist(),
}


@pytest.mark.parametrize("case", sorted(NORMAL_WIDE_SPAN))
def test_normal_wide_span_raises_before_allocating(case):
    # the Normal panels are sized from the spread; these inputs would ask
    # for 2e16 and 3e8 panels
    s = build_sample(NORMAL_WIDE_SPAN[case])
    for call in (lambda: fit("normal", s),
                 lambda: ckl_divergence("normal", (s.mean, 1.0), s)):
        t0 = time.perf_counter()
        with pytest.raises(DataError, match="too wide"):
            call()
        assert time.perf_counter() - t0 < 1.0


def test_normal_psi_far_from_zero_raises_before_allocating():
    # psi's s_values panels are sized from sigma: 3e8 of them at 1e8 / 0.3
    xs = NORMAL_WIDE_SPAN["location 1e8"]
    t0 = time.perf_counter()
    with pytest.raises(DataError, match="too wide"):
        psi_matrix("normal", (1e8, 0.6), xs)
    assert time.perf_counter() - t0 < 1.0


def test_closed_fit_at_infinite_objective_is_not_converged():
    # negative data put the closed two-parameter pair above the sample
    # minimum, where the real-line objective is +inf
    res = fit("twoparamexp", build_sample([-1.0, 0.5, 2.0, 3.0]))
    assert res.method == "closed"
    assert math.isinf(res.g_at_opt)
    assert not res.converged
    assert res.support_warning
    res = fit("twoparamexp", build_sample([0.5, 1.0, 2.0, 3.0]))
    assert math.isfinite(res.g_at_opt) and res.converged


def test_numeric_twoparamexp_fit_on_negative_data():
    # the simplex starts at the maximum-likelihood pair, mu = x(1), where g
    # is finite, and minimizes the real-line objective below x(1)
    s = build_sample([-1.0, 0.5, 2.0, 3.0])
    res = fit("twoparamexp", s, method="numeric")
    assert res.method == "simplex" and res.converged and res.hessian_pd
    mu, sigma = res.params.values
    assert mu < -1.0 < -1.0 + sigma
    g = ObjectiveContext("twoparamexp", s).g
    assert g(np.array([mu, sigma])) == res.g_at_opt
    for step in (1e-1, 1e-3):
        grid = [g(np.array([mu + i * step * sigma, sigma * math.exp(j * step)]))
                for i in range(-10, 11) for j in range(-10, 11)]
        assert res.g_at_opt <= min(grid)


def test_twoparamexp_numeric_fit_refuses_equal_data():
    # the mean of equal values can round above x(1), so the maximum-likelihood
    # sigma would be a rounding error; g has no minimizer with sigma > 0
    for xs in ([0.1, 0.1, 0.1], [2.0, 2.0]):
        with pytest.raises(DataError, match="degenerate"):
            fit("twoparamexp", build_sample(xs), method="numeric")


def test_fit_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        fit("weibull", build_sample([1.0, 2.0]))


def test_numeric_objective_ranks_overflow_and_domain_errors_infinite(monkeypatch):
    # the simplex objective is +inf where back overflows (exp(1000)) and
    # where g raises DomainError (exp(-1000) = 0 is no rate); the fit around
    # those probes is the one without them
    probes = {}
    original = solver.minimize_nelder_mead

    def probing(fn, x0, *args, **kwargs):
        if not probes:
            probes.update({t: fn(np.array([t])) for t in (1000.0, -1000.0)})
        return original(fn, x0, *args, **kwargs)

    s = build_sample(get_family("exponential").draw((2.0,), 30, make_rng(4, 0)))
    want = fit("exponential", s, method="numeric")
    monkeypatch.setattr(solver, "minimize_nelder_mead", probing)
    assert fit("exponential", s, method="numeric") == want
    assert probes == {1000.0: math.inf, -1000.0: math.inf}


def test_empty_feasible_region_stops_after_one_simplex_run(monkeypatch):
    # the Exponential g is +inf at every rate on data with a negative value,
    # so the restarts and the polish are skipped and fit raises at once
    calls = []
    original = solver.minimize_nelder_mead

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "minimize_nelder_mead", counted)
    with pytest.raises(DataError) as exc:
        fit("exponential", build_sample([-1.0, 0.5, 2.0, 3.0]), method="numeric")
    assert str(exc.value) == "empty feasible region: objective is infinite at the optimum"
    assert len(calls) == 1


def eager_hessian_pd(family, sample, theta, g_at):
    """The post-fit check as fit ran it before it became lazy, kept as an
    oracle; where g is +inf no Hessian is computed."""
    if math.isinf(g_at):
        return False
    ctx = ObjectiveContext(family, sample)
    hessian_pd = False
    try:
        H = ctx.hessian(theta)
        if np.all(np.isfinite(H)):
            evals = np.linalg.eigvalsh(H)
            hessian_pd = bool(evals.min() > 1e-10 * max(abs(np.trace(H)), 1e-300))
    except (DomainError, np.linalg.LinAlgError):
        hessian_pd = False
    return hessian_pd


def _lazy_cases():
    draw = lambda name, theta, n: build_sample(
        get_family(name).draw(np.asarray(theta), n, make_rng(17, 0)))
    return [("exponential", draw("exponential", (5.0,), 30), "closed"),
            ("pareto", draw("pareto", (4.0, 2.0), 40), "profile"),
            ("normal", draw("normal", (2.0, 3.0), 30), "simplex"),
            ("twoparamexp", build_sample([-1.0, 0.5, 2.0, 3.0]), "closed")]


@pytest.mark.parametrize("name,sample,method", _lazy_cases(),
                         ids=["closed", "profile", "simplex", "closed-g-inf"])
def test_hessian_pd_is_computed_once_on_first_read(monkeypatch, name, sample, method):
    calls = []
    original = ObjectiveContext.hessian

    def counted(self, theta):
        calls.append(1)
        return original(self, theta)

    monkeypatch.setattr(ObjectiveContext, "hessian", counted)
    res = fit(name, sample)
    assert res.method == method
    assert calls == []
    value = res.hessian_pd
    assert res.hessian_pd is value
    # where g is +inf at the estimate, no Hessian is computed
    assert len(calls) == (0 if math.isinf(res.g_at_opt) else 1)
    theta = np.array(res.params.values)
    assert value is eager_hessian_pd(name, sample, theta, res.g_at_opt)
    assert value is (name != "twoparamexp")


def test_fit_result_pickles_and_compares_on_public_fields():
    s = build_sample(get_family("normal").draw(np.array([2.0, 3.0]), 30, make_rng(17, 1)))
    res = fit("normal", s)
    before = pickle.loads(pickle.dumps(res))
    assert before == res
    assert "hessian_pd" not in vars(before)
    assert before.hessian_pd is res.hessian_pd is True
    after = pickle.loads(pickle.dumps(res))
    assert vars(after)["hessian_pd"] is True
    assert after == res
    assert "_hessian_inputs" not in repr(res) and "array" not in repr(res)
    assert replace(res, _hessian_inputs=None) == res
