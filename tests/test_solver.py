import math
import time

import numpy as np
import pytest

from ckle import (DataError, DomainError, FitOptions, build_sample,
                  bisect_root, ckl_divergence, fit, get_family, make_rng,
                  minimize_nelder_mead, psi_matrix, solve_pareto_profile)
from ckle.models import Laplace


def test_nm_quadratic():
    res = minimize_nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.0])
    assert res.converged
    assert abs(res.point[0] - 3.0) < 1e-6


def test_nm_rosenbrock():
    def rosen(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    res = minimize_nelder_mead(rosen, [-1.2, 1.0], max_iter=2000, tol=1e-12)
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


def test_bisect_examples():
    assert bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-12) == pytest.approx(
        math.sqrt(2), abs=1e-10)
    assert abs(bisect_root(lambda x: x, -1.0, 2.0, tol=1e-12)) < 1e-10
    with pytest.raises(DomainError, match="no sign change"):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_matches_grid_scan_on_profile_equation():
    s = build_sample(get_family("pareto").draw((3.0, 5.0), 500, make_rng(21, 0)))
    d = s.mean_xlogx / s.mean - math.log(s.mean)
    f = lambda a: math.log(a / (a - 1)) - 1 / (a - 1) + d
    root = bisect_root(f, 1.0 + 1e-8, 1e6, tol=1e-10)
    grid = np.linspace(1.001, 20.0, 2_000_001)
    vals = np.log(grid / (grid - 1)) - 1 / (grid - 1) + d
    best = grid[np.argmin(np.abs(vals))]
    assert root == pytest.approx(best, abs=2e-5)


def test_pareto_profile_residual_and_identity():
    s = build_sample(get_family("pareto").draw((2.0, 5.0), 10_000, make_rng(22, 0)))
    alpha, beta, resid = solve_pareto_profile(s)
    assert resid < 1e-10
    assert alpha == pytest.approx(2.0, rel=0.1)     # sampling error
    assert beta == pytest.approx(s.mean * (alpha - 1) / alpha, rel=1e-14)
    res = fit("pareto", s)
    assert res.method == "profile"
    assert res.params.values == (alpha, beta)


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
        fit("pareto", s, FitOptions(method="closed"))
    with pytest.raises(DomainError):
        FitOptions(max_iter=0)
    with pytest.raises(ValueError):
        FitOptions(method="magic")


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
    closed = fit(name, s, FitOptions(method="closed"))
    assert not closed.support_warning
    numeric = fit(name, s, FitOptions(method="numeric"))
    assert numeric.converged
    assert abs(numeric.g_at_opt - closed.g_at_opt) < 1e-8
    rel = np.abs(np.array(numeric.params.values)
                 / np.array(closed.params.values) - 1.0)
    assert rel.max() < 1e-4


def test_normal_fit_against_grid_scan():
    # 200 x 200 scan of the objective surface around the moment seed; the
    # surface has a single interior minimum and the simplex fit lands on it
    from ckle import g_objective, gee_sum, make_g
    s = build_sample(get_family("normal").draw(np.array([2.0, 3.0]), 100,
                                               make_rng(321, 0)))
    res = fit("normal", s)
    assert res.converged and res.hessian_pd
    assert np.abs(gee_sum("normal", res.params.values, s)).max() < 1e-5 * s.n
    g = make_g("normal", s)
    mus = np.linspace(s.mean - 1.5, s.mean + 1.5, 200)
    sds = np.linspace(res.params["sigma"] / 1.6, res.params["sigma"] * 1.6, 200)
    vals = np.array([[g(np.array([m, sd])) for sd in sds] for m in mus])
    i, j = np.unravel_index(vals.argmin(), vals.shape)
    assert 0 < i < 199 and 0 < j < 199          # interior minimum
    assert abs(mus[i] - res.params["mu"]) <= mus[1] - mus[0]
    assert abs(sds[j] - res.params["sigma"]) <= sds[1] - sds[0]
    assert res.g_at_opt <= vals.min() + 1e-12


def test_numeric_convergence_implies_small_gradient():
    from ckle import g_gradient
    for stream in range(3):
        s = build_sample(get_family("normal").draw(np.array([2.0, 3.0]), 60,
                                                   make_rng(55, stream)))
        res = fit("normal", s)
        assert res.method == "simplex"
        assert res.converged
        grad = g_gradient("normal", res.params.values, s)
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


def test_numeric_iterates_stay_inside_domain():
    seen = []

    class Recorder(Laplace):
        def from_internal(self, t):
            theta = super().from_internal(t)
            seen.append(float(theta[0]))
            return theta

    fam = Recorder()
    s = build_sample(fam.draw((1.5,), 40, make_rng(13, 0)))
    fit(fam, s, FitOptions(method="numeric"))
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
        with pytest.raises(DataError, match="degenerate data"):
            fit("normal", s, FitOptions(start=(2.0, 1.0)))


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


def test_fit_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        fit("weibull", build_sample([1.0, 2.0]))
