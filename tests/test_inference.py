import math
import re
import time
import warnings

import numpy as np
import pytest
import scipy.special
from scipy.special import erf

from ckle import (DataError, DomainError, InferenceError, ObjectiveContext, SupportViolation,
                  avar_matrix, avar_scalar, build_sample, c_value, chi2_quantile_df1, chi2_sf_df1,
                  coverage_study, divergence_interval, divergence_region_cutoffs, fit,
                  g_objective, gddt_test, get_family, make_rng, pivotal_q,
                  power_approx, required_sample_size, sandwich, wald_ci)

CHI2_95 = 3.841458820694124


def draw(name, theta, n, seed, stream=0):
    return build_sample(get_family(name).draw(np.asarray(theta), n,
                                              make_rng(seed, stream)))


def scaled_matrix_err(Vhat, Vlim):
    # relative where the limit entry is meaningful, correlation-scale where
    # it is near zero (otherwise an exact-zero limit is untestable)
    scale = np.sqrt(np.outer(np.diag(Vlim), np.diag(Vlim)))
    denom = np.maximum(np.abs(Vlim), scale)
    return np.abs(Vhat - Vlim) / denom


# ----------------------------------------------------------------- chi square

def test_chi2_quantile_values():
    assert chi2_quantile_df1(0.95) == pytest.approx(3.841459, abs=1e-6)
    assert chi2_quantile_df1(0.5) == pytest.approx(0.454936, abs=1e-6)
    assert chi2_quantile_df1(1e-12) < 1e-10


def test_chi2_quantile_against_bisection_oracle():
    cdf = lambda x: erf(math.sqrt(x / 2.0))
    for q in (0.95, 0.5, 0.1, 0.999):
        lo, hi = 0.0, 40.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        assert chi2_quantile_df1(q) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_chi2_domain():
    with pytest.raises(DomainError):
        chi2_quantile_df1(0.0)
    with pytest.raises(DomainError):
        chi2_quantile_df1(1.0)
    for call in (chi2_quantile_df1, chi2_sf_df1):
        with pytest.raises(DomainError, match="must be a real number, got 'x'"):
            call("x")
    assert chi2_sf_df1(-1.0) == 1.0
    assert chi2_sf_df1(CHI2_95) == pytest.approx(0.05, abs=1e-12)


def test_chi2_quantile_agrees_with_scipy_ndtri():
    qs = np.concatenate([np.logspace(-300, -1, 300), np.linspace(0.01, 0.99, 99),
                         1.0 - np.logspace(-1, -15, 150)])
    for q in qs.tolist():
        expected = float(scipy.special.ndtri((1.0 + q) / 2.0)) ** 2
        assert chi2_quantile_df1(q) == pytest.approx(expected, rel=1e-14, abs=0.0), q


def test_chi2_sf_agrees_with_scipy_erfc():
    ts = np.concatenate([np.logspace(-300, 0, 300), np.linspace(1.0, 1410.0, 2000)])
    for t in ts.tolist():
        expected = float(scipy.special.erfc(math.sqrt(t / 2.0)))
        if expected > 1e-300:
            assert chi2_sf_df1(t) == pytest.approx(expected, rel=1e-13, abs=0.0), t


def test_chi2_quantities_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    # both sides evaluate at the same rounded double, (1+q)/2 or sqrt(t/2),
    # so this measures the normal quantile and erfc themselves
    for q in (1e-8, 0.05, 0.5, 0.95, 1.0 - 1e-15):
        exact = 2 * mp.erfinv(2 * mp.mpf((1.0 + q) / 2.0) - 1) ** 2
        assert abs(chi2_quantile_df1(q) - exact) <= 1e-15 * exact, q
    for t in (1e-10, 0.5, CHI2_95, 50.0, 1100.0):
        exact = mp.erfc(mp.mpf(math.sqrt(t / 2.0)))
        assert abs(chi2_sf_df1(t) - exact) <= 1e-15 * exact, t


def test_tanh_sinh_table_is_built_once_and_unchanged():
    from ckle.inference import _tanh_sinh_unit
    u, w = _tanh_sinh_unit()
    assert _tanh_sinh_unit()[0] is u
    assert not u.flags.writeable and not w.flags.writeable
    t = np.arange(-120, 121) / 16.0
    u_old = scipy.special.expit(np.pi * np.sinh(t))
    w_old = np.pi * np.cosh(t) * u_old * scipy.special.expit(-np.pi * np.sinh(t)) / 16.0
    keep = (u_old > 0.0) & (u_old < 1.0)
    assert u.tobytes() == u_old[keep].tobytes()
    assert w.tobytes() == w_old[keep].tobytes()


def test_infinite_normal_quantile_names_the_probability():
    s = draw("exponential", (5.0,), 30, 12)
    fres = fit("exponential", s)
    with pytest.raises(DomainError, match=r"^level = 0\.9999999999999999 is too extreme"):
        wald_ci(fres, 0.5, 1.0 - 2.0**-53)
    with pytest.raises(DomainError, match=r"^level = 0\.9999999999999999 "):
        divergence_interval("exponential", s, fres, 1.0 - 2.0**-53)
    with pytest.raises(DomainError, match=r"^alpha = 1e-16 "):
        gddt_test("exponential", s, 5.0, 1e-16)
    with pytest.raises(DomainError, match=r"^alpha = 1e-17 "):
        power_approx("exponential", s, 6.0, 5.0, 1e-17, n=200)
    with pytest.raises(DomainError, match=r"^beta = 1e-16 "):
        required_sample_size("exponential", s, 6.0, 5.0, 0.05, 1e-16)
    with pytest.raises(DomainError, match=r"^q = 0\.9999999999999999 "):
        chi2_quantile_df1(1.0 - 2.0**-53)
    # the largest level below 1 whose quantile is finite
    assert math.isfinite(wald_ci(fres, 0.5, 1.0 - 2.0**-52).upper)


# ------------------------------------------------------------------ variances

def test_avar_exponential_closed():
    av = avar_scalar("exponential", (2.0,))
    assert av.sigma2 == pytest.approx(5.0)
    assert av.A[0, 0] == pytest.approx(5.0 / 16)
    assert av.B[0, 0] == pytest.approx(2.0 / 8)
    assert av.source == "closed-form"


def test_avar_exponential_quadrature_reproduces_closed():
    for lam in np.geomspace(0.1, 100.0, 7):
        av = avar_scalar("exponential", (lam,), method="quadrature")
        assert av.A[0, 0] == pytest.approx(5.0 / lam**4, rel=1e-8)
        assert av.B[0, 0] == pytest.approx(2.0 / lam**3, rel=1e-8)
        assert av.sigma2 == pytest.approx(5.0 * lam**2 / 4.0, rel=1e-8)


def test_avar_scalar_rejects_unknown_method():
    for method in ("closed", "quad", ""):
        with pytest.raises(ValueError, match="unknown method"):
            avar_scalar("exponential", (2.0,), method=method)


def test_avar_laplace_closed_and_monte_carlo():
    th = 1.0
    assert avar_scalar("laplace", (th,)).sigma2 == pytest.approx(1.25)
    q = avar_scalar("laplace", (th,), method="quadrature")
    assert q.sigma2 == pytest.approx(1.25, rel=1e-8)
    # 10^4-replicate check of the sampling variance of sqrt(n)(theta_hat-theta)
    n, reps, th = 200, 10_000, 1.5
    vals = np.empty(reps)
    for r in range(reps):
        s = draw("laplace", (th,), n, 55, r)
        vals[r] = math.sqrt(s.mean_sq / 2.0)
    assert n * np.var(vals - th) == pytest.approx(5 * th * th / 4, rel=0.05)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,theta,power", [("exponential", (5.0,), -1),
                                              ("laplace", (2.0,), 1)])
def test_scalar_variance_and_wald_bounds_are_scale_equivariant(name, theta, power):
    # sigma^2 = 5 t^2 / 4 is formed directly, so it is a double wherever t^2
    # is, even where A (5 / lambda^4) and B^2 are not
    family = get_family(name)
    xs = family.draw(theta, 30, make_rng(1, 0))

    def sigma2_and_bounds(c):
        res = fit(family, build_sample(xs * c))
        sigma2 = avar_scalar(family, res.params.values).sigma2
        ci = wald_ci(res, sigma2, 0.95)
        return sigma2, ci.lower, ci.upper

    unit = sigma2_and_bounds(1.0)
    for e in range(-150, 151):
        c = 10.0**e
        got = sigma2_and_bounds(c)
        want = (unit[0] * c ** (2 * power), unit[1] * c**power, unit[2] * c**power)
        for g, w in zip(got, want):
            assert abs(g / w - 1.0) <= 1e-15, (e, g, w)


def test_avar_matrix_twoparamexp():
    av = avar_matrix("twoparamexp", (3.0, 2.0), 100)
    assert np.allclose(av.V_n, (4.0 / 100) * np.array([[1, -1], [-1, 2]]))
    assert np.array_equal(av.V_n, av.V_n.T)


def test_avar_matrix_pareto_hand_plugged():
    av = avar_matrix("pareto", (3.0, 5.0), 1)
    a, b = 3.0, 5.0
    hand = np.array([[2 * a * (a - 1) ** 4, a * b * (a - 1) ** 2],
                     [a * b * (a - 1) ** 2, b**2 / a * (a * a - 2 * a + 2)]]
                    ) / (1 * (a - 2) ** 3)
    assert np.array_equal(av.V_n, hand)
    assert np.allclose(av.V_n, [[96.0, 60.0], [60.0, 125.0 / 3.0]])


def test_avar_matrix_quadrature_cross_checks():
    from ckle.inference import _avar_quadrature
    for name, theta in (("twoparamexp", (3.0, 2.0)), ("pareto", (3.0, 5.0))):
        A, B = _avar_quadrature(get_family(name), theta)
        Binv = np.linalg.inv(B)
        V = Binv @ A @ Binv
        closed = avar_matrix(name, theta, 1).V_n
        assert np.abs(V / closed - 1).max() < 1e-6


def test_avar_quadrature_computes_each_node_once():
    # k = 2: ds/dtheta through central differences is 2k s_values calls in
    # all, each on the same array of distinct nodes from both sides of zero
    from ckle.inference import _avar_quadrature
    from ckle.models import Normal

    calls = []

    class Recorder(Normal):
        def s_values(self, theta, xs):
            calls.append(np.array(xs, dtype=float))
            return super().s_values(theta, xs)

    _avar_quadrature(Recorder(), (2.0, 3.0))
    assert len(calls) == 2 * 2
    nodes = calls[0]
    assert nodes.ndim == 1 and nodes.size <= 2 * 241
    assert np.unique(nodes).size == nodes.size
    assert nodes.min() < 0.0 < nodes.max()
    assert all(np.array_equal(c, nodes) for c in calls[1:])


def test_avar_normal_far_from_zero():
    # with (almost) all the mass above zero V_n no longer depends on mu
    base = avar_matrix("normal", (30.0, 1.0), 1).V_n
    for mu in (50.0, 100.0):
        V = avar_matrix("normal", (mu, 1.0), 1).V_n
        assert np.all(np.isfinite(V))
        assert np.abs(V - base).max() <= 1e-5 * np.abs(base).max()


SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,theta", [
    *[("exponential", (s,)) for s in SCALES],
    *[("laplace", (s,)) for s in SCALES],
    *[("twoparamexp", (m * s, s)) for s in SCALES for m in (0.0, 3.0)],
    *[("pareto", (a, b)) for a in (2.2, 3.0, 10.0) for b in (1e-3, 1.0, 1e3)],
])
def test_avar_quadrature_is_scale_invariant(name, theta):
    from ckle.inference import _avar_quadrature
    family = get_family(name)
    A, B = _avar_quadrature(family, theta)
    A0, B0, _ = family.closed_avar(theta, 1)
    assert np.abs(A - A0).max() <= 1e-10 * np.abs(A0).max()
    assert np.abs(B - B0).max() <= 1e-10 * np.abs(B0).max()


def test_avar_normal_scales_with_sigma():
    # V_n of the Normal is sigma^2 times its value at unit scale and mu/sigma
    small = avar_matrix("normal", (-3.0, 0.2), 1).V_n
    unit = avar_matrix("normal", (-15.0, 1.0), 1).V_n
    assert np.abs(small - 0.04 * unit).max() <= 1e-9 * np.abs(small).max()


def test_avar_normal_small_scale_is_fast():
    # quadrature nodes far out in the tails have zero density; building
    # s_values panels there grew with |x| / sigma
    t0 = time.perf_counter()
    av = avar_matrix("normal", (0.0, 1e-3), 1)
    assert time.perf_counter() - t0 < 2.0
    assert np.all(np.isfinite(av.V_n)) and np.all(np.diag(av.V_n) > 0)


def test_avar_matrix_errors():
    with pytest.raises(InferenceError, match="asymptotic variance undefined"):
        avar_matrix("pareto", (1.5, 5.0), 10)
    with pytest.raises(InferenceError, match="diverges"):
        avar_matrix("twoparamexp", (-1.0, 1.0), 10)


@pytest.mark.parametrize("message,call", [
    ("avar_scalar", lambda s, res: avar_scalar("twoparamexp", (1.0, 2.0))),
    ("wald_ci", lambda s, res: wald_ci(res, 1.0, 0.95)),
    ("c_value", lambda s, res: c_value("twoparamexp", s, (1.0, 2.0))),
    ("divergence_interval", lambda s, res: divergence_interval("twoparamexp", s, res, 0.95)),
    ("pivotal_q", lambda s, res: pivotal_q("twoparamexp", s, res, (1.0, 2.0))),
    ("gddt_test", lambda s, res: gddt_test("twoparamexp", s, 1.0, 0.05)),
    ("coverage_study", lambda s, res: coverage_study("twoparamexp", (1.0, 2.0), 30, 5,
                                                     0.95, "wald", 1)),
    ("avar_matrix", lambda s, res: avar_matrix("exponential", (5.0,), 30)),
    ("n must be >= 1", lambda s, res: avar_matrix("twoparamexp", (1.0, 2.0), 0)),
], ids=["avar_scalar", "wald_ci", "c_value", "divergence_interval", "pivotal_q",
        "gddt_test", "coverage_study", "avar_matrix-scalar-family", "avar_matrix-n0"])
def test_scalar_and_vector_entry_points_refuse_the_other_kind(message, call):
    # a vector family where one parameter is expected (and the reverse, and
    # n = 0, for avar_matrix) is a DomainError naming the function
    s = draw("twoparamexp", (1.0, 2.0), 30, 70)
    with pytest.raises(DomainError, match=message):
        call(s, fit("twoparamexp", s))


@pytest.mark.slow
def test_avar_normal_against_direct_monte_carlo():
    av = avar_matrix("normal", (2.0, 3.0), 1)
    n, reps = 400, 300
    ests = np.empty((reps, 2))
    for r in range(reps):
        s = draw("normal", (2.0, 3.0), n, 500, r)
        ests[r] = fit("normal", s).params.values
    C = np.cov((ests - np.array([2.0, 3.0])).T) * n
    assert scaled_matrix_err(C, av.V_n).max() < 0.25


# ------------------------------------------------------------------- sandwich

SANDWICH_CASES = [
    ("exponential", (2.0,), 0),
    ("laplace", (1.5,), 1),
    ("twoparamexp", (3.0, 2.0), 2),
    # shape 6 keeps fourth moments of psi finite; at the smaller shapes the
    # second-moment estimator J is heavy-tailed and n = 1e4 is not enough
    ("pareto", (6.0, 2.0), 3),
    ("normal", (2.0, 3.0), 4),
]


@pytest.mark.parametrize("name,theta,stream", SANDWICH_CASES)
def test_sandwich_matches_limit(name, theta, stream):
    n = 10_000
    s = draw(name, theta, n, 5, stream)
    res = fit(name, s)
    sw = sandwich(name, res, s)
    assert np.array_equal(sw.V_hat, sw.V_hat.T)
    assert np.linalg.eigvalsh(sw.V_hat).min() > -1e-10 * np.trace(sw.V_hat)
    if get_family(name).dim == 1:
        lim = avar_scalar(name, res.params.values).sigma2
        assert n * sw.V_hat[0, 0] == pytest.approx(lim, rel=0.15)
    else:
        lim = avar_matrix(name, res.params.values, n).V_n * n
        assert scaled_matrix_err(n * sw.V_hat, lim).max() < 0.15


def test_sandwich_twoparamexp_ten_percent():
    n = 10_000
    s = draw("twoparamexp", (3.0, 2.0), n, 5, 2)
    res = fit("twoparamexp", s)
    sw = sandwich("twoparamexp", res, s)
    sig2 = res.params["sigma"] ** 2
    target = sig2 * np.array([[1.0, -1.0], [-1.0, 2.0]])
    assert np.abs(n * sw.V_hat / target - 1).max() < 0.10


@pytest.mark.parametrize("name,theta,units", [
    ("exponential", (1.0,), (-1,)),
    ("laplace", (1.0,), (1,)),
    ("pareto", (3.0, 1.0), (0, 1)),
])
def test_sandwich_is_scale_equivariant(name, theta, units):
    # fitting c x multiplies a scale by c and divides a rate by c, so V_hat
    # of c x equals V_hat of x times c^(u_i + u_j); the judgement of the
    # Hessian must not depend on the units either
    x = get_family(name).draw(np.asarray(theta), 30, make_rng(1, 0))
    s1 = build_sample(x)
    V1 = sandwich(name, fit(name, s1), s1).V_hat
    for c in (1e-12, 1e-6, 1e-3, 1e3, 1e6, 1e12):
        s = build_sample(c * x)
        res = fit(name, s)
        d = c ** np.asarray(units, dtype=float)
        V = sandwich(name, res, s).V_hat / np.outer(d, d)
        assert np.abs(V - V1).max() <= 1e-9 * np.abs(V1).max(), c
        assert res.hessian_pd, c


def test_sandwich_where_psi_squared_overflows():
    # at 1e100 psi^2 (about 1e400) is no double: J is +inf, but V_hat is the
    # unit-scale V_hat times 1e-200, computed without a warning
    x = get_family("exponential").draw((1.0,), 30, make_rng(1, 0))
    s1 = build_sample(x)
    V1 = sandwich("exponential", fit("exponential", s1), s1).V_hat
    s = build_sample(1e100 * x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sw = sandwich("exponential", fit("exponential", s), s)
    assert sw.J[0, 0] == math.inf
    assert sw.V_hat[0, 0] == pytest.approx(1e-200 * V1[0, 0], rel=1e-9)


def test_sandwich_refuses_exactly_where_hessian_pd_is_false():
    # the exact twoparamexp I is positive definite at every scale; on [-1, 1]
    # mu_hat = x_(1) < 0 puts that observation at the support start, where
    # psi is -inf, so there is neither an I nor a sandwich
    x = get_family("twoparamexp").draw(np.array([1.0, 1.0]), 30, make_rng(1, 0))
    samples = [build_sample(c * x) for c in (1e-12, 1e-6, 1.0, 1e6)]
    samples.append(build_sample([-1.0, 1.0]))
    flags = []
    for s in samples:
        res = fit("twoparamexp", s)
        flags.append(res.hessian_pd)
        if res.hessian_pd:
            assert np.all(np.isfinite(sandwich("twoparamexp", res, s).V_hat))
        else:
            with pytest.raises(SupportViolation, match="at the support start"):
                sandwich("twoparamexp", res, s)
    assert flags == [True, True, True, True, False]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,theta,units", [
    ("twoparamexp", (1.0, 1.0), (1, 1)),
    ("pareto", (3.0, 1.0), (0, 1)),
])
def test_exact_hessian_sandwich_is_scale_equivariant(name, theta, units):
    # mu and sigma (and beta) are scales, so V_hat of c x is c^2 V_hat of x
    # entry by entry (alpha has no unit); no difference step breaks that
    x = get_family(name).draw(np.asarray(theta), 30, make_rng(1, 0))
    s1 = build_sample(x)
    V1 = sandwich(name, fit(name, s1), s1).V_hat
    for c in (1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12):
        s = build_sample(c * x)
        res = fit(name, s)
        d = c ** np.asarray(units, dtype=float)
        V = sandwich(name, res, s).V_hat / np.outer(d, d)
        assert np.abs(V - V1).max() <= 1e-9 * np.abs(V1).max(), c
        assert res.hessian_pd, c


def test_sandwich_requires_convergence():
    s = draw("exponential", (2.0,), 50, 5, 9)
    res = fit("exponential", s)
    res.converged = False
    with pytest.raises(InferenceError):
        sandwich("exponential", res, s)


# ------------------------------------------------------------------ intervals

def worked_sample():
    rng = make_rng(99, 0)
    base = get_family("exponential").draw((3.0,), 30, rng)
    return build_sample(base * math.sqrt(0.2063127 / float((base**2).mean())))


def test_wald_interval_worked_arithmetic():
    s = worked_sample()
    res = fit("exponential", s)
    lam = res.params["lambda"]
    ci = wald_ci(res, avar_scalar("exponential", (lam,)).sigma2, 0.95)
    half = 1.959964 * lam * math.sqrt(1.25) / math.sqrt(30)
    assert ci.lower == pytest.approx(lam - half, abs=1e-5)
    assert ci.upper == pytest.approx(lam + half, abs=1e-5)
    assert ci.lower == pytest.approx(1.8679, abs=1e-3)
    assert ci.upper == pytest.approx(4.3592, abs=1e-3)


def test_wald_degenerate_level():
    s = worked_sample()
    res = fit("exponential", s)
    ci = wald_ci(res, 5.0, 1e-12)
    assert ci.upper - ci.lower < 1e-9
    with pytest.raises(InferenceError):
        wald_ci(res, -1.0, 0.95)
    with pytest.raises(DomainError):
        wald_ci(res, 5.0, 1.5)


def test_divergence_interval_worked_example():
    s = worked_sample()
    res = fit("exponential", s)
    ci = divergence_interval("exponential", s, res, 0.95)
    assert ci.cutoff_k == pytest.approx(0.9498908, abs=1e-5)
    assert ci.lower == pytest.approx(2.092375, abs=1e-5)
    assert ci.upper == pytest.approx(4.633022, abs=1e-5)
    assert ci.kind == "divergence"


def test_divergence_interval_endpoints_sit_on_the_level_set():
    # both closed forms produce points where exp[g(hat) - g(theta)] equals
    # the cutoff
    for name, theta in (("exponential", (3.0,)), ("laplace", (1.5,))):
        s = draw(name, theta, 80, 60)
        res = fit(name, s)
        ci = divergence_interval(name, s, res, 0.9)
        for endpoint in (ci.lower, ci.upper):
            ratio = math.exp(res.g_at_opt - g_objective(name, (endpoint,), s))
            assert ratio == pytest.approx(ci.cutoff_k, rel=1e-7)
        assert ci.lower < res.params.values[0] < ci.upper


@pytest.mark.parametrize("n", [30, 300, 1000])
def test_laplace_divergence_interval_at_the_exact_crossing(n):
    # the endpoints are the roots of g(theta) - g(theta_hat) = -log k, here
    # solved in 40-digit arithmetic from the same moments and the same k
    mpmath = pytest.importorskip("mpmath")
    s = draw("laplace", (1.5,), n, 70)
    res = fit("laplace", s)
    for level in (0.5, 0.95, 0.999):
        ci = divergence_interval("laplace", s, res, level)
        log_k = -ci.c_theta * chi2_quantile_df1(level, "level") / (2.0 * n)
        with mpmath.workdps(40):
            m = mpmath.mpf(s.mean_sq)
            # g(theta) = theta + mean_sq / (2 theta) up to a theta-free constant
            b = res.params.values[0] + m / (2 * mpmath.mpf(res.params.values[0])) - log_k
            root = mpmath.sqrt(b * b - 2 * m)
            for got, want in ((ci.lower, (b - root) / 2), (ci.upper, (b + root) / 2)):
                assert abs(mpmath.mpf(got) / want - 1) < 1e-14


def test_divergence_interval_agrees_with_wald_large_n():
    s = draw("exponential", (3.0,), 10_000, 61)
    res = fit("exponential", s)
    div = divergence_interval("exponential", s, res, 0.95)
    wald = wald_ci(res, avar_scalar("exponential", res.params.values).sigma2, 0.95)
    assert div.lower == pytest.approx(wald.lower, rel=0.02)
    assert div.upper == pytest.approx(wald.upper, rel=0.02)


def test_pivotal_q_zero_and_taylor():
    s = draw("exponential", (3.0,), 500, 62)
    res = fit("exponential", s)
    lam_hat = res.params["lambda"]
    assert pivotal_q("exponential", s, res, lam_hat) == 0.0
    sigma_f = math.sqrt(avar_scalar("exponential", (lam_hat,)).sigma2)
    # the cubic remainder makes the relative gap ~ |theta - hat| / hat, so
    # the 1% agreement holds inside a tenth of a standard error
    for frac in (0.1, -0.1):
        th = lam_hat + frac * sigma_f / math.sqrt(s.n)
        q = pivotal_q("exponential", s, res, th)
        approx = s.n * (th - lam_hat) ** 2 / sigma_f**2
        assert q == pytest.approx(approx, rel=0.01)
    for delta in (0.05, -0.05):
        th = lam_hat * (1 + delta)
        q = pivotal_q("exponential", s, res, th)
        approx = s.n * (th - lam_hat) ** 2 / sigma_f**2
        assert q == pytest.approx(approx, rel=1.5 * abs(delta))


# -------------------------------------------------------------------- testing

def test_gddt_at_the_estimate_never_rejects():
    s = draw("exponential", (5.0,), 120, 63)
    lam_hat = fit("exponential", s).params["lambda"]
    res = gddt_test("exponential", s, lam_hat, 0.05)
    assert res.statistic_gddt == pytest.approx(0.0, abs=1e-10)
    assert res.p_value == 1.0
    assert not res.reject


def test_gddt_region_duality_random_nulls():
    rng = make_rng(64, 0)
    s = draw("exponential", (5.0,), 150, 64)
    for _ in range(100):
        lam0 = float(rng.uniform(2.0, 9.0))
        res = gddt_test("exponential", s, lam0, 0.05)
        lo, hi = res.region_mean_sq
        assert ((s.mean_sq > hi) or (s.mean_sq < lo)) == res.reject


def test_gddt_on_a_null_grid():
    s = draw("exponential", (5.0,), 150, 65)
    lam_hat = fit("exponential", s).params["lambda"]
    grid = (3.0, 4.5, 6.0)
    res = gddt_test("exponential", s, grid, 0.05)
    best = min(grid, key=lambda t: g_objective("exponential", (t,), s))
    assert res.theta_null == best
    assert abs(best - lam_hat) == min(abs(t - lam_hat) for t in grid)


def test_c_value_closed_forms():
    s = draw("exponential", (5.0,), 60, 66)
    assert c_value("exponential", s, (2.0,)) == pytest.approx(5.0 / 4.0)
    assert c_value("laplace", s, (2.0,)) == pytest.approx(
        5 * s.mean_sq / 8.0, rel=1e-12)
    # sigma^2 g'', from the quadrature variance and the Hessian, agrees with
    # each closed form
    for name in ("exponential", "laplace"):
        for theta in ((2.0,), (5.0,)):
            sigma2_g2 = (avar_scalar(name, theta, method="quadrature").sigma2
                         * ObjectiveContext(name, s).hessian(theta)[0, 0])
            assert c_value(name, s, theta) == pytest.approx(sigma2_g2, rel=1e-8)
    with pytest.raises(DomainError):
        c_value("normal", s, (2.0, 3.0))


@pytest.mark.parametrize("raw", [[0.0], [-0.0, 5e-324, 5e-324]])
def test_zero_c_is_degenerate_data(raw):
    # a Laplace sample whose mean of squares is 0: power and sample size
    # divided by c = 0 (0/0 at theta0 = theta1) behind a numpy warning
    s = build_sample(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: c_value("laplace", s, (2.0,)),
                     lambda: power_approx("laplace", s, 2.0, 2.0, 0.05, 50),
                     lambda: power_approx("laplace", s, 5.0, 2.0, 0.05, 50),
                     lambda: required_sample_size("laplace", s, 2.0, 5.0, 0.05, 0.9)):
            with pytest.raises(DataError, match="degenerate data"):
                call()


@pytest.mark.parametrize("theta0", [1e300, 1e-300])
def test_extreme_null_has_no_region_instead_of_crashing(theta0):
    # theta0**2 overflowed (OverflowError) or underflowed to a zero divisor
    res = gddt_test("exponential", build_sample([1.0, 2.0]), theta0, 0.05)
    assert res.region_mean_sq is None
    assert gddt_test("exponential", build_sample([1.0, 2.0]), 2.0, 0.05).region_mean_sq


@pytest.mark.parametrize("name", ["exponential", "laplace"])
@pytest.mark.parametrize("theta0", [1e300, 1e-300])
def test_extreme_null_p_value_without_a_warning(name, theta0):
    # c is a Python float, so a statistic over c that overflows is inf
    # without a numpy overflow warning, and p is 0
    s = build_sample([0.5, 1.2, 2.0, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gddt_test(name, s, theta0, 0.05)
        assert type(c_value(name, s, (theta0,))) is float
    assert 0.0 <= res.p_value <= 1.0
    if theta0 == 1e300:
        assert res.statistic_gddt / res.c_at_null == math.inf
        assert res.p_value == 0.0 and res.reject


def test_power_limit_is_alpha():
    s = draw("exponential", (5.0,), 300, 67)
    p = power_approx("exponential", s, 5.0, 5.0 + 1e-9, 0.05)
    assert p == pytest.approx(0.05, abs=1e-5)


def test_power_monotone_in_alternative_gap():
    powers = []
    for i, lam1 in enumerate((5.4, 5.8, 6.2, 6.6, 7.0)):
        big = draw("exponential", (lam1,), 100_000, 30, i)
        powers.append(power_approx("exponential", big, 5.0, lam1, 0.05, n=100))
    assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))


def test_power_against_monte_carlo():
    # The tail approximation ignores the sampling spread of the objective
    # difference, so at n = 200 with a 20% parameter gap it is only coarse;
    # by n = 1000 the two agree tightly.
    lam0, lam1, alpha = 5.0, 6.0, 0.05
    for n, tol in ((200, 0.10), (1000, 0.03)):
        reps = 4000
        rates = 0
        approxs = np.empty(reps)
        for r in range(reps):
            s = draw("exponential", (lam1,), n, 22, r)
            res = gddt_test("exponential", s, lam0, alpha)
            rates += res.reject
            approxs[r] = power_approx("exponential", s, lam0, lam1, alpha)
        rate = rates / reps
        assert abs(approxs.mean() - rate) < tol, (n, approxs.mean(), rate)


def test_required_sample_size_contract_and_consistency():
    for i, lam1 in enumerate((5.6, 6.0, 7.0, 8.0)):
        big = draw("exponential", (lam1,), 50_000, 31, i)
        res = required_sample_size("exponential", big, 5.0, lam1, 0.05, 0.9)
        assert res.n_star == math.floor(res.n0) + 1
        n0 = ((res.c_theta1 * res.chi2_beta - res.c_theta0 * res.chi2_alpha)
              / (2 * (res.g_theta1 - res.g_theta0)))
        assert res.n0 == pytest.approx(n0, rel=1e-12)
        power = power_approx("exponential", big, 5.0, lam1, 0.05, res.n_star)
        assert power >= 0.9 - 0.02


def test_required_sample_size_monotone_in_gap():
    n_stars = []
    for i, lam1 in enumerate((5.6, 6.0, 7.0, 8.0)):
        big = draw("exponential", (lam1,), 50_000, 31, i)
        n_stars.append(required_sample_size("exponential", big, 5.0, lam1,
                                            0.05, 0.9).n_star)
    assert all(a >= b for a, b in zip(n_stars, n_stars[1:]))


def test_required_sample_size_errors():
    s = draw("exponential", (5.0,), 100, 68)
    with pytest.raises(InferenceError, match="indistinguishable"):
        required_sample_size("exponential", s, 5.0, 5.0, 0.05, 0.9)


def test_gddt_over_c_is_chi_square_under_null():
    n, lam0, reps = 500, 5.0, 10_000
    stats = np.empty(reps)
    for r in range(reps):
        s = draw("exponential", (lam0,), n, 69, r)
        res = gddt_test("exponential", s, lam0, 0.05)
        stats[r] = res.statistic_gddt / res.c_at_null
    stats.sort()
    cdf = erf(np.sqrt(np.maximum(stats, 0.0) / 2.0))
    hi = np.arange(1, reps + 1) / reps
    lo = np.arange(0, reps) / reps
    ks = max(np.abs(hi - cdf).max(), np.abs(lo - cdf).max())
    assert ks < 0.02


# --------------------------------------------------------------- region cutoffs

def test_region_cutoffs_smoke_and_nesting():
    levels = (0.9, 0.7, 0.5, 0.3, 0.1)
    rc1 = divergence_region_cutoffs("twoparamexp", (3.0, 2.0), 100, 400,
                                    levels, seed=11)
    rc2 = divergence_region_cutoffs("twoparamexp", (3.0, 2.0), 100, 400,
                                    levels, seed=11)
    assert rc1 == rc2
    assert rc1.failures == 0
    assert all(a >= b for a, b in zip(rc1.cutoffs, rc1.cutoffs[1:]))
    assert all(c > 0 for c in rc1.cutoffs)


def test_region_cutoffs_quantile_coverage_identity():
    levels = (0.9,)
    rc = divergence_region_cutoffs("twoparamexp", (3.0, 2.0), 60, 200,
                                   levels, seed=12)
    gaps = []
    for r in range(200):
        s = draw("twoparamexp", (3.0, 2.0), 60, 12, r)
        res = fit("twoparamexp", s)
        gaps.append(g_objective("twoparamexp", (3.0, 2.0), s) - res.g_at_opt)
    frac = np.mean([g <= rc.cutoffs[0] for g in gaps])
    assert frac == pytest.approx(math.ceil(0.9 * 200) / 200, abs=1e-12)


def test_region_cutoffs_validation():
    with pytest.raises(DomainError):
        divergence_region_cutoffs("exponential", (2.0,), 50, 200, (0.9,), 1)
    with pytest.raises(DomainError):
        divergence_region_cutoffs("twoparamexp", (3.0, 2.0), 50, 50, (0.9,), 1)
    for n in (0, -1):
        # at entry, before any replicate draws
        with pytest.raises(DomainError, match="n must be >= 1"):
            divergence_region_cutoffs("twoparamexp", (1.0, 2.0), n, 100, (0.9,), 1)
    # levels that are not numbers, or not a sequence, at entry too
    in_unit = "levels must be in (0, 1)"
    for levels, message in (((0.9, 1.0), in_unit), (("a",), in_unit), ((None,), in_unit),
                            ("0.5", in_unit),
                            (0.5, "levels must be a sequence of numbers in (0, 1), got 0.5")):
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            divergence_region_cutoffs("twoparamexp", (1.0, 2.0), 20, 100, levels, 1)


@pytest.mark.parametrize("name,theta", [("normal", (2.0,)), ("normal", (2.0, 3.0, 1.0)),
                                        ("pareto", (4.0,))])
def test_avar_matrix_rejects_a_theta_of_the_wrong_length(name, theta):
    with pytest.raises(DomainError, match=f"expects 2 parameters, got {len(theta)}"):
        avar_matrix(name, theta, 30)
