import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ckle import (DomainError, ObjectiveContext, SupportViolation, build_sample,
                  ckl_divergence, empirical_entropy_constant, fit, g_objective,
                  gee_sum, get_family, make_rng, psi_matrix, sandwich)

ALL = ["exponential", "laplace", "twoparamexp", "pareto", "normal"]
THETAS = {
    "exponential": (2.0,),
    "laplace": (1.5,),
    "twoparamexp": (3.0, 2.0),
    "pareto": (3.0, 5.0),
    "normal": (2.0, 3.0),
}


def draw_sample(name, n, seed, stream=0):
    fam = get_family(name)
    return build_sample(fam.draw(np.asarray(THETAS[name]), n, make_rng(seed, stream)))


def test_g_exponential_matches_reduced_form():
    s = draw_sample("exponential", 40, 1)
    for lam in (0.5, 2.0, 7.0):
        assert g_objective("exponential", (lam,), s) == pytest.approx(
            1 / lam + lam * s.mean_sq / 2, rel=1e-14)
    lam_hat = math.sqrt(2 / s.mean_sq)
    grad = ObjectiveContext("exponential", s).gradient((lam_hat,))
    assert abs(grad[0]) < 1e-9


def test_g_laplace_plugin_value():
    s = build_sample([-1.0, 1.0])
    assert g_objective("laplace", (1.0,), s) == pytest.approx(
        1 + math.log(2) + 0.5, abs=1e-12)


def test_g_pareto_matches_printed_form():
    s = draw_sample("pareto", 200, 2)
    a, b = 2.5, 4.0          # all observations exceed beta=4 < 5
    assert float(s.obs[0]) > b
    mean_xlogx = float((s.obs * np.log(s.obs)).mean())
    expect = (a * b / (a - 1) + a * mean_xlogx
              - a * s.mean * (math.log(b) + 1) + a * b)
    assert g_objective("pareto", (a, b), s) == pytest.approx(expect, rel=1e-12)


def test_g_support_violation_is_inf():
    s = build_sample([-1.0, 2.0])
    assert g_objective("exponential", (1.0,), s) == math.inf
    assert g_objective("twoparamexp", (-2.0, 1.0), s) < math.inf
    assert g_objective("twoparamexp", (-0.5, 1.0), s) == math.inf
    assert ckl_divergence("pareto", (2.0, 5.0), s) == math.inf


def test_psi_raises_below_the_support_start():
    # psi needs d log cdf / d theta at every negative observation, which has
    # none where the cdf is 0; g is +inf there, as s_values says
    s = build_sample([-1.0, 0.5, 2.0, 3.0])
    fam = get_family("twoparamexp")
    with pytest.raises(SupportViolation):
        psi_matrix(fam, fam.closed_form(s), s)
    # just above the observation -1, g, psi and the exact Hessian are finite
    # (no difference probe crosses the observation)
    theta = np.array([-1.0 - 1e-6, 1.5])
    g = g_objective(fam, theta, s)
    assert g < math.inf
    assert np.all(np.isfinite(psi_matrix(fam, theta, s)))
    H = ObjectiveContext(fam, s).hessian(theta)
    assert np.all(np.isfinite(H))
    res = replace(fit(fam, s), _hessian_inputs=(fam, s, theta, g))
    assert res.hessian_pd is True


def test_psi_raises_at_a_negative_observation_on_the_support_start():
    # g is finite at mu = x_(1) < 0, but d s / d mu has log(1 - e^{-t}) at
    # t = 0 there; so too where (x - mu)/sigma underflows to 0
    fam = get_family("twoparamexp")
    above = float(np.nextafter(-1e-300, 0.0))
    for xs, theta in (([-1.0, 0.5, 2.0], (-1.0, 1.5)),
                      ([-3.57e16, 1e-12], (-3.57e16, 1.785e16)),
                      ([above, 2.0], (-1e-300, 1e10))):
        s = build_sample(xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert g_objective(fam, theta, s) < math.inf
            with pytest.raises(SupportViolation, match="at the support start"):
                psi_matrix(fam, theta, s)
    # just above the support start psi is finite
    s = build_sample([-1.0, 0.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(np.isfinite(psi_matrix(fam, (-1.0 - 1e-9, 1.5), s)))


@pytest.mark.parametrize("name,theta", [("exponential", (1.0,)), ("pareto", (2.0, 5.0))])
def test_psi_and_hessian_raise_on_a_negative_observation(name, theta):
    # one support rule: where s_values raises and g is +inf, so does psi
    s = build_sample([-1.0, 2.0])
    assert g_objective(name, theta, s) == math.inf
    with pytest.raises(SupportViolation):
        psi_matrix(name, theta, s)
    with pytest.raises(SupportViolation):
        ObjectiveContext(name, s).hessian(theta)


@pytest.mark.parametrize("name", ALL)
def test_g_rejects_a_theta_of_the_wrong_length(name):
    s = draw_sample(name, 10, 1)
    k = len(THETAS[name])
    for theta in (THETAS[name] * 2, THETAS[name][:1] * (k - 1)):
        with pytest.raises(DomainError, match=f"{name} expects {k} parameters, got {len(theta)}"):
            g_objective(name, theta, s)


def test_normal_g_on_floats_matches_the_generic_evaluator():
    # the Normal's own g_fn is the generic composition on Python floats:
    # bitwise the same values, and the same DomainError outside the domain
    from ckle.models import Family
    fam = get_family("normal")
    rng = make_rng(17, 0)
    for n in (1, 10, 55):
        s = build_sample(fam.draw(np.array([2.0, 3.0]), n, rng))
        lean, generic = fam.g_fn(s), Family.g_fn(fam, s)
        for mu, sig in zip(rng.normal(2.0, 5.0, 40), np.exp(rng.normal(1.0, 1.5, 40))):
            theta = np.array([mu, sig])
            assert np.float64(lean(theta)).tobytes() == np.float64(generic(theta)).tobytes()
        assert lean((2.0, 3.0)) == generic([2.0, 3.0])
        for bad in ((math.nan, 1.0), (math.inf, 1.0), (0.0, 0.0), (0.0, -1.0),
                    (0.0, math.inf), (0.0, math.nan), (1.0,), (1.0, 2.0, 3.0)):
            with pytest.raises(DomainError) as a:
                lean(bad)
            with pytest.raises(DomainError) as b:
                generic(bad)
            assert str(a.value) == str(b.value)


def _within_ulps(a, b, ulps):
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


@given(name=st.sampled_from(["exponential", "laplace"]),
       log_scale=st.floats(-120.0, 120.0), log_n=st.floats(0.0, 5.0),
       seed=st.integers(0, 2**32 - 1), log_factor=st.floats(-2.0, 2.0))
# at scale 1e-144 mean_sq is near the floor (1e-290) of the moment path
@example(name="exponential", log_scale=-144.0, log_n=2.0, seed=1, log_factor=0.0)
@example(name="laplace", log_scale=-144.0, log_n=5.0, seed=1, log_factor=1.0)
def test_scalar_moment_g_matches_the_generic_evaluator(name, log_scale, log_n, seed,
                                                       log_factor):
    # the Exponential and the Laplace evaluate g from mean_abs and mean_sq:
    # within 4 ulp of the per-element sum, at the estimate and away from it
    from ckle.models import Family
    fam = get_family(name)
    n = int(round(10.0**log_n))
    s = build_sample(fam.draw((1.0,), n, make_rng(seed, 0)) * 10.0**log_scale)
    theta = (fam.closed_form(s)[0] * 10.0**log_factor,)
    lean, generic = fam.g_fn(s)(theta), Family.g_fn(fam, s)(theta)
    assert math.isfinite(lean) and _within_ulps(lean, generic, 4)


@pytest.mark.parametrize("name", ["exponential", "laplace"])
def test_scalar_moment_g_keeps_the_generic_contract(name):
    from fractions import Fraction

    from ckle.models import Family
    fam = get_family(name)
    # squares of data near 1e-200 underflow, so mean_sq is 0 and g falls back
    # to the per-element path: bitwise the generic value
    tiny = build_sample(fam.draw((1.0,), 30, make_rng(3, 0)) * 1e-200)
    assert tiny.mean_sq == 0.0
    for theta in ((7e200,), (0.8e-200,), (1.0,)):
        assert np.float64(fam.g_fn(tiny)(theta)).tobytes() == \
            np.float64(Family.g_fn(fam, tiny)(theta)).tobytes()
    if name == "exponential":
        # (lambda x) x keeps the terms x^2 drops: g is exact to rounding there,
        # where the moment formula would give 1/lambda alone
        lam = 7e200
        exact = 1 / Fraction(lam) + Fraction(lam) * sum(
            Fraction(x) ** 2 for x in tiny.obs.tolist()) / (2 * tiny.n)
        assert fam.g_fn(tiny)((lam,)) == pytest.approx(float(exact), rel=1e-15, abs=0.0)
        assert 1.0 / lam < 0.5 * float(exact)
        # below the support start both paths give +inf
        neg = build_sample([-1.0, 0.5, 2.0])
        for lam in (0.5, 2.0):
            assert fam.g_fn(neg)((lam,)) == Family.g_fn(fam, neg)((lam,)) == math.inf
    s = draw_sample(name, 20, 4)
    for sample in (s, tiny):
        lean, generic = fam.g_fn(sample), Family.g_fn(fam, sample)
        for bad in ((0.0,), (-1.0,), (math.nan,), (math.inf,), (1.0, 2.0),
                    np.array([0.0]), [-math.inf]):
            with pytest.raises(DomainError) as a:
                lean(bad)
            with pytest.raises(DomainError) as b:
                generic(bad)
            assert str(a.value) == str(b.value)


def test_laplace_s_and_divergence_are_scale_equivariant_near_1e_200():
    # the squares of the data underflow, so g takes the per-element s
    fam = get_family("laplace")
    base = fam.draw((0.5,), 30, make_rng(1, 0))
    c = 1e-200
    tiny = build_sample(base * c)
    assert tiny.mean_sq == 0.0
    np.testing.assert_allclose(fam.s_values((0.5 * c,), base * c),
                               c * fam.s_values((0.5,), base), rtol=1e-15, atol=0.0)
    div = ckl_divergence(fam, (0.5 * c,), tiny)
    assert div >= 0.0
    assert div == pytest.approx(c * ckl_divergence(fam, (0.5,), build_sample(base)),
                                rel=1e-13, abs=0.0)
    # psi = 1 - (x/theta)^2 / 2 has no units
    np.testing.assert_allclose(psi_matrix(fam, (0.5 * c,), base * c),
                               psi_matrix(fam, (0.5,), base), rtol=1e-13, atol=1e-13)


def test_ckl_divergence_identity_and_minimum():
    s = draw_sample("laplace", 60, 3)
    th = 1.2
    g = g_objective("laplace", (th,), s)
    expect = empirical_entropy_constant(s) + g - s.mean_abs
    assert ckl_divergence("laplace", (th,), s) == pytest.approx(expect, rel=1e-12)
    th_hat = fit("laplace", s).params["theta"]
    d_hat = ckl_divergence("laplace", (th_hat,), s)
    assert d_hat >= 0
    for other in (0.5 * th_hat, 2.0 * th_hat):
        assert ckl_divergence("laplace", (other,), s) > d_hat


def test_ckl_divergence_shrinks_with_n():
    medians = []
    for n in (50, 500, 5000):
        vals = []
        for r in range(15):
            s = draw_sample("exponential", n, 4, stream=r)
            lam = fit("exponential", s).params["lambda"]
            vals.append(ckl_divergence("exponential", (lam,), s))
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2] > 0


@pytest.mark.parametrize("name", ALL)
def test_ckl_nonnegative_singletons(name):
    fam = get_family(name)
    lo = fam.support_lower(THETAS[name])
    xs = np.linspace(max(lo, -4.0) + 0.25, 9.0, 9)
    for x in xs:
        s = build_sample([float(x)])
        d = ckl_divergence(name, THETAS[name], s)
        assert d >= -1e-12


def test_psi_exponential_formula():
    lam, x = 2.0, 1.5
    assert psi_matrix("exponential", (lam,), [x])[0, 0] == pytest.approx(
        -1 / lam**2 + x * x / 2, rel=1e-12)
    s = build_sample([1.0, 1.0])
    assert gee_sum("exponential", (1.0,), s)[0] == pytest.approx(-1.0)


def test_psi_stationary_at_closed_form():
    s = draw_sample("exponential", 80, 5)
    lam_hat = math.sqrt(2 / s.mean_sq)
    assert abs(psi_matrix("exponential", (lam_hat,), s).mean()) < 1e-12


def test_psi_normal_two_paths_agree():
    # finite differences of the quadrature-valued s versus the resolved
    # integral forms of the estimating equations
    from scipy.integrate import quad
    from scipy.special import log_ndtr

    def phi_over_cdf(z):
        return np.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - log_ndtr(z))

    mu, sig = 1.3, 2.1
    fam = get_family("normal")
    dE = fam.mean_abs_grad((mu, sig))
    m = mu / sig
    for x in (-3.0, -0.5, 0.7, 4.0):
        if x >= 0:
            ds_mu = log_ndtr(m) - log_ndtr((mu - x) / sig)
            ds_sig = quad(lambda w: w * phi_over_cdf(-w), -m,
                          (x - mu) / sig, epsabs=1e-13, epsrel=1e-11)[0]
        else:
            ds_mu = log_ndtr((x - mu) / sig) - log_ndtr(-m)
            ds_sig = -quad(lambda w: w * phi_over_cdf(w),
                           (x - mu) / sig, -m, epsabs=1e-13, epsrel=1e-11)[0]
        expect = dE - np.array([ds_mu, ds_sig])
        got = psi_matrix("normal", (mu, sig), [x])[0]
        assert np.abs(got - expect).max() < 1e-5


def test_difference_steps_at_the_domain_edge():
    # a bounded coordinate steps by 1e-5 of its distance to the bound, so
    # both probes stay inside alpha > 1 until they round back onto alpha
    s = draw_sample("pareto", 40, 3)
    beta = 0.5 * float(s.obs[0])
    assert np.all(np.isfinite(ObjectiveContext("pareto", s).gradient((1 + 1e-9, beta))))
    with pytest.raises(DomainError, match="step underflow"):
        ObjectiveContext("pareto", s).gradient((1 + 1e-13, beta))
    # a rate far below 1 steps by a fraction of itself
    s = draw_sample("exponential", 40, 3)
    grad = ObjectiveContext("exponential", s).gradient((1e-80,))
    assert grad[0] == pytest.approx(-1e160 + s.mean_sq / 2.0, rel=1e-9)


@pytest.mark.parametrize("name", ALL)
def test_gee_sum_equals_n_times_gradient(name):
    for stream in range(3):
        s = draw_sample(name, 35, 6, stream)
        theta = np.asarray(THETAS[name], dtype=float) * (1.0 + 0.07 * stream)
        if name == "pareto":
            theta[1] = min(theta[1], 0.9 * float(s.obs[0]))
        lhs = gee_sum(name, theta, s)
        rhs = s.n * ObjectiveContext(name, s).gradient(theta)
        assert np.abs(lhs - rhs).max() <= 1e-6 * (1.0 + np.abs(rhs).max())


def test_gee_zero_at_closed_optima():
    for name in ("exponential", "laplace"):
        s = draw_sample(name, 50, 7)
        res = fit(name, s)
        assert np.abs(gee_sum(name, res.params.values, s)).max() < 1e-8 * s.n
    # support-respecting two-parameter sample
    for stream in range(20):
        s = draw_sample("twoparamexp", 50, 7, stream)
        res = fit("twoparamexp", s)
        if not res.support_warning:
            assert np.abs(gee_sum("twoparamexp", res.params.values, s)
                          ).max() < 1e-8 * s.n
            break
    else:
        pytest.fail("no support-respecting sample found")


@pytest.mark.slow
def test_unbiasedness_of_psi_monte_carlo():
    # E[psi(X, theta)] = 0 at the data-generating parameters
    for name in ALL:
        fam = get_family(name)
        theta = np.asarray(THETAS[name])
        xs = fam.draw(theta, 10**6, make_rng(66, 3))
        P = psi_matrix(fam, theta, xs)
        mean = P.mean(axis=0)
        se = P.std(axis=0) / 1000.0
        assert np.all(np.abs(mean) < 4 * se), name


def _mp_g(mp, name, xs):
    """g(theta) at the working precision of mpmath, from each family's closed
    E|X| and s, on the observations xs (doubles, read exactly)."""
    xs = [mp.mpf(float(x)) for x in xs]
    n = len(xs)

    def s_tpe(x, mu, sig):
        if x >= 0:
            a, b = max(x - mu, 0), max(-mu, 0)
            return -(a * a - b * b) / (2 * sig)
        return sig * (mp.polylog(2, mp.exp(mu / sig)) - mp.polylog(2, mp.exp((mu - x) / sig)))

    def g(*th):
        if name == "exponential":
            (lam,) = th
            return 1 / lam + lam * mp.fsum(x * x for x in xs) / (2 * n)
        if name == "laplace":
            (t,) = th
            return t + mp.fsum(abs(x) * mp.log(2) + x * x / (2 * t) for x in xs) / n
        if name == "pareto":
            a, b = th
            s = mp.fsum(-a * (z * (mp.log(z) - mp.log(b) - 1) + b)
                        for z in (max(x, b) for x in xs))
            return a * b / (a - 1) - s / n
        mu, sig = th
        e_abs = mu + sig if mu >= 0 else -mu - sig + 2 * sig * mp.exp(mu / sig)
        return e_abs - mp.fsum(s_tpe(x, mu, sig) for x in xs) / n

    return g


_NONNEG = [0.2, 0.7, 1.1, 1.9, 2.5, 4.0]
_MIXED = [-0.8, -0.3, 0.2, 1.1, 2.5, 4.0]
_PARETO = [5.3, 5.9, 6.8, 8.1, 11.0, 19.5]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,xs,theta", [
    ("exponential", _NONNEG, (0.3,)),
    ("exponential", _NONNEG, (2.0,)),
    ("exponential", _NONNEG, (9.0,)),
    ("laplace", _MIXED, (0.5,)),
    ("laplace", _MIXED, (1.5,)),
    ("laplace", _MIXED, (7.0,)),
    ("pareto", _PARETO, (3.0, 2.5)),
    ("pareto", _PARETO, (4.0, 5.2)),
    ("pareto", _PARETO, (2.5, 6.3)),         # beta inside the data
    ("twoparamexp", _NONNEG, (0.1, 1.5)),
    ("twoparamexp", _NONNEG, (1.5, 2.0)),    # mu inside the data
    ("twoparamexp", _NONNEG, (-0.7, 2.0)),   # mu < 0, data nonnegative
    ("twoparamexp", _MIXED, (-1.2, 1.5)),    # mu < 0, negative data
    ("twoparamexp", _MIXED, (-0.9, 0.3)),
])
def test_exact_hessian_against_mpmath(name, xs, theta):
    # the closed Hessian of g is the 30-digit second derivative of g, away
    # from the kinks x = mu and x = beta
    mp = pytest.importorskip("mpmath")
    H = ObjectiveContext(name, build_sample(xs)).hessian(theta)
    with mp.workdps(30):
        g = _mp_g(mp, name, xs)
        th = [mp.mpf(t) for t in theta]
        d = len(theta)
        orders = lambda i, j: tuple((k == i) + (k == j) for k in range(d))
        want = np.array([[float(mp.diff(g, th, orders(i, j))) for j in range(d)]
                         for i in range(d)])
    assert np.abs(H - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_laplace_hessian_below_the_moment_floor():
    # below a mean of squares of 1e-290 some x^2 may have underflowed, so the
    # Laplace Hessian reads (x/theta)^2 per element: I(c x, c theta) = I/c
    x = np.array(_MIXED)
    H1 = ObjectiveContext("laplace", build_sample(x)).hessian((1.5,))[0, 0]
    for c in (1e-150, 1e-160):
        s = build_sample(c * x)
        assert s.mean_sq < 1e-290
        H = ObjectiveContext("laplace", s).hessian((1.5 * c,))[0, 0]
        assert abs(H * c - H1) <= 1e-13 * H1, c


def test_g_second_derivative_exponential():
    s = draw_sample("exponential", 60, 8)
    for lam in (0.7, 2.0, 9.0):
        H = ObjectiveContext("exponential", s).hessian((lam,))
        assert H[0, 0] == pytest.approx(2 / lam**3, rel=1e-6)


@pytest.mark.parametrize("name", ALL)
def test_sandwich_information_is_the_hessian(name):
    # one numerical path: the sandwich's I is the Hessian of g, bit for bit
    s = draw_sample(name, 40, 12)
    res = fit(name, s)
    H = ObjectiveContext(name, s).hessian(res.params.values)
    assert sandwich(name, res, s).I.tobytes() == H.tobytes()


def test_laplace_hessian_closed_form():
    # E|X| = theta and d2 s/d theta2 = -x^2/theta^3, so g'' = mean(x^2)/theta^3
    s = draw_sample("laplace", 60, 13)
    for theta in (0.7, 1.5, 7.0):
        H = ObjectiveContext("laplace", s).hessian((theta,))
        expect = s.mean_sq / theta**3
        assert abs(H[0, 0] - expect) <= 1e-9 * expect


def test_pareto_hessian_closed_form():
    # for beta below the sample minimum,
    # g = beta + beta/(alpha-1) - alpha (xbar log beta - mean(x log x) + xbar - beta)
    s = draw_sample("pareto", 50, 14)
    xbar = s.mean
    for alpha, frac in ((3.0, 0.5), (4.0, 0.9), (6.0, 0.99)):
        beta = frac * float(s.obs[0])
        H = ObjectiveContext("pareto", s).hessian((alpha, beta))
        off = -1.0 / (alpha - 1.0) ** 2 - (xbar / beta - 1.0)
        expect = np.array([[2.0 * beta / (alpha - 1.0) ** 3, off],
                           [off, alpha * xbar / beta**2]])
        assert np.all(np.abs(H - expect) <= 1e-9 * np.abs(expect))


def test_gradient_zero_and_hessian_pd_at_optimum():
    s = draw_sample("normal", 90, 9)
    res = fit("normal", s)
    grad = ObjectiveContext("normal", s).gradient(res.params.values)
    assert np.linalg.norm(grad) < 1e-6 * (1 + abs(res.g_at_opt))
    H = ObjectiveContext("normal", s).hessian(res.params.values)
    assert np.linalg.eigvalsh(H).min() > 0
    assert res.hessian_pd
    # the estimating equations vanish there
    assert np.abs(gee_sum("normal", res.params.values, s)).max() < 1e-3 * s.n


def test_exponential_convexity_on_grid():
    s = draw_sample("exponential", 40, 10)
    lams = np.geomspace(0.05, 50.0, 25)
    for lam in lams:
        assert ObjectiveContext("exponential", s).hessian((lam,))[0, 0] > 0


def test_objective_lower_bound_quick():
    # g(theta) >= mean|x| - C_n  (divergence nonnegativity)
    rng = make_rng(11, 0)
    for case in range(200):
        name = ALL[case % len(ALL)]
        fam = get_family(name)
        theta = np.asarray(THETAS[name], dtype=float)
        theta = theta * np.exp(rng.uniform(-0.7, 0.7, theta.size))
        if name == "twoparamexp":
            theta[0] = rng.uniform(-1.0, 4.0)
        if name == "normal":
            theta[0] = rng.uniform(-3.0, 3.0)
        s = build_sample(fam.draw(np.asarray(THETAS[name]),
                                  int(rng.integers(1, 40)), rng))
        bound = s.mean_abs - empirical_entropy_constant(s)
        g = g_objective(name, theta, s)
        assert g >= bound - 1e-9 * max(1.0, abs(bound))
