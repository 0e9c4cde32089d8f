import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr

from ckle import (DataError, DomainError, SupportViolation, avar_matrix,
                  avar_scalar, build_sample, divergence_interval, fit,
                  gddt_test, get_family, make_rng)

SQRT2PI = math.sqrt(2 * math.pi)

ALL = ["exponential", "laplace", "twoparamexp", "pareto", "normal"]
THETAS = {
    "exponential": (2.0,),
    "laplace": (1.5,),
    "twoparamexp": (3.0, 2.0),
    "pareto": (3.0, 5.0),
    "normal": (2.0, 3.0),
}

# recorded once from the seeded generator; guards the documented stream
GOLDEN_TRIPLES = {
    "exponential": [1.7753322813513868, 0.7849785684158143, 0.4647815877790345],
    "laplace": [4.286276073214243, 1.3152149344075248, 0.35462399249718557],
    "twoparamexp": [10.101329125405547, 6.139914273663257, 4.859126351116138],
    "pareto": [16.329818079685452, 8.438098255534044, 6.816133013900492],
    "normal": [7.700503151456704, 4.439574876792937, 2.8010660969987775],
}


# ------------------------------------------------------------ cdf / sf / pdf

def test_cdf_boundaries():
    assert get_family("exponential").cdf((1.0,), 0.0) == 0.0
    par = get_family("pareto")
    assert par.cdf((2.0, 5.0), 5.0) == 0.0
    assert par.cdf((2.0, 5.0), 1e9) == pytest.approx(1.0, abs=1e-12)
    assert get_family("normal").cdf((0.0, 1.0), 0.0) == pytest.approx(0.5)


def test_sf_values():
    assert get_family("exponential").sf((2.0,), 1.0) == pytest.approx(math.exp(-2))
    assert get_family("twoparamexp").sf((3.0, 2.0), 3.0) == 1.0
    assert get_family("twoparamexp").sf((3.0, 2.0), 1.0) == 1.0


def test_normal_deep_tail_is_not_cancelled():
    nrm = get_family("normal")
    # 1 - cdf would be exactly 0 here; the direct tail formula is not
    for x in (10.0, 20.0, 30.0):
        sf = float(nrm.sf((0.0, 1.0), x))
        lead = math.exp(-0.5 * x * x) / (x * SQRT2PI)
        series = lead * (1 - 1 / x**2 + 3 / x**4 - 15 / x**6)
        assert sf > 0
        assert sf == pytest.approx(series, rel=1e-4)
    # positive and subnormal-free as far as the format allows
    assert float(nrm.sf((0.0, 1.0), 37.0)) > 2.3e-308
    # at z = 40 the true value (~4e-350) underflows any double; the
    # log-scale tail of the quadrature oracle's integrand stays exact
    ls = log_sf(nrm, (0.0, 1.0), 40.0)
    x = 40.0
    expect = -0.5 * x * x - math.log(x * SQRT2PI) + math.log1p(-1 / x**2 + 3 / x**4)
    assert ls == pytest.approx(expect, abs=1e-4)


@pytest.mark.parametrize("name", ALL)
def test_cdf_sf_complement_and_monotone(name):
    fam = get_family(name)
    theta = THETAS[name]
    lo = fam.support_lower(theta)
    grid = np.linspace(lo if math.isfinite(lo) else -10.0, 25.0, 200)
    cdf = np.asarray(fam.cdf(theta, grid), dtype=float)
    sf = np.asarray(fam.sf(theta, grid), dtype=float)
    both = (cdf >= 1e-10) & (sf >= 1e-10)
    assert np.abs(cdf[both] + sf[both] - 1.0).max() < 1e-14
    assert np.all(np.diff(cdf) >= -1e-15)
    assert np.all(np.diff(sf) <= 1e-15)
    assert float(fam.sf(theta, 1e6)) < 1e-12    # vanishes toward the support end


def test_domain_errors_name_parameter():
    with pytest.raises(DomainError, match="lambda"):
        get_family("exponential").validate((-1.0,))
    with pytest.raises(DomainError, match="sigma"):
        get_family("normal").validate((0.0, 0.0))
    with pytest.raises(DomainError, match="alpha must exceed 1"):
        get_family("pareto").validate((0.9, 5.0))
    # parameters numpy cannot read as floats name the family
    for name, theta in (("exponential", "a"), ("normal", (0.0, "b")), ("pareto", {}),
                        ("laplace", [[1.0], [2.0, 3.0]])):
        with pytest.raises(DomainError, match=f"^{name} parameters must be numbers, got "):
            get_family(name).validate(theta)


# ------------------------------------------------------------------ mean_abs

def test_mean_abs_closed_forms():
    assert get_family("normal").mean_abs((0.0, 1.0)) == pytest.approx(
        math.sqrt(2 / math.pi), abs=1e-12)
    assert get_family("exponential").mean_abs((4.0,)) == pytest.approx(0.25)
    assert get_family("laplace").mean_abs((1.5,)) == 1.5
    assert get_family("pareto").mean_abs((2.0, 5.0)) == pytest.approx(10.0)


@pytest.mark.parametrize("name,theta", [
    ("exponential", (2.0,)),
    ("laplace", (1.5,)),
    ("twoparamexp", (3.0, 2.0)),
    ("twoparamexp", (-1.0, 1.0)),
    ("pareto", (3.0, 5.0)),
    ("normal", (2.0, 3.0)),
    ("normal", (-0.7, 0.4)),
])
def test_mean_abs_equals_tail_quadrature(name, theta):
    fam = get_family(name)
    neg = quad(lambda x: float(fam.cdf(theta, x)), -np.inf, 0.0,
               epsabs=1e-13, epsrel=1e-11)[0]
    pos = quad(lambda x: float(fam.sf(theta, x)), 0.0, np.inf,
               epsabs=1e-13, epsrel=1e-11)[0]
    assert fam.mean_abs(theta) == pytest.approx(neg + pos, rel=1e-8)


def test_mean_abs_gradient_matches_numeric():
    # the two-parameter exponential has a second branch for mu < 0
    for name, theta in [*THETAS.items(), ("twoparamexp", (-1.0, 2.0))]:
        fam = get_family(name)
        theta = np.asarray(theta, dtype=float)
        grad = fam.mean_abs_grad(theta)
        for j in range(theta.size):
            h = 1e-6 * max(abs(theta[j]), 1.0)
            tp = theta.copy(); tp[j] += h
            tm = theta.copy(); tm[j] -= h
            num = (fam.mean_abs(tp) - fam.mean_abs(tm)) / (2 * h)
            assert grad[j] == pytest.approx(num, rel=1e-6, abs=1e-8), name


# ----------------------------------------------------------- h, u, s values

def log_cdf(fam, theta, x):
    """log F(x), the oracle's integrand of s below zero; on the log scale for
    the Laplace and the Normal, whose tails need it."""
    if fam.name == "laplace":
        th = theta[0]
        return x / th - math.log(2.0) if x < 0 else math.log1p(-0.5 * math.exp(-x / th))
    if fam.name == "normal":
        mu, sig = theta
        return float(log_ndtr((x - mu) / sig))
    with np.errstate(divide="ignore"):
        return float(np.log(fam.cdf(theta, x)))


def log_sf(fam, theta, x):
    """log S(x), the oracle's integrand of s above zero."""
    if fam.name == "exponential":
        return -theta[0] * max(x, 0.0)
    if fam.name == "laplace":
        return log_cdf(fam, theta, -x)
    if fam.name == "twoparamexp":
        mu, sig = theta
        return -max((x - mu) / sig, 0.0)
    if fam.name == "pareto":
        a, b = theta
        return -a * math.log(max(x, b) / b)
    mu, sig = theta
    return float(log_ndtr(-(x - mu) / sig))


def s_at(fam, theta, x):
    """s at one point through the production path."""
    return float(fam.s_values(theta, np.array([x]))[0])


def s_oracle(fam, theta, x):
    """Adaptive quadrature of the log-tail, split at the support start."""
    lo = fam.support_lower(theta)
    if x < 0:
        return quad(lambda y: log_cdf(fam, theta, y), x, 0.0,
                    epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    return quad(lambda y: log_sf(fam, theta, y), 0.0, x,
                points=[lo] if 0.0 < lo < x else None,
                epsabs=1e-13, epsrel=1e-11, limit=200)[0]


def test_h_integral_closed_forms():
    assert s_at(get_family("exponential"), (3.0,), 2.0) == pytest.approx(-6.0)
    for name in ALL:
        assert s_at(get_family(name), THETAS[name], 0.0) == 0.0
    # oracle: quadrature of the log-survival over [0, x]
    val = s_at(get_family("pareto"), (2.0, 5.0), 7.0)
    assert val == pytest.approx(-0.710611312696981, abs=1e-12)
    oracle = quad(lambda y: log_sf(get_family("pareto"), (2.0, 5.0), y),
                  0.0, 7.0, points=[5.0])[0]
    assert val == pytest.approx(oracle, abs=1e-10)


def test_u_integral_values():
    lap = get_family("laplace")
    assert s_at(lap, (1.0,), 0.0) == 0.0
    assert s_at(lap, (1.0,), -1.0) == pytest.approx(-math.log(2) - 0.5, abs=1e-12)
    nrm = get_family("normal")
    val = s_at(nrm, (0.0, 1.0), -1.0)
    assert val == pytest.approx(-1.2063382293005378, abs=1e-8)  # quadrature oracle


def test_u_integral_support_violation():
    with pytest.raises(SupportViolation):
        s_at(get_family("exponential"), (1.0,), -0.5)
    with pytest.raises(SupportViolation):
        s_at(get_family("twoparamexp"), (-0.25, 1.0), -0.5)
    with pytest.raises(SupportViolation):
        s_at(get_family("pareto"), (2.0, 5.0), -0.5)


def test_tpe_u_dilogarithm_matches_quadrature():
    fam = get_family("twoparamexp")
    for mu, sig, x in [(-2.0, 1.5, -0.5), (-1.0, 0.7, -0.9), (-3.0, 2.0, -2.9)]:
        closed = s_at(fam, (mu, sig), x)
        oracle = quad(lambda y: math.log(float(fam.cdf((mu, sig), y))), x, 0.0,
                      epsabs=1e-13, epsrel=1e-11)[0]
        assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-11)


def test_s_value_dispatch_and_symmetry():
    lap = get_family("laplace")
    assert s_at(lap, (1.0,), 1.0) == pytest.approx(-math.log(2) - 0.5)
    assert s_at(lap, (1.0,), -1.0) == pytest.approx(-math.log(2) - 0.5)
    for name in ALL:
        assert s_at(get_family(name), THETAS[name], 0.0) == 0.0


@pytest.mark.parametrize("name", ALL)
def test_s_values_match_pointwise(name):
    fam = get_family(name)
    theta = THETAS[name]
    lo = fam.support_lower(theta)
    xs = np.linspace(max(lo, -8.0), 20.0, 23)
    vec = fam.s_values(theta, xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(s_oracle(fam, theta, float(x)), rel=1e-9, abs=1e-9)
    assert np.all(vec <= 1e-12)


def test_normal_panel_paths_match_adaptive_reference():
    nrm = get_family("normal")
    xs = np.sort(nrm.draw((0.5, 2.0), 40, make_rng(7, 0)))
    assert xs[0] < 0 < xs[-1]
    g_sum = nrm.s_sum_fn(build_sample(xs))
    for theta in ((0.5, 2.0), (1.0, 4.0), (-0.5, 1.0)):
        ref = np.array([nrm.s_value(theta, x) for x in xs])
        assert nrm.s_values(theta, xs) == pytest.approx(ref, rel=1e-9, abs=1e-9)
        assert g_sum(theta) == pytest.approx(ref.sum(), rel=1e-9)


@pytest.mark.parametrize("name", ALL)
def test_h_decreasing_and_derivative_recovers_log_sf(name):
    fam = get_family(name)
    theta = THETAS[name]
    xs = np.linspace(0.5, 12.0, 8)
    h = [s_at(fam, theta, x) for x in xs]
    assert all(a >= b for a, b in zip(h, h[1:]))
    for x in xs:
        d = 5e-5 * max(x, 1.0)
        num = (s_at(fam, theta, x + d) - s_at(fam, theta, x - d)) / (2 * d)
        expect = log_sf(fam, theta, x)
        if name == "pareto" and abs(x - theta[1]) < 2 * d:
            continue      # kink at the support start
        assert num == pytest.approx(expect, rel=1e-6, abs=1e-8)


def test_u_decreasing_away_from_zero():
    for name in ("laplace", "normal"):
        fam = get_family(name)
        theta = THETAS[name]
        xs = np.linspace(-6.0, -0.5, 8)
        u = [s_at(fam, theta, x) for x in xs]
        assert all(a <= b for a, b in zip(u, u[1:]))


# ------------------------------------------------------------- d s / d theta

DS_CASES = [
    ("exponential", (2.0,), [0.0, 0.3, 1.7, 6.0]),
    ("laplace", (1.5,), [-4.0, -0.2, 0.0, 0.9, 5.0]),
    ("twoparamexp", (3.0, 2.0), [3.5, 4.0, 9.0]),
    ("twoparamexp", (-1.0, 0.7), [-0.8, -0.3, 0.4, 2.5]),    # the dilog branch
    ("pareto", (3.0, 5.0), [1.0, 5.5, 8.0, 30.0]),
]


@pytest.mark.parametrize("name,theta,xs", DS_CASES)
def test_ds_dtheta_matches_differences_of_s(name, theta, xs):
    fam = get_family(name)
    theta, xs = np.asarray(theta), np.asarray(xs)
    cols = []
    for j in range(theta.size):
        h = 1e-5 * max(abs(theta[j]), 1.0)
        step = h * np.eye(theta.size)[j]
        cols.append((fam.s_values(theta + step, xs) - fam.s_values(theta - step, xs))
                    / (2 * h))
    np.testing.assert_allclose(fam.ds_dtheta_matrix(theta, xs), np.column_stack(cols),
                               rtol=1e-8, atol=1e-14)


@pytest.mark.parametrize("theta", [(2.0, 3.0), (-0.5, 1.0), (0.0, 0.7)])
def test_normal_ds_dtheta_matches_exact_identities(theta):
    # d s/d mu is a difference of log Phi values; s is homogeneous of degree
    # 1 in (x, mu, sigma), so sigma d s/d sigma = s - x d s/d x - mu d s/d mu
    mu, sig = theta
    nrm = get_family("normal")
    xs = np.array([-4.0, -1.3, -0.2, 0.3, 1.7, 5.0])
    pos = xs >= 0
    ds_mu = np.where(pos, log_ndtr(mu / sig) - log_ndtr((mu - xs) / sig),
                     log_ndtr((xs - mu) / sig) - log_ndtr(-mu / sig))
    ds_x = np.where(pos, log_ndtr((mu - xs) / sig), -log_ndtr((xs - mu) / sig))
    ds_sig = (nrm.s_values(theta, xs) - xs * ds_x - mu * ds_mu) / sig
    np.testing.assert_allclose(nrm.ds_dtheta_matrix(theta, xs),
                               np.column_stack([ds_mu, ds_sig]), rtol=1e-8)


# ------------------------------------------------------- quantile / sampling

def test_quantile_values():
    assert get_family("exponential").quantile((2.0,), 0.5) == pytest.approx(
        math.log(2) / 2)
    assert get_family("pareto").quantile((2.0, 5.0), 1e-12) == pytest.approx(5.0)
    q = get_family("normal").quantile((0.0, 1.0), 0.975)
    assert q == pytest.approx(1.959964, abs=1e-6)


def test_normal_quantile_against_bisection_oracle():
    nrm = get_family("normal")
    for p in (0.975, 0.5, 0.123, 0.9999):
        lo, hi = -10.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(nrm.cdf((0.0, 1.0), mid)) < p:
                lo = mid
            else:
                hi = mid
        assert float(nrm.quantile((0.0, 1.0), p)) == pytest.approx(
            0.5 * (lo + hi), abs=1e-9)


def test_quantile_domain():
    with pytest.raises(DomainError):
        get_family("exponential").quantile((1.0,), 0.0)
    with pytest.raises(DomainError):
        get_family("normal").quantile((0.0, 1.0), 1.0)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("method", ["quantile", "isf"])
def test_nan_probability_raises(name, method):
    inverse = getattr(get_family(name), method)
    with pytest.raises(DomainError):
        inverse(THETAS[name], math.nan)
    with pytest.raises(DomainError):
        inverse(THETAS[name], np.array([0.25, math.nan, 0.75]))


@pytest.mark.parametrize("name", ALL)
def test_quantile_inverts_cdf(name):
    fam = get_family(name)
    theta = THETAS[name]
    ps = np.linspace(0.01, 0.99, 25)
    xs = np.asarray(fam.quantile(theta, ps), dtype=float)
    back = np.asarray(fam.cdf(theta, xs), dtype=float)
    assert np.abs(back - ps).max() < 1e-9


@pytest.mark.parametrize("name", ALL)
def test_isf_inverts_sf_into_the_far_tail(name):
    # relative accuracy where 1 - v rounds to 1 and quantile cannot reach
    fam = get_family(name)
    theta = THETAS[name]
    vs = np.array([1e-300, 1e-100, 1e-20, 1e-3, 0.3, 0.9])
    xs = np.asarray(fam.isf(theta, vs), dtype=float)
    assert np.all(np.diff(xs) < 0)
    back = np.asarray(fam.sf(theta, xs), dtype=float)
    assert np.abs(back / vs - 1.0).max() < 1e-12
    with pytest.raises(DomainError):
        fam.isf(theta, 0.0)


@pytest.mark.parametrize("name", ALL)
def test_sampling_golden_and_support(name):
    fam = get_family(name)
    xs = fam.draw(np.asarray(THETAS[name]), 3, make_rng(20250601, 0))
    assert xs.tolist() == pytest.approx(GOLDEN_TRIPLES[name], rel=0, abs=0)
    big = fam.draw(np.asarray(THETAS[name]), 500, make_rng(20250601, 1))
    assert np.all(big >= fam.support_lower(THETAS[name]))


def test_sampling_clt_exponential():
    lam = 4.0
    xs = get_family("exponential").draw((lam,), 10**6, make_rng(31, 0))
    se = 1.0 / (lam * 1000.0)
    assert abs(xs.mean() - 1 / lam) < 4 * se


# ---------------------------------------------------- closed-form estimators

def test_closed_form_exponential_worked_value():
    rng = make_rng(99, 0)
    base = get_family("exponential").draw((3.0,), 30, rng)
    xs = base * math.sqrt(0.2063127 / float((base**2).mean()))
    s = build_sample(xs)
    lam = get_family("exponential").closed_form(s)[0]
    assert lam == pytest.approx(3.113522, abs=1e-5)


def test_closed_form_laplace():
    s = build_sample([-1.0, 1.0])
    assert get_family("laplace").closed_form(s)[0] == pytest.approx(
        math.sqrt(0.5), abs=1e-12)


def test_closed_form_tpe_and_branch_grid():
    s = build_sample([1.0, 2.0, 3.0])
    mu, sig = get_family("twoparamexp").closed_form(s)
    assert sig == pytest.approx(math.sqrt(2 / 3), abs=1e-5)
    assert mu == pytest.approx(2.0 - math.sqrt(2 / 3), abs=1e-5)
    # the pair is the exact stationary point of the branch the formulas are
    # derived on: E|X| + mean((x - mu)^2) / (2 sigma)
    def branch_g(m, sg):
        return m + sg + (s.mean_sq - 2 * m * s.mean + m * m) / (2 * sg)
    eps = 1e-4
    center = branch_g(mu, sig)
    for dm in (-eps, 0.0, eps):
        for ds in (-eps, 0.0, eps):
            if dm or ds:
                assert branch_g(mu + dm, sig + ds) > center


def test_closed_form_exponential_negative_data():
    s = build_sample([-0.5, 1.0])
    with pytest.raises(DataError, match="negative data"):
        get_family("exponential").closed_form(s)


def test_closed_form_equivariance():
    rng = make_rng(40, 0)
    xs = get_family("exponential").draw((2.0,), 100, rng)
    lam1 = get_family("exponential").closed_form(build_sample(xs))[0]
    for c in (0.3, 2.0, 17.0):
        lam_c = get_family("exponential").closed_form(build_sample(c * xs))[0]
        assert lam_c == pytest.approx(lam1 / c, rel=1e-12)
    ys = get_family("twoparamexp").draw((3.0, 2.0), 100, rng)
    mu1, sg1 = get_family("twoparamexp").closed_form(build_sample(ys))
    for a, b in ((2.0, 1.5), (-4.0, 0.25)):
        mu2, sg2 = get_family("twoparamexp").closed_form(build_sample(a + b * ys))
        assert mu2 == pytest.approx(a + b * mu1, rel=1e-10, abs=1e-10)
        assert sg2 == pytest.approx(b * sg1, rel=1e-10)


def test_descriptors():
    for name in ALL:
        fam = get_family(name)
        assert fam.name == name
        assert len(fam.param_names) == len(fam.lower) == fam.dim
    assert get_family("exponential").has_hook("closed_form")
    assert not get_family("pareto").has_hook("closed_form")
    assert not get_family("normal").has_hook("closed_avar")
    theta = {"exponential": (2.0,), "laplace": (2.0,), "twoparamexp": (-1.5, 2.0),
             "pareto": (3.0, 2.5), "normal": (1.0, 2.0)}
    flags = {name: (fam.support_lower(theta[name]), fam.has_hook("closed_form"),
                    fam.has_hook("closed_avar"))
             for name, fam in zip(ALL, map(get_family, ALL))}
    assert flags == {"exponential": (0.0, True, True),
                     "laplace": (-math.inf, True, True),
                     "twoparamexp": (-1.5, True, True),
                     "pareto": (2.5, False, True),
                     "normal": (-math.inf, False, False)}


def renamed(name):
    """An instance of the family's class under another name."""
    cls = type(get_family(name))
    return type(f"Renamed{cls.__name__}", (cls,), {"name": f"{name}-renamed"})()


def test_dispatch_follows_the_class_not_the_name():
    for name, theta in (("exponential", (2.0,)), ("laplace", (1.5,))):
        got, want = avar_scalar(renamed(name), theta), avar_scalar(name, theta)
        assert got.source == want.source == "closed-form"
        assert got.sigma2 == want.sigma2
    for name, theta in (("twoparamexp", (3.0, 2.0)), ("pareto", (3.0, 5.0))):
        got, want = avar_matrix(renamed(name), theta, 50), avar_matrix(name, theta, 50)
        assert got.source == want.source == "closed-form"
        assert np.array_equal(got.V_n, want.V_n)

    s = build_sample(get_family("pareto").draw((3.0, 5.0), 200, make_rng(41, 0)))
    got, want = fit(renamed("pareto"), s), fit("pareto", s)
    assert got.method == want.method == "profile"
    assert got.params == want.params

    exp = renamed("exponential")
    s = build_sample(get_family("exponential").draw((2.0,), 60, make_rng(41, 1)))
    assert (divergence_interval(exp, s, fit(exp, s), 0.95)
            == divergence_interval("exponential", s, fit("exponential", s), 0.95))
    region = gddt_test(exp, s, 2.0, 0.05).region_mean_sq
    assert region is not None
    assert region == gddt_test("exponential", s, 2.0, 0.05).region_mean_sq

    # closed pair below zero on positive data: only the closed-pair rule warns
    s = build_sample([0.1, 0.2, 5.0])
    got, want = fit(renamed("twoparamexp"), s), fit("twoparamexp", s)
    assert got.params.values[0] < float(s.obs[0])
    assert got.support_warning and want.support_warning


EXP_NS = [30, 1000, 10**5, 10**7, 10**9]
CHI2S = (0.455, 3.84, 10.83)
FEW_ULP = 6 * np.finfo(float).eps


def _max_rel(got, want, mp):
    return max(abs(mp.mpf(g) - w) / w if w else abs(g) for g, w in zip(got, want))


@pytest.mark.parametrize("n", EXP_NS)
def test_exponential_test_region_within_a_few_ulp(n):
    # the region's mean-square endpoints are the squared roots of
    # a t^2 - b t + c, solved in 40-digit arithmetic from the same inputs
    mp = pytest.importorskip("mpmath")
    fam = get_family("exponential")
    with mp.workdps(40):
        for theta0 in (0.37, 2.0, 5.0):
            for chi2 in CHI2S:
                a = n * mp.mpf(theta0) ** 2
                b = 2 * mp.sqrt(2) * n * mp.mpf(theta0)
                c = 2 * mp.mpf(n) - mp.mpf(2.5) * mp.mpf(chi2)
                root = mp.sqrt(b * b - 4 * a * c)
                want = (max((b - root) / (2 * a), 0) ** 2, ((b + root) / (2 * a)) ** 2)
                got = fam.closed_test_region(theta0, n, chi2)
                assert _max_rel(got, want, mp) < FEW_ULP, (theta0, chi2)


@pytest.mark.parametrize("n", EXP_NS)
def test_exponential_divergence_interval_within_a_few_ulp(n):
    # for the Exponential and the Laplace alike, g(t) = a/t + b t + c and the
    # endpoints are the roots of b t^2 - (2 sqrt(ab) + d) t + a with
    # d = -log k, solved in 40-digit arithmetic from the same coefficients
    # and the cutoff the interval uses at this n
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for name in ("exponential", "laplace"):
            fam = get_family(name)
            for theta in (0.37, 2.0, 5.0):
                for spread in (0.8, 1.0, 1.3):
                    # the mean square at which the estimate is theta, spread
                    m = (2.0 / theta**2 if name == "exponential" else 2.0 * theta**2) * spread
                    sample = SimpleNamespace(k=0, mean_sq=m, mean_abs=math.sqrt(m))
                    a, b, _ = fam._coefficients(sample)
                    c_hat = fam.closed_c(fam.closed_form(sample), sample)
                    for chi2 in CHI2S:
                        log_k = -c_hat * chi2 / (2.0 * n)
                        ma, mb = mp.mpf(a), mp.mpf(b)
                        h = 2 * mp.sqrt(ma * mb) - mp.mpf(log_k)
                        root = mp.sqrt(h * h - 4 * ma * mb)
                        want = ((h - root) / (2 * mb), (h + root) / (2 * mb))
                        got = fam.closed_divergence_interval(sample, log_k)
                        assert _max_rel(got, want, mp) < FEW_ULP, (name, theta, spread, chi2)
