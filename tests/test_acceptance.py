"""Acceptance suite: one test per criterion, printed as a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here; the Monte Carlo checks are seeded and deterministic.
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from ckle import (ObjectiveContext, StudyConfig, avar_matrix, avar_scalar,
                  build_sample, divergence_interval, ecdf_eval,
                  empirical_entropy_constant, esf_eval, fit, g_objective,
                  gddt_test, gee_sum, get_family, make_rng, pivotal_q,
                  run_study, sandwich)

ALL = ["exponential", "laplace", "twoparamexp", "pareto", "normal"]
THETAS = {
    "exponential": (2.0,),
    "laplace": (1.5,),
    "twoparamexp": (3.0, 2.0),
    "pareto": (3.0, 5.0),
    "normal": (2.0, 3.0),
}


def report(num, text):
    print(f"\n[criterion {num}] PASS: {text}")


def draw(name, theta, n, seed, stream=0):
    return build_sample(get_family(name).draw(np.asarray(theta), n,
                                              make_rng(seed, stream)))


def test_criterion_01_worked_exponential_example():
    rng = make_rng(99, 0)
    base = get_family("exponential").draw((3.0,), 30, rng)
    xs = base * math.sqrt(0.2063127 / float((base**2).mean()))
    s = build_sample(xs)
    assert s.mean_sq == pytest.approx(0.2063127, abs=1e-12)
    res = fit("exponential", s)
    lam = res.params["lambda"]
    lam_u = 8 * 30 / (8 * 30 + 15) * lam
    ci = divergence_interval("exponential", s, res, 0.95)
    assert lam == pytest.approx(3.113522, abs=1e-5)
    assert lam_u == pytest.approx(2.930374, abs=1e-5)
    assert ci.cutoff_k == pytest.approx(0.9498908, abs=1e-5)
    assert ci.lower == pytest.approx(2.092375, abs=1e-5)
    assert ci.upper == pytest.approx(4.633022, abs=1e-5)
    report(1, f"lambda={lam:.6f}, lambda_u={lam_u:.6f}, "
              f"k={ci.cutoff_k:.7f}, CI=({ci.lower:.6f}, {ci.upper:.6f})")


def test_criterion_02_closed_forms_match_grid_minimization():
    rng = make_rng(200, 0)
    step, span = 1e-4, 20

    # Laplace: theta_hat = sqrt(mean_sq / 2), grid on the objective itself
    for case in range(50):
        th = float(rng.uniform(0.4, 3.0))
        n = int(rng.integers(40, 200))
        s = build_sample(get_family("laplace").draw((th,), n, rng))
        that = fit("laplace", s).params["theta"]
        grid = that + step * np.arange(-span, span + 1)
        vals = [g_objective("laplace", (t,), s) for t in grid]
        assert int(np.argmin(vals)) == span

    # Two-parameter exponential: the pair is the exact stationary point of
    # the branch surface its formulas are derived on, for every sample; on
    # samples where the fitted support start stays below the data minimum by
    # more than the grid radius, it also minimizes the empirical objective.
    checked_objective = 0
    for case in range(50):
        mu = float(rng.uniform(0.5, 4.0))
        sg = float(rng.uniform(0.5, 3.0))
        n = int(rng.integers(100, 600))
        s = build_sample(get_family("twoparamexp").draw((mu, sg), n, rng))
        res = fit("twoparamexp", s)
        mh, sh = res.params.values

        def branch_g(m, g_):
            return m + g_ + (s.mean_sq - 2 * m * s.mean + m * m) / (2 * g_)

        offsets = step * np.arange(-span, span + 1)
        vals = np.array([[branch_g(mh + dm, sh + ds) for ds in offsets]
                         for dm in offsets])
        assert np.unravel_index(vals.argmin(), vals.shape) == (span, span)

        margin = (span + 1) * step
        if (not res.support_warning and mh - margin > 0.0
                and float(s.obs[0]) - mh > margin):
            vals = np.array([[g_objective("twoparamexp", (mh + dm, sh + ds), s)
                              for ds in offsets] for dm in offsets])
            assert np.unravel_index(vals.argmin(), vals.shape) == (span, span)
            checked_objective += 1
    assert checked_objective >= 10
    report(2, f"50 Laplace and 50 TwoParamExp samples; grid step {step}; "
              f"{checked_objective} TwoParamExp samples also grid-checked on "
              f"the empirical objective")


def test_criterion_03_exponential_asymptotic_variance():
    n, lam = 200, 5.0
    rep = run_study(StudyConfig("exponential", (lam,), (n,), 10_000, seed=300))
    v_mckle = n * rep.row(n, "mckle", "lambda").variance
    v_mle = n * rep.row(n, "mle", "lambda").variance
    assert abs(v_mckle / 31.25 - 1) < 0.10
    assert abs(v_mle / 25.0 - 1) < 0.10
    report(3, f"n var(mckle)={v_mckle:.2f} (target 31.25 +-10%), "
              f"n var(mle)={v_mle:.2f} (target 25 +-10%)")


def test_criterion_04_twoparamexp_vector_asymptotics():
    n, mu, sg = 200, 3.0, 2.0
    reps = 10_000
    ests = np.empty((reps, 2))
    for r in range(reps):
        s = draw("twoparamexp", (mu, sg), n, 400, r)
        ests[r] = fit("twoparamexp", s).params.values
    dev = math.sqrt(n) * (ests - np.array([mu, sg]))
    C = np.cov(dev.T)
    target = sg**2 * np.array([[1.0, -1.0], [-1.0, 2.0]])
    err = np.abs(C / target - 1).max()
    assert err < 0.15
    report(4, f"empirical covariance {C.round(3).tolist()} vs "
              f"{target.tolist()}; max entry error {err:.1%} (< 15%)")


def test_criterion_05_pareto_profile_and_variance_matrix():
    worst = 0.0
    for r in range(100):
        s = draw("pareto", (3.0, 5.0), 1000, 500, r)
        res = fit("pareto", s)
        from ckle import solve_pareto_profile
        _, _, resid = solve_pareto_profile(s)
        worst = max(worst, resid)
        assert resid < 1e-10
        assert res.method == "profile" and res.converged
    a, b = 3.0, 5.0
    hand = np.array([[2 * a * (a - 1) ** 4, a * b * (a - 1) ** 2],
                     [a * b * (a - 1) ** 2, (b**2 / a) * (a * a - 2 * a + 2)]]
                    ) / ((a - 2) ** 3)
    got = avar_matrix("pareto", (a, b), 1).V_n
    assert np.array_equal(got, hand)
    report(5, f"100 profile fits, max residual {worst:.2e} (< 1e-10); "
              f"V matrix equals the hand-plugged form exactly")


def test_criterion_06_pivotal_quantity_is_chi_square():
    n, lam, reps = 500, 3.0, 10_000
    qs = np.empty(reps)
    for r in range(reps):
        s = draw("exponential", (lam,), n, 600, r)
        res = fit("exponential", s)
        qs[r] = pivotal_q("exponential", s, res, lam)
    qs.sort()
    cdf = erf(np.sqrt(qs / 2.0))
    hi = np.arange(1, reps + 1) / reps
    lo = np.arange(0, reps) / reps
    ks = max(np.abs(hi - cdf).max(), np.abs(lo - cdf).max())
    assert ks < 0.02
    report(6, f"KS distance of Q to chi-square(1): {ks:.4f} (< 0.02)")


def test_criterion_07_gddt_size_and_region_duality():
    n, lam0, alpha, reps = 200, 5.0, 0.05, 10_000
    rejections = 0
    for r in range(reps):
        s = draw("exponential", (lam0,), n, 700, r)
        res = gddt_test("exponential", s, lam0, alpha)
        lo, hi = res.region_mean_sq
        region_reject = (s.mean_sq > hi) or (s.mean_sq < lo)
        assert region_reject == res.reject
        rejections += res.reject
    rate = rejections / reps
    assert abs(rate - alpha) < 0.01
    report(7, f"empirical size {rate:.4f} (alpha 0.05 +- 0.01); "
              f"chi-square and closed-region decisions agree on all {reps} replicates")


@pytest.mark.slow
def test_criterion_08_figure_level_reproduction():
    sizes = tuple(range(10, 56, 5))

    rep = run_study(StudyConfig("exponential", (5.0,), sizes, 10_000, seed=800,
                                estimators=("mckle", "mckle_unbiased", "mle"),
                                threads=2))
    ratios_u = {n: rep.row(n, "mckle_unbiased", "lambda").ratio for n in sizes}
    assert all(0.97 <= v <= 1.03 for v in ratios_u.values()), ratios_u
    raw10 = rep.row(10, "mckle", "lambda").ratio
    mle10 = rep.row(10, "mle", "lambda").ratio
    assert abs(raw10 - 1) > abs(mle10 - 1)

    repn = run_study(StudyConfig("normal", (2.0, 3.0), sizes, 10_000, seed=801,
                                 threads=2))
    worst = 0.0
    for n in sizes:
        if n < 30:
            continue
        for param in ("mu", "sigma"):
            gap = abs(repn.row(n, "mckle", param).ratio
                      - repn.row(n, "mle", param).ratio)
            worst = max(worst, gap)
            assert gap < 0.02, (n, param, gap)
    assert all(repn.row(n, "mckle", "mu").failures == 0 for n in sizes)
    report(8, f"unbiased ratio range "
              f"[{min(ratios_u.values()):.4f}, {max(ratios_u.values()):.4f}] "
              f"inside [0.97, 1.03]; raw-vs-mle bias at n=10: "
              f"{abs(raw10-1):.4f} > {abs(mle10-1):.4f}; "
              f"max normal mckle-mle ratio gap for n>=30: {worst:.4f} (< 0.02)")


def test_criterion_09_invariant_suite():
    rng = make_rng(900, 0)

    # divergence nonnegativity: g(theta) >= mean|x| - C_n on randomized triples
    for case in range(1000):
        name = ALL[case % len(ALL)]
        fam = get_family(name)
        theta = np.asarray(THETAS[name], dtype=float)
        theta = theta * np.exp(rng.uniform(-0.8, 0.8, theta.size))
        if name in ("twoparamexp", "normal"):
            theta[0] = rng.uniform(-2.0, 4.0)
        s = build_sample(fam.draw(np.asarray(THETAS[name]),
                                  int(rng.integers(1, 50)), rng))
        bound = s.mean_abs - empirical_entropy_constant(s)
        assert g_objective(name, theta, s) >= bound - 1e-9 * max(1.0, abs(bound))

    # ecdf/esf complementarity
    for case in range(1000):
        vals = rng.normal(0, 2, int(rng.integers(1, 30)))
        if case % 3 == 0:
            vals = np.round(vals, 1)    # force ties
        s = build_sample(vals)
        x = float(rng.uniform(-6, 6))
        assert ecdf_eval(s, x) + esf_eval(s, x) == 1.0

    # estimating-equation sum equals n times the numeric gradient
    for case in range(1000):
        name = ALL[case % len(ALL)]
        fam = get_family(name)
        theta = np.asarray(THETAS[name], dtype=float) * float(rng.uniform(0.8, 1.25))
        s = build_sample(fam.draw(np.asarray(THETAS[name]),
                                  int(rng.integers(5, 40)), rng))
        if name == "pareto":
            theta[1] = min(theta[1], 0.9 * float(s.obs[0]))
        lhs = gee_sum(name, theta, s)
        rhs = s.n * ObjectiveContext(name, s).gradient(theta)
        assert np.abs(lhs - rhs).max() <= 1e-6 * (1.0 + np.abs(rhs).max())

    # sandwich agreement with the closed/quadrature limits at n = 1e4
    # (pareto at shape 6 so the fourth moments behind J exist)
    sandwich_cases = [("exponential", (2.0,), 0), ("laplace", (1.5,), 1),
                      ("twoparamexp", (3.0, 2.0), 2), ("pareto", (6.0, 2.0), 3),
                      ("normal", (2.0, 3.0), 4)]
    for name, theta, stream in sandwich_cases:
        n = 10_000
        s = draw(name, theta, n, 5, stream)
        res = fit(name, s)
        sw = sandwich(name, res, s)
        if get_family(name).dim == 1:
            lim = avar_scalar(name, res.params.values).sigma2
            assert abs(n * sw.V_hat[0, 0] / lim - 1) < 0.15, name
        else:
            lim = avar_matrix(name, res.params.values, n).V_n * n
            scale = np.sqrt(np.outer(np.diag(lim), np.diag(lim)))
            err = np.abs(n * sw.V_hat - lim) / np.maximum(np.abs(lim), scale)
            assert err.max() < 0.15, (name, err)

    # equivariance of the closed forms
    for case in range(1000):
        n = int(rng.integers(5, 60))
        xs = get_family("exponential").draw((2.0,), n, rng)
        lam = get_family("exponential").closed_form(build_sample(xs))[0]
        c = float(rng.uniform(0.2, 8.0))
        lam_c = get_family("exponential").closed_form(build_sample(c * xs))[0]
        assert lam_c == pytest.approx(lam / c, rel=1e-10)
        ys = get_family("twoparamexp").draw((3.0, 2.0), n, rng)
        mu1, sg1 = get_family("twoparamexp").closed_form(build_sample(ys))
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 5.0))
        mu2, sg2 = get_family("twoparamexp").closed_form(build_sample(a + b * ys))
        assert mu2 == pytest.approx(a + b * mu1, rel=1e-9, abs=1e-9)
        assert sg2 == pytest.approx(b * sg1, rel=1e-9)

    report(9, "nonnegativity bound, complementarity, gee = n grad g, "
              "sandwich within 15% at n=1e4, and equivariance: 1000 cases each")
