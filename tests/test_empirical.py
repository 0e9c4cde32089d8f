import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ckle import (DataError, ParseError, build_sample, ecdf_eval, esf_eval,
                  empirical_entropy_constant, make_rng)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
samples = st.lists(finite_floats, min_size=1, max_size=60)


def brute_ecdf(values, x):
    return sum(1 for v in values if v <= x) / len(values)


def test_build_sample_basic():
    s = build_sample([3.0, -1.0, 2.0])
    assert s.obs.tolist() == [-1.0, 2.0, 3.0]
    assert s.n == 3 and s.k == 1
    assert s.mean == pytest.approx(4 / 3)
    assert s.mean_abs == pytest.approx(2.0)
    assert s.mean_sq == pytest.approx(14 / 3)
    assert s.mean_xlogx is None


def test_build_sample_singleton():
    s = build_sample([5.0])
    assert s.obs.tolist() == [5.0] and s.k == 0
    assert s.mean == 5.0 and s.mean_sq == 25.0
    assert s.mean_xlogx == pytest.approx(5 * math.log(5))


def test_build_sample_errors():
    with pytest.raises(DataError, match="empty sample"):
        build_sample([])
    with pytest.raises(DataError, match="non-finite observation at index 2"):
        build_sample([1.0, 2.0, math.nan])
    with pytest.raises(DataError, match="non-finite observation at index 0"):
        build_sample([math.inf, 2.0])


def test_ingestion_errors_are_parse_errors():
    for raw in ([], [1.0, math.nan]):
        with pytest.raises(ParseError):
            build_sample(raw)
    assert issubclass(ParseError, DataError)


def test_overflowing_moments_are_data_errors():
    # exponential data near 1e200 and Laplace data at +-1e155 overflow the
    # mean of squares, which would otherwise reach the fit as lambda = 0
    for raw in ([1e200, 2e200, 3e200], [-1e155, 2e155, 1e155]):
        with pytest.raises(DataError, match="moments overflow") as exc:
            build_sample(raw)
        assert not isinstance(exc.value, ParseError)


def test_sample_immutable():
    s = build_sample([1.0, 2.0])
    with pytest.raises(ValueError):
        s.obs[0] = 7.0


def test_ecdf_step_values():
    s = build_sample([1.0, 2.0, 3.0])
    assert ecdf_eval(s, 2.5) == pytest.approx(2 / 3)
    assert ecdf_eval(s, 0.0) == 0.0
    assert ecdf_eval(s, 3.0) == 1.0
    assert ecdf_eval(s, 1.0) == pytest.approx(1 / 3)   # right-continuous


def test_ecdf_ties_against_brute_force():
    s = build_sample([1.0, 1.0, 3.0])
    assert ecdf_eval(s, 1.0) == pytest.approx(brute_ecdf([1, 1, 3], 1.0)) == pytest.approx(2 / 3)


def test_esf_values():
    s = build_sample([1.0, 2.0, 3.0])
    assert esf_eval(s, 2.5) == pytest.approx(1 / 3)
    assert esf_eval(s, -5.0) == 1.0


def test_entropy_constant_examples():
    assert empirical_entropy_constant(build_sample([0.0, 1.0])) == pytest.approx(
        0.5 * math.log(0.5), abs=1e-12)
    assert empirical_entropy_constant(build_sample([2.0])) == 0.0
    assert empirical_entropy_constant(build_sample([-1.0, 1.0])) == pytest.approx(
        math.log(0.5), abs=1e-12)


def test_entropy_constant_against_step_quadrature():
    # independent oracle: Riemann sum of the step integrand via ecdf/esf
    # evaluated at panel midpoints between consecutive knots
    rng = make_rng(101, 0)
    for _ in range(20):
        vals = rng.normal(0.5, 2.0, rng.integers(1, 15))
        s = build_sample(vals)
        knots = np.unique(np.concatenate((s.obs, [0.0])))
        total = 0.0
        for a, b in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (a + b)
            v = ecdf_eval(s, mid) if b <= 0 else esf_eval(s, mid)
            total += (b - a) * (v * math.log(v) if v > 0 else 0.0)
        assert empirical_entropy_constant(s) == pytest.approx(total, abs=1e-10)


@given(samples, finite_floats)
def test_complementarity_exact(values, x):
    s = build_sample(values)
    assert ecdf_eval(s, x) + esf_eval(s, x) == 1.0


@given(samples)
def test_monotone_step_functions(values):
    s = build_sample(values)
    lo = min(values) - 1.0
    hi = max(values) + 1.0
    grid = np.linspace(lo, hi, 50)
    f = [ecdf_eval(s, x) for x in grid]
    assert all(a <= b for a, b in zip(f, f[1:]))
    sf = [esf_eval(s, x) for x in grid]
    assert all(a >= b for a, b in zip(sf, sf[1:]))


@given(samples)
def test_entropy_constant_nonpositive(values):
    s = build_sample(values)
    c = empirical_entropy_constant(s)
    assert c <= 1e-15
    if s.n == 1 or s.obs[0] == s.obs[-1]:
        assert c == 0.0
    elif s.obs[0] != s.obs[-1]:
        assert c < 0.0


def test_ecdf_brute_force_randomized():
    rng = make_rng(202, 0)
    for rep in range(10):
        n = int(rng.integers(1, 40))
        vals = np.round(rng.normal(0, 3, n), 1)    # rounding forces ties
        s = build_sample(vals)
        qs = rng.uniform(-10, 10, 100)
        for q in qs:
            assert ecdf_eval(s, q) == pytest.approx(brute_ecdf(vals.tolist(), q))
