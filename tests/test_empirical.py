import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ckle import (DataError, ParseError, build_sample, ecdf_eval, esf_eval,
                  empirical_entropy_constant, make_rng)
from ckle.empirical import build_samples

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


def test_build_sample_singleton():
    s = build_sample([5.0])
    assert s.obs.tolist() == [5.0] and s.k == 0
    assert s.mean == 5.0 and s.mean_sq == 25.0


def test_build_sample_errors():
    with pytest.raises(DataError, match="empty sample"):
        build_sample([])
    with pytest.raises(ParseError, match="empty sample"):
        build_samples(np.empty((3, 0)))
    with pytest.raises(DataError, match="non-finite observation at index 2"):
        build_sample([1.0, 2.0, math.nan])
    with pytest.raises(DataError, match="non-finite observation at index 0"):
        build_sample([math.inf, 2.0])
    # the index in input order, also where the squares overflow first, or
    # where the sorted order moves the bad value
    for raw, i in (([1e200, math.nan], 1), ([-math.inf, 1.0], 0),
                   ([3.0, -1.0, math.inf, math.nan, -math.inf], 2)):
        with pytest.raises(ParseError, match=f"non-finite observation at index {i}$"):
            build_sample(raw)
    # not one row of numbers: a 2-D input was flattened, a string escaped
    # as numpy's ValueError, and a bool was read as 1.0
    for raw in ([[1.0, 2.0], [3.0, 4.0]], "abc", [1.0, "x"], None, True, [True, False]):
        with pytest.raises(ParseError, match="^observations must be numbers, got "):
            build_sample(raw)


def test_ingestion_errors_are_parse_errors():
    for raw in ([], [1.0, math.nan]):
        with pytest.raises(ParseError):
            build_sample(raw)
    assert issubclass(ParseError, DataError)


def test_overflowing_moments_are_data_errors():
    # exponential data near 1e200 and Laplace data at +-1e155 overflow the
    # mean of squares, which would otherwise reach the fit as lambda = 0
    for raw in ([1e200, 2e200, 3e200], [-1e155, 2e155, 1e155], [1e200, 2e200]):
        with pytest.raises(DataError, match="moments overflow") as exc:
            build_sample(raw)
        assert not isinstance(exc.value, ParseError)


def _hex(value):
    return float(value).hex()


# any finite magnitude and sign, or positive values spread over every decade
# in which the squares stay finite
unscaled = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=60)
positive = st.lists(st.floats(min_value=5e-324, max_value=1e154),
                    min_size=1, max_size=60)
# signed zeros among subnormals and values near zero
near_zero = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                               st.floats(min_value=-1e-300, max_value=1e-300)),
                     min_size=1, max_size=60)


@given(st.one_of(samples, unscaled, positive, near_zero))
@example([-0.0, 0.0, 1.0])
@example([-0.0] * 3)
@example([0.0, 2.0])
@example([-0.0, 5e-324])
def test_moments_are_bitwise_the_ndarray_means(values):
    obs = np.sort(np.asarray(values, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        old = (float(obs.mean()), float(np.abs(obs).mean()), float((obs * obs).mean()))
    if not all(math.isfinite(m) for m in old):
        with pytest.raises(DataError, match="moments overflow"):
            build_sample(values)
        return
    s = build_sample(values)
    assert [_hex(m) for m in (s.mean, s.mean_abs, s.mean_sq)] == [
        _hex(m) for m in old]
    assert s.k == int(np.searchsorted(obs, 0.0, side="left"))


@given(st.lists(st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf])),
                min_size=1, max_size=30))
def test_errors_follow_the_scan_first_rule(values):
    # the rule the sums must reproduce: the first non-finite value in input
    # order is a ParseError; otherwise an overflowing moment is a DataError
    arr = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(arr))
    obs = np.sort(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = not all(math.isfinite(float(m.sum())) for m in (obs, np.abs(obs), obs * obs))
    if bad.size:
        with pytest.raises(ParseError, match=f"non-finite observation at index {bad[0]}$"):
            build_sample(values)
    elif overflow:
        with pytest.raises(DataError, match="moments overflow"):
            build_sample(values)
    else:
        assert build_sample(values).n == len(values)


# signed magnitudes from 1e-300 to 1e150, and a few values that tie
magnitudes = st.builds(lambda sign, m, e: sign * m * 10.0 ** e,
                       st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0),
                       st.integers(-300, 150))
row_values = st.one_of(magnitudes, st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300]))
bad_values = st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200, 1e160])


@st.composite
def row_arrays(draw, elements):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rows = draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=m, max_size=m))
    return np.array(rows, dtype=float)


def _fields(s):
    # every Sample field, bit for bit: the sorted values with their signs
    # of zero, and each count and moment with its type
    return (s.obs.dtype, s.obs.tobytes(), s.obs.flags.writeable,
            type(s.n), s.n, type(s.k), s.k,
            *(type(m).__name__ + m.hex() for m in (s.mean, s.mean_abs, s.mean_sq)))


@given(row_arrays(row_values))
@example(np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -0.0], [5e-324, -0.0, 0.0]]))
@example(np.array([[3.0], [-0.0], [1e150]]))
def test_rows_builder_is_build_sample_of_each_row(rows):
    # also on a column slice of a wider array, as a study's sizes are
    wide = np.concatenate([rows[:, ::-1], rows], axis=1)
    for view in (rows, wide[:, rows.shape[1]:]):
        got = build_samples(view)
        assert [_fields(s) for s in got] == [_fields(build_sample(row)) for row in rows]


def _first_error(rows):
    for row in rows:
        try:
            build_sample(row)
        except DataError as exc:
            return type(exc), str(exc)
    return None


@given(row_arrays(st.one_of(row_values, bad_values)))
@example(np.array([[1.0, 2.0], [1e200, math.nan], [math.inf, 1.0]]))
@example(np.array([[1.0, 2.0], [1e200, 2e200], [math.inf, 1.0]]))
def test_rows_builder_raises_what_build_sample_raises_on_the_first_bad_row(rows):
    want = _first_error(rows)
    if want is None:
        assert len(build_samples(rows)) == len(rows)
        return
    with pytest.raises(DataError) as exc:
        build_samples(rows)
    assert (type(exc.value), str(exc.value)) == want


@given(st.lists(row_arrays(st.one_of(row_values, bad_values)), min_size=1, max_size=4))
@example([np.array([[1.0, 2.0], [3.0, -0.0]]), np.array([[5.0], [-2.0], [0.0]])])
@example([np.array([[1.0, 2.0]]), np.array([[1e200], [math.nan]]), np.array([[math.inf]])])
def test_batch_of_several_sizes_is_build_sample_of_each_row(blocks):
    rows = [row for b in blocks for row in b]
    want = _first_error(rows)
    if want is not None:
        with pytest.raises(DataError) as exc:
            build_samples(*blocks)
        assert (type(exc.value), str(exc.value)) == want
        return
    batches = [build_samples(*blocks)]
    if len({len(b) for b in blocks}) == 1:
        # also as column slices of one wide array, as a study's sizes are
        wide = np.concatenate(blocks, axis=1)
        cuts = np.cumsum([0] + [b.shape[1] for b in blocks]).tolist()
        batches.append(build_samples(*(wide[:, a:c] for a, c in zip(cuts[:-1], cuts[1:]))))
    want_fields = [_fields(build_sample(row)) for row in rows]
    for got in batches:
        assert len(got) == len(rows)
        assert got.n.tolist() == [len(row) for row in rows]
        assert [_fields(s) for s in got] == want_fields


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
    # NaN sorts last, so searchsorted alone gave F_n(NaN) = 1
    assert math.isnan(ecdf_eval(s, math.nan)) and math.isnan(esf_eval(s, math.nan))
    # an array of points gives the array of values
    np.testing.assert_array_equal(ecdf_eval(s, np.array([[0.0, 1.0], [3.0, math.nan]])),
                                  [[0.0, 1 / 3], [1.0, math.nan]])


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
