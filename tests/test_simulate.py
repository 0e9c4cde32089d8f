import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import spearmanr

from ckle import (CkleError, DataError, DomainError, InferenceError, StudyConfig,
                  avar_scalar, bias_check_exponential, build_sample, coverage_study,
                  divergence_interval, divergence_region_cutoffs, fit, g_objective,
                  get_family, make_rng, run_study, simulate, wald_ci)
from ckle.empirical import build_samples


def test_mle_formulas():
    exp = get_family("exponential")
    s = build_sample(exp.draw((5.0,), 40, make_rng(1, 0)))
    target = 1.0 / s.mean
    assert exp.mle(s)[0] == pytest.approx(target)
    s2 = build_sample([0.0, 2.0])
    mu, sig = get_family("normal").mle(s2)
    assert (mu, sig) == (1.0, 1.0)
    s3 = build_sample([1.0, 2.0, 4.0])
    mu, sg = get_family("twoparamexp").mle(s3)
    assert mu == 1.0 and sg == pytest.approx(7 / 3 - 1)
    a, b = get_family("pareto").mle(s3)
    assert b == 1.0
    assert a == pytest.approx(3 / (math.log(2) + math.log(4)))
    s4 = build_sample([-2.0, 1.0, 3.0])
    assert get_family("laplace").mle(s4)[0] == pytest.approx(2.0)


def test_study_config_validation():
    with pytest.raises(DomainError):
        StudyConfig("exponential", (5.0,), (10,), 0, 1)
    with pytest.raises(DomainError):
        StudyConfig("exponential", (5.0,), (), 10, 1)
    with pytest.raises(DomainError):
        StudyConfig("normal", (2.0, 3.0), (10,), 10, 1,
                    estimators=("mckle_unbiased",))
    with pytest.raises(DomainError):
        StudyConfig("exponential", (5.0,), (10,), 10, 1, estimators=("ols",))
    for threads in (0, -1):
        with pytest.raises(DomainError, match="threads must be >= 1"):
            StudyConfig("exponential", (5.0,), (10,), 10, 1, threads=threads)


def test_run_study_deterministic_bytes_and_thread_independent():
    cfg = StudyConfig("exponential", (5.0,), (10, 20), 50, seed=42)
    a = run_study(cfg).to_csv()
    b = run_study(cfg).to_csv()
    assert a == b
    c = run_study(StudyConfig("exponential", (5.0,), (10, 20), 50, seed=42,
                              threads=2)).to_csv()
    assert a == c


def _per_size_chunk(args):
    # the reference loop: one draw call per (replicate, size), and each
    # cell's values written into a NaN-filled array
    family, theta, sizes, cells, width, seed, start, stop = args
    out = np.full((stop - start, len(sizes), len(cells), width), np.nan)
    for i, r in enumerate(range(start, stop)):
        rng = make_rng(seed, r)
        for si, n in enumerate(sizes):
            sample = build_sample(family.draw(theta, n, rng))
            for ci, cell in enumerate(cells):
                try:
                    out[i, si, ci, :] = cell(family, sample)
                except CkleError:
                    pass
    return out


def _hex_rows(report):
    return [(r.size, r.estimator, r.param, r.mean.hex(), r.ratio.hex(),
             r.variance.hex(), r.failures) for r in report.rows]


STUDY_TRUTH = {"exponential": (5.0,), "laplace": (2.0,), "twoparamexp": (1.0, 2.0),
               "pareto": (4.0, 2.0), "normal": (2.0, 3.0)}


@pytest.mark.parametrize("name", sorted(STUDY_TRUTH))
def test_block_draws_match_per_size_draws_bitwise(name, monkeypatch):
    theta = STUDY_TRUTH[name]
    configs = [
        # the criterion-8 grid, one block
        dict(sizes=tuple(range(10, 56, 5)), replicates=4 if name == "normal" else 30),
        # large and small sizes in one block of 9130 values
        dict(sizes=(10, 4000, 100, 5000, 20), replicates=3, estimators=("mle",)),
        # size 1 fails every fit of the Normal and the Pareto
        dict(sizes=(1, 10, 1), replicates=5),
        # 70,000 values exceed the budget, so one block per size
        dict(sizes=(40000, 30000), replicates=2, estimators=("mle",)),
    ]
    for kwargs in configs:
        cfg = StudyConfig(name, theta, seed=801, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_replicate_chunk", _per_size_chunk)
            want = _hex_rows(run_study(cfg))
        assert _hex_rows(run_study(cfg)) == want
        threaded = StudyConfig(name, theta, seed=801, threads=2, **kwargs)
        assert _hex_rows(run_study(threaded)) == want


def _replicate_loop_chunk(args):
    # the replicate-by-replicate reference: each replicate draws its blocks
    # from its own stream, slices them into sizes, builds each sample alone
    # and runs the cells on it
    family, theta, sizes, cells, width, seed, start, stop = args
    out = np.full((stop - start, len(sizes), len(cells), width), np.nan)
    for i, r in enumerate(range(start, stop)):
        rng = make_rng(seed, r)
        for first, last, total in simulate._size_blocks(sizes):
            xs = family.draw(theta, total, rng)
            offset = 0
            for si in range(first, last):
                sample = build_sample(xs[offset:offset + sizes[si]])
                offset += sizes[si]
                for ci, cell in enumerate(cells):
                    try:
                        out[i, si, ci, :] = cell(family, sample)
                    except CkleError:
                        pass
    return out


@pytest.mark.parametrize("name", sorted(STUDY_TRUTH))
def test_grouped_engine_matches_the_replicate_loop_bitwise(name, monkeypatch):
    theta = STUDY_TRUTH[name]
    # the Normal's simplex is slow, so its larger studies take the MLE only
    many = ("mle",) if name == "normal" else ("mckle", "mle")
    configs = [
        # the criterion-8 grid: 201 replicates fill a group, so two groups
        dict(sizes=tuple(range(10, 56, 5)), replicates=250, estimators=many),
        # one draw block; 13 replicates fill a group, so four groups
        dict(sizes=(3000, 2000), replicates=45, estimators=many),
        dict(sizes=tuple(range(10, 56, 5)), replicates=3),
    ]
    for kwargs in configs:
        cfg = StudyConfig(name, theta, seed=801, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_replicate_chunk", _replicate_loop_chunk)
            want = _hex_rows(run_study(cfg))
        assert _hex_rows(run_study(cfg)) == want
        threaded = StudyConfig(name, theta, seed=801, threads=2, **kwargs)
        assert _hex_rows(run_study(threaded)) == want
        # groups of one and of two replicates, with a shorter last group
        for bound in (1, 700):
            with monkeypatch.context() as m:
                m.setattr(simulate, "_GROUP_VALUES", bound)
                assert _hex_rows(run_study(cfg)) == want


def _coverage_loop(name, params, n, reps, level, kind, seed):
    # the reference: the per-replicate loop coverage_study ran on its own
    family = get_family(name)
    theta = family.validate(params)
    true_val = float(theta[0])
    hits = failures = 0
    for r in range(reps):
        sample = build_sample(family.draw(theta, n, make_rng(seed, r)))
        try:
            res = fit(family, sample)
            if kind == "wald":
                ci = wald_ci(res, avar_scalar(family, res.params.values).sigma2, level)
            else:
                ci = divergence_interval(family, sample, res, level)
            hits += int(ci.lower <= true_val <= ci.upper)
        except CkleError:
            failures += 1
    used = reps - failures
    p = hits / used
    return p.hex(), math.sqrt(p * (1.0 - p) / used).hex(), failures


@pytest.mark.parametrize("name", ["exponential", "laplace"])
@pytest.mark.parametrize("kind", ["wald", "divergence"])
def test_coverage_study_matches_the_per_replicate_loop_bitwise(name, kind):
    for n in (5, 40):
        args = (name, STUDY_TRUTH[name], n, 200, 0.9, kind, 61)
        rep = coverage_study(*args)
        assert (rep.covered.hex(), rep.standard_error.hex(), rep.failures) == \
            _coverage_loop(*args)


def _region_loop(name, theta_true, n, reps, levels, seed):
    # the reference: the per-replicate loop divergence_region_cutoffs ran
    # on its own, which also counted a build_sample error as a failure
    family = get_family(name)
    gaps, failures = [], 0
    for r in range(reps):
        xs = family.draw(theta_true, n, make_rng(seed, r))
        try:
            sample = build_sample(xs)
            res = fit(family, sample)
            if not res.converged:
                raise InferenceError("fit did not converge")
            gaps.append(g_objective(family, theta_true, sample) - res.g_at_opt)
        except CkleError:
            failures += 1
    gaps.sort()
    used = len(gaps)
    cutoffs = [gaps[min(math.ceil(lv * used), used) - 1].hex() for lv in levels]
    return cutoffs, used, failures


@pytest.mark.parametrize("name,n", [("twoparamexp", 30), ("pareto", 30), ("normal", 2)])
def test_region_cutoffs_match_the_per_replicate_loop_bitwise(name, n):
    # the Normal fails one fit of these 100 at n = 2
    levels = (0.9, 0.5, 0.1)
    rc = divergence_region_cutoffs(name, STUDY_TRUTH[name], n, 100, levels, 71)
    want = _region_loop(name, STUDY_TRUTH[name], n, 100, levels, 71)
    assert ([c.hex() for c in rc.cutoffs], rc.used, rc.failures) == want
    assert rc.failures == (1 if name == "normal" else 0)


@pytest.mark.parametrize("name,theta,estimators", [
    ("exponential", (5.0,), ("mckle", "mckle_unbiased", "mle")),
    ("laplace", (2.0,), ("mckle", "mle"))])
def test_study_rows_do_not_depend_on_the_moment_g(name, theta, estimators, monkeypatch):
    # study estimates do not read g, so the rows are bitwise those of the
    # per-element evaluator
    from ckle.models import Family
    cfg = StudyConfig(name, theta, (1, 10, 55), 40, 801, estimators=estimators)
    lean = run_study(cfg).to_csv()
    monkeypatch.setattr(type(get_family(name)), "g_fn", Family.g_fn)
    assert run_study(cfg).to_csv() == lean


def test_bias_check_is_the_study_mckle_row():
    rep = bias_check_exponential(5.0, 20, 300, seed=4)
    row = run_study(StudyConfig("exponential", (5.0,), (20,), 300, 4,
                                estimators=("mckle",))).row(20, "mckle", "lambda")
    assert rep.mean_mckle == row.mean and rep.bias == row.mean - 5.0
    assert rep.mean_unbiased == 160 / 175 * row.mean


def test_bias_check_raises_on_a_failed_replicate(monkeypatch):
    # the study fits its 50 replicates in one group call; the third one fails
    family = get_family("exponential")
    original = type(family).fit_rows
    calls = []

    def failing_third_fit(self, samples):
        calls.append(len(samples))
        (values,) = original(self, samples)
        values = values.copy()
        values[2] = math.nan
        return (values,)

    monkeypatch.setattr(type(family), "fit_rows", failing_third_fit)
    with pytest.raises(InferenceError, match="1 of 50 replicate fits failed"):
        bias_check_exponential(5.0, 20, 50, seed=4)
    assert calls == [50]


def test_study_moments_beyond_the_doubles_are_inf_without_a_warning():
    # the mle of Exponential data near 1e-160 is near 1e160, so its
    # replicates' variance is past the largest double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_study(StudyConfig("exponential", (1e160,), (3, 10), 15, seed=1))
    for n in (3, 10):
        row = rep.row(n, "mle", "lambda")
        assert row.failures == 0 and math.isfinite(row.mean)
        assert row.variance == math.inf


def test_zero_truth_ratio_is_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, theta in (("normal", (0.0, 1.0)), ("twoparamexp", (0.0, 2.0))):
            rep = run_study(StudyConfig(name, theta, (5,), 3, seed=1))
            for est in ("mckle", "mle"):
                mu = rep.row(5, est, "mu")
                assert math.isfinite(mu.mean) and math.isnan(mu.ratio)
                assert mu.variance > 0 and mu.failures == 0
                assert math.isfinite(rep.row(5, est, "sigma").ratio)


def _per_column_rows(cfg):
    # the reference aggregation: each (size, estimator, parameter) column
    # of the engine's estimates reduced alone
    family = get_family(cfg.family)
    theta = family.validate(cfg.params)
    cells = tuple(simulate._cell(est, family) for est in cfg.estimators)
    R = cfg.replicates
    estimates = simulate._replicate_chunk(
        (family, theta, cfg.sizes, cells, family.dim, cfg.seed, 0, R))
    rows = []
    with np.errstate(over="ignore"):
        for si, n in enumerate(cfg.sizes):
            for ei, est in enumerate(cfg.estimators):
                block = estimates[:, si, ei, :]
                ok = np.all(np.isfinite(block), axis=1)
                vals = block[ok]
                for pi, pname in enumerate(family.param_names):
                    col = vals[:, pi]
                    if col.size:
                        mean = float(col.mean())
                        truth = float(theta[pi])
                        ratio = mean / truth if truth != 0.0 else math.nan
                        var = float(col.var(ddof=1)) if col.size > 1 else 0.0
                    else:
                        mean = ratio = var = math.nan
                    rows.append((n, est, pname, mean.hex(), ratio.hex(), var.hex(),
                                 int(R - ok.sum())))
    return rows


def test_aggregation_with_failures_is_the_per_column_loop_bitwise(monkeypatch):
    # n = 10: every third row from row 2 fails; n = 20: only row 0 succeeds (variance 0);
    # n = 30: every row fails (a NaN row); n = 40 and the mle: no failure
    family = get_family("exponential")
    original = type(family).fit_rows

    def failing_fits(self, samples):
        (values,) = original(self, samples)
        values = values.copy()
        if samples.n == 10:
            values[2::3] = math.nan
        elif samples.n == 20:
            values[1:] = math.nan
        elif samples.n == 30:
            values[:] = math.nan
        return (values,)

    monkeypatch.setattr(type(family), "fit_rows", failing_fits)
    for R in (1, 2, 7, 60, 300):
        cfg = StudyConfig("exponential", (5.0,), (10, 20, 30, 40), R, seed=801,
                          estimators=("mckle", "mle"))
        want = _per_column_rows(cfg)
        assert _hex_rows(run_study(cfg)) == want
        if R == 60:
            assert [row[-1] for row in want] == [20, 0, 59, 0, 60, 0, 0, 0]


@pytest.mark.parametrize("name,theta,sizes,R", [
    ("normal", (2.0, 3.0), (1, 10, 2), 5),         # size 1 fails every fit
    ("normal", (2.0, 3.0), (1,), 3),               # no failure-free column
    ("pareto", (4.0, 2.0), (1, 10, 25), 40),
    ("twoparamexp", (0.0, 2.0), (5, 15), 1),      # a zero truth: NaN ratio
    ("exponential", (1e160,), (3, 10), 15),        # variance past the doubles
    ("laplace", (2.0,), tuple(range(10, 56, 5)), 257)])
def test_aggregation_is_the_per_column_loop_bitwise(name, theta, sizes, R):
    cfg = StudyConfig(name, theta, sizes, R, seed=801)
    assert _hex_rows(run_study(cfg)) == _per_column_rows(cfg)


def test_size_blocks_are_bounded():
    # all sizes in one block up to the budget, one block per size beyond it
    budget = simulate._GROUP_VALUES
    assert budget == 2**16
    assert simulate._size_blocks((budget,)) == [(0, 1, budget)]
    assert simulate._size_blocks((budget - 100, 99, 1)) == [(0, 3, budget)]
    assert simulate._size_blocks((budget - 100, 100, 1)) == [
        (0, 1, budget - 100), (1, 2, 100), (2, 3, 1)]
    assert simulate._size_blocks((budget + 1,)) == [(0, 1, budget + 1)]
    assert simulate._size_blocks(tuple(range(10, 56, 5))) == [(0, 10, 325)]


def test_one_draw_per_block_and_replicate(monkeypatch):
    # each replicate reads its block of uniforms from its own stream, and
    # one quantile call maps a group's (replicates x block) array
    family = get_family("exponential")
    uniforms, quantiles = [], []
    original_uniform, original_quantile = simulate.uniform_open, type(family).quantile

    def counting_uniform(rng, size):
        uniforms.append(size)
        return original_uniform(rng, size)

    def counting_quantile(self, theta, p):
        quantiles.append(p.shape)
        return original_quantile(self, theta, p)

    monkeypatch.setattr(simulate, "uniform_open", counting_uniform)
    monkeypatch.setattr(type(family), "quantile", counting_quantile)
    cfg = StudyConfig("exponential", (5.0,), tuple(range(10, 56, 5)), 7, seed=1)
    run_study(cfg)
    assert uniforms == [325] * 7
    assert quantiles == [(7, 325)]
    # groups of two replicates, the last one short
    uniforms.clear(), quantiles.clear()
    monkeypatch.setattr(simulate, "_GROUP_VALUES", 700)
    run_study(cfg)
    assert uniforms == [325] * 7
    assert quantiles == [(2, 325)] * 3 + [(1, 325)]


def test_block_draw_memory_stays_at_the_largest_size():
    # without the block bound this grid would draw 210,000 values at once
    def peak(sizes):
        cfg = StudyConfig("exponential", (5.0,), sizes, 2, seed=3)
        tracemalloc.start()
        try:
            run_study(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    wide = peak(tuple(range(1000, 20001, 1000)))
    assert wide <= 2 * peak((20000,))


def test_group_memory_does_not_grow_with_the_replicates():
    # replicates are built a bounded group at a time, and only each cell's
    # floats are kept
    def peak(replicates):
        cfg = StudyConfig("exponential", (5.0,), tuple(range(10, 56, 5)), replicates,
                          seed=3, estimators=("mle",))
        tracemalloc.start()
        try:
            run_study(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)                        # imports and caches out of the count
    # a replicate adds its ten 8-byte estimates, not its samples or a list
    # of their values
    assert (peak(4000) - peak(400)) / 3600 <= 2 * 10 * 8


def test_run_study_single_replicate_smoke():
    cfg = StudyConfig("normal", (2.0, 3.0), (15,), 1, seed=3)
    rep = run_study(cfg)
    assert len(rep.rows) == 4          # 1 size x 2 estimators x 2 params
    # one success: a sample variance of 0
    assert all(r.failures == 0 and r.variance == 0.0 for r in rep.rows)
    assert rep.to_csv().splitlines()[0] == \
        "size,estimator,param,mean,ratio,variance,failures"
    again = run_study(cfg)
    assert rep == again


def test_run_study_shapes_and_unbiased_rows():
    cfg = StudyConfig("exponential", (5.0,), (10, 25, 40), 200, seed=7,
                      estimators=("mckle", "mckle_unbiased", "mle",
                                  "mle_unbiased"))
    rep = run_study(cfg)
    assert len(rep.rows) == 12
    for n in (10, 25, 40):
        raw = rep.row(n, "mckle", "lambda")
        unb = rep.row(n, "mckle_unbiased", "lambda")
        assert unb.mean == pytest.approx(8 * n / (8 * n + 15) * raw.mean, rel=1e-12)
        assert abs(unb.ratio - 1) < abs(raw.ratio - 1)


def test_run_study_counts_failures():
    # the profile solve degenerates at n = 1, so every replicate fails; so
    # does every Normal fit and MLE, and such a row is NaN throughout
    cfg = StudyConfig("pareto", (3.0, 5.0), (1,), 20, seed=9)
    rep = run_study(cfg)
    row = rep.row(1, "mckle", "alpha")
    assert row.failures == 20
    assert math.isnan(row.mean)
    rep = run_study(StudyConfig("normal", (0.0, 1.0), sizes=(1,), replicates=3, seed=1))
    for r in rep.rows:
        assert r.failures == 3
        assert math.isnan(r.mean) and math.isnan(r.ratio) and math.isnan(r.variance)


def test_variance_tracks_one_over_n():
    cfg = StudyConfig("exponential", (5.0,), tuple(range(10, 56, 5)), 2000,
                      seed=13)
    rep = run_study(cfg)
    sizes = sorted({r.size for r in rep.rows})
    var = [rep.row(n, "mckle", "lambda").variance for n in sizes]
    rho = spearmanr(var, [1 / n for n in sizes]).statistic
    assert rho > 0.9


def test_variance_limits_at_n200():
    cfg = StudyConfig("exponential", (5.0,), (200,), 4000, seed=17)
    rep = run_study(cfg)
    v_mckle = 200 * rep.row(200, "mckle", "lambda").variance
    v_mle = 200 * rep.row(200, "mle", "lambda").variance
    assert v_mckle == pytest.approx(31.25, rel=0.15)
    assert v_mle == pytest.approx(25.0, rel=0.15)


def test_bias_check_exponential():
    rep = bias_check_exponential(5.0, 20, 100_000, seed=23)
    assert rep.first_order_bias == pytest.approx(15 * 5 / 160)
    assert rep.bias == pytest.approx(rep.first_order_bias, rel=0.25)
    assert abs(rep.unbiased_bias) < abs(rep.bias) / 3
    big = bias_check_exponential(5.0, 5000, 2000, seed=24)
    assert abs(big.bias) < 0.01 * 5.0


def test_coverage_divergence():
    rep = coverage_study("exponential", (3.0,), 200, 10_000, 0.95,
                         "divergence", seed=29)
    assert 0.94 <= rep.covered <= 0.96
    assert rep.failures == 0
    assert rep.standard_error == pytest.approx(
        math.sqrt(rep.covered * (1 - rep.covered) / 10_000), rel=1e-9)


def test_coverage_half_level():
    rep = coverage_study("exponential", (3.0,), 200, 4000, 0.5,
                         "divergence", seed=31)
    assert 0.47 <= rep.covered <= 0.53


def test_coverage_small_sample_reports():
    rep = coverage_study("exponential", (3.0,), 20, 500, 0.95, "wald", seed=37)
    assert 0.0 <= rep.covered <= 1.0
    assert rep.n == 20 and rep.kind == "wald"


def test_coverage_validation():
    with pytest.raises(DomainError):
        coverage_study("twoparamexp", (3.0, 2.0), 50, 100, 0.95, "wald", 1)
    with pytest.raises(DomainError):
        coverage_study("exponential", (3.0,), 50, 100, 0.95, "bootstrap", 1)
    # rejected at entry, not run with every replicate counted as a failure
    for n, reps, level in ((50, 0, 0.95), (50, -3, 0.95), (0, 100, 0.95), (50, 100, 0.0),
                           (50, 100, 1.0), (50, 100, 1.5), (50, 100, math.nan)):
        for kind in ("wald", "divergence"):
            with pytest.raises(DomainError):
                coverage_study("exponential", (3.0,), n, reps, level, kind, 1)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", True, None])
def test_a_bad_seed_is_a_domain_error_before_any_draw(seed, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(simulate, "_replicate_chunk", no_draws)
    calls = [lambda: StudyConfig("exponential", (5.0,), (10,), 3, seed),
             lambda: bias_check_exponential(5.0, 20, 10, seed),
             lambda: coverage_study("exponential", (3.0,), 20, 10, 0.9, "wald", seed),
             lambda: divergence_region_cutoffs("normal", (0.0, 1.0), 20, 100, (0.5,), seed)]
    for call in calls:
        with pytest.raises(DomainError, match=f"seed must be a non-negative integer, got {seed!r}$"):
            call()


def test_numpy_integer_seeds_are_accepted():
    want = run_study(StudyConfig("exponential", (5.0,), (10,), 3, 7)).to_csv()
    assert run_study(StudyConfig("exponential", (5.0,), (10,), 3, np.int64(7))).to_csv() == want
    assert run_study(StudyConfig("exponential", (5.0,), (10,), 3, 0)).rows


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(3.0), True, "3", None])
def test_counts_must_be_integers(bad):
    # a float count was truncated (sizes), kept (replicates=True, the
    # bias check's n) or a bare TypeError deep in the engine
    calls = [lambda: StudyConfig("exponential", (5.0,), (10, bad), 3, 1),
             lambda: StudyConfig("exponential", (5.0,), (10,), bad, 1),
             lambda: StudyConfig("exponential", (5.0,), (10,), 3, 1, threads=bad),
             lambda: bias_check_exponential(5.0, bad, 20, 1),
             lambda: bias_check_exponential(5.0, 20, bad, 1),
             lambda: coverage_study("exponential", (3.0,), bad, 10, 0.9, "wald", 1),
             lambda: coverage_study("exponential", (3.0,), 20, bad, 0.9, "wald", 1),
             lambda: divergence_region_cutoffs("normal", (0.0, 1.0), bad, 100, (0.5,), 1),
             lambda: divergence_region_cutoffs("normal", (0.0, 1.0), 20, bad, (0.5,), 1)]
    for call in calls:
        with pytest.raises(DomainError, match=re.escape(f"must be an integer, got {bad!r}") + "$"):
            call()
    with pytest.raises(DomainError, match="n must be >= 10"):
        bias_check_exponential(5.0, 9, 20, 1)
    with pytest.raises(DomainError, match="reps must be >= 100"):
        divergence_region_cutoffs("normal", (0.0, 1.0), 20, 99, (0.5,), 1)


def test_numpy_integer_counts_are_accepted():
    i = np.int64
    want = run_study(StudyConfig("exponential", (5.0,), (10, 20), 3, 7, threads=2))
    got = run_study(StudyConfig("exponential", (5.0,), (i(10), i(20)), i(3), 7, threads=i(2)))
    assert got.to_csv() == want.to_csv()
    assert bias_check_exponential(5.0, i(20), i(30), 4) == bias_check_exponential(5.0, 20, 30, 4)
    assert (coverage_study("laplace", (3.0,), i(20), i(30), 0.9, "wald", 4)
            == coverage_study("laplace", (3.0,), 20, 30, 0.9, "wald", 4))
    assert (divergence_region_cutoffs("twoparamexp", (1.0, 2.0), i(20), i(100), (0.5,), 4)
            == divergence_region_cutoffs("twoparamexp", (1.0, 2.0), 20, 100, (0.5,), 4))


def test_bias_check_rejects_no_replicates():
    # rejected at entry, before the mean divides by reps
    with pytest.raises(DomainError, match="reps"):
        bias_check_exponential(2.0, 20, 0, 1)


# signed rows at one scale each, from below the moment floor (1e-146 and
# less) to near the overflow of the squares, with zeros among them
@st.composite
def batches(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    rows = []
    for _ in range(m):
        scale = 10.0 ** draw(st.integers(-170, 150))
        base = draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, -0.0, -1.0])),
                             min_size=n, max_size=n))
        rows.append(scale * np.array(base))
    return np.array(rows)


def _group_matches_the_cell_on_every_row(family, est, rows):
    samples = build_samples(rows)
    want = []
    for row in rows:
        try:
            want.append(float(simulate._estimate(est, family, build_sample(row))[0]).hex())
        except CkleError:
            want.append(math.nan.hex())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = simulate._cell(est, family).group(family, samples)
    assert got.shape == (len(rows), 1)
    assert [v.hex() for v in got[:, 0].tolist()] == want


GROUP_CELLS = [("exponential", est) for est in
               ("mckle", "mckle_unbiased", "mle", "mle_unbiased")] + [
               ("laplace", "mckle"), ("laplace", "mle")]


@pytest.mark.parametrize("name,est", GROUP_CELLS)
@given(rows=batches())
@settings(deadline=None)
@example(rows=np.array([[-1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
@example(rows=1e-160 * np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 4.0], [-1.0, 0.0, 2.0]]))
@example(rows=1e150 * np.array([[1.0, 2.0, 3.0], [0.5, 1.5, 1.0], [-0.5, 1.0, 1.0]]))
@example(rows=np.array([[5.0], [0.0], [-1.0], [1e-160], [1e150], [-0.0]]))
def test_group_forms_are_the_cells_bitwise(name, est, rows):
    _group_matches_the_cell_on_every_row(get_family(name), est, rows)


def test_group_forms_cover_both_scalar_families_only():
    for name in STUDY_TRUTH:
        cell = simulate._cell("mle", get_family(name))
        assert hasattr(cell, "group") == (name in ("exponential", "laplace"))
