import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from ckle import (CkleError, DataError, DomainError, InferenceError, StudyConfig,
                  avar_scalar, bias_check_exponential, build_sample, coverage_study,
                  divergence_interval, divergence_region_cutoffs, fit, g_objective,
                  get_family, make_rng, run_study, simulate, wald_ci)


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
    calls = []

    def failing_third_fit(family, sample, method="auto"):
        calls.append(1)
        if len(calls) == 3:
            raise DataError("degenerate data")
        return fit(family, sample, method)

    monkeypatch.setattr(simulate, "fit", failing_third_fit)
    with pytest.raises(InferenceError, match="1 of 50 replicate fits failed"):
        bias_check_exponential(5.0, 20, 50, seed=4)


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
    family = get_family("exponential")
    calls = []
    original = type(family).draw

    def counting_draw(self, theta, n, rng):
        calls.append(n)
        return original(self, theta, n, rng)

    monkeypatch.setattr(type(family), "draw", counting_draw)
    run_study(StudyConfig("exponential", (5.0,), tuple(range(10, 56, 5)), 7, seed=1))
    assert calls == [325] * 7


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


def test_bias_check_rejects_no_replicates():
    # rejected at entry, before the mean divides by reps
    with pytest.raises(DomainError, match="reps"):
        bias_check_exponential(2.0, 20, 0, 1)
