#!/usr/bin/env python3
"""Output fingerprint: one line per output, floats written with float.hex.

Runs the five families at n in {30, 300} and seeds 1-3 through the sample
moments, fit, the sandwich, psi, the asymptotic variances (quadrature and
closed forms), c, the Wald and divergence intervals, the
divergence-difference test and its acceptance region, the pivotal
quantity, the power approximation and the required sample size, and every
CLI subcommand in process (exit code, stderr and the sha256 of stdout); it
also prints the sandwich and ``hessian_pd`` of every family's n = 30,
seed-1 sample scaled by 1e-6 and 1e6, the moments of a few samples far
from unit scale and psi at an observation below the support, g and the
divergence of the Exponential and
the Laplace where their moment g falls back to the per-element sum (data
near 1e-200, whose squares underflow), at 1e120 and below the support, the
Pareto profile solve on nearly equal data (alpha far above 1e3), the fit
and sandwich of an Exponential sample near 1e100 (whose psi^2 overflows)
and of a Pareto sample with an observation at 5e-324, the
error (or k and the moments) that
``build_sample`` gives for inputs whose validation the moment sums decide,
the ``run_study`` rows of every family on the criterion-8 sizes at two
seeds and small replicate counts, with every estimator the family defines,
the rows of scalar studies far from unit scale (the Exponential at rates
1e150 and 1e160, whose squares fall below the moment floor and, at 1e160,
whose MLE variance passes the doubles, and at 1e-160, whose moments
overflow; the Laplace at scale 1e-160), the CSV of a study where every fit fails and of studies with a true value
of 0, and the other Monte Carlo entry points at small replicate counts:
``bias_check_exponential``, ``coverage_study`` of both scalar families with
both interval kinds, and ``divergence_region_cutoffs`` of the three vector
families (the Normal also at sizes where one fit or every fit fails).
Two trees give bitwise-equal outputs exactly when

    PYTHONPATH=src python3 scripts/fingerprint.py > a.txt
    # ... same command on the other tree ...
    diff a.txt b.txt

prints nothing.  It takes a few seconds on one CPU; nothing is written
outside a temporary directory that is removed at the end.
"""

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

# the n = 1000 Normal estimate moves with the BLAS thread count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from ckle import (CkleError, StudyConfig, avar_matrix, avar_scalar,
                  bias_check_exponential, build_sample, c_value, ckl_divergence, cli,
                  coverage_study, divergence_interval, divergence_region_cutoffs,
                  fit, g_objective, gddt_test, get_family, make_rng, pivotal_q,
                  power_approx, psi_matrix, required_sample_size, run_study, sandwich,
                  solve_pareto_profile, wald_ci)
from ckle.inference import _avar_quadrature

TRUTH = {"exponential": (5.0,), "laplace": (2.0,), "twoparamexp": (1.0, 2.0),
         "pareto": (4.0, 2.0), "normal": (2.0, 3.0)}
SIZES = (30, 300)
SEEDS = (1, 2, 3)
STUDY_SIZES = tuple(range(10, 56, 5))
STUDY_SEEDS = (801, 5171)
# samples far from unit scale, of mixed sign, and one whose squares overflow
EDGE_SAMPLES = {"huge": 1e150 * np.linspace(0.5, 1.5, 31),
                "tiny": 1e-300 * np.linspace(0.5, 1.5, 31),
                "mixed": np.linspace(-1e100, 3e100, 30) + np.linspace(-1e-3, 1e-3, 30),
                "overflow": [-1e155, 2e155, 1e155]}
# inputs whose non-finite values or overflow the moment sums find, and signed
# zeros, which must keep k and mean |x|
VALIDATION_SAMPLES = {"nan_after_overflow": [1e200, math.nan],
                      "minus_inf_first": [-math.inf, 1.0],
                      "overflow_pair": [1e200, 2e200],
                      "signed_zeros": [-0.0, 0.0, 1.0],
                      "negative_zeros": [-0.0] * 3,
                      "zero_and_two": [0.0, 2.0]}
# scalar studies whose per-element g, variance past the doubles or moment
# overflow the unit-scale studies do not reach
EXTREME_STUDIES = (("exponential", 1e150), ("exponential", 1e160),
                   ("exponential", 1e-160), ("laplace", 1e-160))
# a study where every fit fails, and studies whose true mu is 0
CSV_STUDIES = {"all_failed": StudyConfig("normal", (0.0, 1.0), (1,), 3, 1),
               "zero_truth.normal": StudyConfig("normal", (0.0, 1.0), (5,), 3, 1),
               "zero_truth.twoparamexp": StudyConfig("twoparamexp", (0.0, 2.0), (5,), 3, 1)}


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer, str)) or value is None:
        return str(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return " ".join(fmt(v) for v in value)
    return " ".join(float(v).hex() for v in np.asarray(value, dtype=float).ravel())


def emit(name: str, compute):
    """Print name and the value of compute(), or the error it raised, and
    the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            line = fmt(compute())
        except CkleError as exc:
            line = f"error {type(exc).__name__}: {exc}"
    for w in caught:
        line += f" | warning {w.category.__name__}: {w.message}"
    print(f"{name} {line}")


def moments(sample):
    return [sample.mean, sample.mean_abs, sample.mean_sq]


def analysis(name: str, theta_true, n: int, seed: int):
    family = get_family(name)
    sample = build_sample(family.draw(theta_true, n, make_rng(seed, 0)))
    tag = f"{name}/n{n}/s{seed}"
    emit(f"{tag}/sample", lambda: moments(sample))
    for method in ("auto", "numeric"):
        res = fit(family, sample, method=method)
        emit(f"{tag}/fit.{method}", lambda: [*res.params.values, res.g_at_opt, res.iterations])
        emit(f"{tag}/fit.{method}.flags",
             lambda: (res.converged, res.hessian_pd, res.support_warning))
    try:
        res = fit(family, sample)
    except CkleError as exc:
        print(f"{tag}/fit error {type(exc).__name__}: {exc}")
        return
    theta = res.params.values
    emit(f"{tag}/sandwich", lambda: sandwich(family, res, sample).V_hat)
    emit(f"{tag}/psi.fit", lambda: psi_matrix(family, theta, sample))
    emit(f"{tag}/psi.truth", lambda: psi_matrix(family, theta_true, sample))
    emit(f"{tag}/avar_quadrature", lambda: np.concatenate(
        [m.ravel() for m in _avar_quadrature(family, theta)]))
    if family.dim == 1:
        emit(f"{tag}/avar_scalar", lambda: avar_scalar(family, theta).sigma2)
        emit(f"{tag}/c_value", lambda: c_value(family, sample, theta))
        emit(f"{tag}/wald", lambda: [(ci := wald_ci(res, avar_scalar(family, theta), 0.95)).lower,
                                     ci.upper])
        emit(f"{tag}/divergence_interval", lambda: [
            (ci := divergence_interval(family, sample, res, 0.95)).lower, ci.upper,
            ci.cutoff_k, ci.c_theta])
        emit(f"{tag}/gddt_test", lambda: [
            (t := gddt_test(family, sample, theta_true[0], 0.05)).statistic_gddt,
            t.c_at_null, t.critical_value, t.p_value, t.reject])
        emit(f"{tag}/gddt_test.region",
             lambda: gddt_test(family, sample, theta_true[0], 0.05).region_mean_sq)
        emit(f"{tag}/pivotal_q", lambda: pivotal_q(family, sample, res, theta_true))
        t0, t1 = 1.2 * theta_true[0], theta_true[0]
        emit(f"{tag}/power_approx", lambda: power_approx(family, sample, t0, t1, 0.05, 200))
        emit(f"{tag}/required_sample_size", lambda: [
            (r := required_sample_size(family, sample, t0, t1, 0.05, 0.9)).n_star, r.n0,
            r.g_theta0, r.g_theta1, r.c_theta0, r.c_theta1, r.chi2_alpha, r.chi2_beta])
    else:
        emit(f"{tag}/avar_matrix", lambda: avar_matrix(family, theta, n).V_n)


def sandwich_scales():
    # the n = 30, seed-1 sample of every family far from unit scale
    for name, theta in TRUTH.items():
        family = get_family(name)
        raw = family.draw(theta, 30, make_rng(1, 0))
        for scale in (1e-6, 1e6):
            sample = build_sample(raw * scale)
            tag = f"{name}/n30/s1/scale{scale:g}"
            emit(f"{tag}/sandwich", lambda: sandwich(family, fit(family, sample), sample).V_hat)
            emit(f"{tag}/hessian_pd", lambda: fit(family, sample).hessian_pd)


def scalar_g_edges():
    # scale 1e-200 takes the per-element fallback, 1e120 the moment formula
    for name in ("exponential", "laplace"):
        family = get_family(name)
        for scale in (1e-200, 1e120):
            sample = build_sample(family.draw((1.0,), 30, make_rng(1, 0)) * scale)
            for c in (0.5, 1.25, 8.0):
                theta = (c / scale if name == "exponential" else c * scale,)
                tag = f"{name}/scale{scale:g}/c{c:g}"
                emit(f"{tag}/g_objective", lambda: g_objective(family, theta, sample))
                emit(f"{tag}/ckl_divergence", lambda: ckl_divergence(family, theta, sample))
    negative = build_sample([-1.0, 0.5, 2.0])
    for lam in (0.5, 2.0):
        emit(f"exponential/negative/l{lam:g}/g_objective",
             lambda: g_objective("exponential", (lam,), negative))
        emit(f"exponential/negative/l{lam:g}/ckl_divergence",
             lambda: ckl_divergence("exponential", (lam,), negative))


def pareto_profile_edges():
    # 1 + eps [0, 1]: the profile root grows like 1/eps
    for eps in (1e-3, 1e-5, 1e-7):
        sample = build_sample(1.0 + eps * np.linspace(0.0, 1.0, 50))
        emit(f"pareto/profile.near_equal{eps:g}", lambda: solve_pareto_profile(sample))


def extreme_fits():
    # psi^2 is about 1e400 at 1e100, and (x - mean)/mean rounds to -1 at 5e-324
    for name, raw in (("exponential", [1.57e100, 2.1e100, 0.3e100]),
                      ("pareto", [5e-324, 1.0])):
        sample = build_sample(raw)
        emit(f"{name}/extreme/fit", lambda: [
            *(res := fit(name, sample)).params.values, res.g_at_opt, res.converged])
        emit(f"{name}/extreme/sandwich",
             lambda: sandwich(name, fit(name, sample), sample).V_hat)


def studies():
    for name, theta in TRUTH.items():
        family = get_family(name)
        estimators = ("mckle", "mle") + tuple(
            est for est in ("mckle_unbiased", "mle_unbiased") if family.has_hook(est))
        reps = 10 if name == "normal" else 40
        for seed in STUDY_SEEDS:
            report = run_study(StudyConfig(name, theta, STUDY_SIZES, reps, seed,
                                           estimators=estimators))
            for row in report.rows:
                emit(f"study/{name}/s{seed}/n{row.size}/{row.estimator}/{row.param}",
                     lambda: [row.mean, row.ratio, row.variance, row.failures])
    for name, theta in EXTREME_STUDIES:
        estimators = ("mckle", "mckle_unbiased", "mle", "mle_unbiased") \
            if name == "exponential" else ("mckle", "mle")
        config = StudyConfig(name, (theta,), (1, 3, 10, 30), 40, STUDY_SEEDS[0],
                             estimators=estimators)
        emit(f"study/{name}/t{theta:g}", lambda: [
            [r.size, r.estimator, r.mean, r.ratio, r.variance, r.failures]
            for r in run_study(config).rows])


def monte_carlo():
    for n, reps, seed in ((10, 50, 3), (20, 200, 4)):
        emit(f"bias_check/n{n}/r{reps}/s{seed}", lambda: [
            (b := bias_check_exponential(5.0, n, reps, seed)).mean_mckle, b.bias,
            b.first_order_bias, b.mean_unbiased, b.unbiased_bias])
    for name in ("exponential", "laplace"):
        for n in (5, 40):
            for kind in ("wald", "divergence"):
                emit(f"coverage/{name}/n{n}/{kind}", lambda: [
                    (c := coverage_study(name, TRUTH[name], n, 150, 0.9, kind, 61)).covered,
                    c.standard_error, c.failures])
    # the Normal fails one fit in 100 at n = 2 and every fit at n = 1
    for name, n, reps in (("twoparamexp", 30, 150), ("pareto", 30, 150), ("pareto", 3, 100),
                          ("normal", 20, 100), ("normal", 2, 100), ("normal", 1, 100)):
        emit(f"region_cutoffs/{name}/n{n}/r{reps}", lambda: [
            *(rc := divergence_region_cutoffs(name, TRUTH[name], n, reps,
                                              (0.9, 0.5, 0.1), 71)).cutoffs,
            rc.used, rc.failures])


def cli_runs(directory: Path):
    def write(label, values):
        path = directory / f"{label}.csv"
        path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        return str(path)

    files = {name: write(name, get_family(name).draw(theta, 30, make_rng(1, 7)))
             for name, theta in TRUTH.items()}
    files["negative"] = write("negative", [-1.0, 0.5, 2.0, 3.0])
    runs = []
    for name, path in files.items():
        model = "twoparamexp" if name == "negative" else name
        common = ["--model", model, "--data", path]
        runs += [["fit", *common], ["fit", *common, "--method", "numeric"], ["gof", *common]]
        if name in ("exponential", "laplace"):
            t0 = str(TRUTH[name][0])
            t1 = str(1.2 * TRUTH[name][0])
            runs += [["interval", *common, "--kind", "wald"],
                     ["interval", *common, "--kind", "divergence"],
                     ["test", *common, "--null", t0],
                     ["power", *common, "--null", t1, "--alt", t0, "--n", "200"],
                     ["samplesize", *common, "--null", t1, "--alt", t0, "--beta", "0.9"]]
    for name, theta in TRUTH.items():
        params = [f"{p}={v}" for p, v in zip(get_family(name).param_names, theta)]
        runs.append(["simulate", "--model", name, "--params", *params, "--sizes", "10,20",
                     "--reps", "20", "--seed", "5", "--threads", "1"])
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
        label = " ".join(a if a not in files.values() else Path(a).stem for a in argv)
        stderr = err.getvalue().strip().replace("\n", " / ")
        stderr += "".join(f" | warning {w.category.__name__}" for w in caught)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"cli/{label} exit={code} stdout={digest} stderr={stderr!r}")


def main():
    for name, theta in TRUTH.items():
        for n in SIZES:
            for seed in SEEDS:
                analysis(name, theta, n, seed)
    # quadrature variance at other locations and scales, and psi far from zero
    for theta in ((0.0, 1.0), (-3.0, 0.2), (0.0, 1e-3), (50.0, 1.0), (100.0, 1.0)):
        emit(f"normal/avar_matrix{theta}", lambda: avar_matrix("normal", theta, 1).V_n)
    sandwich_scales()
    xs = 1e4 + np.linspace(-1.0, 1.0, 30)
    emit("normal/psi.location1e4", lambda: psi_matrix("normal", (1e4, 0.6), xs))
    below = build_sample([-1.0, 2.0])
    for name, theta in (("exponential", (1.0,)), ("pareto", (2.0, 5.0))):
        emit(f"{name}/psi.below_support", lambda: psi_matrix(name, theta, below))
    negative = build_sample([-1.0, 0.5, 2.0, 3.0])
    emit("twoparamexp/sample.negative", lambda: moments(negative))
    emit("twoparamexp/fit.negative", lambda: [
        *(res := fit("twoparamexp", negative)).params.values,
        res.g_at_opt, res.converged, res.support_warning])
    for label, raw in EDGE_SAMPLES.items():
        emit(f"sample/{label}", lambda: moments(build_sample(raw)))
    for label, raw in VALIDATION_SAMPLES.items():
        emit(f"sample/{label}", lambda: [(s := build_sample(raw)).k, *moments(s)])
    scalar_g_edges()
    pareto_profile_edges()
    extreme_fits()
    studies()
    for label, config in CSV_STUDIES.items():
        emit(f"study_csv/{label}", lambda: run_study(config).to_csv().strip().replace("\n", " / "))
    monte_carlo()
    with tempfile.TemporaryDirectory() as tmp:
        cli_runs(Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
