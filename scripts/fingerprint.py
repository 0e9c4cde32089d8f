#!/usr/bin/env python3
"""Output fingerprint: one line per output, floats written with float.hex.

Runs the five families at n in {30, 300} and seeds 1-3 through fit, the
sandwich, psi, the asymptotic variances (quadrature and closed forms), c,
the Wald and divergence intervals and the divergence-difference test, and
every CLI subcommand in process (exit code, stderr and the sha256 of
stdout).  Two trees give bitwise-equal outputs exactly when

    PYTHONPATH=src python3 scripts/fingerprint.py > a.txt
    # ... same command on the other tree ...
    diff a.txt b.txt

prints nothing.  It takes a few seconds on one CPU; nothing is written
outside a temporary directory that is removed at the end.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

# the n = 1000 Normal estimate moves with the BLAS thread count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from ckle import (CkleError, FitOptions, avar_matrix, avar_scalar, build_sample,
                  c_value, cli, divergence_interval, fit, gddt_test, get_family,
                  make_rng, psi_matrix, sandwich, wald_ci)
from ckle.inference import _avar_quadrature

TRUTH = {"exponential": (5.0,), "laplace": (2.0,), "twoparamexp": (1.0, 2.0),
         "pareto": (4.0, 2.0), "normal": (2.0, 3.0)}
SIZES = (30, 300)
SEEDS = (1, 2, 3)


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


def analysis(name: str, theta_true, n: int, seed: int):
    family = get_family(name)
    sample = build_sample(family.draw(theta_true, n, make_rng(seed, 0)))
    tag = f"{name}/n{n}/s{seed}"
    for method in ("auto", "numeric"):
        res = fit(family, sample, FitOptions(method=method))
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
            ci.cutoff_k, ci.c_theta, str(ci.boundary)])
        emit(f"{tag}/gddt_test", lambda: [
            (t := gddt_test(family, sample, theta_true[0], 0.05)).statistic_gddt,
            t.c_at_null, t.critical_value, t.p_value, t.reject])
    else:
        emit(f"{tag}/avar_matrix", lambda: avar_matrix(family, theta, n).V_n)


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
    xs = 1e4 + np.linspace(-1.0, 1.0, 30)
    emit("normal/psi.location1e4", lambda: psi_matrix("normal", (1e4, 0.6), xs))
    emit("twoparamexp/fit.negative", lambda: [
        *(res := fit("twoparamexp", build_sample([-1.0, 0.5, 2.0, 3.0]))).params.values,
        res.g_at_opt, res.converged, res.support_warning])
    with tempfile.TemporaryDirectory() as tmp:
        cli_runs(Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
