"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one request at a time
(closed loop, one caller), checks every output it can check without a
reference, and produces the default-seed "golden" outputs that are compared
with ``reference.json``.  Inputs of ``analysis-n1000`` and ``cli-session`` are
drawn by numpy in this file, not by ckle, so a change to ckle's samplers
cannot move the reference inputs.

Calls into ckle go through module attributes at call time
(``ckle.solver.fit``), so the tracer's rebinding applies to them.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple

import numpy as np

import ckle
import ckle.cli
import ckle.inference
import ckle.objective
import ckle.simulate
import ckle.solver

from common import DESIGN, HERE, OUT_DIR, ROOT, child_env
from layers import FAMILIES, SCALAR

DEFAULT_SEED = DESIGN["default_seed"]
TOLERANCES = DESIGN["tolerances"]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def sub_seed(seed: int, i: int) -> int:
    """Seed of request ``i``: a 63-bit value derived from (seed, i)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0] >> 1)


def draw(family: str, params, n: int, seed: int, stream: int) -> np.ndarray:
    """Benchmark-owned sampler for the fixed-input workloads."""
    rng = np.random.default_rng([seed, stream])
    if family == "exponential":
        return rng.exponential(1.0 / params[0], n)
    if family == "laplace":
        return rng.laplace(0.0, params[0], n)
    if family == "twoparamexp":
        return params[0] + rng.exponential(params[1], n)
    if family == "pareto":
        return params[1] * (1.0 + rng.pareto(params[0], n))
    if family == "normal":
        return rng.normal(params[0], params[1], n)
    raise ValueError(family)


class Outcome(NamedTuple):
    """What one request did: work items completed, operations attempted and
    failed, problems found by the checks, and a digest of its outputs."""

    key: object
    items: int
    attempted: int
    failed: int
    misses: list
    digest: str
    failed_fits: int = 0


# --------------------------------------------------------------- comparison

def compare(ref, got, table: str, path: str = "", misses=None, parent=None) -> list[str]:
    """Compare an output tree with its reference under ``TOLERANCES[table]``.

    Floats match when |a - b| <= abs + rel * scale, where scale is
    max(|a|, |b|), or the largest |entry| for the matrices listed as such.
    Everything else (ints, bools, strings, exit codes) matches exactly.
    """
    misses = [] if misses is None else misses
    tol = TOLERANCES[table]
    name = path.rsplit("/", 1)[-1]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            misses.append(f"{table}:{path}: keys differ")
            return misses
        for k in ref:
            compare(ref[k], got[k], table, f"{path}/{k}", misses, ref)
        return misses
    rule = tol.get(name, tol.get("*"))
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            misses.append(f"{table}:{path}: shape differs")
            return misses
        if rule is not None and rule.get("matrix"):
            flat_r = np.ravel(np.asarray(ref, dtype=float))
            flat_g = np.ravel(np.asarray(got, dtype=float))
            scale = float(np.max(np.abs(flat_r))) if flat_r.size else 0.0
            if flat_r.shape != flat_g.shape or np.any(
                    np.abs(flat_r - flat_g) > rule["abs"] + rule["rel"] * scale):
                misses.append(f"{table}:{path}: {got} != {ref}")
            return misses
        for r, g in zip(ref, got):
            compare(r, g, table, path, misses, parent)
        return misses
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if rule is None:
            misses.append(f"{table}:{path}: no tolerance stated")
            return misses
        scale = max(abs(ref), abs(got))
        if rule.get("plus_mean_sq") and parent is not None:
            scale = abs(ref) + parent["mean"] ** 2
        if not (abs(ref - got) <= rule["abs"] + rule["rel"] * scale
                or (math.isnan(ref) and math.isnan(got))):
            misses.append(f"{table}:{path}: {got!r} != {ref!r}")
        return misses
    if ref != got or type(ref) is not type(got):
        misses.append(f"{table}:{path}: {got!r} != {ref!r}")
    return misses


# ------------------------------------------------------------------ studies

SIZES = tuple(range(10, 56, 5))


def study_rows(report) -> dict:
    return {f"{r.size}/{r.estimator}/{r.param}":
            {"mean": r.mean, "ratio": r.ratio, "variance": r.variance, "failures": r.failures}
            for r in report.rows}


class Study:
    """``run_study`` on the criterion-8 grid; one request is one study of
    ``replicates`` replicates per size, seeded from (seed, request)."""

    unit = 1

    def __init__(self, name, family, params, estimators, replicates):
        self.name, self.family, self.params = name, family, params
        self.estimators, self.replicates = estimators, replicates

    def config(self, seed, i):
        return ckle.simulate.StudyConfig(
            self.family, self.params, sizes=SIZES, replicates=self.replicates,
            seed=sub_seed(seed, i), estimators=self.estimators, threads=1)

    def setup(self, seed):
        self.seed = seed
        self.golden_out = self.golden()          # also the warm-up

    def golden(self):
        return study_rows(ckle.simulate.run_study(self.config(DEFAULT_SEED, 0)))

    def run(self, i, tracer=None):
        cfg = self.config(self.seed, i)
        span = (contextlib.nullcontext() if tracer is None
                else tracer.request(i, f"request.study.{self.family}"))
        with span:
            report = ckle.simulate.run_study(cfg)
        misses = []
        failed = 0
        for r in report.rows:
            if r.param == report.rows[0].param:      # one row per (size, estimator)
                failed += r.failures
            if r.failures == 0 and not all(map(math.isfinite, (r.mean, r.ratio, r.variance))):
                misses.append(f"{self.name}: non-finite row {r}")
        attempted = self.replicates * len(SIZES) * len(self.estimators)
        fits = self.replicates * len(SIZES)
        return Outcome(i, fits, attempted, failed + len(misses), misses,
                       digest(report.to_csv()), failed)


# ----------------------------------------------------------------- analysis

ANALYSIS_N = 1000
ANALYSIS_TRUTH = {"exponential": (5.0,), "laplace": (2.0,), "twoparamexp": (1.0, 2.0),
                  "pareto": (4.0, 2.0), "normal": (2.0, 3.0)}


def analysis_chain(family, sample) -> dict:
    """fit -> sandwich -> ckl_divergence, then the scalar inference chain or
    the vector asymptotic covariance; returns every output as plain data."""
    inf = ckle.inference
    res = ckle.solver.fit(family, sample)
    v_hat = inf.sandwich(family, res, sample).V_hat
    theta = res.params.values
    out = {"theta_hat": list(theta), "g_at_opt": res.g_at_opt,
           "converged": res.converged, "V_hat": v_hat.tolist(),
           "divergence": ckle.objective.ckl_divergence(family, theta, sample)}
    t0 = ANALYSIS_TRUTH[family][0]
    if family in SCALAR:
        ci = inf.divergence_interval(family, sample, res, 0.95)
        test = inf.gddt_test(family, sample, t0, 0.05)
        # the sample is drawn at t0, so t0 is the alternative of these two
        power = inf.power_approx(family, sample, 1.2 * t0, t0, 0.05)
        size = inf.required_sample_size(family, sample, 1.2 * t0, t0, 0.05, 0.9)
        av = inf.avar_scalar(family, theta, method="quadrature")
        out.update({"lower": ci.lower, "upper": ci.upper, "c_theta": ci.c_theta,
                    "statistic": test.statistic_gddt, "p_value": test.p_value,
                    "power": power, "n0": size.n0, "n_star": size.n_star,
                    "sigma2": av.sigma2})
    else:
        av = inf.avar_matrix(family, theta, sample.n)
        out["V_n"] = av.V_n.tolist()
    return out


def chain_problems(family, out) -> list[str]:
    """Reference-free checks on one chain's outputs."""
    bad = []
    theta = out["theta_hat"]
    if not out["converged"] or not all(map(math.isfinite, theta)):
        bad.append("fit not converged")
    v = np.asarray(out["V_hat"])
    if not (np.all(np.isfinite(v)) and np.allclose(v, v.T) and np.all(np.diag(v) > 0)):
        bad.append("sandwich not a covariance")
    if not out["divergence"] >= -1e-12:
        bad.append("negative divergence")
    if family in SCALAR:
        if not out["lower"] < theta[0] < out["upper"]:
            bad.append("interval misses the estimate")
        if not (0.0 <= out["p_value"] <= 1.0 and 0.0 <= out["power"] <= 1.0):
            bad.append("probability out of [0, 1]")
        if not (out["n_star"] >= 1 and out["sigma2"] > 0):
            bad.append("bad sample size or variance")
    else:
        vn = np.asarray(out["V_n"])
        if not (np.all(np.isfinite(vn)) and np.all(np.diag(vn) > 0)):
            bad.append("asymptotic covariance not positive")
    return [f"analysis-n1000/{family}: {b}" for b in bad]


def analysis_samples(seed):
    return {f: ckle.build_sample(draw(f, ANALYSIS_TRUTH[f], ANALYSIS_N, seed, j))
            for j, f in enumerate(FAMILIES)}


class Analysis:
    """One-shot inference at n = 1000; request i runs the chain of family
    i mod 5 on that family's sample, drawn once in set-up."""

    name = "analysis-n1000"
    unit = len(FAMILIES)

    def setup(self, seed):
        self.samples = analysis_samples(seed)
        self.golden_out = self.golden()          # also the warm-up

    def golden(self):
        samples = analysis_samples(DEFAULT_SEED)
        return {f: analysis_chain(f, samples[f]) for f in FAMILIES}

    def run(self, i, tracer=None):
        family = FAMILIES[i % len(FAMILIES)]
        span = (contextlib.nullcontext() if tracer is None
                else tracer.request(i, f"request.analysis.{family}"))
        try:
            with span:
                out = analysis_chain(family, self.samples[family])
        except ckle.CkleError as exc:
            return Outcome(family, 1, 1, 1, [], f"error {type(exc).__name__}")
        misses = chain_problems(family, out)
        return Outcome(family, 1, 1, int(bool(misses)), misses, digest(out))


# ---------------------------------------------------------------------- CLI

CLI_N = 30
CLI_DATA = {"normal": (2.0, 3.0), "exponential": (5.0,), "laplace": (2.0,), "pareto": (4.0, 2.0)}
CLI_SESSION = (
    ("fit", ["fit", "--model", "normal", "--data", "{normal}"]),
    ("interval.wald", ["interval", "--model", "exponential", "--data", "{exponential}",
                       "--kind", "wald"]),
    ("interval.divergence", ["interval", "--model", "laplace", "--data", "{laplace}",
                             "--kind", "divergence"]),
    ("test", ["test", "--model", "exponential", "--data", "{exponential}", "--null", "5.0"]),
    ("power", ["power", "--model", "exponential", "--data", "{exponential}",
               "--null", "6.0", "--alt", "5.0", "--n", "200"]),
    ("samplesize", ["samplesize", "--model", "exponential", "--data", "{exponential}",
                    "--null", "6.0", "--alt", "5.0", "--beta", "0.9"]),
    ("gof", ["gof", "--model", "pareto", "--data", "{pareto}"]),
    ("simulate", ["simulate", "--model", "exponential", "--params", "lambda=5",
                  "--sizes", "10:30:10", "--reps", "50", "--seed", "{seed}",
                  "--threads", "1"]),
)
CLI_EXPECTED_EXIT = 0


def write_cli_inputs(seed, directory) -> dict:
    paths = {"seed": str(seed)}
    for j, (family, params) in enumerate(CLI_DATA.items()):
        path = os.path.join(directory, f"{family}.csv")
        xs = draw(family, params, CLI_N, seed, 100 + j)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{float(x)!r}\n" for x in xs))
        paths[family] = path
    return paths


def cli_argv(template, paths):
    return [a.format(**paths) for a in template]


def parse_cli_output(label, text):
    """JSON document, or the study rows of the simulate CSV."""
    if label != "simulate":
        return json.loads(text)
    lines = text.strip().splitlines()
    if lines[0] != "size,estimator,param,mean,ratio,variance,failures":
        raise ValueError("bad CSV header")
    rows = {}
    for ln in lines[1:]:
        size, est, param, mean, ratio, var, fails = ln.split(",")
        rows[f"{size}/{est}/{param}"] = {"mean": float(mean), "ratio": float(ratio),
                                         "variance": float(var), "failures": int(fails)}
    return rows


def cli_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ckle.cli.main(argv)
    return code, out.getvalue()


class CliSession:
    """``python -m ckle.cli`` processes, one after another; request i runs
    command i mod 8 of the session on the n = 30 files written in set-up.
    When ``traced`` is set, each child runs under ``clitrace.py`` instead and
    writes its own spans."""

    name = "cli-session"
    unit = len(CLI_SESSION)
    child_timeout_s = 120

    def setup(self, seed):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
        self.paths = write_cli_inputs(seed, self.dir)
        self.env = child_env()
        self.trace_dir = os.path.join(OUT_DIR, f"spans-cli-session-s{seed}-{os.getpid()}")
        self.seen = {}
        self.traced = False
        self.golden_out = None
        self.run(0)                              # warm-up: one process, untimed

    def argv(self, i):
        label, template = CLI_SESSION[i % len(CLI_SESSION)]
        return label, cli_argv(template, self.paths)

    def run(self, i, tracer=None):
        label, argv = self.argv(i)
        if not self.traced:
            cmd = [sys.executable, "-m", "ckle.cli", *argv]
        else:
            os.makedirs(self.trace_dir, exist_ok=True)
            cmd = [sys.executable, os.path.join(HERE, "clitrace.py"),
                   self.trace_dir, label, str(i), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              timeout=self.child_timeout_s)
        text = proc.stdout.decode()
        misses = []
        try:
            parse_cli_output(label, text)
        except ValueError:
            misses.append(f"cli-session/{label}: unparsable output")
        failed = int(proc.returncode != CLI_EXPECTED_EXIT or bool(misses))
        self.seen[label] = argv
        return Outcome(label, 1, 1, failed, misses, digest((proc.returncode, text)))

    def crosscheck(self, digests) -> list[str]:
        """Each process output must equal ``ckle.cli.main`` run in this
        process on the same arguments, byte for byte, with the same code."""
        misses = []
        for label, argv in sorted(self.seen.items()):
            if digest(cli_in_process(argv)) != digests.get(label):
                misses.append(f"cli-session/{label}: process output differs from in-process main")
        return misses

    def golden(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="golden-", dir=OUT_DIR) as d:
            paths = write_cli_inputs(DEFAULT_SEED, d)
            out = {}
            for label, template in CLI_SESSION:
                code, text = cli_in_process(cli_argv(template, paths))
                out[label] = {"exit": code, "doc": parse_cli_output(label, text)}
        return out

    def close(self):
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        os.rmdir(self.dir)


def make(name):
    if name == "study-normal":
        return Study(name, "normal", (2.0, 3.0), ("mckle", "mle"),
                     DESIGN["study_replicates"][name])
    if name == "study-exponential":
        return Study(name, "exponential", (5.0,), ("mckle", "mckle_unbiased", "mle"),
                     DESIGN["study_replicates"][name])
    if name == "analysis-n1000":
        return Analysis()
    if name == "cli-session":
        return CliSession()
    raise ValueError(f"unknown workload {name!r}")


def thread_check() -> list[str]:
    """run_study must give byte-identical CSV at threads=1 and threads=2."""
    cfg = dict(family="normal", params=(2.0, 3.0), sizes=(10, 20), replicates=8,
               seed=DEFAULT_SEED)
    one = ckle.simulate.run_study(ckle.simulate.StudyConfig(**cfg, threads=1)).to_csv()
    two = ckle.simulate.run_study(ckle.simulate.StudyConfig(**cfg, threads=2)).to_csv()
    return [] if one == two else ["run_study CSV differs between threads=1 and threads=2"]
