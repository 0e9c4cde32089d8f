"""The typed-error contract of the public API.

Every callable in ``ckle.__all__`` either returns or raises a ``CkleError``
when one of its value arguments is junk, with a numpy RuntimeWarning as a
failure.  A value argument is a number, a sequence of numbers, a count, a
seed, a probability or a name.  Object arguments (a ``Sample``, a
``FitResult``, a generator, a callable) are out of scope: each row passes
valid ones and only its value arguments are replaced, one at a time.  The
families' methods are not rows either.  ``ROWS`` gives every public
callable valid arguments and ``NOT_ROWS`` says why a public name has none,
so a name added to ``__all__`` without a row fails the table check.

The CLI maps the error types to its exit codes, and since ``DataError`` and
``DomainError`` are also ``ValueError``s, the order of ``cli._run``'s
handlers decides the code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckle
import ckle.cli
from ckle import (CkleError, DataError, DomainError, ParseError, StudyConfig,
                  build_sample, fit, make_rng, run_study)

_S = build_sample([0.5, 1.0, 1.5, 2.5, 4.0])
_FIT = fit("exponential", _S)


def _study(**kwargs):
    # a StudyConfig is an object argument of run_study, so one row fuzzes
    # the config's fields and runs the study it makes
    return run_study(StudyConfig(**kwargs))


def _quadratic(x):
    return float(np.sum((x - 3.0) ** 2))


# name -> (callable, valid keyword arguments, the value arguments among them)
ROWS = {
    "build_sample": (ckle.build_sample, dict(raw=[1.0, 2.0, 4.0]), ("raw",)),
    "ecdf_eval": (ckle.ecdf_eval, dict(sample=_S, x=1.0), ("x",)),
    "esf_eval": (ckle.esf_eval, dict(sample=_S, x=1.0), ("x",)),
    "empirical_entropy_constant": (ckle.empirical_entropy_constant, dict(sample=_S), ()),
    "avar_matrix": (ckle.avar_matrix, dict(family="twoparamexp", theta=(1.0, 2.0), n=30),
                    ("family", "theta", "n")),
    "avar_scalar": (ckle.avar_scalar, dict(family="exponential", theta=(2.0,), method="auto"),
                    ("family", "theta", "method")),
    "c_value": (ckle.c_value, dict(family="exponential", sample=_S, theta=(2.0,)),
                ("family", "theta")),
    "chi2_quantile_df1": (ckle.chi2_quantile_df1, dict(q=0.95, name="q", given=None),
                          ("q", "name", "given")),
    "chi2_sf_df1": (ckle.chi2_sf_df1, dict(t=3.0), ("t",)),
    "divergence_interval": (ckle.divergence_interval,
                            dict(family="exponential", sample=_S, fit_result=_FIT, level=0.9),
                            ("family", "level")),
    "divergence_region_cutoffs": (ckle.divergence_region_cutoffs,
                                  dict(family="twoparamexp", theta_true=(1.0, 2.0), n=10,
                                       reps=100, levels=(0.5, 0.9), seed=1),
                                  ("family", "theta_true", "n", "reps", "levels", "seed")),
    "gddt_test": (ckle.gddt_test, dict(family="exponential", sample=_S, theta0=2.0, alpha=0.05),
                  ("family", "theta0", "alpha")),
    "pivotal_q": (ckle.pivotal_q, dict(family="exponential", sample=_S, fit_result=_FIT,
                                       theta=(2.0,)),
                  ("family", "theta")),
    "power_approx": (ckle.power_approx, dict(family="exponential", sample=_S, theta0=1.0,
                                             theta1=2.0, alpha=0.05, n=20),
                     ("family", "theta0", "theta1", "alpha", "n")),
    "required_sample_size": (ckle.required_sample_size,
                             dict(family="exponential", sample=_S, theta0=0.8, theta1=0.5,
                                  alpha=0.05, beta=0.9),
                             ("family", "theta0", "theta1", "alpha", "beta")),
    "sandwich": (ckle.sandwich, dict(family="exponential", fit_result=_FIT, sample=_S),
                 ("family",)),
    "wald_ci": (ckle.wald_ci, dict(fit_result=_FIT, variance=1.0, level=0.9),
                ("variance", "level")),
    "get_family": (ckle.get_family, dict(family="normal"), ("family",)),
    "ObjectiveContext": (ckle.ObjectiveContext, dict(family="exponential", sample=_S),
                         ("family",)),
    "ckl_divergence": (ckle.ckl_divergence, dict(family="exponential", theta=(2.0,), sample=_S),
                       ("family", "theta")),
    "g_objective": (ckle.g_objective, dict(family="exponential", theta=(2.0,), sample=_S),
                    ("family", "theta")),
    "gee_sum": (ckle.gee_sum, dict(family="exponential", theta=(2.0,), sample=_S),
                ("family", "theta")),
    "psi_matrix": (ckle.psi_matrix, dict(family="exponential", theta=(2.0,),
                                         sample_or_xs=[0.5, 1.0, 2.0]),
                   ("family", "theta", "sample_or_xs")),
    "make_rng": (ckle.make_rng, dict(seed=1, stream=0), ("seed", "stream")),
    "uniform_open": (ckle.uniform_open, dict(rng=make_rng(1), size=5), ("size",)),
    "bias_check_exponential": (ckle.bias_check_exponential,
                               dict(lambda_true=2.0, n=10, reps=5, seed=1),
                               ("lambda_true", "n", "reps", "seed")),
    "coverage_study": (ckle.coverage_study,
                       dict(family="exponential", params=(2.0,), n=10, reps=5, level=0.9,
                            kind="wald", seed=1),
                       ("family", "params", "n", "reps", "level", "kind", "seed")),
    "StudyConfig": (_study, dict(family="exponential", params=(2.0,), sizes=(10, 20),
                                 replicates=5, seed=1, estimators=("mckle", "mle"), threads=1),
                    ("family", "params", "sizes", "replicates", "seed", "estimators",
                     "threads")),
    "fit": (ckle.fit, dict(family="exponential", sample=_S, method="auto"),
            ("family", "method")),
    "minimize_nelder_mead": (ckle.minimize_nelder_mead,
                             dict(fn=_quadratic, x0=[1.0, 2.0], tol=1e-10, init_scale=0.05),
                             ("x0", "tol", "init_scale")),
    "solve_pareto_profile": (ckle.solve_pareto_profile, dict(sample=_S), ()),
}

_RECORD = "a result record that the entry points build; it checks nothing"
_ERROR = "an exception type"
_FAMILY = "a family instance, not callable; its methods are out of scope"
NOT_ROWS = {
    "run_study": "its one argument is a StudyConfig, an object; the StudyConfig row runs it",
    "Sample": "a record that build_sample builds; the build_sample row reads raw data",
    "ParamVector": _RECORD,
    "FAMILIES": "the registry dict; get_family is its entry point",
    **dict.fromkeys(("AsymptoticVariance", "IntervalResult", "RegionCutoffs",
                     "SampleSizeResult", "SandwichEstimate", "TestResult", "BiasReport",
                     "CoverageReport", "SimulationReport", "FitResult", "NMResult"), _RECORD),
    **dict.fromkeys(("CkleError", "DataError", "DomainError", "InferenceError",
                     "ParseError", "SupportViolation"), _ERROR),
    **dict.fromkeys(("EXPONENTIAL", "LAPLACE", "NORMAL", "PARETO", "TWOPARAMEXP"), _FAMILY),
}

JUNK = ["a", "", "1", ["1", "2"], None, True, False, math.nan, math.inf, -math.inf, 0, -1, -2.5, [],
        [[1.0, 2.0]], [[0.5], [2.0, 3.0]], np.array(0.5), np.array([[0.5, 2.0], [1.0, 3.0]])]


def test_every_public_name_has_a_row():
    assert not set(ROWS) & set(NOT_ROWS)
    assert set(ckle.__all__) == set(ROWS) | set(NOT_ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_row_is_valid(name):
    fn, kwargs, _ = ROWS[name]
    fn(**kwargs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(name for name, row in ROWS.items() if row[2]))
@settings(max_examples=100)
@given(data=st.data())
def test_junk_in_a_value_argument_returns_or_raises_a_ckle_error(name, data):
    fn, kwargs, value_args = ROWS[name]
    arg = data.draw(st.sampled_from(value_args), label="argument")
    junk = data.draw(st.sampled_from(JUNK), label="junk")
    try:
        fn(**{**kwargs, arg: junk})
    except CkleError:
        pass


@pytest.mark.parametrize("call", [
    lambda s: ckle.ecdf_eval(s, "a"),
    lambda s: ckle.esf_eval(s, "a"),
    lambda s: ckle.ecdf_eval(s, None),
    lambda s: ckle.power_approx("exponential", s, 1.0, 2.0, 0.05, n=0),
    lambda s: ckle.power_approx("exponential", s, 1.0, 2.0, 0.05, n=2.5),
    lambda s: ckle.avar_matrix("pareto", (4.0, 2.0), 2.5),
    lambda s: ckle.wald_ci(_FIT, "x", 0.9),
    lambda s: ckle.gddt_test("exponential", s, "x", 0.05),
    lambda s: ckle.minimize_nelder_mead(_quadratic, "a"),
    lambda s: ckle.g_objective("exponential", ("a",), s),
    lambda s: ckle.g_objective("normal", ("a", 1.0), s),
    lambda s: ckle.g_objective("exponential", (True,), s),
    lambda s: ckle.ecdf_eval(s, True),
    lambda s: ckle.EXPONENTIAL.quantile((2.0,), "a"),
    lambda s: ckle.get_family("foo"),
    lambda s: ckle.fit("exponential", s, method="x"),
    lambda s: ckle.fit("pareto", s, method="closed"),
    lambda s: ckle.avar_scalar("exponential", (2.0,), method="x"),
    lambda s: ckle.make_rng(-1),
    lambda s: ckle.make_rng(1, 2.5),
    lambda s: ckle.uniform_open(make_rng(1), -1),
], ids=["ecdf-str", "esf-str", "ecdf-None", "power-n0", "power-n-float", "avar_matrix-n-float",
        "wald-variance-str", "gddt-theta0-str",
        "nelder_mead-x0-str", "g-exponential-str", "g-normal-str", "g-exponential-bool",
        "ecdf-bool", "quantile-p-str", "family-name",
        "fit-method", "fit-closed-without-closed-form", "avar_scalar-method",
        "make_rng-seed", "make_rng-stream", "uniform_open-size"])
def test_calls_that_escaped_untyped_or_answered_wrongly_raise_domain_errors(call):
    with pytest.raises(DomainError):
        call(_S)


def test_data_and_domain_errors_are_value_errors():
    assert issubclass(DataError, ValueError) and issubclass(DomainError, ValueError)
    assert issubclass(ParseError, ValueError)


@pytest.mark.parametrize("error,code", [(ParseError, 1), (DataError, 2), (DomainError, 2),
                                        (ValueError, 64)])
def test_cli_exit_codes_follow_the_error_type(error, code, tmp_path, capsys, monkeypatch):
    def handler(args):
        raise error("bad")

    monkeypatch.setattr(ckle.cli, "_cmd_fit", handler)
    data = tmp_path / "x.csv"
    data.write_text("1.0\n2.0\n")
    assert ckle.cli.main(["fit", "--model", "exponential", "--data", str(data)]) == code
    out = capsys.readouterr()
    assert out.out == "" and out.err == "ckle: error: bad\n"


@pytest.mark.parametrize("command", ["fit", "interval", "gof"])
@pytest.mark.parametrize("model", ["normal", "pareto"])
def test_cli_closed_method_without_a_closed_form_is_a_usage_error(command, model, tmp_path,
                                                                   capsys):
    # fit raises a DomainError here, which would exit 2; the CLI names the
    # bad option first and keeps its usage exit
    data = tmp_path / "x.csv"
    data.write_text("1.5\n2.0\n3.5\n")
    argv = [command, "--model", model, "--data", str(data), "--method", "closed"]
    assert ckle.cli.main(argv) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"ckle: error: {model} has no closed-form estimator\n"
