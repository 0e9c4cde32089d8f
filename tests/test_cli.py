import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ckle import get_family, make_rng
from ckle.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_worked_sample(path):
    rng = make_rng(99, 0)
    base = get_family("exponential").draw((3.0,), 30, rng)
    xs = base * math.sqrt(0.2063127 / float((base**2).mean()))
    path.write_text("\n".join(repr(float(v)) for v in xs) + "\n")
    return xs


def test_fit_worked_example(tmp_path, capsys):
    data = tmp_path / "exp30.csv"
    write_worked_sample(data)
    code, out, _ = run_cli(["fit", "--model", "exponential", "--data", str(data)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["theta_hat"]["lambda"] == pytest.approx(3.113522, abs=1e-5)
    assert doc["theta_hat_unbiased"]["lambda"] == pytest.approx(2.930374, abs=1e-5)
    assert doc["method"] == "closed" and doc["converged"]
    assert doc["n"] == 30
    assert list(doc.keys()) == ["family", "n", "theta_hat", "g_at_opt",
                                "method", "converged", "hessian_pd",
                                "support_warning", "V_hat",
                                "theta_hat_unbiased"]


def test_fit_laplace_pm1(tmp_path, capsys):
    data = tmp_path / "pm1.csv"
    data.write_text("-1\n1\n")
    code, out, _ = run_cli(["fit", "--model", "laplace", "--data", str(data)], capsys)
    assert code == 0
    assert json.loads(out)["theta_hat"]["theta"] == pytest.approx(0.707107, abs=1e-6)


def test_fit_pareto_negative_data_exit2(tmp_path, capsys):
    data = tmp_path / "neg.csv"
    data.write_text("1.0\n-2.0\n3.0\n")
    code, out, err = run_cli(["fit", "--model", "pareto", "--data", str(data)], capsys)
    assert code == 2
    assert out == ""


def test_fit_normal_constant_data_exit2(tmp_path, capsys):
    data = tmp_path / "const.csv"
    data.write_text("2.0\n2.0\n2.0\n")
    code, out, err = run_cli(["fit", "--model", "normal", "--data", str(data)], capsys)
    assert code == 2
    assert out == ""
    assert "degenerate data" in err


@pytest.mark.parametrize("model", ["exponential", "laplace"])
@pytest.mark.parametrize("command", ["fit", "gof"])
def test_zero_mean_square_numeric_fit_exit2(tmp_path, capsys, model, command):
    data = tmp_path / "zeros.csv"
    data.write_text("0\n0\n")
    code, out, err = run_cli([command, "--model", model, "--data", str(data),
                              "--method", "numeric"], capsys)
    assert (code, out) == (2, "")
    assert "degenerate data" in err


@pytest.mark.parametrize("values", [
    [2.0, 2.0, 2.0000000000000004],
    (1e8 + make_rng(5, 0).uniform(-1.0, 1.0, 30)).tolist(),
    [1e200, 2e200, 3e200],
])
def test_fit_wide_or_huge_data_exit2(tmp_path, capsys, values):
    data = tmp_path / "wide.csv"
    data.write_text("\n".join(repr(v) for v in values) + "\n")
    code, out, err = run_cli(["fit", "--model", "normal", "--data", str(data)], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_twoparamexp_negative_data_not_converged_exit3(tmp_path, capsys):
    data = tmp_path / "neg.csv"
    data.write_text("-1.0\n0.5\n2.0\n3.0\n")
    code, out, err = run_cli(["fit", "--model", "twoparamexp", "--data", str(data)], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["converged"] is False and doc["support_warning"] is True
    assert doc["V_hat"] is None
    assert err == ""


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("command", ["fit", "gof"])
def test_infinite_objective_prints_strict_json(command, tmp_path, capsys):
    # g is +inf at the closed-form estimate on negative data; strict JSON has
    # no Infinity, so the value prints as null
    data = tmp_path / "neg.csv"
    data.write_text("-1\n0.5\n2\n3\n")
    code, out, err = run_cli([command, "--model", "twoparamexp", "--data", str(data)], capsys)
    assert code == 3
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["g_at_opt"] is None
    if command == "gof":
        assert doc["divergence"] is None


@pytest.mark.parametrize("model,values", [
    # psi^2 is about 1e400, but V_hat (about 4.2e-202) is a double
    ("exponential", "1.57e100\n2.1e100\n0.3e100\n"),
    # (x - mean)/mean rounds to -1 at 5e-324
    ("pareto", "5e-324\n1.0\n"),
    # the one fit that does not converge (exit 3): s is infinite at the
    # Hessian's probes, so I is NaN, with no V_hat and no warning
    ("normal", "1.1e-160\n2.3e-160\n3.7e-160\n5.2e-160\n")])
def test_fit_at_extreme_scales_without_runtime_warnings(model, values, tmp_path, capsys):
    data = tmp_path / "x.csv"
    data.write_text(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["fit", "--model", model, "--data", str(data)], capsys)
    assert (code, err) == ((3 if model == "normal" else 0), "")
    doc = json.loads(out)
    if model == "normal":
        assert not doc["hessian_pd"] and doc["V_hat"] is None
        return
    assert doc["converged"] and doc["hessian_pd"]
    assert all(math.isfinite(v) and v != 0 for row in doc["V_hat"] for v in row)


def test_wald_interval_far_below_unit_scale(tmp_path, capsys):
    # lambda_hat is about 5e100, where lambda^4 overflows (A = 5 / lambda^4
    # is 0) and B^2 underflows, but sigma^2 = 5 lambda^2 / 4 is a double
    xs = get_family("exponential").draw((5.0,), 30, make_rng(1, 0)) * 1e-100
    data = tmp_path / "x.csv"
    data.write_text("".join(f"{float(x)!r}\n" for x in xs))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["interval", "--model", "exponential", "--data",
                                  str(data), "--kind", "wald"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    lam = doc["theta_hat"]["lambda"]
    assert 0 < doc["lower"] < lam < doc["upper"] < math.inf


@pytest.mark.parametrize("command", [["power", "--null", "6.0", "--alt", "5.0"],
                                     ["samplesize", "--null", "6.0", "--alt", "5.0",
                                      "--beta", "0.9"]])
def test_power_and_samplesize_on_data_below_the_support(command, tmp_path, capsys):
    # g is +inf at every lambda: a domain error, not "power": null or an
    # indistinguishable alternative
    data = tmp_path / "x.csv"
    data.write_text("0.3\n-0.2\n1.1\n0.7\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(command + ["--model", "exponential", "--data", str(data)],
                                 capsys)
    assert (code, out) == (2, "")
    assert err.startswith("ckle: error: support violation")


def test_fit_with_a_negative_observation_at_the_support_start(tmp_path, capsys):
    # mu_hat = x_(1) < 0 puts that observation at t = 0, where psi is -inf:
    # no V_hat and no positive-definite Hessian, and no warning on the way
    data = tmp_path / "x.csv"
    data.write_text("-3.57e16\n1e-12\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["fit", "--model", "twoparamexp", "--data", str(data)],
                                 capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["theta_hat"]["mu"] == -3.57e16 and doc["support_warning"]
    assert doc["hessian_pd"] is False and doc["V_hat"] is None


def test_numeric_fit_on_empty_feasible_region_prints_only_the_error(tmp_path):
    # a child process, so that any warning reaches stderr as a user sees it
    data = tmp_path / "neg.csv"
    data.write_text("-1\n0.5\n2\n3\n")
    proc = subprocess.run([sys.executable, "-m", "ckle.cli", "fit", "--model",
                           "exponential", "--method", "numeric", "--data", str(data)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("ckle: error: empty feasible region: objective is "
                           "infinite at the optimum\n")


def test_unexpected_exception_exit70_without_traceback(tmp_path, capsys, monkeypatch):
    import ckle.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(ckle.cli, "_cmd_fit", broken)
    data = tmp_path / "x.csv"
    data.write_text("1.0\n2.0\n")
    code, out, err = run_cli(["fit", "--model", "exponential", "--data", str(data)], capsys)
    assert code == 70
    assert out == ""
    assert err == "ckle: internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_parse_errors_exit1(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, _, err = run_cli(["fit", "--model", "exponential", "--data",
                            str(missing)], capsys)
    assert code == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\ntwo\n")
    code, _, _ = run_cli(["fit", "--model", "exponential", "--data", str(bad)], capsys)
    assert code == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    code, _, _ = run_cli(["fit", "--model", "exponential", "--data", str(empty)], capsys)
    assert code == 1


def test_header_and_comma_parsing(tmp_path, capsys):
    data = tmp_path / "hdr.csv"
    data.write_text("value\n1.0, 2.0\n3.0\n")
    code, out, _ = run_cli(["gof", "--model", "exponential", "--data", str(data)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["divergence"] >= 0.0


def test_interval_worked_example(tmp_path, capsys):
    data = tmp_path / "exp30.csv"
    write_worked_sample(data)
    code, out, _ = run_cli(["interval", "--model", "exponential", "--data",
                            str(data), "--kind", "divergence", "--level",
                            "0.95"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == pytest.approx(2.092375, abs=1e-5)
    assert doc["upper"] == pytest.approx(4.633022, abs=1e-5)
    assert doc["cutoff_k"] == pytest.approx(0.9498908, abs=1e-5)


def test_interval_level_validation(tmp_path, capsys):
    data = tmp_path / "exp30.csv"
    write_worked_sample(data)
    code, _, err = run_cli(["interval", "--model", "exponential", "--data",
                            str(data), "--level", "1.5"], capsys)
    assert code == 64


@pytest.mark.parametrize("args,named", [
    (["interval", "--kind", "wald", "--level", "0.9999999999999999"],
     "level = 0.9999999999999999"),
    (["interval", "--kind", "divergence", "--level", "0.9999999999999999"],
     "level = 0.9999999999999999"),
    (["test", "--null", "5.0", "--alpha", "1e-16"], "alpha = 1e-16"),
    (["power", "--null", "6.0", "--alt", "5.0", "--n", "200", "--alpha", "1e-16"],
     "alpha = 1e-16"),
    (["samplesize", "--null", "6.0", "--alt", "5.0", "--beta", "1e-16"], "beta = 1e-16"),
])
def test_infinite_normal_quantile_exit2(tmp_path, capsys, args, named):
    # (1 + q) / 2 rounds to 1 here, where the normal quantile is infinite
    data = tmp_path / "exp30.csv"
    write_worked_sample(data)
    command, *rest = args
    code, out, err = run_cli([command, "--model", "exponential", "--data", str(data),
                              *rest], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"ckle: error: {named} is too extreme")
    assert "Traceback" not in err and err.count("\n") == 1


def test_interval_wald_vs_divergence_large_n(tmp_path, capsys):
    xs = get_family("exponential").draw((3.0,), 10_000, make_rng(61, 0))
    data = tmp_path / "big.csv"
    data.write_text("\n".join(repr(float(v)) for v in xs))
    _, out_w, _ = run_cli(["interval", "--model", "exponential", "--data",
                           str(data), "--kind", "wald"], capsys)
    _, out_d, _ = run_cli(["interval", "--model", "exponential", "--data",
                           str(data), "--kind", "divergence"], capsys)
    w, d = json.loads(out_w), json.loads(out_d)
    assert d["lower"] == pytest.approx(w["lower"], rel=0.02)
    assert d["upper"] == pytest.approx(w["upper"], rel=0.02)


def test_test_at_estimate(tmp_path, capsys):
    data = tmp_path / "exp30.csv"
    write_worked_sample(data)
    _, out, _ = run_cli(["fit", "--model", "exponential", "--data", str(data)], capsys)
    lam_hat = json.loads(out)["theta_hat"]["lambda"]
    code, out, _ = run_cli(["test", "--model", "exponential", "--data",
                            str(data), "--null", repr(lam_hat)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["p_value"] == pytest.approx(1.0)
    assert doc["reject"] is False


def test_test_region_duality_random_nulls(tmp_path, capsys):
    xs = get_family("exponential").draw((5.0,), 150, make_rng(64, 1))
    data = tmp_path / "e.csv"
    data.write_text("\n".join(repr(float(v)) for v in xs))
    mean_sq = float((xs**2).mean())
    rng = make_rng(64, 2)
    for _ in range(100):
        lam0 = float(rng.uniform(2.0, 9.0))
        _, out, _ = run_cli(["test", "--model", "exponential", "--data",
                             str(data), "--null", repr(lam0)], capsys)
        doc = json.loads(out)
        lo, hi = doc["region_mean_sq"]
        assert ((mean_sq > hi) or (mean_sq < lo)) == doc["reject"]


def test_power_and_samplesize_contract(tmp_path, capsys):
    xs = get_family("exponential").draw((6.0,), 5000, make_rng(31, 1))
    data = tmp_path / "alt.csv"
    data.write_text("\n".join(repr(float(v)) for v in xs))
    code, out, _ = run_cli(["power", "--model", "exponential", "--data",
                            str(data), "--null", "5.0", "--alt", "6.0",
                            "--n", "200"], capsys)
    assert code == 0
    assert 0.0 <= json.loads(out)["power"] <= 1.0
    code, out, _ = run_cli(["samplesize", "--model", "exponential", "--data",
                            str(data), "--null", "5.0", "--alt", "6.0",
                            "--beta", "0.9"], capsys)
    assert code == 0
    doc = json.loads(out)
    n0 = ((doc["c_theta1"] * doc["chi2_beta"] - doc["c_theta0"] * doc["chi2_alpha"])
          / (2 * (doc["g_theta1"] - doc["g_theta0"])))
    assert doc["n_star"] == math.floor(n0) + 1
    assert doc["n0"] == pytest.approx(n0, rel=1e-6)


def test_samplesize_warning_is_one_stderr_line_in_process(tmp_path, capsys):
    # the same command through main in this process, where the warning is
    # printed by the CLI's own line printer
    data = tmp_path / "exp.csv"
    xs = get_family("exponential").draw((5.0,), 30, make_rng(1, 7))
    data.write_text("\n".join(repr(float(v)) for v in xs))
    code, out, err = run_cli(["samplesize", "--model", "exponential", "--data", str(data),
                              "--null", "6.0", "--alt", "5.0", "--beta", "0.9"], capsys)
    assert code == 0
    assert json.loads(out)["n_star"] == 1
    assert err == "ckle: warning: requested power is reached at any sample size; returning 1\n"


def test_samplesize_warning_is_one_stderr_line(tmp_path):
    # a child process, so that the warning reaches stderr as a user sees it
    data = tmp_path / "exp.csv"
    xs = get_family("exponential").draw((5.0,), 30, make_rng(1, 7))
    data.write_text("\n".join(repr(float(v)) for v in xs))
    proc = subprocess.run([sys.executable, "-m", "ckle.cli", "samplesize", "--model",
                           "exponential", "--data", str(data), "--null", "6.0",
                           "--alt", "5.0", "--beta", "0.9"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_star"] == 1
    assert proc.stderr == ("ckle: warning: requested power is reached at any "
                           "sample size; returning 1\n")


@pytest.mark.parametrize("model,extra", [
    ("normal", ["power", "--alt", "2"]),
    ("normal", ["samplesize", "--alt", "2", "--beta", "0.9"]),
    ("pareto", ["samplesize", "--alt", "2", "--beta", "0.9"]),
])
def test_power_and_samplesize_on_a_vector_family_exit2(tmp_path, capsys, model, extra):
    data = tmp_path / "n30.csv"
    xs = get_family(model).draw((4.0, 2.0) if model == "pareto" else (2.0, 3.0), 30,
                                make_rng(3, 0))
    data.write_text("\n".join(repr(float(v)) for v in xs))
    command, *rest = extra
    code, out, err = run_cli([command, "--model", model, "--data", str(data),
                              "--null", "1", *rest], capsys)
    assert code == 2 and out == ""
    assert err == f"ckle: error: {model} expects 2 parameters, got 1\n"


def test_gof_single_point_and_misspecification(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("2.5\n")
    code, out, _ = run_cli(["gof", "--model", "exponential", "--data", str(one)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert math.isfinite(doc["divergence"]) and doc["divergence"] >= 0
    # paired comparison on one large well-specified sample
    xs = get_family("exponential").draw((2.0,), 4000, make_rng(71, 0))
    data = tmp_path / "well.csv"
    data.write_text("\n".join(repr(float(v)) for v in xs))
    _, out_e, _ = run_cli(["gof", "--model", "exponential", "--data", str(data)], capsys)
    _, out_l, _ = run_cli(["gof", "--model", "laplace", "--data", str(data)], capsys)
    well = json.loads(out_e)["divergence"]
    miss = json.loads(out_l)["divergence"]
    assert well < miss


def test_simulate_shape_and_determinism(tmp_path, capsys):
    args = ["simulate", "--model", "exponential", "--params", "lambda=5",
            "--sizes", "10:55:5", "--reps", "100", "--seed", "42",
            "--threads", "1"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "size,estimator,param,mean,ratio,variance,failures"
    assert len(lines) == 1 + 10 * 2      # ten sizes, two default estimators
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    code, out3, _ = run_cli(args[:-1] + ["2"], capsys)
    assert out1 == out3


@pytest.mark.parametrize("model,params", [("normal", ["mu=0", "sigma=1"]),
                                          ("twoparamexp", ["mu=0", "sigma=2"])])
def test_simulate_zero_truth_prints_nan_ratio_and_no_warning(capsys, model, params):
    code, out, err = run_cli(["simulate", "--model", model, "--params", *params,
                              "--sizes", "5", "--reps", "3", "--threads", "1"], capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[4] for r in rows if r[2] == "mu"] == ["nan", "nan"]
    assert all(math.isfinite(float(r[4])) for r in rows if r[2] == "sigma")


def test_simulate_usage_errors(tmp_path, capsys):
    code, _, _ = run_cli(["simulate", "--model", "exponential", "--params",
                          "lambda=5", "--sizes", "10:55:5", "--reps", "0"], capsys)
    assert code == 64
    code, _, _ = run_cli(["simulate", "--model", "exponential", "--params",
                          "rate=5", "--sizes", "10", "--reps", "5"], capsys)
    assert code == 64
    code, _, _ = run_cli(["simulate", "--model", "normal", "--params",
                          "mu=2", "--sizes", "10", "--reps", "5"], capsys)
    assert code == 64


@pytest.mark.parametrize("threads", ["--threads=0", "--threads=-1"])
def test_simulate_nonpositive_threads_exit64(capsys, threads):
    code, out, err = run_cli(["simulate", "--model", "exponential", "--params",
                              "lambda=5", "--sizes", "10", "--reps", "3", threads], capsys)
    assert code == 64
    assert out == ""
    assert err == "ckle: error: threads must be positive\n"


def test_simulate_negative_seed_exit64(capsys):
    code, out, err = run_cli(["simulate", "--model", "exponential", "--params",
                              "lambda=5", "--sizes", "10", "--reps", "3", "--seed", "-1",
                              "--threads", "1"], capsys)
    assert code == 64
    assert out == ""
    assert err == "ckle: error: --seed must be a non-negative integer\n"


@pytest.mark.parametrize("sizes", ["0:10:5", "0", "10,0,20", "10,-1"])
def test_simulate_nonpositive_sizes_exit64(capsys, sizes):
    code, out, err = run_cli(["simulate", "--model", "exponential", "--params",
                              "lambda=5", "--sizes", sizes, "--reps", "3",
                              "--threads", "1"], capsys)
    assert code == 64
    assert out == ""
    assert err == "ckle: error: sizes must be positive\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_overflowing_draws_exit2(capsys, threads):
    # no file is read, so a non-finite draw is a data error, not a parse error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["simulate", "--model", "exponential", "--params",
                                  "lambda=1e-310", "--sizes", "10:20:10", "--reps", "3",
                                  "--seed", "1", "--threads", threads], capsys)
    assert (code, out) == (2, "")
    assert err == ("ckle: error: simulated draws are not finite: "
                   "exponential at (1e-310,) overflows\n")


def test_out_file(tmp_path, capsys):
    data = tmp_path / "pm1.csv"
    data.write_text("-1\n1\n")
    dest = tmp_path / "result.json"
    code, out, _ = run_cli(["fit", "--model", "laplace", "--data", str(data),
                            "--out", str(dest)], capsys)
    assert code == 0 and out == ""
    doc = json.loads(dest.read_text())
    assert doc["theta_hat"]["theta"] == pytest.approx(0.707107, abs=1e-6)


@pytest.mark.parametrize("command", [
    ["fit", "--model", "exponential", "--data", "{data}"],
    ["simulate", "--model", "exponential", "--params", "lambda=5", "--sizes", "10",
     "--reps", "5", "--threads", "1"],
])
def test_out_in_missing_directory_exit73(tmp_path, capsys, command):
    data = tmp_path / "x.csv"
    data.write_text("1.0\n2.0\n")
    dest = tmp_path / "nodir" / "out"
    args = [a.format(data=data) for a in command] + ["--out", str(dest)]
    code, out, err = run_cli(args, capsys)
    assert code == 73
    assert out == ""
    assert err.startswith("ckle: error: cannot write output: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not dest.parent.exists()


def test_simulate_checks_out_before_the_study(tmp_path, capsys, monkeypatch):
    def no_study(config):
        raise AssertionError("run_study ran before --out was checked")

    monkeypatch.setattr("ckle.cli.run_study", no_study)
    dest = tmp_path / "nodir" / "o.csv"
    code, out, err = run_cli(["simulate", "--model", "normal", "--params", "mu=2",
                              "sigma=3", "--sizes", "10,20", "--reps", "200",
                              "--threads", "1", "--out", str(dest)], capsys)
    assert code == 73 and out == ""
    assert err == f"ckle: error: cannot write output: [Errno 2] No such file or directory: '{dest}'\n"
    assert not dest.parent.exists()


def test_nine_significant_digits(tmp_path, capsys):
    data = tmp_path / "pm1.csv"
    data.write_text("-1\n1\n")
    _, out, _ = run_cli(["fit", "--model", "laplace", "--data", str(data)], capsys)
    doc = json.loads(out)
    val = doc["theta_hat"]["theta"]
    assert val == float(f"{math.sqrt(0.5):.9g}")


def test_console_script_smoke(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("1.0\n2.0\n0.5\n")
    proc = subprocess.run([sys.executable, "-m", "ckle.cli", "fit", "--model",
                           "exponential", "--data", str(data)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["family"] == "exponential"
    if shutil.which("ckle") is not None:
        proc = subprocess.run(["ckle", "fit", "--model", "exponential", "--data",
                               str(data)], capture_output=True, text=True)
        assert proc.returncode == 0
    # The entry point declared in [project.scripts], started in a child
    # process the way the pip/setuptools wrapper starts it, so the
    # declaration is checked also when the suite runs from source.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ckle"]
    module, attr = (part.strip() for part in target.split(":"))
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'ckle'; sys.exit({attr}())")
    proc = subprocess.run([sys.executable, "-c", wrapper, "fit", "--model",
                           "exponential", "--data", str(data)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["family"] == "exponential"


def test_usage_error_on_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64
