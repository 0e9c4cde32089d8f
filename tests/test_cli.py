import json
import math
import subprocess
import sys

import pytest

from ckle import get_family, make_rng
from ckle.cli import main


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
    proc = subprocess.run(["ckle", "fit", "--model", "exponential", "--data",
                           str(data)], capture_output=True, text=True)
    assert proc.returncode == 0


def test_usage_error_on_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64
