"""scipy.integrate and scipy.special stay out of ``import ckle``, and each
is loaded only by the CLI commands that use it.

Each ``ckle`` command is a new process, so whatever ``import ckle`` loads is
paid on every call.  scipy.integrate (with scipy.optimize behind it) is loaded
only by the adaptive-quadrature reference path ``Normal.s_value``, through
the lazy ``ckle.models.quad``.
scipy.special is loaded on the first call of ``ckle.models.log_ndtr``,
``ndtr``, ``ndtri`` or ``spence`` (the Normal, the two-parameter exponential's
dilogarithm) or of the quadrature variance's tanh-sinh table; of the eight
commands of ``CLI_SESSION`` only ``fit --model normal`` loads it.
multiprocessing (with socket behind it) is loaded only by a study that runs
on more than one worker.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import ckle
import ckle.inference
import ckle.models
import ckle.objective

LAZY = ("scipy.integrate", "scipy.optimize", "scipy.special")


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's ckle;
    return what it printed as JSON."""
    env = dict(os.environ)
    src = str(Path(ckle.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


IMPORT_THEN_QUAD = f"""
import json, sys
import ckle, ckle.cli
before = [m for m in {LAZY!r} if m in sys.modules]
value = ckle.NORMAL.s_value((2.0, 3.0), 1.5)
print(json.dumps({{"before": before, "after": [m for m in {LAZY!r} if m in sys.modules],
                  "value": value}}))
"""


def test_import_does_not_load_scipy_integrate():
    out = run_python(IMPORT_THEN_QUAD)
    assert out["before"] == []
    assert out["after"] == list(LAZY)
    assert out["value"] == pytest.approx(-0.6281515025132546, rel=1e-14, abs=0.0)


IMPORT_CLI = """
import json, sys
import ckle, ckle.cli
print(json.dumps([m for m in ("multiprocessing", "socket") if m in sys.modules]))
"""


def test_import_does_not_load_multiprocessing():
    assert run_python(IMPORT_CLI) == []


IMPORT_THEN_SPECIAL = """
import json, sys
import ckle, ckle.cli
before = "scipy.special" in sys.modules
out = {"before": before}
for name, call in [("chi2", lambda: ckle.chi2_quantile_df1(0.95) + ckle.chi2_sf_df1(3.0)),
                   ("exponential avar", lambda: ckle.avar_scalar("exponential", (5.0,),
                                                                 method="quadrature")),
                   ("normal cdf", lambda: ckle.NORMAL.cdf((0.0, 1.0), 0.5))]:
    call()
    out[name] = "scipy.special" in sys.modules
print(json.dumps(out))
"""


def test_scipy_special_loads_on_first_use():
    out = run_python(IMPORT_THEN_SPECIAL)
    # the chi-square quantities come from the standard library; the
    # quadrature variance's tanh-sinh table is the first user here
    assert out == {"before": False, "chi2": False, "exponential avar": True,
                   "normal cdf": True}


CLI_SESSION = f"""
import contextlib, io, json, os, sys
import ckle.cli
d = sys.argv[1]
commands = [
    ["interval", "--model", "exponential", "--data", "exponential.csv", "--kind", "wald"],
    ["interval", "--model", "laplace", "--data", "laplace.csv", "--kind", "divergence"],
    ["test", "--model", "exponential", "--data", "exponential.csv", "--null", "5.0"],
    ["power", "--model", "exponential", "--data", "exponential.csv", "--null", "6.0",
     "--alt", "5.0", "--n", "200"],
    ["samplesize", "--model", "exponential", "--data", "exponential.csv", "--null", "6.0",
     "--alt", "5.0", "--beta", "0.9"],
    ["gof", "--model", "pareto", "--data", "pareto.csv"],
    ["simulate", "--model", "exponential", "--params", "lambda=5", "--sizes", "10:30:10",
     "--reps", "5", "--seed", "3", "--threads", "1"],
    ["fit", "--model", "normal", "--data", "normal.csv"],
]
results = []
for argv in commands:
    argv = [os.path.join(d, a) if a.endswith(".csv") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = ckle.cli.main(argv)
    results.append([argv[0], code, [m for m in {LAZY!r} if m in sys.modules]])
print(json.dumps(results))
"""


def test_cli_commands_do_not_load_scipy_integrate(tmp_path):
    data = {"normal": (2.0, 3.0), "exponential": (5.0,), "laplace": (2.0,),
            "pareto": (4.0, 2.0)}
    for j, (name, theta) in enumerate(data.items()):
        xs = ckle.get_family(name).draw(theta, 30, ckle.make_rng(11, j))
        (tmp_path / f"{name}.csv").write_text("".join(f"{float(x)!r}\n" for x in xs))
    results = run_python(CLI_SESSION, str(tmp_path))
    # the Normal fit runs last, so the modules listed after each of the
    # others were loaded by that command or an earlier one
    assert [r[0] for r in results] == ["interval", "interval", "test", "power",
                                       "samplesize", "gof", "simulate", "fit"]
    for command, code, loaded in results[:-1]:
        assert code == 0, command
        assert loaded == [], command
    assert results[-1][1:] == [0, ["scipy.special"]]


def test_quad_names_the_tracer_binds():
    for module in (ckle.models, ckle.objective, ckle.inference):
        assert callable(module.quad)
        assert module.quad is ckle.models.quad
    assert ckle.models.quad(math.cos, 0.0, 1.0) == scipy.integrate.quad(math.cos, 0.0, 1.0)


def test_normal_fit_calls_log_ndtr_through_the_module(monkeypatch):
    # perfbench/tracer.py wraps ckle.models.log_ndtr before the first fit and
    # counts the points of every call, so a fit must look the name up there
    calls = []
    forward = ckle.models.log_ndtr

    def counting(x):
        calls.append(1)
        return forward(x)

    monkeypatch.setattr(ckle.models, "log_ndtr", counting)
    xs = ckle.NORMAL.draw((2.0, 3.0), 30, ckle.make_rng(11, 0))
    ckle.fit("normal", ckle.build_sample(xs))
    assert len(calls) > 0
    assert ckle.models.log_ndtr is counting


def test_special_forwarders_are_the_scipy_ufuncs():
    x = np.linspace(-40.0, 40.0, 801)
    p = np.linspace(1e-300, 1.0 - 1e-16, 801)
    for name, arg in (("log_ndtr", x), ("ndtr", x), ("ndtri", p), ("spence", np.abs(x))):
        ours, theirs = getattr(ckle.models, name)(arg), getattr(scipy.special, name)(arg)
        assert ours.tobytes() == theirs.tobytes(), name


def test_every_exported_name_resolves():
    missing = [name for name in ckle.__all__ if not hasattr(ckle, name)]
    assert missing == []
