"""scipy.integrate stays out of ``import ckle`` and of every CLI command.

Each ``ckle`` command is a new process, so whatever ``import ckle`` loads is
paid on every call; scipy.integrate (with scipy.optimize behind it) is loaded
only by the two adaptive-quadrature reference paths, ``Normal.s_value`` and
``normal_equation_residuals``, through the lazy ``ckle.models.quad``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.integrate

import ckle
import ckle.inference
import ckle.models
import ckle.objective

LAZY = ("scipy.integrate", "scipy.optimize")


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
print(json.dumps({{"before": before, "after": "scipy.integrate" in sys.modules,
                  "value": value}}))
"""


def test_import_does_not_load_scipy_integrate():
    out = run_python(IMPORT_THEN_QUAD)
    assert out["before"] == []
    assert out["after"]
    assert out["value"] == pytest.approx(-0.6281515025132546, rel=1e-14, abs=0.0)


CLI_SESSION = f"""
import contextlib, io, json, os, sys
import ckle.cli
d = sys.argv[1]
commands = [
    ["fit", "--model", "normal", "--data", "normal.csv"],
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
    assert [r[0] for r in results] == ["fit", "interval", "interval", "test", "power",
                                       "samplesize", "gof", "simulate"]
    for command, code, loaded in results:
        assert code == 0, command
        assert loaded == [], command


def test_quad_names_the_tracer_binds():
    for module in (ckle.models, ckle.objective, ckle.inference):
        assert callable(module.quad)
        assert module.quad is ckle.models.quad
    assert ckle.models.quad(math.cos, 0.0, 1.0) == scipy.integrate.quad(math.cos, 0.0, 1.0)


def test_every_exported_name_resolves():
    missing = [name for name in ckle.__all__ if not hasattr(ckle, name)]
    assert missing == []
