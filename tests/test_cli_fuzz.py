"""Hypothesis fuzz of ``cli.main`` on generated data files and flag values.

Every command on every file must end in a documented exit code (argparse's
``SystemExit`` counted), with no traceback and no internal error on stderr,
and any stdout must be strict JSON (no NaN or infinity tokens).  The quick
suite runs a small profile; the long one is marked ``slow``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ckle.cli import main

EXIT_CODES = {0, 1, 2, 3, 64, 73}
MODELS = ["exponential", "laplace", "twoparamexp", "pareto", "normal"]
SCALAR = ["exponential", "laplace"]

# edge values: signed zeros, subnormals, the ends of the format, mixed signs
edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                        1.0, -1.0, 2.5, 1e-3])
value = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
token = st.one_of(value.map(repr), value.map(repr), value.map(repr),
                  st.sampled_from(["nan", "inf", "-inf", "NaN", "abc", "1e", "--", "x,1"]))
line = st.one_of(token, st.lists(token, min_size=2, max_size=3).map(",".join))
ties = st.tuples(value, st.integers(2, 6)).map(lambda t: [repr(t[0])] * t[1])
files = st.one_of(
    st.just(""),
    st.just("\n \n"),
    value.map(repr),                                        # one value
    ties.map("\n".join),
    st.lists(line, min_size=1, max_size=12).map("\n".join),
    st.tuples(st.sampled_from(["x", "value", "a,b"]),
              st.lists(value.map(repr), min_size=1, max_size=8)).map(
                  lambda t: "\n".join([t[0], *t[1]])),      # a header line
)


# flag values: mostly valid, some outside the domain, some not numbers
theta = st.sampled_from(["0.5", "1", "2", "5", "2", "0", "-1", "nan", "inf",
                         "1e300", "1e-300", "x"])
prob = st.sampled_from(["0.95", "0.05", "0.5", "0.9", "0", "1", "1.5", "nan", "x"])
size = st.sampled_from(["50", "1", "0", "-3", "1e3", "x"])


@st.composite
def commands(draw):
    cmd = draw(st.sampled_from(["fit", "gof", "interval", "test", "power", "samplesize"]))
    if cmd in ("fit", "gof"):
        model = draw(st.sampled_from(MODELS))
        method = draw(st.sampled_from(["auto", "numeric"]))
        return [cmd, "--model", model, "--method", method]
    model = draw(st.sampled_from(SCALAR))
    if cmd == "interval":
        return [cmd, "--model", model, "--kind", draw(st.sampled_from(["wald", "divergence"])),
                "--level", draw(prob)]
    if cmd == "test":
        return [cmd, "--model", model, "--null", draw(theta), "--alpha", draw(prob)]
    extra = ["--n", draw(size)] if cmd == "power" else ["--beta", draw(prob)]
    return [cmd, "--model", model, "--null", draw(theta), "--alt", draw(theta), *extra]


def _strict_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def check_main(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--data", str(data)])
            except SystemExit as exc:        # argparse rejects a flag value
                code = exc.code
    stderr = err.getvalue()
    assert code in EXIT_CODES, (code, stderr)
    assert "Traceback" not in stderr and "internal error" not in stderr, stderr
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_strict_constant)


@settings(max_examples=40)
@given(commands(), files)
def test_cli_main_on_generated_files(argv, text):
    check_main(argv, text)


@pytest.mark.slow
@settings(max_examples=600)
@given(commands(), files)
def test_cli_main_on_generated_files_long(argv, text):
    check_main(argv, text)
