"""Self-test of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Takes about two minutes: it makes two traced runs of every workload.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEED = 7                       # not the default seed: a second seed must work unchanged
EXTRA = dict(import_s=1.0, modules_loaded=1, failed_fits=0, overhead_share=0.0,
             overhead_ms=0.0, spans=1)
LAYER_NAMES = layers.layer_metrics({}, EXTRA)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    reported = {k: u for k, (_, u) in LAYER_NAMES.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert tuple(label for label, _ in workloads.CLI_SESSION) == layers.CLI_LABELS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", "2", "--trace", "1"]
    first, second = last_json(bench(*args)), last_json(bench(*args))
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0
    assert set(first["metrics"]) == set(LAYER_NAMES)
    counts = [k for k in LAYER_NAMES if layers.is_count(k)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untimed_run_reports_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = last_json(bench("--workload", "study-exponential", "--seed", str(SEED),
                          "--seconds", "2", "--trace", "0"))
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "study-normal", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_tolerances():
    ref = {"theta_hat": [2.0], "p_value": 0.5, "converged": True}
    assert workloads.compare(ref, {"theta_hat": [2.0 * (1 + 5e-10)], "p_value": 0.5,
                                   "converged": True}, "analysis") == []
    assert workloads.compare(ref, {"theta_hat": [2.0 * (1 + 2e-9)], "p_value": 0.5,
                                   "converged": True}, "analysis")
    assert workloads.compare(ref, {"theta_hat": [2.0], "p_value": 0.5,
                                   "converged": False}, "analysis")
    rows = {"10/mckle/mu": {"mean": 2.0, "ratio": 1.0, "variance": 1e-6, "failures": 0}}
    near = {"10/mckle/mu": {"mean": 2.0, "ratio": 1.0, "variance": 1e-6 + 4e-9, "failures": 0}}
    assert workloads.compare(rows, near, "study") == []
    far = {"10/mckle/mu": {"mean": 2.0, "ratio": 1.0, "variance": 1e-6, "failures": 1}}
    assert workloads.compare(rows, far, "study")
