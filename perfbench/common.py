"""Paths, the design record and the child-process environment, shared by
the runner (standard library only) and the workload processes."""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

with open(os.path.join(HERE, "design.json"), encoding="utf-8") as _fh:
    DESIGN = json.load(_fh)


def child_env() -> dict:
    """Environment of every process the benchmark starts: ckle from ``src``
    and every BLAS/OpenMP pool pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env
