"""Record the reference outputs at the default seed into ``reference.json``.

    python3 perfbench/record.py

Run it only on a commit whose outputs are known to be right; every benchmark
run compares its default-seed outputs with this file.  The thread pins of the
benchmark's processes are applied before numpy loads: the Normal simplex
estimate moves by about 4e-8 relative when BLAS sums in another order.
"""

import os
import sys

from common import HERE, ROOT, child_env

os.environ.update(child_env())
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402

import workloads  # noqa: E402


def main():
    ref = {"seed": workloads.DEFAULT_SEED}
    for name in ("study-normal", "study-exponential", "analysis-n1000", "cli-session"):
        ref[name] = workloads.make(name).golden()
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
