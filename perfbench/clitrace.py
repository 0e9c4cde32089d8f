"""Traced CLI child: ``python perfbench/clitrace.py OUT_DIR LABEL REQUEST ARGV...``.

Times ``import ckle`` in this fresh process, rebinds the ckle layers with
the tracer, runs ``ckle.cli.main(ARGV)`` as one request span, and writes the
spans and their per-layer accumulators to OUT_DIR/REQUEST.{csv.gz,json}.
The exit code is main's.
"""

import sys
import time

_t0 = time.perf_counter()
_m0 = len(sys.modules)
import ckle  # noqa: E402  (timed: this is the import layer)

IMPORT_S = time.perf_counter() - _t0
MODULES_LOADED = len(sys.modules) - _m0

import json  # noqa: E402
import os  # noqa: E402

import ckle.cli  # noqa: E402

import tracer as tracing  # noqa: E402


def main():
    out_dir, label, rid = sys.argv[1:4]
    tr = tracing.Tracer()
    tr.install()
    try:
        with tr.request(int(rid), f"request.cli.{label}"):
            code = ckle.cli.main(sys.argv[4:])
    finally:
        tr.uninstall()
    sys.stdout.flush()
    tr.dump(os.path.join(out_dir, f"{rid}.csv.gz"))
    with open(os.path.join(out_dir, f"{rid}.json"), "w", encoding="utf-8") as fh:
        json.dump({"import_s": IMPORT_S, "modules_loaded": MODULES_LOADED,
                   "spans": len(tr), "layers": tr.accumulate()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
