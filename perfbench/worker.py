"""One workload process, started by ``run.py``.

It times its own ``import ckle`` first, builds the workload's inputs and
warms up, prints ``READY``, runs the closed loop, then checks the outputs
(untimed) and prints ``RESULT <json>`` as its last line.  The loop runs whole
units (one request, one analysis cycle, one CLI session) either until
``--slice`` seconds are used or for exactly ``--units`` units.
"""

import sys
import time

_t0 = time.perf_counter()
_m0 = len(sys.modules)
import ckle  # noqa: E402  (timed: this is the import layer)

IMPORT_S = time.perf_counter() - _t0
MODULES_LOADED = len(sys.modules) - _m0

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from scipy.special import log_ndtr  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from common import HERE, OUT_DIR  # noqa: E402


_CAL_X = numpy.linspace(-4.0, 4.0, 512)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, numpy and scipy.special work
    that involves no ckle code; its drift tracks the machine's speed."""
    begin = time.perf_counter()
    acc = 0.0
    for k in range(200):
        z = (_CAL_X - 0.01 * k) / 1.5
        acc += float(log_ndtr(z) @ _CAL_X) + float(numpy.sort(z)[::7].sum())
        for j in range(60):
            acc += math.sqrt(j + k)
    return time.perf_counter() - begin


def closed_loop(wl, start, slice_s, units, tracer):
    """Run whole units back to back; with ``slice_s``, start another unit
    only while it is expected to end closer to the slice end than not.
    A calibration run follows every request, outside its timing."""
    latencies, outcomes, calibration = [], [], []
    i = start
    begin = time.perf_counter()
    done = 0
    unit_s = 0.0
    while True:
        if units is not None:
            if done == units:
                break
        elif done and time.perf_counter() - begin + 0.5 * unit_s >= slice_s:
            break
        unit_begin = time.perf_counter()
        for _ in range(wl.unit):
            t0 = time.perf_counter()
            outcome = wl.run(i, tracer)
            latencies.append(time.perf_counter() - t0)
            outcomes.append(outcome)
            calibration.append(calibrate())
            i += 1
        unit_s = time.perf_counter() - unit_begin
        done += 1
    return latencies, outcomes, calibration, i


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--slice", type=float, default=None)
    ap.add_argument("--units", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--checks", type=int, default=0,
                    help="also run the reference and thread-count checks")
    args = ap.parse_args(argv)
    # One CPU for this process and its CLI children, so that the calibration
    # runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    wl = workloads.make(args.workload)
    wl.setup(args.seed)
    print("READY", flush=True)

    in_process = not isinstance(wl, workloads.CliSession)
    tr = None
    if not in_process:
        wl.traced = bool(args.trace)        # each CLI child traces itself
    elif args.trace:
        tr = tracing.Tracer()
        tr.install()
    latencies, outcomes, calibration, stop = closed_loop(
        wl, args.start, args.slice, args.units, tr)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tr is not None:
        tr.uninstall()

    # ---- checks, untimed
    misses = [m for o in outcomes for m in o.misses]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digests = {}
    for o in outcomes:
        if digests.setdefault(o.key, o.digest) != o.digest:
            misses.append(f"{wl.name}: request {o.key} gave different outputs on repeat")
    checks = 0
    first = outcomes[0]
    if sum(o.key == first.key for o in outcomes) == 1:
        checks += 1
        if wl.run(args.start).digest != first.digest:
            misses.append(f"{wl.name}: request {args.start} gave different outputs on repeat")
    if not in_process:
        wl.traced = False
        checks += len(wl.seen)
        misses += wl.crosscheck(digests)
    if args.checks:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        golden = wl.golden_out if wl.golden_out is not None else wl.golden()
        table = wl.name.split("-")[0]
        checks += 2
        misses += workloads.compare(reference[wl.name], golden, table)
        misses += workloads.thread_check()
    attempted += checks
    failed += len(misses) - sum(len(o.misses) for o in outcomes)

    result = {
        "import_s": IMPORT_S, "modules_loaded": MODULES_LOADED,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "latencies": latencies, "items": [o.items for o in outcomes],
        "calibration": calibration, "next": stop,
        "attempted": attempted, "failed": failed,
        "failed_fits": sum(o.failed_fits for o in outcomes),
        "misses": misses, "digests": digests, "rss_mb": rss_mb,
    }
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        if tr is not None:
            result["layers"] = tr.accumulate()
            result["spans"] = len(tr)
            tr.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-s{args.seed}-{os.getpid()}.csv.gz"))
            result["child_import_s"] = []
        else:
            acc, spans, imports = {}, 0, []
            for path in sorted(glob.glob(os.path.join(wl.trace_dir, "*.json"))):
                with open(path, encoding="utf-8") as fh:
                    child = json.load(fh)
                tracing.merge(acc, child["layers"])
                spans += child["spans"]
                imports.append(child["import_s"])
            result.update(layers=acc, spans=spans, child_import_s=imports)
    if not in_process:
        wl.close()
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
