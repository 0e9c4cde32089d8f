"""ckle benchmark: four seeded workloads, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

With ``--trace 0`` a run starts three workload processes one after another
(``worker.py``); each sets up, then measures for a third of the time.  The
report gives the median set-up time, the throughput, the request latency
median and tail, and the peak RSS.  The time metrics are normalised by the
machine speed measured in the same run (``calibrate`` in ``worker.py``; see
``design.json``), and the raw values are printed beside them.  With
``--trace 1`` one untraced and one
traced process run the same fixed requests; the report gives the per-layer
metrics of ``layers.py`` and the tracing overhead (traced minus untraced).
Every run checks its outputs (see ``workloads.py``) and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}`` as JSON.  A full
report, with the environment, goes to ``.perfbench_out/``.

This file uses only the standard library: ckle, numpy and scipy are loaded
in the workload processes only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

from common import DESIGN, HERE, OUT_DIR, ROOT, child_env
from layers import is_count, layer_metrics

WORKLOADS = ("study-normal", "study-exponential", "analysis-n1000", "cli-session")
SETUPS = 3                     # set-ups per timed run; setup_s is their median
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_worker(workload, seed, extra):
    """Start one workload process; return (set-up seconds, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), *map(str, extra)]
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - begin
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise BenchError(f"{workload} worker failed with exit code {code}")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def percentile(values, p):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, min(len(xs) - 1, math.ceil(p / 100.0 * len(xs)) - 1))]


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def environment(result):
    return {**result["versions"], "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "pinned_threads": 1}


def check_digests(results):
    """The same request key must give the same outputs in every process."""
    seen, misses = {}, []
    for res in results:
        for key, dig in res["digests"].items():
            if seen.setdefault(key, dig) != dig:
                misses.append(f"request {key} differs between processes")
    return misses


def normalise(res):
    """Request times in units of the reference machine: each is divided by
    the machine speed around it, the median of the five calibration times
    nearest to it over calibration_ref_ms.  Also returns the speed at the
    start of the loop, which scales that process's set-up time."""
    cal, ref = res["calibration"], DESIGN["calibration_ref_ms"] / 1e3
    speed = [statistics.median(cal[max(0, i - 2):i + 3]) / ref for i in range(len(cal))]
    return [t / s for t, s in zip(res["latencies"], speed)], speed[0]


def timed_run(workload, seed, seconds):
    setups, results = [], []
    start = 0
    for k in range(SETUPS):
        setup_s, res = run_worker(workload, seed, [
            "--start", start, "--slice", seconds / SETUPS, "--checks", int(k == SETUPS - 1)])
        setups.append(setup_s)
        results.append(res)
        start = res["next"]
    normed = [normalise(r) for r in results]
    times = [ts for ts, _ in normed]
    latencies = [t for ts in times for t in ts]
    raw_latencies = [t for r in results for t in r["latencies"]]
    tail = DESIGN["tail_percentile"][workload]
    items = sum(n for r in results for n in r["items"])
    metrics = {
        "setup_s": (statistics.median(s / sp for s, (_, sp) in zip(setups, normed)), "s"),
        "throughput_per_s": (items / sum(latencies), "1/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms_tail": (percentile(latencies, tail) * 1e3, "ms"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
    }
    raw = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": items / sum(raw_latencies),
        "latency_ms_p50": statistics.median(raw_latencies) * 1e3,
        "latency_ms_tail": percentile(raw_latencies, tail) * 1e3,
    }
    samples = {"setup_s": len(setups), "throughput_per_s": len(latencies),
               "latency_ms_p50": len(latencies),
               "latency_ms_tail": len(latencies), "peak_rss_mb": len(results)}
    notes = {k: f"raw {v:.6g}" for k, v in raw.items()}
    beyond = len(latencies) - math.ceil(tail / 100 * len(latencies))
    notes["latency_ms_tail"] += f", p{tail}, {beyond} samples beyond it"
    cal_ms = statistics.median(x for r in results for x in r["calibration"]) * 1e3
    notes["calibration_ms"] = f"{cal_ms:.6g}"
    return results, metrics, samples, notes


def traced_run(workload, seed, seconds):
    units = max(1, round(seconds * DESIGN["trace_units_per_s"][workload] / 2))
    _, plain = run_worker(workload, seed, ["--start", 0, "--units", units])
    _, traced = run_worker(workload, seed, ["--start", 0, "--units", units,
                                            "--trace", 1, "--checks", 1])
    untraced_s, traced_s = (sum(normalise(r)[0]) for r in (plain, traced))
    extra = {
        "import_s": statistics.median([plain["import_s"], traced["import_s"],
                                       *traced["child_import_s"]]),
        "modules_loaded": traced["modules_loaded"],
        "failed_fits": traced["failed_fits"],
        "overhead_share": traced_s / untraced_s - 1.0,
        "overhead_ms": (traced_s - untraced_s) / len(traced["latencies"]) * 1e3,
        "spans": traced["spans"],
    }
    metrics = layer_metrics(traced["layers"], extra)
    n = len(traced["latencies"])
    samples = {name: n for name in metrics}
    notes = {name: "count" for name in metrics if is_count(name)}
    return [plain, traced], metrics, samples, notes


def run_one(workload, seed, seconds, trace):
    runner = traced_run if trace else timed_run
    results, metrics, samples, notes = runner(workload, seed, seconds)
    cross = check_digests(results)          # one more check: processes agree
    misses = cross + [m for r in results for m in r["misses"]]
    summary = {
        "correct": not misses,
        "attempted": sum(r["attempted"] for r in results) + 1,
        "failed": sum(r["failed"] for r in results) + bool(cross),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(results[0]), "samples": samples, "notes": notes,
              "misses": misses, **summary,
              "workers": [{k: v for k, v in r.items()
                           if k not in ("latencies", "items", "calibration", "layers")}
                          for r in results]}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}-s{seed}-t{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report, summary


def print_table(report):
    env = report["env"]
    print(f"# {report['workload']}  seed={report['seed']}  seconds={report['seconds']}"
          f"  trace={report['trace']}  python={env['python']} numpy={env['numpy']}"
          f" scipy={env['scipy']} nproc={env['nproc']} commit={env['commit']}")
    for name, m in report["metrics"].items():
        note = report["notes"].get(name, "")
        print(f"{name:44s} {m['value']:14.6g} {m['unit']:6s} {report['workload']:18s}"
              f" n={report['samples'][name]:<6d} {note}")
    att, fail = report["attempted"], report["failed"]
    print(f"{'failed_fraction':44s} {fail / att:14.6g} {'share':6s} {report['workload']:18s}"
          f" n={att:<6d} ({fail} of {att} operations)")
    for miss in report["misses"]:
        print(f"MISS {miss}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DESIGN["default_seed"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "ckle", "__init__.py")):
        print("perfbench: src/ckle not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outputs = [run_one(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for report, _ in outputs:
        print_table(report)
    if len(outputs) == 1:
        final = outputs[0][1]
    else:
        final = {"correct": all(s["correct"] for _, s in outputs),
                 "attempted": sum(s["attempted"] for _, s in outputs),
                 "failed": sum(s["failed"] for _, s in outputs),
                 "metrics": {f"{r['workload']}/{k}": v
                             for r, s in outputs for k, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
