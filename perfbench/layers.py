"""Per-layer metrics from the tracer's accumulators.

Every traced run reports every name below.  A layer the workload does not
reach reads 0: its calls, counts and times are all zero there, which is the
"flat on" side of each prediction in ``design.json``.
"""

FAMILIES = ("exponential", "laplace", "twoparamexp", "pareto", "normal")
SCALAR = ("exponential", "laplace")
CLI_LABELS = ("fit", "interval.wald", "interval.divergence", "test", "power",
              "samplesize", "gof", "simulate")
SCALAR_INFERENCE = ("divergence_interval", "gddt_test", "power_approx",
                    "required_sample_size")


def layer_metrics(acc: dict, extra: dict) -> dict:
    """Map accumulators (see ``Tracer.accumulate``) and the run's extra
    measurements to ``{name: (value, unit)}``."""

    def mean(key, scale=1.0):
        num, den = acc.get(key, (0.0, 0.0))
        return num / den * scale if den else 0.0

    def calls(span):
        return acc.get(f"total.{span}", (0.0, 0.0))[1]

    def per_call(span, what):
        n = calls(span)
        return acc.get(f"under.{span}.{what}", (0.0, 0.0))[0] / n if n else 0.0

    def share(prefix, part):
        whole = sum(v[0] for k, v in acc.items() if k.startswith(f"total.{prefix}"))
        own = sum(v[0] for k, v in acc.items() if k.startswith(f"{part}.{prefix}"))
        return own / whole if whole else 0.0

    m = {
        "import.ckle_s": (extra["import_s"], "s"),
        "import.modules_loaded": (extra["modules_loaded"], "count"),
        "rng.make_rng_us": (mean("total.rng.make_rng", 1e6), "us"),
        "empirical.build_sample_us": (mean("total.empirical.build_sample", 1e6), "us"),
        "objective.g_us.normal": (mean("self.objective.g.normal", 1e6), "us"),
        "objective.gradient_us.normal": (mean("total.objective.gradient.normal", 1e6), "us"),
        "models.log_ndtr_points_per_fit.normal":
            (per_call("solver.fit.normal", "log_ndtr_points"), "count"),
        "models.log_ndtr_points_per_analysis.normal":
            (per_call("request.analysis.normal", "log_ndtr_points"), "count"),
        "solver.nm_runs_per_fit.normal": (per_call("solver.fit.normal", "nm"), "count"),
        "solver.iterations_per_fit.normal": (mean("amount.solver.fit.normal"), "count"),
        "simulate.self_share": (share("simulate.run_study.", "self"), "share"),
        "simulate.failed_fits": (extra["failed_fits"], "count"),
        "trace.overhead_share": (extra["overhead_share"], "share"),
        "trace.overhead_ms": (extra["overhead_ms"], "ms"),
        "trace.spans": (extra["spans"], "count"),
    }
    fit_s = acc.get("total.solver.fit.normal", (0.0, 0.0))[0]
    nm_self = acc.get("under.solver.fit.normal.nm_self", (0.0, 0.0))[0]
    m["solver.nm_self_share.normal"] = (nm_self / fit_s if fit_s else 0.0, "share")
    for label in CLI_LABELS:
        m[f"cli.main_ms.{label}"] = (mean(f"total.request.cli.{label}", 1e3), "ms")
    for f in ("exponential", "normal"):
        m[f"models.draw_us.{f}"] = (mean(f"total.models.draw.{f}", 1e6), "us")
    for f in FAMILIES:
        m[f"objective.context_us.{f}"] = (mean(f"total.objective.context.{f}", 1e6), "us")
        m[f"objective.g_calls_per_fit.{f}"] = (per_call(f"solver.fit.{f}", "g"), "count")
        m[f"objective.hessian_us.{f}"] = (mean(f"total.objective.hessian.{f}", 1e6), "us")
        m[f"objective.psi_matrix_ms.{f}"] = (mean(f"total.objective.psi_matrix.{f}", 1e3), "ms")
        m[f"objective.ckl_divergence_ms.{f}"] = (
            mean(f"total.objective.ckl_divergence.{f}", 1e3), "ms")
        m[f"models.quad_calls_per_analysis.{f}"] = (
            per_call(f"request.analysis.{f}", "quad"), "count")
        m[f"solver.fit_us.{f}"] = (mean(f"total.solver.fit.{f}", 1e6), "us")
        m[f"solver.converged_fraction.{f}"] = (mean(f"flag.solver.fit.{f}"), "share")
        m[f"inference.sandwich_ms.{f}"] = (mean(f"total.inference.sandwich.{f}", 1e3), "ms")
        m[f"inference.avar_ms.{f}"] = (mean(f"total.inference.avar.{f}", 1e3), "ms")
    for f in SCALAR:
        m[f"inference.c_value_ms.{f}"] = (mean(f"total.inference.c_value.{f}", 1e3), "ms")
        for fn in SCALAR_INFERENCE:
            m[f"inference.{fn}_ms.{f}"] = (mean(f"total.inference.{fn}.{f}", 1e3), "ms")
    return m


COUNT_METRICS = ("_calls_", "_points_", "_runs_", "iterations_per_fit",
                 "modules_loaded", "trace.spans", "failed_fits")


def is_count(name: str) -> bool:
    """Counts that must repeat exactly across traced runs on one seed."""
    return any(part in name for part in COUNT_METRICS)
