"""Command-line front door.

Subcommands: fit, interval, test, power, samplesize, gof, simulate.
CSV goes in (one value per line or comma separated, optional header line),
JSON comes out (simulate streams CSV).  Exit codes: 0 success, 1 input parse
error, 2 domain, support or degenerate-data error, 3 non-convergence (the
document is still emitted), 64 usage error, 70 internal error (any other
exception, reported on one line without a traceback), 73 the ``--out`` file
cannot be written (64, 70 and 73 are the sysexits EX_USAGE, EX_SOFTWARE and
EX_CANTCREAT).  A warning raised while a command runs is printed to stderr
as one ``ckle: warning: <message>`` line.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
import warnings

from .empirical import build_sample
from .errors import CkleError, ParseError
from .inference import (avar_scalar, divergence_interval, gddt_test,
                        power_approx, required_sample_size, sandwich, wald_ci)
from .models import FAMILIES, get_family
from .objective import ckl_divergence
from .simulate import StudyConfig, run_study
from .solver import fit

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_NONCONV = 3
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_CANTCREAT = 73


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_data(path: str) -> list[float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read data file: {exc}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty sample")
    tokens = [t for t in re.split(r"[,\s]+", lines[0].strip()) if t]
    try:
        float(tokens[0])
    except ValueError:
        lines = lines[1:]            # header line detected
    values = []
    for ln in lines:
        for tok in re.split(r"[,\s]+", ln.strip()):
            if not tok:
                continue
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"cannot parse value {tok!r}") from None
    if not values:
        raise ParseError("empty sample")
    return values


def _parse_params(family, pairs: list[str]):
    family = get_family(family)
    given = {}
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError(f"parameter {pair!r} is not of the form name=value")
        name, _, val = pair.partition("=")
        if name not in family.param_names:
            raise _UsageError(
                f"unknown parameter {name!r} for {family.name}; "
                f"expected {', '.join(family.param_names)}")
        try:
            given[name] = float(val)
        except ValueError:
            raise _UsageError(f"cannot parse value for parameter {name!r}") from None
    missing = [p for p in family.param_names if p not in given]
    if missing:
        raise _UsageError(f"missing parameters for {family.name}: {', '.join(missing)}")
    return tuple(given[p] for p in family.param_names)


def _parse_sizes(text: str) -> tuple[int, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError("sizes range must be start:stop:step")
        a, b, s = (int(p) for p in parts)
        if s <= 0 or b < a:
            raise _UsageError("bad sizes range")
        sizes = tuple(range(a, b + 1, s))
    else:
        sizes = tuple(int(p) for p in text.split(","))
    if any(n < 1 for n in sizes):
        raise _UsageError("sizes must be positive")
    return sizes


def _nine_digits(obj):
    if isinstance(obj, float):
        # JSON has no NaN or infinity: a non-finite value prints as null
        return float(f"{obj:.9g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _nine_digits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nine_digits(v) for v in obj]
    return obj


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OutputError(f"cannot write output: {exc}") from None
    else:
        sys.stdout.write(text)


def _check_out(out: str | None):
    """Raise the _OutputError that writing ``out`` would raise, where that is
    known without creating or truncating the file: a missing directory or
    one (or an existing file) that cannot be written."""
    if not out:
        return
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise _OutputError(f"cannot write output: {OSError(code, os.strerror(code), out)}")


def _emit_json(doc: dict, out: str | None):
    _emit(json.dumps(_nine_digits(doc), indent=2, allow_nan=False) + "\n", out)


def _check_prob(value: float, name: str):
    if not 0.0 < value < 1.0:
        raise _UsageError(f"{name} must be in (0, 1)")


def _fit_document(family, sample, method: str):
    family = get_family(family)
    if method == "closed" and not family.has_hook("closed_form"):
        raise _UsageError(f"{family.name} has no closed-form estimator")
    fres = fit(family, sample, method=method)
    try:
        v_hat = sandwich(family, fres, sample).V_hat.tolist()
    except CkleError:
        v_hat = None
    doc = {
        "family": fres.family,
        "n": fres.n,
        "theta_hat": fres.params.as_dict(),
        "g_at_opt": fres.g_at_opt,
        "method": fres.method,
        "converged": fres.converged,
        "hessian_pd": fres.hessian_pd,
        "support_warning": fres.support_warning,
        "V_hat": v_hat,
    }
    unbiased = family.mckle_unbiased(fres.params, fres.n)
    if unbiased is not None:
        doc["theta_hat_unbiased"] = family.param_vector(unbiased).as_dict()
    return fres, doc


def _cmd_fit(args):
    sample = build_sample(_read_data(args.data))
    fres, doc = _fit_document(args.model, sample, args.method)
    return (EXIT_OK if fres.converged else EXIT_NONCONV), doc


def _cmd_interval(args):
    _check_prob(args.level, "level")
    sample = build_sample(_read_data(args.data))
    fres, doc = _fit_document(args.model, sample, args.method)
    if args.kind == "wald":
        sigma2 = avar_scalar(args.model, fres.params.values).sigma2
        ci = wald_ci(fres, sigma2, args.level)
    else:
        ci = divergence_interval(args.model, sample, fres, args.level)
    doc.update({"kind": ci.kind, "level": ci.level,
                "lower": ci.lower, "upper": ci.upper})
    if ci.kind == "divergence":
        doc["cutoff_k"] = ci.cutoff_k
        doc["c_theta"] = ci.c_theta
    return (EXIT_OK if fres.converged else EXIT_NONCONV), doc


def _cmd_test(args):
    _check_prob(args.alpha, "alpha")
    sample = build_sample(_read_data(args.data))
    res = gddt_test(args.model, sample, args.null, args.alpha)
    doc = {
        "family": args.model,
        "n": sample.n,
        "theta_hat": res.theta_hat,
        "theta0": res.theta_null,
        "statistic": res.statistic_gddt,
        "c_at_null": res.c_at_null,
        "critical_value": res.critical_value,
        "p_value": res.p_value,
        "reject": res.reject,
        "alpha": res.alpha,
    }
    if res.region_mean_sq is not None:
        doc["region_mean_sq"] = list(res.region_mean_sq)
    return EXIT_OK, doc


def _cmd_power(args):
    _check_prob(args.alpha, "alpha")
    sample = build_sample(_read_data(args.data))
    n = args.n if args.n is not None else sample.n
    if n < 1:
        raise _UsageError("n must be positive")
    power = power_approx(args.model, sample, args.null, args.alt, args.alpha, n)
    doc = {
        "family": args.model,
        "n": n,
        "theta0": args.null,
        "theta1": args.alt,
        "alpha": args.alpha,
        "power": power,
    }
    return EXIT_OK, doc


def _cmd_samplesize(args):
    _check_prob(args.alpha, "alpha")
    _check_prob(args.beta, "beta")
    sample = build_sample(_read_data(args.data))
    res = required_sample_size(args.model, sample, args.null, args.alt,
                               args.alpha, args.beta)
    doc = {
        "family": args.model,
        "theta0": args.null,
        "theta1": args.alt,
        "alpha": args.alpha,
        "beta": args.beta,
        "g_theta0": res.g_theta0,
        "g_theta1": res.g_theta1,
        "c_theta0": res.c_theta0,
        "c_theta1": res.c_theta1,
        "chi2_alpha": res.chi2_alpha,
        "chi2_beta": res.chi2_beta,
        "n0": res.n0,
        "n_star": res.n_star,
    }
    return EXIT_OK, doc


def _cmd_gof(args):
    sample = build_sample(_read_data(args.data))
    fres, doc = _fit_document(args.model, sample, args.method)
    doc["divergence"] = ckl_divergence(args.model, fres.params.values, sample)
    return (EXIT_OK if fres.converged else EXIT_NONCONV), doc


def _cmd_simulate(args):
    if args.reps < 1:
        raise _UsageError("reps must be positive")
    if args.threads < 1:
        raise _UsageError("threads must be positive")
    if args.seed < 0:
        raise _UsageError("--seed must be a non-negative integer")
    params = _parse_params(args.model, args.params or [])
    sizes = _parse_sizes(args.sizes)
    estimators = tuple(args.estimators.split(","))
    config = StudyConfig(family=args.model, params=params, sizes=sizes,
                         replicates=args.reps, seed=args.seed,
                         estimators=estimators, threads=args.threads)
    _check_out(args.out)            # a study can run for minutes
    report = run_study(config)
    _emit(report.to_csv(), args.out)
    return EXIT_OK, None


def build_parser() -> _Parser:
    parser = _Parser(prog="ckle",
                     description="Minimum cumulative KL estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    families = list(FAMILIES)

    def add_common(p, method=True):
        p.add_argument("--model", required=True, choices=families)
        p.add_argument("--data", required=True, help="CSV file of observations")
        if method:
            p.add_argument("--method", default="auto",
                           choices=["auto", "closed", "numeric"])
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("fit", help="fit one family to data")
    add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("interval", help="confidence interval for a scalar parameter")
    add_common(p)
    p.add_argument("--kind", default="divergence", choices=["wald", "divergence"])
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(handler=_cmd_interval)

    p = sub.add_parser("test", help="divergence-difference test of a point null")
    add_common(p, method=False)
    p.add_argument("--null", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("power", help="approximate test power at an alternative")
    add_common(p, method=False)
    p.add_argument("--null", type=float, required=True)
    p.add_argument("--alt", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("samplesize", help="sample size for a target power")
    add_common(p, method=False)
    p.add_argument("--null", type=float, required=True)
    p.add_argument("--alt", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--beta", type=float, required=True, help="target power")
    p.set_defaults(handler=_cmd_samplesize)

    p = sub.add_parser("gof", help="divergence value at the fitted parameters")
    add_common(p)
    p.set_defaults(handler=_cmd_gof)

    p = sub.add_parser("simulate", help="seeded replicate study, CSV output")
    p.add_argument("--model", required=True, choices=families)
    p.add_argument("--params", nargs="+", metavar="NAME=VALUE", required=True)
    p.add_argument("--sizes", required=True, help="start:stop:step or comma list")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimators", default="mckle,mle")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_simulate)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"ckle: warning: {message}", file=sys.stderr)


# each error's exit code, first match first: DataError and DomainError are
# also ValueErrors, so the package's errors come before the usage errors
_EXITS = ((ParseError, EXIT_PARSE), (CkleError, EXIT_DOMAIN),
          ((_UsageError, ValueError), EXIT_USAGE), (_OutputError, EXIT_CANTCREAT))


def _run(args) -> int:
    try:
        code, doc = args.handler(args)
        if doc is not None:
            _emit_json(doc, args.out)
    except Exception as exc:
        for error, exit_code in _EXITS:
            if isinstance(exc, error):
                print(f"ckle: error: {exc}", file=sys.stderr)
                return exit_code
        print(f"ckle: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # the warning filters stay as they are; only the printing changes,
        # to one line without the file, line number and source line
        warnings.showwarning = _print_warning
        return _run(args)


if __name__ == "__main__":
    sys.exit(main())
