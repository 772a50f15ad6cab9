"""Command-line interface.

`main` reads `--config`, resolves the seed, runs one `_cmd_*` (which only
computes) and writes its rows to `--out` and a run record to `--manifest`. A
flag overrides the config file: `--seed`, `--reps` and `--method` beat
`rng.seed`, `sim.replications` and `npreg.method`. `test` and `identified-set`
decide at `--alpha` (default 0.05), added to the computed levels if missing.
Library warnings print as one `warning: <message>` line each on stderr.

Exit codes: 0 success (including a test that fails to reject), 2 when the
`test` subcommand rejects its null hypothesis, 1 on any error.

A request imports only what its subcommand runs. This module imports the
standard library and the numpy-free `errors` and `_config`, so `--version`,
`--help`, usage errors, config-file errors, bad evaluation points and
outcome bounds of `mte`, and bad theta bounds and count of `identified-set`
exit before numpy loads. Each `_cmd_*` imports its own numerical stack when it
runs: `fit` and `overid` the parametric estimators, `mte` the smoothers and
the control function, `test` and `identified-set` the sup test, `simulate` the
Monte Carlo harness. So the library, not the parser, checks `--method`,
`--family` and `--propensity-method`.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
import warnings

from . import __version__
from ._config import CONFIG_KEYS, parse_config
from .errors import IvcheckError, OffSupport, check_finite_scalars, check_outcome_bounds

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2

_CONFIG_HELP = "config file with `key = value` lines; keys: " + ", ".join(sorted(CONFIG_KEYS))


def _add_data_args(p):
    p.add_argument("data", help="input CSV file")
    p.add_argument("--y-col", default="y", help="outcome column (default: y)")
    p.add_argument("--x-cols", default="x", help="comma-separated regressor columns (default: x)")
    p.add_argument("--z-cols", default=None,
                   help="comma-separated instrument columns (default: same as --x-cols)")


def _add_test_args(p):
    p.add_argument("--conditioning", choices=["z", "x"], default="z",
                   help="condition moments on the instrument (z) or the regressor (x)")
    p.add_argument("--method", default=None,
                   help="conditional-mean estimator; overrides npreg.method "
                        "(default: npreg.method, else series)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="level of the decision, added to the computed levels (default: 0.05)")


def _add_common_args(p):
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; overrides rng.seed (default: rng.seed, else 0)")
    p.add_argument("--config", default=None, help=_CONFIG_HELP)
    p.add_argument("--out", default=None, help="write results as CSV to this path")
    p.add_argument("--manifest", default=None, help="write a JSON run manifest to this path")


def _load(args):
    from .data import load_csv

    x_cols = [c.strip() for c in args.x_cols.split(",")]
    z_cols = [c.strip() for c in args.z_cols.split(",")] if args.z_cols else list(x_cols)
    return load_csv(args.data, args.y_col, x_cols, z_cols)


def _test_config(args, config: dict):
    from .clrtest import TestConfig

    kwargs = {field: value for key, value in config.items() if (field := CONFIG_KEYS[key][1])}
    if getattr(args, "method", None):
        kwargs["method"] = args.method
    cfg = TestConfig(**kwargs)
    alpha = getattr(args, "alpha", None)
    return cfg if alpha is None else cfg.with_level(alpha)


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        # rows of different kinds (MTE and ASF) share one file: union of keys
        fieldnames = list(dict.fromkeys(key for row in rows for key in row))
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _write_manifest(path, command, seed, exit_code, extra):
    import json

    manifest = {
        "tool": "ivcheck",
        "version": __version__,
        "command": command,
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "exit_code": exit_code,
        **extra,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _cmd_fit(args, config):
    if args.form == "boxcox" and args.estimator not in ("ols", "iv"):
        raise IvcheckError(f"--form boxcox takes --estimator ols or iv, got {args.estimator}")
    import numpy as np

    from .estimators import fit_boxcox, fit_gmm2step, fit_iv, fit_ols

    ds = _load(args)
    if args.form == "boxcox":
        fit = fit_boxcox(ds, use_iv=args.estimator == "iv")
        print(f"box-cox fit: lambda = {fit.lam:.6f}, beta0 = {fit.beta0:.6f}, "
              f"beta1 = {fit.beta1:.6f}")
        rows = [{"lambda": fit.lam, "beta0": fit.beta0, "beta1": fit.beta1}]
    else:
        fit = {"ols": fit_ols, "iv": fit_iv, "gmm": fit_gmm2step}[args.estimator](ds)
        se = np.sqrt(np.diag(fit.vcov))
        names = ["intercept", *ds.column_names["x"]]
        print(f"{fit.method.value} fit on n = {ds.n}:")
        rows = []
        for name, b, s in zip(names, fit.beta, se):
            print(f"  {name:>12s}  {b:+.6f}  (se {s:.6f})")
            rows.append({"coefficient": name, "estimate": float(b), "std_error": float(s)})
        if fit.first_stage_f is not None:
            print(f"  first-stage F = {fit.first_stage_f:.3f}")
    return EXIT_OK, rows, {}


def _cmd_test(args, config):
    from .clrtest import test_model
    from .data import RngSpec
    from .moments import Conditioning, ModelForm, ModelSpec

    cfg = _test_config(args, config)
    spec = ModelSpec(
        form=ModelForm.BOXCOX if args.form == "boxcox" else ModelForm.LINEAR,
        conditioning=Conditioning(args.conditioning),
        homoskedastic=args.homoskedastic,
    )
    report = test_model(_load(args), spec, cfg, RngSpec(seed=args.seed))
    print(report.summary())
    code = EXIT_REJECT if report.reject(args.alpha) else EXIT_OK
    return code, report.to_rows(), {}


def _cmd_overid(args, config):
    from .estimators import polynomial_instruments
    from .overid import hansen_j, sargan

    ds = _load(args)
    instrument_fn = polynomial_instruments(args.degree)
    report = (sargan(ds, instrument_fn=instrument_fn) if args.statistic == "sargan"
              else hansen_j(ds, instrument_fn=instrument_fn))
    print(f"{report.method.value}: statistic = {report.statistic:.6f}, "
          f"dof = {report.dof}, p = {report.p_value:.6f}")
    rows = [{
        "method": report.method.value,
        "statistic": report.statistic,
        "dof": report.dof,
        "p_value": report.p_value,
    }]
    return EXIT_OK, rows, {}


def _cmd_identified_set(args, config):
    if args.theta_count < 1:
        raise IvcheckError(f"--theta-count must be at least 1, got {args.theta_count}")
    if not (math.isfinite(args.theta_lo) and math.isfinite(args.theta_hi)):
        raise IvcheckError(f"--theta-lo and --theta-hi must be finite, got {args.theta_lo} "
                           f"and {args.theta_hi}")
    import numpy as np

    from .clrtest import identified_set
    from .data import RngSpec
    from .moments import Conditioning

    cfg = _test_config(args, config)
    ds = _load(args)
    if ds.k_x != 1:
        raise IvcheckError(f"identified-set takes one regressor, got {ds.k_x}: "
                           f"{', '.join(ds.column_names['x'])}")
    grid = np.linspace(args.theta_lo, args.theta_hi, args.theta_count)
    x_col = ds.x[:, 0]
    y = ds.y

    def slope_evaluator(x, theta):
        return theta * x[:, 0] + float(np.mean(y - theta * x_col))

    result = identified_set(ds, slope_evaluator, grid, args.alpha, cfg, RngSpec(seed=args.seed),
                            Conditioning(args.conditioning))
    if result.empty:
        print(f"identified set at alpha = {args.alpha}: empty (specification rejected "
              f"everywhere on the grid)")
    else:
        print(f"identified set at alpha = {args.alpha}: "
              f"[{min(result.accepted):.6f}, {max(result.accepted):.6f}] "
              f"({len(result.accepted)} of {len(result.theta_grid)} grid points)")
    rows = [{"theta": float(t), "accepted": int(t in result.accepted)}
            for t in result.theta_grid]
    return EXIT_OK, rows, {}


def _cmd_mte(args, config):
    # the evaluation flags are refused by the library's own checks, before numpy loads
    mte_at = args.x is not None and args.x_prime is not None
    if mte_at:
        check_finite_scalars(x=args.x, x_prime=args.x_prime)
    if args.asf_x is not None:
        check_finite_scalars(x=args.asf_x)
    bounds = ((args.y_lower, args.y_upper)
              if args.y_lower is not None and args.y_upper is not None else None)
    check_outcome_bounds(bounds)
    import numpy as np

    from .mte import (
        condition1_diagnostic,
        estimate_asf,
        estimate_mte,
        fit_control_function,
        fit_propensity,
        uniformity_diagnostic,
    )
    from .npreg import DROP_REASONS

    ds = _load(args)
    pf = fit_propensity(ds, method=args.propensity_method)
    cf = fit_control_function(ds, pf)
    uni = uniformity_diagnostic(pf, ds.z[:, 0])
    cond1 = condition1_diagnostic(pf, ds)
    print(f"first-stage rank diagnostics: KS to U[0,1] = {uni.overall:.4f}, "
          f"worst conditional bin = {uni.worst_bin:.4f}")
    coverage = min(cond1.coverage.values()) if cond1.coverage else float("nan")
    print(f"invertibility: {cond1.injectivity_violations} injectivity violations, "
          f"minimum rank coverage = {coverage:.4f}")
    if pf.dropped_grid_points > 0:
        print(f"dropped_grid_points = {pf.dropped_grid_points} ({DROP_REASONS[pf.method]})")
    rows = []
    if mte_at:
        for p in np.linspace(0.1, 0.9, 9):
            try:
                value = estimate_mte(cf, float(p), args.x, args.x_prime)
            except OffSupport:
                print(f"  MTE(p={p:.2f}; {args.x}, {args.x_prime}): off the rank support")
                continue
            rows.append({"p": float(p), "mte": value})
            print(f"  MTE(p={p:.2f}; {args.x}, {args.x_prime}) = {value:+.6f}")
    if args.asf_x is not None:
        asf = estimate_asf(cf, pf, args.asf_x, outcome_bounds=bounds)
        if asf.is_point:
            print(f"  ASF({args.asf_x}) = {asf.value:+.6f} "
                  f"(rank support [{asf.support[0]:.3f}, {asf.support[1]:.3f}])")
            rows.append({"x": args.asf_x, "asf": asf.value})
        else:
            lo, hi = asf.interval
            print(f"  ASF({args.asf_x}) in [{lo:+.6f}, {hi:+.6f}] (partial rank support "
                  f"[{asf.support[0]:.3f}, {asf.support[1]:.3f}])")
            rows.append({"x": args.asf_x, "asf_lower": lo, "asf_upper": hi})
        if asf.dropped_points > 0:
            print(f"dropped_rank_points = {asf.dropped_points} ({DROP_REASONS['control-function']})")
    return EXIT_OK, rows, {}


def _cmd_simulate(args, config):
    from .data import RngSpec
    from .simulate import DgpFamily, DgpSpec, Method, run_study

    reps = args.reps if args.reps is not None else config.get("sim.replications", 200)
    cfg = _test_config(args, config)
    try:
        family = DgpFamily(args.family)
    except ValueError:
        valid = ", ".join(f.value for f in DgpFamily)
        raise IvcheckError(f"--family takes one of {valid}, got {args.family!r}") from None
    spec = DgpSpec(
        family=family,
        n=args.n,
        lam=args.lam,
        L=args.deviation,
        sigma=args.sigma,
        rho=args.rho,
    )
    try:
        methods = [Method(m.strip()) for m in args.methods.split(",")]
    except ValueError:
        valid = ", ".join(m.value for m in Method)
        raise IvcheckError(f"--methods takes a comma-separated subset of {valid}, "
                           f"got {args.methods!r}") from None
    result = run_study([spec], methods, reps, cfg, RngSpec(seed=args.seed), jobs=args.jobs)
    for cell in result.cells:
        print(f"{cell.dgp}  {cell.method:>9s}  alpha = {cell.alpha:5.2%}  "
              f"rejection rate = {cell.rejection_rate:6.1%}  (MC se {cell.mc_se:.4f}, "
              f"{cell.replications} reps, {cell.failures} failures)")
    if result.config["unstacked_chunks"] > 0:
        print(f"unstacked_chunks = {result.config['unstacked_chunks']} (a stacked pass raised, "
              "so its replications ran one at a time)")
    print(f"runtime: {result.runtime_seconds:.1f}s")
    return EXIT_OK, result.to_rows(), {"study": result.config}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivcheck",
        description="Specification tests for exogeneity and homoskedasticity in "
                    "separable models, via conditional-moment inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"ivcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the parametric first step")
    _add_data_args(p)
    p.add_argument("--form", choices=["linear", "boxcox"], default="linear")
    p.add_argument("--estimator", choices=["ols", "iv", "gmm"], default="ols")
    _add_common_args(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("test", help="run the conditional-moment specification test")
    _add_data_args(p)
    p.add_argument("--form", choices=["linear", "boxcox"], default="linear")
    p.add_argument("--homoskedastic", action="store_true",
                   help="also test constant conditional variance of the error")
    _add_test_args(p)
    _add_common_args(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("overid", help="classical overidentification benchmark")
    _add_data_args(p)
    p.add_argument("--statistic", choices=["sargan", "hansen-j"], default="sargan")
    p.add_argument("--degree", type=int, default=3,
                   help="polynomial degree of the instrument expansion (default: 3)")
    _add_common_args(p)
    p.set_defaults(func=_cmd_overid)

    p = sub.add_parser("identified-set", help="slopes of a linear model, intercept profiled "
                                              "out, that the exogeneity test does not reject")
    _add_data_args(p)
    _add_test_args(p)
    p.add_argument("--theta-lo", type=float, required=True)
    p.add_argument("--theta-hi", type=float, required=True)
    p.add_argument("--theta-count", type=int, default=41)
    _add_common_args(p)
    p.set_defaults(func=_cmd_identified_set)

    p = sub.add_parser("mte", help="control-function marginal effects and average "
                                   "structural function")
    _add_data_args(p)
    p.add_argument("--propensity-method", default="local-linear",
                   help="first-stage rank estimator (default: local-linear)")
    p.add_argument("--x", type=float, default=None, help="first evaluation point for the MTE")
    p.add_argument("--x-prime", type=float, default=None, help="second evaluation point")
    p.add_argument("--asf-x", type=float, default=None,
                   help="evaluation point for the average structural function")
    p.add_argument("--y-lower", type=float, default=None,
                   help="outcome lower bound (needed under partial rank support)")
    p.add_argument("--y-upper", type=float, default=None, help="outcome upper bound")
    _add_common_args(p)
    p.set_defaults(func=_cmd_mte)

    p = sub.add_parser("simulate", help="Monte Carlo size/power study")
    p.add_argument("--family", required=True, help="data-generating process, e.g. linear-iv-null")
    p.add_argument("--n", type=int, required=True, help="sample size per replication")
    p.add_argument("--reps", type=int, default=None,
                   help="replications per cell; overrides sim.replications "
                        "(default: sim.replications, else 200)")
    p.add_argument("--lam", type=float, default=0.0, help="power-transform exponent")
    p.add_argument("--deviation", type=float, default=0.0, help="deviation scale L")
    p.add_argument("--sigma", type=float, default=1.0, help="deviation peakedness")
    p.add_argument("--rho", type=float, default=0.0, help="heteroskedasticity strength")
    p.add_argument("--methods", default="cmi",
                   help="comma-separated subset of cmi, sargan, hansen-j (default: cmi)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_common_args(p)
    p.set_defaults(func=_cmd_simulate)
    return parser


def __getattr__(name):
    # the library names the subcommands import when they run, readable as
    # `cli.<name>`, so a tool that patches one where the CLI reads it finds it (PEP 562)
    import ivcheck

    try:
        return getattr(ivcheck, name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for "reject H0"
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        config = parse_config(args.config) if args.config else {}
        if args.seed is None:
            args.seed = config.get("rng.seed", 0)
        if args.seed < 0:
            raise IvcheckError(f"seed must be a non-negative integer, got {args.seed}")
        with warnings.catch_warnings():
            # one line per library warning, without Python's file:line source echo
            warnings.showwarning = _show_warning
            code, rows, extra = args.func(args, config)
        if args.out and rows:
            _write_csv(args.out, rows)
        if args.manifest:
            _write_manifest(args.manifest, argv, args.seed, code, extra)
    except (IvcheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
