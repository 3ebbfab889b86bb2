"""Command-line interface: simulate panels, estimate, run the replication
study, and compute propagation effects, all through plain text tables."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import montecarlo
from .basis import build_bspline_basis, build_quadrature
from .effects import impulse_response, marginal_effects, total_impact, total_impacts
from .errors import (
    CannotDifferenceError,
    FnarError,
    HarnessError,
    IllConditionedBasisError,
    InvalidArgumentError,
    MissingDataError,
    NonStationaryDgpError,
    NumericalFailureError,
    SchemaError,
    UnderidentifiedError,
    VarianceUnavailableError,
)
from .estimator import (
    ESTIMATORS,
    MomentSpec,
    estimate_fixed_effects,
    estimate_variance,
    fit_2sls,
    fit_gmm,
    fit_report_text,
    functional_estimate_table,
)
from .interaction import (KernelIntegral, PastWindow, PointEval, epanechnikov_kernel,
                          stationarity_margin)
from .io import (read_coords, read_edge_list, read_function, read_panel, write_edge_list,
                 write_panel, write_table)
from .montecarlo import McConfig, format_report, run_mc
from .network import build_distance_weights
from .simulate import simulate_mc_panel

EXIT_OK = 0
EXIT_IO = 2
EXIT_MODEL = 3
EXIT_DATA = 4
EXIT_NUMERIC = 5

# Exit code of each handled exception; the first matching row wins, so
# NonStationaryDgpError comes before the FnarError fallback.
# A MemoryError is an array within MAX_ARRAY_BYTES that the machine refused.
_EXIT_CODES = (
    ((NonStationaryDgpError,), EXIT_MODEL),
    ((SchemaError, CannotDifferenceError, InvalidArgumentError, MissingDataError), EXIT_DATA),
    ((MemoryError,), EXIT_DATA),
    ((NumericalFailureError, UnderidentifiedError, VarianceUnavailableError,
      IllConditionedBasisError, HarnessError, np.linalg.LinAlgError), EXIT_NUMERIC),
    ((OSError,), EXIT_IO),
    ((FnarError,), EXIT_NUMERIC),
)
_HANDLED = tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds)


def _build_operator(args, quad):
    if args.operator == "point-eval":
        return PointEval(quad)
    if args.operator == "epanechnikov":
        return KernelIntegral(quad, kernel=epanechnikov_kernel)
    return PastWindow(quad, width=args.window_width)  # the one choice left


def _warn_ignored(args, dests, reason):
    """Warn on stderr of each option of ``dests`` given a value that ``reason`` leaves unread."""
    for dest in dests:
        if getattr(args, dest) is not None:
            print(f"warning: --{dest.replace('_', '-')} does not apply {reason}; ignored",
                  file=sys.stderr)


def _build_weights(args, n_expected=None):
    if args.weights is not None:
        _warn_ignored(args, ("coords", "threshold", "coord_type", "binary_weights"),
                      "with --weights")
        w = read_edge_list(args.weights, n=n_expected)
    elif args.coords is not None:
        if args.threshold is None:
            raise InvalidArgumentError("--threshold is required with --coords")
        coords = read_coords(args.coords)
        w = build_distance_weights(
            coords, args.threshold,
            inverse_distance=not args.binary_weights,
            metric=args.coord_type or "euclidean",
        )
    else:
        raise InvalidArgumentError("provide --weights or --coords")
    if n_expected is not None and w.n != n_expected:
        raise SchemaError(f"weights are for {w.n} units, panel has {n_expected}")
    return w


def cmd_simulate(args) -> int:
    out = Path(args.out)
    if not out.is_dir():
        raise FileNotFoundError(f"output directory {out} does not exist")
    panel, truth = simulate_mc_panel(
        args.n, args.T, args.r, args.seed,
        n_quad=args.grid_count, alpha_scale=args.alpha_scale,
    )
    write_panel(panel, out / "observations.csv", out / "covariates.csv")
    write_edge_list(truth.weights, out / "weights.csv")
    write_table(out / "truth_functions.csv",
                ["s", "alpha"] + [f"beta{j + 1}" for j in range(truth.d_x)],
                np.column_stack((panel.quad.points, truth.alpha, truth.beta.T)))
    print(f"wrote panel (n={panel.n}, T={panel.T}) to {out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    out = Path(args.out)
    if not out.is_dir():
        raise FileNotFoundError(f"output directory {out} does not exist")
    # the operator's G x G table first: a grid count it cannot take fails before the panel is read
    operator = _build_operator(args, build_quadrature(args.grid_count))
    panel = read_panel(args.observations, args.covariates, operator.grid)
    weights = _build_weights(args, n_expected=panel.n)
    basis = build_bspline_basis(args.inner_knots, args.degree, panel.quad)
    try:
        iv_exclude = tuple(int(v) for v in args.iv_exclude.split(",")) if args.iv_exclude else ()
    except ValueError:
        raise InvalidArgumentError(
            f"--iv-exclude must be comma-separated integers, got {args.iv_exclude!r}") from None
    spec = MomentSpec(
        basis=basis, operator=operator, weights=weights,
        n_points=args.moment_points, iv_exclude=iv_exclude,
    )
    fit = (fit_2sls(panel, spec) if args.estimator == "2sls"
           else fit_gmm(panel, spec, estimator=args.estimator))
    estimate_variance(fit, panel, spec)
    estimate_fixed_effects(fit, panel)

    (out / "fit_report.txt").write_text(fit_report_text(fit))
    header = ["s", "estimate", "se", "ci_lo", "ci_hi"]
    write_table(out / "alpha_hat.csv", header, functional_estimate_table(fit, "alpha"))
    for j in range(panel.d_x):
        write_table(out / f"beta{j + 1}_hat.csv", header,
                    functional_estimate_table(fit, "beta", j=j))
    _write_array(out / "fixed_effects.csv", ["unit", "grid_index"], fit.fixed_effects)
    print(f"estimated {args.estimator} fit written to {out} "
          f"(converged={fit.converged}, objective={fit.objective_value:.6g})")
    if not fit.converged:
        print(f"warning: {args.estimator} fit not converged after "
              f"{fit.iterations} iterations", file=sys.stderr)
    return EXIT_OK


# McConfig's field of each design option, all of which a preset fixes
_DESIGN_FIELDS = {"n": "n", "T": "T", "moment_points": "L", "inner_knots": "inner_knots",
                  "r": "r", "estimators": "estimators"}


def cmd_montecarlo(args) -> int:
    fields = {"seed": "base_seed", "replications": "replications", "workers": "workers"}
    if args.preset is None:
        fields.update(_DESIGN_FIELDS)
        cfg = McConfig(estimators=("gmm1", "gmm2", "2sls"))
    elif args.preset in montecarlo.PRESETS:
        _warn_ignored(args, _DESIGN_FIELDS, "with --preset")
        cfg = montecarlo.PRESETS[args.preset]
    else:
        raise InvalidArgumentError(
            f"unknown preset {args.preset!r}; choose from {sorted(montecarlo.PRESETS)}")
    cfg = dataclasses.replace(cfg, **{field: getattr(args, dest) for dest, field in fields.items()
                                      if getattr(args, dest) is not None})
    report = run_mc(cfg)
    text = format_report(report)
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"# {cfg.replications} replications, {report.failures} failures, "
          f"{report.wall_clock:.1f}s", file=sys.stderr)
    if report.errors:
        print(f"# first failure: {report.errors[0]}", file=sys.stderr)
    if report.nonconverged:
        counts = ", ".join(f"{name} {report.nonconverged[name]}" for name in cfg.estimators
                           if name in report.nonconverged)
        print(f"# fits not converged, still scored in bias and rmse: {counts}", file=sys.stderr)
    return EXIT_OK


def _write_array(path, index_names, values, value_name="value"):
    """One row per entry of ``values``: its indices, then the value in full precision."""
    write_table(path, [*index_names, value_name], values[..., None],
                [str(j) for j in range(values.shape[-1])])


def _write_propagation(result, out_dir, stem):
    out_dir = Path(out_dir)
    _write_array(out_dir / f"{stem}_orders.csv", ["order", "unit", "grid_index"],
                 result.per_order)
    _write_array(out_dir / f"{stem}_cumulative.csv", ["unit", "grid_index"],
                 result.cumulative)


# the options each effect reads no value from
_IGNORED_EFFECT_OPTIONS = {"keyplayer": ("unit", "beta_file"), "impulse": ("beta_file",),
                           "marginal": ("shock_file",)}


def cmd_effects(args) -> int:
    if args.effect != "marginal" and args.shock_file is None:
        raise InvalidArgumentError(f"{args.effect} needs --shock-file")
    if args.effect == "marginal" and args.beta_file is None:
        raise InvalidArgumentError("marginal effects need --beta-file")
    _warn_ignored(args, _IGNORED_EFFECT_OPTIONS[args.effect], f"to {args.effect}")
    unit = 0 if args.unit is None else args.unit
    out = None if args.out is None else Path(args.out)
    if args.effect != "keyplayer" and out is None:
        raise InvalidArgumentError(f"{args.effect} needs --out (an output directory)")
    if args.effect != "keyplayer" and not out.is_dir():
        raise FileNotFoundError(f"output directory {out} does not exist")
    quad = build_quadrature(args.grid_count)
    weights = _build_weights(args)
    operator = _build_operator(args, quad)
    alpha = read_function(args.alpha_file, quad)
    if (margin := stationarity_margin(alpha, operator, weights)) >= 1.0:  # sufficient only: warn
        print(f"warning: stationarity margin {margin:.4g} >= 1: the propagation "
              "series may diverge, so the effects may mean nothing", file=sys.stderr)

    if args.effect == "marginal":
        beta = read_function(args.beta_file, quad)
        result = marginal_effects(alpha, operator, weights, unit, beta, order=args.orders)
        _write_propagation(result, out, "marginal")
        print(f"marginal effects for unit {unit} written to {out}")
        return EXIT_OK

    shock = read_function(args.shock_file, quad)
    if args.effect == "impulse":
        result = impulse_response(alpha, operator, weights, unit, shock, order=args.orders)
        impact = total_impact(result)  # before the tables, which an overflow leaves unwritten
        _write_propagation(result, out, "impulse")
        print(f"impulse responses for unit {unit} written to {out} (total impact {impact:.6g})")
        return EXIT_OK

    # key player: the argmax of the per-unit total impacts that are written
    impacts = total_impacts(alpha, operator, weights, shock, order=args.orders)
    star = int(np.argmax(impacts))
    if out is not None:
        _write_array(out, ["unit"], impacts, "total_impact")
    print(f"risk key player: unit {star}")
    if (ties := int(np.count_nonzero(impacts == impacts[star]))) > 1:
        print(f"warning: {ties} units tie at the largest total impact", file=sys.stderr)
    return EXIT_OK


def _add_weight_args(parser):
    parser.add_argument("--weights", help="edge-list file i,j,weight")
    parser.add_argument("--coords", help="coordinate file unit,lon,lat")
    parser.add_argument("--threshold", type=float, help="distance band for --coords")
    parser.add_argument("--coord-type", choices=["euclidean", "greatcircle"],
                        help="distance of --coords (default euclidean)")
    parser.add_argument("--binary-weights", action="store_true", default=None,
                        help="indicator weights instead of inverse distance")


def _add_operator_args(parser):
    parser.add_argument("--operator",
                        choices=["point-eval", "epanechnikov", "past-window"],
                        default="epanechnikov")
    parser.add_argument("--window-width", type=float, default=0.25,
                        help="width of the past-window operator")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnar",
        description="Functional network autoregression: simulate, estimate, effects.",
    )
    parser.add_argument("--config", help="JSON file with per-subcommand defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a benchmark-design panel")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--T", type=int, required=True)
    p_sim.add_argument("--r", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--grid-count", type=int, default=99)
    p_sim.add_argument("--alpha-scale", type=float, default=1.0)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit the model to panel files")
    p_est.add_argument("--observations", required=True)
    p_est.add_argument("--covariates", required=True)
    _add_weight_args(p_est)
    _add_operator_args(p_est)
    p_est.add_argument("--moment-points", type=int, default=10)
    p_est.add_argument("--inner-knots", type=int, default=2)
    p_est.add_argument("--degree", type=int, default=3)
    p_est.add_argument("--grid-count", type=int, default=99)
    p_est.add_argument("--estimator", choices=ESTIMATORS, default="gmm1")
    p_est.add_argument("--iv-exclude", default="",
                       help="comma-separated covariate indices kept out of the lags")
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(func=cmd_estimate)

    p_mc = sub.add_parser("montecarlo", help="run the replication study")
    p_mc.add_argument("--preset", help=f"one of {sorted(montecarlo.PRESETS)}")
    p_mc.add_argument("--n", type=int)
    p_mc.add_argument("--T", type=int)
    p_mc.add_argument("--moment-points", type=int)
    p_mc.add_argument("--inner-knots", type=int)
    p_mc.add_argument("--r", type=float)
    p_mc.add_argument("--estimators", type=lambda names: tuple(names.split(",")),
                      help="comma-separated (default gmm1,gmm2,2sls)")
    p_mc.add_argument("--replications", type=int)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.add_argument("--workers", type=int)
    p_mc.add_argument("--out")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_eff = sub.add_parser("effects", help="network multiplier analysis")
    p_eff.add_argument("effect", choices=["impulse", "marginal", "keyplayer"])
    p_eff.add_argument("--alpha-file", required=True,
                       help="two-column s,value table of the interaction function")
    p_eff.add_argument("--beta-file", help="two-column s,value table of a coefficient")
    p_eff.add_argument("--shock-file", help="two-column s,value table of the shock")
    _add_weight_args(p_eff)
    _add_operator_args(p_eff)
    p_eff.add_argument("--unit", type=int, help="unit of impulse and marginal (default 0)")
    p_eff.add_argument("--orders", type=int, default=5)
    p_eff.add_argument("--grid-count", type=int, default=99)
    p_eff.add_argument("--out")
    p_eff.set_defaults(func=cmd_effects)
    return parser


def _config_value(parser, action, value):
    """A config file's ``value`` for ``action``, as its command line would give
    it: a JSON bool for a flag, else a string or a number that the option's
    type reads and its choices admit."""
    flag = action.nargs == 0  # bool is an int, so only a flag takes one
    if isinstance(value, bool) != flag or not isinstance(value, (str, int, float)):
        kind = "true or false" if flag else "a string or a number"
        raise argparse.ArgumentError(action, f"expected {kind}, got {json.dumps(value)}")
    if not flag:
        value = parser._get_value(action, str(value))
        parser._check_value(action, value)
    return value


def _apply_config(parser, argv):
    """Pre-scan for --config and install its section as subcommand defaults;
    that section may name only the running subcommand's options."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, rest = probe.parse_known_args(argv)
    if known.config is None:
        return
    try:
        with open(known.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"not a JSON file: {exc}", path=known.config) from None
    if not isinstance(config, dict):
        raise SchemaError("config must be a JSON object of subcommand sections", path=known.config)
    name = next((a for a in rest if not a.startswith("-")), None)
    subparser = parser._subparsers._group_actions[0].choices.get(name)
    if subparser is None or name not in config:
        return
    if not isinstance(config[name], dict):
        raise SchemaError(f"section {name!r} must be a JSON object", path=known.config)
    actions, defaults = {action.dest: action for action in subparser._actions}, {}
    for key, value in config[name].items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise SchemaError(f"unknown {name} option {key!r}", path=known.config)
        try:
            defaults[action.dest] = _config_value(subparser, action, value)
        except argparse.ArgumentError as exc:
            raise SchemaError(f"{name} option {key!r}: {exc.message}", path=known.config) from None
        action.required = False
    subparser.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
