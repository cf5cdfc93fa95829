"""Command-line interface.

Subcommands: run, sweep, grid, impact, multival, estimate, analyze.
Every output file gets a JSON sidecar (<name>.meta.json) carrying the full
resolved configuration, the command's own sizes (sweep resolution and
replicates, grid cells and k bounds, multival horizon and n_vals, estimator
arguments), the master seed, the package version and the RNG
identification, which is sufficient to reproduce the file byte-for-byte.
The sweep's CSV sidecar also has a "telemetry" key (runs, the steps the
engine simulated, which count a repeated run once per batch, aborted runs,
engine batches and the widest batch's runs, wall time, simulated steps/s)
that changes between runs; it is not part of the reproducible output.

Exit codes: 0 success, 2 configuration error, 3 any other valtrack error
(numeric failure, invalid input, domain error).
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict

from . import __version__, analysis, config as config_mod, experiments, metrics
from .errors import ConfigError, NumericError, ValtrackError

OUTDIR_ENV = "VALTRACK_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file with dotted keys")
    parser.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV} or .)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override any dotted config key")
    for key, (_, _, flag) in config_mod.KEYS.items():
        if flag is not None:
            parser.add_argument("--" + flag.replace("_", "-"), default=None,
                                metavar="V", help=f"override {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="valtrack",
                                     description=__doc__.split("\n", 1)[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single seeded simulation")
    p_run.add_argument("--svg", help="also write an SVG price chart to this name")
    p_sweep = sub.add_parser("sweep", help="ternary sweep over trader mixes")
    p_sweep.add_argument("--resolution", type=int, default=20)
    p_sweep.add_argument("--sweep-replicates", type=int, default=20)
    p_sweep.add_argument("--svg", help="also write an SVG crash-frequency map to this name")
    p_grid = sub.add_parser("grid", help="commitment grid: analytic vs simulated")
    p_grid.add_argument("--k-plus-min", type=float, default=0.02)
    p_grid.add_argument("--k-plus-max", type=float, default=0.30)
    p_grid.add_argument("--k-minus-min", type=float, default=0.02)
    p_grid.add_argument("--k-minus-max", type=float, default=0.30)
    p_grid.add_argument("--cells", type=int, default=10)
    sub.add_parser("impact", help="threshold comparison across impact functions")
    p_multi = sub.add_parser("multival", help="multi-valuation run with histogram")
    p_multi.add_argument("--multival-n-vals", type=int, default=10)
    p_multi.add_argument("--multival-horizon", type=int, default=1000)
    p_est = sub.add_parser("estimate", help="tracking-error estimator Monte Carlo")
    p_est.add_argument("--p", type=float, default=1.3)
    p_est.add_argument("--n", type=int, default=100)
    p_est.add_argument("--reps", type=int, default=10000)
    sub.add_parser("analyze", help="fixed-point report and analytic threshold")
    for p in sub.choices.values():
        _add_common(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process: parsing leaves a
    parser as it was, and building one costs several ms."""
    return build_parser()


def _overrides(args: argparse.Namespace) -> dict:
    overrides: dict[str, str] = {
        key: getattr(args, flag) for key, (_, _, flag) in config_mod.KEYS.items()
        if flag is not None and getattr(args, flag) is not None}
    for item in args.sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _outdir(args: argparse.Namespace) -> str:
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path: str, rows) -> None:
    """Write rows of strings as comma-separated lines ending in CRLF,
    streamed row by row.

    No field may contain ',', '"' or a line break, and no row may be one
    empty field. Every producer yields repr() numbers and validated
    identifiers, so csv.writer's minimal quoting would never apply and the
    file is byte for byte what csv.writer writes.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_sidecar(path: str, cfg, args: argparse.Namespace, extra=None) -> None:
    from .seeding import rng_info
    payload = {
        "output": os.path.basename(path),
        "command": args.command,
        "config": config_mod.config_values(cfg),
        "master_seed": cfg.seed,
        "code_version": __version__,
        "rng": rng_info(),
    }
    if extra:
        payload.update(extra)
    _write_json(path + ".meta.json", payload)


def _write_svg(doc: str, cfg, args: argparse.Namespace, extra=None) -> None:
    """Write an SVG document and its sidecar to the --svg name."""
    path = os.path.join(_outdir(args), args.svg)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    _write_sidecar(path, cfg, args, extra)


def cmd_run(args, cfg) -> int:
    result = experiments.run_once(cfg)
    out = os.path.join(_outdir(args), "run.csv")
    _write_csv(out, experiments.run_csv_rows(result))
    _write_sidecar(out, cfg, args)
    if args.svg:
        from . import svg  # only --svg needs it and its xml import
        _write_svg(svg.render_series_svg(result.prices, valuation=cfg.population.u),
                   cfg, args)
    status = "crash at step %s" % result.crash_step if result.crash_step is not None \
        else "no crash"
    boom = " boom at step %s" % result.boom_step if result.boom_step is not None else ""
    print(f"run: {len(result.prices) - 1} steps, final price "
          f"{result.final_state.price:.6g}, {status}{boom} -> {out}")
    return EXIT_OK


def cmd_sweep(args, cfg) -> int:
    start = time.perf_counter()
    grid = experiments.ternary_sweep(cfg, args.resolution, args.sweep_replicates,
                                     workers=args.workers)
    wall = time.perf_counter() - start
    out = os.path.join(_outdir(args), "ternary.csv")
    _write_csv(out, experiments.ternary_csv_rows(grid))
    telemetry = {"runs": grid.runs, "steps": grid.steps,
                 "aborted_runs": grid.aborted_runs, "batches": grid.batches,
                 "batch_runs": grid.batch_runs, "wall_s": wall,
                 "steps_per_s": grid.steps / wall if wall > 0 else 0.0}
    sizes = {"resolution": grid.resolution, "replicates": grid.replicates}
    _write_sidecar(out, cfg, args, {**sizes, "telemetry": telemetry})
    if args.svg:
        from . import svg
        _write_svg(svg.render_ternary_svg(grid), cfg, args, sizes)
    print(f"sweep: {len(grid.points)} points x {grid.replicates} replicates -> {out}")
    return EXIT_OK


def cmd_grid(args, cfg) -> int:
    grid = experiments.commitment_grid(
        cfg, (args.k_plus_min, args.k_plus_max),
        (args.k_minus_min, args.k_minus_max), cells=args.cells,
        workers=args.workers)
    out = os.path.join(_outdir(args), "grid.csv")
    _write_csv(out, experiments.grid_csv_rows(grid))
    _write_sidecar(out, cfg, args, {
        "cells": args.cells, "k_plus_min": args.k_plus_min, "k_plus_max": args.k_plus_max,
        "k_minus_min": args.k_minus_min, "k_minus_max": args.k_minus_max})
    print(f"grid: {len(grid.cells)} cells ({cfg.market.settlement} settlement) -> {out}")
    return EXIT_OK


def cmd_impact(args, cfg) -> int:
    report = experiments.impact_comparison(cfg, workers=args.workers)
    out = os.path.join(_outdir(args), "impact.json")
    _write_json(out, asdict(report))
    _write_sidecar(out, cfg, args)
    print(f"impact thresholds: ratio={report.ratio_threshold:.5f} "
          f"powerlaw(zeta=1)={report.powerlaw_linear_threshold:.5f} "
          f"powerlaw(zeta=0.8)={report.powerlaw_concave_threshold:.5f} -> {out}")
    return EXIT_OK


def cmd_multival(args, cfg) -> int:
    report = experiments.multival_run(cfg, n_vals=args.multival_n_vals,
                                      horizon=args.multival_horizon)
    outdir = _outdir(args)
    sizes = {"horizon": args.multival_horizon, "n_vals": args.multival_n_vals}
    series_out = os.path.join(outdir, "multival_run.csv")
    _write_csv(series_out, experiments.run_csv_rows(report.result))
    _write_sidecar(series_out, cfg, args,
                   {"valuations": list(report.valuations), **sizes})
    hist_out = os.path.join(outdir, "multival_histogram.csv")
    _write_csv(hist_out, experiments.histogram_csv_rows(report.histogram))
    _write_sidecar(hist_out, cfg, args, sizes)
    print(f"multival: max tracking error vs mean valuation "
          f"{report.max_tau_vs_mean:.4f} Blacks; wealth variance "
          f"{report.val_wealth_var_start:.3g} -> {report.val_wealth_var_end:.3g}; "
          f"-> {series_out}, {hist_out}")
    return EXIT_OK


def cmd_estimate(args, cfg) -> int:
    report = metrics.estimator_mc(cfg.population.gamma_shape, cfg.population.gamma_rate,
                                  args.p, args.n, args.reps, cfg.seed)
    out = os.path.join(_outdir(args), "estimator.json")
    _write_json(out, asdict(report))
    _write_sidecar(out, cfg, args,
                   {"estimator": {"p": args.p, "n": args.n, "reps": args.reps}})
    print(f"estimate: tau_true={report.tau_true:.5f} "
          f"tau_hat_mean={report.tau_hat_mean:.5f} bias={report.bias:.2e} "
          f"empirical std={report.empirical_std:.5f} "
          f"predicted std={report.predicted_std:.5f} "
          f"skewness={report.skewness:.3f} -> {out}")
    return EXIT_OK


def cmd_analyze(args, cfg) -> int:
    constants = analysis.AnalysisConstants.from_params(cfg.market, cfg.commitments,
                                                       u=cfg.population.u)
    alpha_report = analysis.alpha_fixed_points(constants)
    beta_report = analysis.beta_fixed_points(constants)
    theta = analysis.mo_crash_threshold_analytic(constants, cfg.market.rho)
    print(f"constants: A={constants.a_const:.6g} B={constants.b_const:.6g} "
          f"lambda={constants.lam} eta={constants.eta}")
    for name, report in (("alpha", alpha_report), ("beta", beta_report)):
        kind = "trivial" if report.trivial else "computed"
        print(f"{name} fixed points ({kind}): selected={report.selected:.6g} "
              f"exists={report.exists}")
        for root in report.roots:
            print(f"  {name} root {root.value:.10f} [{root.region}] "
                  f"residual={root.residual:.2e}")
    out = os.path.join(_outdir(args), "analysis.csv")
    _write_csv(out, experiments.fixed_point_csv_rows(
        cfg.commitments.kv_buy, cfg.commitments.km_sell, alpha_report, theta))
    _write_sidecar(out, cfg, args)
    print(f"analytic momentum-wealth crash threshold: theta = {theta:.5f} -> {out}")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "grid": cmd_grid,
    "impact": cmd_impact,
    "multival": cmd_multival,
    "estimate": cmd_estimate,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # every subcommand takes --workers; sweep, grid and impact run on up
        # to that many processes, no more than they have tasks or CPUs
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = config_mod.parse_config(path=args.config, overrides=_overrides(args))
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValtrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
