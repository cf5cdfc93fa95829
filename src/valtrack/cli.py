"""Command-line interface.

Subcommands: run, sweep, grid, impact, multival, estimate, analyze.
This module writes every output file: the CSV schemas (the *_csv_rows
generators) and one writer, `_write`, which puts a data file and its
sidecar into the output directory. main() resolves and creates that
directory before a command runs, so an unusable one is a configuration
error before any work is done.

Every output file gets a JSON sidecar (<name>.meta.json) carrying the full
resolved configuration, the command's own sizes (sweep resolution and
replicates, grid cells and k bounds, multival horizon and n_vals, estimator
arguments), the master seed, the package version and the RNG
identification, which is sufficient to reproduce the file byte-for-byte.
The data sidecars of run, sweep, grid, impact and multival (its run
series) also have a "telemetry" key that changes between runs; it is not
part of the reproducible output. It names the loop that stepped the
command's runs or threshold probes, "loop": "compiled", or "python" where
the compiled loops cannot be built or, for grid and impact, take no probe
of the population (engine.crash_loop_for), and gives the wall time of the
simulation; run's and multival's also count the steps of their run, and
the sweep's counts runs, the steps the engine simulated, which count a
repeated run once per batch, aborted runs, engine batches and the widest
batch's runs, and simulated steps/s.

Exit codes: 0 success, 2 configuration error (an unusable output directory
included), 3 any other valtrack error (numeric failure, invalid input,
domain error).
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict

from . import __version__, config as config_mod
from .errors import ConfigError, NumericError, ValtrackError

OUTDIR_ENV = "VALTRACK_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand takes, as a parent parser."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="config file with dotted keys")
    parser.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV} or .)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override any dotted config key")
    for key, (_, _, flag) in config_mod.KEYS.items():
        if flag is not None:
            parser.add_argument("--" + flag.replace("_", "-"), default=None,
                                metavar="V", help=f"override {key}")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="valtrack",
                                     description=__doc__.split("\n", 1)[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]

    p_run = sub.add_parser("run", parents=common, help="single seeded simulation")
    p_run.add_argument("--svg", help="also write an SVG price chart to this name")
    p_sweep = sub.add_parser("sweep", parents=common, help="ternary sweep over trader mixes")
    p_sweep.add_argument("--resolution", type=int, default=20)
    p_sweep.add_argument("--sweep-replicates", type=int, default=20)
    p_sweep.add_argument("--svg", help="also write an SVG crash-frequency map to this name")
    p_grid = sub.add_parser("grid", parents=common, help="commitment grid: analytic vs simulated")
    p_grid.add_argument("--k-plus-min", type=float, default=0.02)
    p_grid.add_argument("--k-plus-max", type=float, default=0.30)
    p_grid.add_argument("--k-minus-min", type=float, default=0.02)
    p_grid.add_argument("--k-minus-max", type=float, default=0.30)
    p_grid.add_argument("--cells", type=int, default=10)
    sub.add_parser("impact", parents=common, help="threshold comparison across impact functions")
    p_multi = sub.add_parser("multival", parents=common, help="multi-valuation run with histogram")
    p_multi.add_argument("--multival-n-vals", type=int, default=10)
    p_multi.add_argument("--multival-horizon", type=int, default=1000)
    p_est = sub.add_parser("estimate", parents=common, help="tracking-error estimator Monte Carlo")
    p_est.add_argument("--p", type=float, default=1.3)
    p_est.add_argument("--n", type=int, default=100)
    p_est.add_argument("--reps", type=int, default=10000)
    sub.add_parser("analyze", parents=common, help="fixed-point report and analytic threshold")
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
    """The output directory, --out or else $VALTRACK_OUTDIR or else ., which
    is created if it is missing; raises ConfigError if it cannot be."""
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out!r}: {exc.strerror}") from None
    return out


# the data file of each command that takes --svg
_DATA_FILES = {"run": "run.csv", "sweep": "ternary.csv"}


def _check_svg(args: argparse.Namespace) -> None:
    """Raise ConfigError unless --svg, if given, is a bare file name that is
    neither the command's data file nor a sidecar's name."""
    name = getattr(args, "svg", None)
    if name and (os.path.basename(name) != name or name in (".", "..", _DATA_FILES[args.command])
                 or name.endswith(".meta.json")):
        raise ConfigError(f"--svg must be a bare file name, neither "
                          f"{_DATA_FILES[args.command]!r} nor *.meta.json, got {name!r}")


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(args: argparse.Namespace, cfg, name: str, content, extra=None) -> str:
    """Write the output file `name` into the output directory and its
    sidecar, and return its path. content is the file's text, or its CSV
    rows: rows of strings, written as comma-separated lines ending in CRLF,
    streamed row by row.

    No field may contain ',', '"' or a line break, and no row may be one
    empty field. The schemas below yield only repr() numbers and validated
    identifiers, so csv.writer's minimal quoting would never apply and the
    file is byte for byte what csv.writer writes.
    """
    from .seeding import rng_info
    path = os.path.join(args.out, name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            fh.writelines(",".join(row) + "\r\n" for row in content)
    sidecar = {"output": os.path.basename(path), "command": args.command,
               "config": config_mod.config_values(cfg), "master_seed": cfg.seed,
               "code_version": __version__, "rng": rng_info(), **(extra or {})}
    with open(path + ".meta.json", "w", newline="", encoding="utf-8") as fh:
        fh.write(_json(sidecar))
    return path


# --- CSV schemas ---------------------------------------------------------------

def ternary_csv_rows(grid):
    yield ["val_frac", "mo_frac", "rand_frac", "mean_drop", "crash_freq", "boom_freq"]
    for p in grid.points:
        yield [repr(p.val_frac), repr(p.mo_frac), repr(p.rand_frac),
               repr(p.mean_drop), repr(p.crash_freq), repr(p.boom_freq)]


def grid_csv_rows(grid):
    yield ["k_buy", "k_sell", "theta_analytic", "theta_sim", "settlement"]
    for c in grid.cells:
        yield [repr(c.k_buy), repr(c.k_sell), repr(c.theta_analytic),
               repr(c.theta_sim), c.settlement]


def run_csv_rows(result):
    """The header, the start and one row per step of an engine.RunResult."""
    prices, momenta, wealth = result.prices, result.momenta, result.wealth
    yield (["time", "price", "momentum", "q_p", "q_s", "executed", "cap_hit"]
           + [f"wealth_{i}" for i in range(len(wealth[0]))])
    yield [repr(0), repr(prices[0]), repr(momenta[0]), repr(0.0), repr(0.0), repr(0.0), "0",
           *map(repr, wealth[0])]
    for t, rec in enumerate(result.records, start=1):
        yield [repr(t), repr(prices[t]), repr(momenta[t]), repr(rec.q_p), repr(rec.q_s),
               repr(rec.executed), "1" if rec.cap_hit else "0", *map(repr, wealth[t])]


def fixed_point_csv_rows(kv_buy: float, km_sell: float, report, theta: float):
    """The header and the one row (kv_buy, km_sell, alpha_minus, exists, theta)."""
    yield ["kv_buy", "km_sell", "alpha_minus", "exists", "theta"]
    yield [repr(kv_buy), repr(km_sell), repr(report.selected),
           "1" if report.exists else "0", repr(theta)]


def histogram_csv_rows(hist):
    yield ["bin_center_sd", "relative_frequency"]
    for c, f in zip(hist.bin_centers, hist.frequencies):
        yield [repr(c), repr(f)]


# Each command imports the modules it runs, so parsing a command line loads
# none of them and a command loads only its own.

def cmd_run(args, cfg) -> int:
    from . import experiments
    start = time.perf_counter()
    result = experiments.run_once(cfg)
    out = _write(args, cfg, _DATA_FILES["run"], run_csv_rows(result),
                 {"telemetry": _telemetry(start, steps=len(result.prices) - 1)})
    if args.svg:
        from . import svg  # only --svg needs it and its xml import
        _write(args, cfg, args.svg,
               svg.render_series_svg(result.prices, valuation=cfg.population.u_ref))
    status = "crash at step %s" % result.crash_step if result.crash_step is not None \
        else "no crash"
    boom = " boom at step %s" % result.boom_step if result.boom_step is not None else ""
    print(f"run: {len(result.prices) - 1} steps, final price "
          f"{result.final_state.price:.6g}, {status}{boom} -> {out}")
    return EXIT_OK


def cmd_sweep(args, cfg) -> int:
    from . import experiments
    start = time.perf_counter()
    grid = experiments.ternary_sweep(cfg, args.resolution, args.sweep_replicates,
                                     workers=args.workers)
    telemetry = _telemetry(start, runs=grid.runs, steps=grid.steps,
                           aborted_runs=grid.aborted_runs, batches=grid.batches,
                           batch_runs=grid.batch_runs)
    wall = telemetry["wall_s"]
    telemetry["steps_per_s"] = grid.steps / wall if wall > 0 else 0.0
    sizes = {"resolution": grid.resolution, "replicates": grid.replicates}
    out = _write(args, cfg, _DATA_FILES["sweep"], ternary_csv_rows(grid),
                 {**sizes, "telemetry": telemetry})
    if args.svg:
        from . import svg
        _write(args, cfg, args.svg, svg.render_ternary_svg(grid), sizes)
    print(f"sweep: {len(grid.points)} points x {grid.replicates} replicates -> {out}")
    return EXIT_OK


def _telemetry(start: float, probes=None, **counts) -> dict:
    """The telemetry of a command started at start: the loop that stepped
    its runs, or, given the population of its threshold probes, those
    probes (experiments.probe_loop), "compiled", or "python" where the
    compiled loops cannot be built or take no such probe; its counts and
    its wall time."""
    from .engine import _crash_loop
    from .experiments import probe_loop
    wall = time.perf_counter() - start
    loop = _crash_loop() if probes is None else probe_loop(probes)
    return {"loop": "python" if loop is None else "compiled", **counts, "wall_s": wall}


def cmd_grid(args, cfg) -> int:
    from . import experiments
    start = time.perf_counter()
    grid = experiments.commitment_grid(
        cfg, (args.k_plus_min, args.k_plus_max),
        (args.k_minus_min, args.k_minus_max), cells=args.cells,
        workers=args.workers)
    sizes = ("cells", "k_plus_min", "k_plus_max", "k_minus_min", "k_minus_max")
    out = _write(args, cfg, "grid.csv", grid_csv_rows(grid),
                 {**{size: getattr(args, size) for size in sizes},
                  "telemetry": _telemetry(start, experiments.grid_population(cfg.population))})
    print(f"grid: {len(grid.cells)} cells ({cfg.market.settlement} settlement) -> {out}")
    return EXIT_OK


def cmd_impact(args, cfg) -> int:
    from . import experiments
    start = time.perf_counter()
    report = experiments.impact_comparison(cfg, workers=args.workers)
    out = _write(args, cfg, "impact.json", _json(asdict(report)),
                 {"telemetry": _telemetry(start, cfg.population)})
    print(f"impact thresholds: ratio={report.ratio_threshold:.5f} "
          f"powerlaw(zeta=1)={report.powerlaw_linear_threshold:.5f} "
          f"powerlaw(zeta=0.8)={report.powerlaw_concave_threshold:.5f} -> {out}")
    return EXIT_OK


def cmd_multival(args, cfg) -> int:
    from . import experiments
    start = time.perf_counter()
    report = experiments.multival_run(cfg, n_vals=args.multival_n_vals,
                                      horizon=args.multival_horizon)
    sizes = {"horizon": args.multival_horizon, "n_vals": args.multival_n_vals}
    telemetry = _telemetry(start, steps=len(report.result.prices) - 1)
    series_out = _write(args, cfg, "multival_run.csv", run_csv_rows(report.result),
                        {"valuations": list(report.valuations), **sizes,
                         "telemetry": telemetry})
    hist_out = _write(args, cfg, "multival_histogram.csv",
                      histogram_csv_rows(report.histogram), sizes)
    print(f"multival: max tracking error vs mean valuation "
          f"{report.max_tau_vs_mean:.4f} Blacks; wealth variance "
          f"{report.val_wealth_var_start:.3g} -> {report.val_wealth_var_end:.3g}; "
          f"-> {series_out}, {hist_out}")
    return EXIT_OK


def cmd_estimate(args, cfg) -> int:
    from . import metrics
    report = metrics.estimator_mc(cfg.population.gamma_shape, cfg.population.gamma_rate,
                                  args.p, args.n, args.reps, cfg.seed)
    out = _write(args, cfg, "estimator.json", _json(asdict(report)),
                 {"estimator": {"p": args.p, "n": args.n, "reps": args.reps}})
    print(f"estimate: tau_true={report.tau_true:.5f} "
          f"tau_hat_mean={report.tau_hat_mean:.5f} bias={report.bias:.2e} "
          f"empirical std={report.empirical_std:.5f} "
          f"predicted std={report.predicted_std:.5f} "
          f"skewness={report.skewness:.3f} -> {out}")
    return EXIT_OK


def cmd_analyze(args, cfg) -> int:
    from . import analysis
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
    out = _write(args, cfg, "analysis.csv", fixed_point_csv_rows(
        cfg.commitments.kv_buy, cfg.commitments.km_sell, alpha_report, theta))
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
        _check_svg(args)
        args.out = _outdir(args)
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
