"""Model-invariant check on a sample of each workload's runs.

The sample is rebuilt from the workload's config with the public API
(`valtrack.init_population`, `valtrack.run`, `valtrack.seeding`) at the
workload's simplex points, cells and seeds, and each run is checked for:

- cash and asset conservation to 1e-12 (relative), at every step through
  the traders' marked-to-market wealth and at the end through the holdings;
- a per-step |d log p| no larger than eta, the per-step price cap;
- non-negative holdings at the end of the run.

The check runs outside the timed loop.
"""

import math
from dataclasses import replace

TOL = 1e-12


def _violations(result, eta: float) -> list:
    state = result.final_state
    cash, asset = state.total_cash, state.total_asset
    found = []
    for t, (price, wealth) in enumerate(zip(result.prices, result.wealth)):
        expected = cash + asset * price
        if abs(math.fsum(wealth) - expected) > TOL * expected:
            found.append(f"value not conserved at step {t}")
            break
    if abs(state.cash_sum() - cash) > TOL * cash:
        found.append("cash not conserved")
    if abs(state.asset_sum() - asset) > TOL * asset:
        found.append("asset not conserved")
    for t in range(1, len(result.prices)):
        if abs(math.log(result.prices[t] / result.prices[t - 1])) > eta + TOL:
            found.append(f"price cap exceeded at step {t}")
            break
    if any(tr.cash < 0.0 or tr.asset < 0.0 for tr in state.traders):
        found.append("negative holding")
    return found


def sample_runs(valtrack, workload, seed: int):
    """Yield (label, RunResult, eta) for a sample of the workload's runs."""
    from valtrack.config import parse_config
    from valtrack.experiments import simplex_points
    from valtrack.metrics import CrashPredicate
    from valtrack.params import CommitmentParams
    from valtrack.seeding import mix_seed, rng_for

    # Built here, not through experiments.run_once: the check needs the
    # per-step prices and wealth of a full RunResult from the public
    # valtrack.run, whatever the harness later keeps of a run. The seeds
    # follow run_once; if its derivation changes, the sample is still a set
    # of runs at the workload's configurations, and the invariants hold for
    # every seed.
    def one(cfg, task_seed, stop_at_crash=False):
        state = valtrack.init_population(cfg.population, m0=cfg.m0,
                                         rng=rng_for(task_seed, 0))
        return valtrack.run(state, cfg.market, cfg.commitments,
                            seed=mix_seed(task_seed, 1), crash=cfg.crash,
                            stop_at_crash=stop_at_crash)

    if workload.name == "sweep":
        cfg = parse_config(path=workload.config_path, overrides={"run.seed": seed})
        points = simplex_points(workload.sizes["resolution"])
        for index in sorted({0, len(points) // 2, len(points) - 1}):
            mix_cfg = replace(cfg, population=cfg.population.with_mix(*points[index]))
            for rep in range(2):
                result = one(mix_cfg, mix_seed(seed, index, rep))
                yield f"point {index} rep {rep}", result, cfg.market.eta
    elif workload.name == "grid":
        for settlement in ("current", "updated"):
            cfg = parse_config(path=workload.config_path,
                               overrides={"run.seed": seed,
                                          "market.settlement": settlement})
            for k in (0.02, 0.30):
                for theta in (0.1, 0.2, 0.3):
                    cell = replace(
                        cfg, commitments=CommitmentParams(k, k, k, k),
                        crash=CrashPredicate.drop_below(0.01),
                        population=cfg.population.with_mix(1.0 - theta, theta, 0.0))
                    result = one(cell, mix_seed(seed, int(round(theta * 1e8)), 0),
                                 stop_at_crash=True)
                    yield (f"{settlement} k={k} theta={theta}", result,
                           cfg.market.eta)
        cfg = parse_config(path=workload.config_path, overrides={"run.seed": seed})
        powerlaw = replace(cfg, market=replace(cfg.market, impact="powerlaw",
                                               zeta=0.8, liquidity=1.0),
                           population=cfg.population.with_mix(0.8, 0.2, 0.0))
        yield "powerlaw zeta=0.8", one(powerlaw, seed, stop_at_crash=True), cfg.market.eta
    elif workload.name == "multival":
        cfg = parse_config(path=workload.config_path, overrides={"run.seed": seed})
        n_vals = workload.sizes["n_vals"]
        population = replace(cfg.population, valuation="gamma")
        population = population.with_mix(math.fsum(population.val_fracs),
                                         population.mo_frac, population.rand_frac,
                                         n_vals=n_vals)
        market = replace(cfg.market, horizon=workload.sizes["horizon"])
        mv_cfg = replace(cfg, population=population, market=market)
        runs = workload.sizes["runs"]
        for i in (0, runs - 1):
            yield f"run {i}", one(mv_cfg, seed * runs + i), cfg.market.eta
    else:
        raise ValueError(f"unknown workload {workload.name!r}")


def check(valtrack, workload, seed: int) -> list:
    """One entry per sampled run: an empty string when the run meets every
    invariant, else the violations found."""
    return ["; ".join(f"{workload.name} {label}: {v}" for v in _violations(result, eta))
            for label, result, eta in sample_runs(valtrack, workload, seed)]
