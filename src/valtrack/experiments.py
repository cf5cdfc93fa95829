"""Reproduction harnesses: threshold bisection, ternary sweeps over the
trader simplex, commitment grids and multi-valuation runs.

Every run is seeded by folding its task indices into the master seed
(seeding.mix_seed), so results are reproducible bit-for-bit and independent
of worker count or scheduling. Aggregation is keyed by task index.
"""

import math
import os
from dataclasses import dataclass, field, replace

from . import analysis, metrics
from .engine import RunResult, crash_step, run
from .errors import ConfigError
from .metrics import CrashPredicate, Histogram
from .params import CommitmentParams, MarketParams
from .seeding import mix_seed, rng_for
from .traders import (KIND_VAL, VALUATION_FIXED, VALUATION_GAMMA,
                      PopulationSpec, init_population)

# Largest number of sweep runs stepped together by batch.run_summaries. It
# bounds the batch's arrays and PCG64 streams in memory; results do not
# depend on it. Wider batches spread numpy's per-call cost over more runs,
# at about 3.5 KiB per run: the desk sweep (4,620 runs) took a median of
# 2.56, 1.95, 1.72, 1.54 and 1.42 s at widths 256 to 4,096, with peak RSS
# 36.5, 37.0, 38.8, 42.3 and 49.7 MiB (BENCH_pr7.json). From 2,048 to
# 4,096 each added MiB saves a third of what it saved from 1,024 to 2,048.
_MAX_BATCH_RUNS = 2048


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything a seeded experiment needs."""

    market: MarketParams = field(default_factory=MarketParams)
    commitments: CommitmentParams = field(default_factory=CommitmentParams)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    crash: CrashPredicate = field(default_factory=CrashPredicate.deciblack_drop)
    m0: float = -0.001
    seed: int = 0
    replicates: int = 20   # majority vote of a stochastic bisection probe

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")


def _draws_nothing(population: PopulationSpec) -> bool:
    """Whether every run of this population is the same run: no random
    trader draws from the engine stream and fixed valuations draw nothing
    from the population stream, so the seed changes nothing."""
    return population.rand_frac == 0.0 and population.valuation == VALUATION_FIXED


def _seeded_start(config: ExperimentConfig, task_seed: int, shared=None):
    """(initial state, engine seed) of the run with this task seed. Only
    gamma valuations draw from the population stream, so only they build it.

    shared is None or the start of another run of this config. Fixed
    valuations start every run from the same state, so it is returned as
    is; only a caller that leaves its states unchanged may pass one.
    """
    gamma = config.population.valuation == VALUATION_GAMMA
    if shared is None or gamma:
        shared = init_population(config.population, m0=config.m0,
                                 rng=rng_for(task_seed, 0) if gamma else None)
    return shared, mix_seed(task_seed, 1)


def run_once(config: ExperimentConfig) -> RunResult:
    """One seeded run of the configured population."""
    state, run_seed = _seeded_start(config, config.seed)
    return run(state, config.market, config.commitments, seed=run_seed, crash=config.crash)


# --- threshold bisection -----------------------------------------------------

def _crash_outcome(config: ExperimentConfig, theta: float) -> bool:
    """Does the crash predicate fire at momentum-trader wealth share theta?

    The valuation side receives the remaining wealth after the configured
    random-trader share; threshold_search passes theta <= 1 - rand_frac,
    so it is >= 0 up to rounding. Deterministic populations use one run; with
    a random trader or gamma valuations the majority outcome over
    config.replicates wins, and a tie (an even replicate count split
    evenly) counts as no crash. Each run is a summary-only
    engine.crash_step that stops at the crash.
    """
    rand_frac = config.population.rand_frac
    val_frac = 1.0 - theta - rand_frac
    population = config.population.with_mix(max(val_frac, 0.0), theta, rand_frac)
    cfg = replace(config, population=population)
    reps = 1 if _draws_nothing(population) else config.replicates
    crashes = 0
    for rep in range(reps):
        state, run_seed = _seeded_start(cfg, mix_seed(config.seed, int(round(theta * 1e8)), rep))
        if crash_step(state, cfg.market, cfg.commitments, run_seed, cfg.crash) is not None:
            crashes += 1
    return 2 * crashes > reps


def threshold_search(config: ExperimentConfig, tol: float = 5e-4) -> float:
    """Smallest momentum-trader wealth share whose crash predicate fires,
    found by bisection to within tol; returns the crashing end of the final
    bracket. The bracket is [0, 1 - rand_frac], the wealth the random-trader
    share leaves. If the outcome is constant over it the threshold is
    reported at the corresponding end (0 when even 0 crashes, 1 - rand_frac
    when even that does not).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    lo, hi = 0.0, min(1.0, 1.0 - config.population.rand_frac)
    if hi <= lo:
        raise ConfigError(f"random-trader share {config.population.rand_frac} "
                          "leaves no room for momentum traders")
    if _crash_outcome(config, lo):
        return lo
    if not _crash_outcome(config, hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _crash_outcome(config, mid):
            hi = mid
        else:
            lo = mid
    return hi


# --- ternary sweep -----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TernaryPoint:
    val_frac: float
    mo_frac: float
    rand_frac: float
    mean_drop: float
    crash_freq: float
    boom_freq: float


@dataclass(frozen=True, slots=True)
class TernaryGrid:
    """Per-point statistics of a sweep, plus what the sweep did: the steps
    the engine simulated, the runs stopped by the price floor, and the
    engine batches and the widest one's run count. A run that repeats
    another of its batch is not simulated again, so steps counts it once.
    The batching depends on the worker count, so equality leaves it and
    steps out."""

    resolution: int
    replicates: int
    points: tuple
    steps: int = field(compare=False)
    aborted_runs: int
    batches: int = field(compare=False)
    batch_runs: int = field(compare=False)

    def __post_init__(self):
        expected = (self.resolution + 1) * (self.resolution + 2) // 2
        if len(self.points) != expected:
            raise ConfigError(f"expected {expected} simplex points, got {len(self.points)}")

    @property
    def runs(self) -> int:
        return len(self.points) * self.replicates


def simplex_points(resolution: int):
    """All (val, mo, rand) fractions with denominators `resolution`."""
    pts = []
    for i in range(resolution + 1):          # val
        for j in range(resolution + 1 - i):  # mo
            k = resolution - i - j           # rand
            pts.append((i / resolution, j / resolution, k / resolution))
    return pts


def _ternary_batch_task(args):
    """Summaries of the distinct runs among sweep runs start..stop-1, in
    one engine batch, and the row of each run in them.

    Run j is replicate j % replicates of simplex point j // replicates;
    points holds the simplex points from index start // replicates on. A
    point whose population draws nothing has one run, so its replicates in
    this batch share one row; the replicates of any other point share one
    start where they can, as run_summaries leaves its states unchanged.
    """
    # imported here, not at the top: batch imports numpy, which importing
    # valtrack should not
    from .batch import run_summaries
    config, replicates, start, stop, points = args
    first = start // replicates
    states, seeds, rows = [], [], []
    for j in range(start, stop):
        index, rep = divmod(j, replicates)
        if j == start or rep == 0:
            cfg = replace(config, population=config.population.with_mix(*points[index - first]))
            state = None
            same_run = _draws_nothing(cfg.population)
        elif same_run:
            rows.append(rows[-1])
            continue
        state, run_seed = _seeded_start(cfg, mix_seed(config.seed, index, rep), state)
        rows.append(len(states))
        states.append(state)
        seeds.append(run_seed)
    summaries = run_summaries(states, config.market, config.commitments, seeds,
                              crash=config.crash)
    return summaries, rows


def ternary_sweep(config: ExperimentConfig, resolution: int, replicates: int,
                  workers: int = 1) -> TernaryGrid:
    """Simulate every simplex point and aggregate drop/crash/boom statistics.

    Per-replicate seeds derive from (master seed, point index, replicate),
    so the grid is identical for any worker count. The runs go through the
    batched engine in batches of at most _MAX_BATCH_RUNS, as many as a
    multiple of the processes _run_tasks starts and of near-equal size; a
    point whose runs are all the same is simulated once per batch it spans.
    """
    if resolution < 1:
        raise ConfigError("resolution must be >= 1")
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    points = simplex_points(resolution)
    n_runs = len(points) * replicates
    pool = _pool_size(workers, n_runs)
    n_batches = pool * -(-n_runs // (pool * _MAX_BATCH_RUNS))
    bounds = [i * n_runs // n_batches for i in range(n_batches + 1)]
    tasks = [(config, replicates, start, stop,
              points[start // replicates:(stop - 1) // replicates + 1])
             for start, stop in zip(bounds, bounds[1:])]
    batches = _run_tasks(_ternary_batch_task, tasks, workers)
    p0 = config.population.p0
    drops, crashed, boomed, aborted = [], [], [], []
    for summaries, rows in batches:
        row_drops = [metrics.max_relative_drop((p0, low))
                     for low in summaries.min_price.tolist()]
        for per_run, per_row in ((drops, row_drops), (crashed, summaries.crashed.tolist()),
                                 (boomed, summaries.boomed.tolist()),
                                 (aborted, summaries.aborted.tolist())):
            per_run += [per_row[r] for r in rows]
    results = []
    for i, (val, mo, rand) in enumerate(points):
        runs = slice(i * replicates, (i + 1) * replicates)
        results.append(TernaryPoint(
            val, mo, rand, math.fsum(drops[runs]) / replicates,
            sum(crashed[runs]) / replicates, sum(boomed[runs]) / replicates))
    return TernaryGrid(resolution, replicates, tuple(results),
                       steps=sum(sum(s.steps.tolist()) for s, _ in batches),
                       aborted_runs=sum(aborted), batches=len(batches),
                       batch_runs=max(len(rows) for _, rows in batches))


def _pool_size(workers: int, n_tasks: int) -> int:
    """The processes that run n_tasks tasks for a request of `workers`: no
    more than there are tasks or CPUs. Raises ConfigError if workers < 1."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return min(workers, n_tasks, os.cpu_count() or 1)


def _run_tasks(fn, tasks, workers: int):
    """Execute tasks preserving submission order, in this process or on a
    pool of _pool_size(workers, len(tasks)) processes."""
    workers = _pool_size(workers, len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    # imported only here: the import takes ~20 ms, which a single worker never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


# --- commitment grid ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GridCell:
    k_buy: float
    k_sell: float
    theta_analytic: float
    theta_sim: float
    settlement: str


@dataclass(frozen=True, slots=True)
class CommitmentGrid:
    cells: tuple


def _grid_cell_task(args):
    config, k_buy, k_sell = args
    commitments = CommitmentParams(kv_buy=k_buy, kv_sell=k_sell,
                                   km_buy=k_buy, km_sell=k_sell,
                                   kr_buy=config.commitments.kr_buy,
                                   kr_sell=config.commitments.kr_sell)
    cfg = replace(config, commitments=commitments,
                  crash=CrashPredicate.drop_below(0.01),
                  population=config.population.with_mix(1.0, 0.0, 0.0))
    constants = analysis.AnalysisConstants.from_params(cfg.market, commitments)
    theta_analytic = analysis.mo_crash_threshold_analytic(constants, cfg.market.rho)
    theta_sim = threshold_search(cfg)
    return GridCell(k_buy, k_sell, theta_analytic, theta_sim,
                    cfg.market.settlement)


def commitment_grid(config: ExperimentConfig, k_plus_range=(0.02, 0.30),
                    k_minus_range=(0.02, 0.30), cells: int = 10,
                    workers: int = 1) -> CommitmentGrid:
    """Analytic versus simulated crash thresholds over a commitment grid.

    Buy and sell commitments are kept equal across the two traders, the
    population is Val/Mo only, the crash is a fall below 0.01 and the
    initial momentum comes from the config (the reference setup uses
    -0.001). Settlement follows config.market.settlement.
    """
    if cells < 1:
        raise ConfigError("cells must be >= 1")
    for lo, hi in (k_plus_range, k_minus_range):
        if not (0.0 < lo <= hi <= 1.0):
            raise ConfigError("commitment ranges must lie within (0, 1]")
    k_plus = _linspace(k_plus_range[0], k_plus_range[1], cells)
    k_minus = _linspace(k_minus_range[0], k_minus_range[1], cells)
    tasks = [(config, kp, km) for kp in k_plus for km in k_minus]
    results = _run_tasks(_grid_cell_task, tasks, workers)
    return CommitmentGrid(tuple(results))


def _linspace(lo: float, hi: float, n: int):
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


# --- impact-function comparison ----------------------------------------------

@dataclass(frozen=True, slots=True)
class ImpactReport:
    ratio_threshold: float
    powerlaw_linear_threshold: float    # zeta = 1
    powerlaw_concave_threshold: float   # zeta = 0.8


def impact_comparison(config: ExperimentConfig, workers: int = 1) -> ImpactReport:
    """Crash thresholds under the ratio-power impact and the power-law
    impact with zeta = 1 and zeta = 0.8 (liquidity 1), one threshold search
    per task of _run_tasks."""
    def with_impact(**kw):
        return replace(config, market=replace(config.market, **kw))
    configs = [with_impact(impact="ratio"),
               with_impact(impact="powerlaw", zeta=1.0, liquidity=1.0),
               with_impact(impact="powerlaw", zeta=0.8, liquidity=1.0)]
    return ImpactReport(*_run_tasks(threshold_search, configs, workers))


# --- multi-valuation runs ----------------------------------------------------

@dataclass(slots=True)
class MultivalReport:
    result: RunResult
    valuations: tuple
    histogram: Histogram
    max_tau_vs_mean: float
    val_wealth_var_start: float
    val_wealth_var_end: float


def multival_run(config: ExperimentConfig, n_vals: int = 10,
                 horizon: int = 1000) -> MultivalReport:
    """One gamma-valuation run tracking each valuation trader's wealth.

    The price-level histogram and the tracking error against the sample
    mean of the valuations come along for the plotting-oriented summaries.
    The histogram needs a standard deviation, so n_vals must be >= 2.
    """
    if n_vals < 2:
        raise ConfigError(f"need at least two valuation traders, got {n_vals}")
    population = replace(config.population, valuation=VALUATION_GAMMA)
    total_val = math.fsum(population.val_fracs)
    population = population.with_mix(total_val, population.mo_frac,
                                     population.rand_frac, n_vals=n_vals)
    market = replace(config.market, horizon=horizon)
    cfg = replace(config, population=population, market=market)
    result = run_once(cfg)

    state = result.final_state
    valuations = tuple(t.valuation for t in state.traders if t.kind == KIND_VAL)
    hist = metrics.price_level_histogram(result.prices, valuations)
    mean_val = math.fsum(valuations) / len(valuations)
    max_tau = max(metrics.tau(p, mean_val) for p in result.prices)

    val_idx = [i for i, t in enumerate(state.traders) if t.kind == KIND_VAL]
    w0 = [result.wealth[0][i] for i in val_idx]
    w1 = [result.wealth[-1][i] for i in val_idx]
    return MultivalReport(result=result, valuations=valuations, histogram=hist,
                          max_tau_vs_mean=max_tau,
                          val_wealth_var_start=_variance(w0),
                          val_wealth_var_end=_variance(w1))


def _variance(xs):
    n = len(xs)
    mean = math.fsum(xs) / n
    return math.fsum((x - mean) ** 2 for x in xs) / n


# --- CSV schemas ---------------------------------------------------------------

def ternary_csv_rows(grid: TernaryGrid):
    yield ["val_frac", "mo_frac", "rand_frac", "mean_drop", "crash_freq", "boom_freq"]
    for p in grid.points:
        yield [repr(p.val_frac), repr(p.mo_frac), repr(p.rand_frac),
               repr(p.mean_drop), repr(p.crash_freq), repr(p.boom_freq)]


def grid_csv_rows(grid: CommitmentGrid):
    yield ["k_buy", "k_sell", "theta_analytic", "theta_sim", "settlement"]
    for c in grid.cells:
        yield [repr(c.k_buy), repr(c.k_sell), repr(c.theta_analytic),
               repr(c.theta_sim), c.settlement]


def run_csv_rows(result: RunResult):
    n_traders = len(result.wealth[0])
    yield (["time", "price", "momentum", "q_p", "q_s", "executed", "cap_hit"]
           + [f"wealth_{i}" for i in range(n_traders)])
    yield ([repr(0), repr(result.prices[0]), repr(result.momenta[0]),
            repr(0.0), repr(0.0), repr(0.0), "0"]
           + [repr(w) for w in result.wealth[0]])
    for t, rec in enumerate(result.records, start=1):
        yield ([repr(t), repr(result.prices[t]), repr(result.momenta[t]),
                repr(rec.q_p), repr(rec.q_s), repr(rec.executed),
                "1" if rec.cap_hit else "0"]
               + [repr(w) for w in result.wealth[t]])


def fixed_point_csv_rows(kv_buy: float, km_sell: float, report, theta: float):
    """The header and the one row (kv_buy, km_sell, alpha_minus, exists, theta)."""
    yield ["kv_buy", "km_sell", "alpha_minus", "exists", "theta"]
    yield [repr(kv_buy), repr(km_sell), repr(report.selected),
           "1" if report.exists else "0", repr(theta)]


def histogram_csv_rows(hist: Histogram):
    yield ["bin_center_sd", "relative_frequency"]
    for c, f in zip(hist.bin_centers, hist.frequencies):
        yield [repr(c), repr(f)]
