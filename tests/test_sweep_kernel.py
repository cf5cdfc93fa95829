"""The batched sweep kernel (engine.run_summaries) against the scalar engine.

ternary_sweep steps every (simplex point, replicate) run of a sweep in
lockstep. The reference below is the per-point loop it replaced: one scalar
run_once per replicate, aggregated per point. Every TernaryPoint must be
identical, not merely close.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from valtrack import engine, experiments, metrics
from valtrack.errors import InvalidInputError
from valtrack.experiments import (ExperimentConfig, TernaryPoint, run_once,
                                  simplex_points, ternary_sweep)
from valtrack.metrics import CrashPredicate
from valtrack.params import CommitmentParams, MarketParams
from valtrack.seeding import mix_seed
from valtrack.traders import MarketState, PopulationSpec, Trader


def scalar_sweep(config, resolution, replicates):
    """The sweep point by point through the scalar engine."""
    points = []
    for index, (val, mo, rand) in enumerate(simplex_points(resolution)):
        cfg = replace(config, population=config.population.with_mix(val, mo, rand))
        drops = []
        crashes = booms = 0
        for rep in range(replicates):
            result = run_once(replace(cfg, seed=mix_seed(config.seed, index, rep)))
            drops.append(metrics.max_relative_drop(result.prices))
            crashes += result.crash_step is not None
            booms += result.boom_step is not None
        points.append(TernaryPoint(val, mo, rand, math.fsum(drops) / replicates,
                                   crashes / replicates, booms / replicates))
    return tuple(points)


def scalar_aborts(config, resolution, replicates):
    return sum(run_once(replace(config, population=config.population.with_mix(*pt),
                                seed=mix_seed(config.seed, index, rep))).aborted
               for index, pt in enumerate(simplex_points(resolution))
               for rep in range(replicates))


CRASHES = {
    "drop_below": CrashPredicate.drop_below,
    "relative_drop": CrashPredicate.relative_drop,
    "deciblack_drop": CrashPredicate.deciblack_drop,
}
CRASH_VALUES = {"drop_below": 0.5, "relative_drop": 0.3, "deciblack_drop": 2.0}


@st.composite
def sweep_configs(draw):
    horizon = draw(st.integers(20, 60))
    kind = draw(st.sampled_from(sorted(CRASHES)))
    impact, zeta = draw(st.sampled_from([("ratio", 1.0), ("powerlaw", 1.0),
                                         ("powerlaw", 0.8)]))
    market = MarketParams(
        horizon=horizon, impact=impact, zeta=zeta,
        # at eta = 2 a lone momentum seller falls through the price floor
        # in 14 steps
        eta=draw(st.sampled_from([0.1, 2.0])),
        settlement=draw(st.sampled_from(["updated", "current"])))
    n_vals = draw(st.integers(1, 3))
    population = PopulationSpec(
        val_fracs=(1.0 / n_vals,) * n_vals,
        valuation=draw(st.sampled_from(["fixed", "gamma"])),
        rand_mode=draw(st.sampled_from(["basic", "refined"])))
    return ExperimentConfig(
        market=market, population=population,
        crash=CRASHES[kind](CRASH_VALUES[kind]),
        m0=draw(st.sampled_from([-0.001, 0.0, 0.001])),
        seed=draw(st.integers(0, 2**32)))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=sweep_configs())
def test_batched_sweep_matches_scalar_runs(config):
    grid = ternary_sweep(config, resolution=2, replicates=2)
    assert grid.points == scalar_sweep(config, 2, 2)
    assert grid.aborted_runs == scalar_aborts(config, 2, 2)


def abort_config():
    # momentum sells from the first step, and at eta = 1 the pure-momentum
    # point falls through the 1e-12 price floor after 28 steps; a drop
    # below 1e-13 fires only after that abort, so the aborts decide a crash
    return ExperimentConfig(market=MarketParams(eta=1.0, horizon=60),
                            population=PopulationSpec(rand_mode="refined"),
                            crash=CrashPredicate.drop_below(1e-13),
                            m0=-0.001, seed=5)


def test_price_floor_aborts_are_masked_and_count_as_crashes():
    config = abort_config()
    aborts = scalar_aborts(config, 2, 3)
    assert aborts > 0
    grid = ternary_sweep(config, resolution=2, replicates=3)
    assert grid.points == scalar_sweep(config, 2, 3)
    assert grid.aborted_runs == aborts
    # the crash frequency of the pure-momentum point comes from the aborts
    pure_mo = [p for p in grid.points if p.mo_frac == 1.0][0]
    assert pure_mo.crash_freq == 1.0
    assert grid.steps < grid.runs * config.market.horizon


CAP = experiments._MAX_BATCH_RUNS


# at the cap and one run over it, the 10 points x (CAP // 10 + 2)
# replicates split into a full-width batch and a short one
@pytest.mark.parametrize("batch, replicates", [
    pytest.param(batch, replicates, id=str(batch)) for batch, replicates in
    [(1, 2), (7, 2), (10**6, 2), (CAP, CAP // 10 + 2), (CAP + 1, CAP // 10 + 2)]])
def test_results_do_not_depend_on_batch_size(monkeypatch, batch, replicates):
    config = replace(abort_config(), population=PopulationSpec(
        val_fracs=(0.5, 0.5), valuation="gamma", rand_mode="refined"))
    expected = scalar_sweep(config, 3, replicates)
    monkeypatch.setattr(experiments, "_MAX_BATCH_RUNS", batch)
    grid = ternary_sweep(config, resolution=3, replicates=replicates)
    assert grid.points == expected
    assert grid.aborted_runs == scalar_aborts(config, 3, replicates)
    assert (grid.batches, grid.batch_runs) == (-(-grid.runs // batch), min(batch, grid.runs))


# the pure-momentum runs fall through the price floor at step 28, inside
# a block of 5 or 32 steps, so their rows stop placing orders mid-block;
# 61 steps exceed the 60-step horizon
@pytest.mark.parametrize("block", [1, 5, 61])
def test_results_do_not_depend_on_rng_block_steps(monkeypatch, block):
    config = abort_config()
    expected = scalar_sweep(config, 2, 3)
    monkeypatch.setattr(engine, "_RNG_BLOCK_STEPS", block)
    grid = ternary_sweep(config, resolution=2, replicates=3)
    assert grid.points == expected
    assert grid.aborted_runs == scalar_aborts(config, 2, 3) > 0


def test_results_do_not_depend_on_worker_count():
    config = replace(abort_config(), seed=9)
    serial = ternary_sweep(config, resolution=3, replicates=3, workers=1)
    parallel = ternary_sweep(config, resolution=3, replicates=3, workers=2)
    assert serial == parallel


def test_uniform_draws_match_generator_uniform():
    k = 0.1
    bitgens = [np.random.PCG64(seed) for seed in (0, 1, 2**63)]
    draws = engine._draw_uniforms(bitgens + [None], steps=3)
    for seed, row in zip((0, 1, 2**63), draws):
        rng = np.random.Generator(np.random.PCG64(seed))
        assert (k * row).tolist() == [rng.uniform(0.0, k) for _ in range(6)]
    assert draws[3].tolist() == [0.0] * 6


finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(finite, min_size=n, max_size=n), min_size=1, max_size=8)))
def test_exact_row_sums_equal_fsum(rows):
    sums = engine._exact_row_sums(np.array(rows, dtype=float))
    assert sums.tolist() == [math.fsum(row) for row in rows]


def test_exact_row_sums_fall_back_where_the_error_terms_round():
    # without the fallback the first row would come out one ulp off fsum
    rows = [[-8.897103545586257e+23, -4.625128280207544e+21, 3.10521607160941e+22,
             1.0746473120468017e+22, -8.430287510477103e-23],
            [0.1, 0.2, 0.3, 0.4, 0.5]]
    sums = engine._exact_row_sums(np.array(rows))
    assert sums.tolist() == [math.fsum(row) for row in rows]


def bad_state(price=1.0, momentum=-0.001, mo_cash=0.2, val_cash=0.8, val_asset=3.2,
              kind="mo", rand_mode="basic"):
    traders = [Trader(val_cash, val_asset, "val"),
               Trader(mo_cash, 0.8, kind, rand_mode=rand_mode)]
    return MarketState(price=price, momentum=momentum, time=0, traders=traders,
                       total_cash=val_cash + mo_cash, total_asset=val_asset + 0.8)


@pytest.mark.parametrize("state, params", [
    (bad_state(price=math.nan), MarketParams()),
    (bad_state(price=math.inf), MarketParams()),
    (bad_state(momentum=math.nan), MarketParams()),
    (bad_state(momentum=math.inf), MarketParams()),
    (bad_state(momentum=0.001, mo_cash=-1.0), MarketParams()),
    (bad_state(), MarketParams(eta=1000.0)),
    (bad_state(price=0.0), MarketParams()),
    (bad_state(val_cash=math.nan), MarketParams()),
    (bad_state(val_asset=-1.0), MarketParams()),
    (bad_state(kind="momentum"), MarketParams()),
    (bad_state(kind="rand", rand_mode="fancy"), MarketParams()),
], ids=["nan price", "inf price", "nan momentum", "inf momentum",
        "negative bid", "price underflows to 0", "price 0.0", "NaN cash",
        "negative asset", "unknown kind", "unknown rand mode"])
def test_kernel_raises_where_the_scalar_engine_raises(state, params):
    crash = CrashPredicate.relative_drop(0.3)
    with pytest.raises(InvalidInputError):
        engine.run(state, params, CommitmentParams(), seed=0, crash=crash)
    with pytest.raises(InvalidInputError):
        engine.step(state, params, CommitmentParams())
    with pytest.raises(InvalidInputError):
        engine.run_summaries([bad_state(), state], params, CommitmentParams(), [0, 1],
                             crash)


def test_kernel_rejects_layouts_it_cannot_batch():
    crash = CrashPredicate.relative_drop(0.3)
    two_mo = bad_state()
    two_mo.traders.append(Trader(0.1, 0.1, "mo"))
    with pytest.raises(InvalidInputError):
        engine.run_summaries([two_mo], MarketParams(), CommitmentParams(), [0], crash)
    with pytest.raises(InvalidInputError):
        engine.run_summaries([bad_state()], MarketParams(), CommitmentParams(), [0, 1],
                             crash)
