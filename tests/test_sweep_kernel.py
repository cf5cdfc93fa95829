"""The sweep's run summaries (summaries.run_summaries) against the scalar engine.

ternary_sweep summarises every (simplex point, replicate) run of a sweep in
batches, in the compiled summary loop or, where it cannot be built, from
run. The reference below is the per-point loop it replaced: one scalar
run_once per replicate, aggregated per point. Every TernaryPoint must be
identical, not merely close, on both paths.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crash_kinds import crash_predicates
from valtrack import engine, experiments, metrics, summaries
from valtrack.engine import run
from valtrack.experiments import (ExperimentConfig, TernaryPoint, run_once,
                                  simplex_points, ternary_sweep)
from valtrack.metrics import CrashPredicate
from valtrack.params import MarketParams
from valtrack.seeding import mix_seed
from valtrack.traders import PopulationSpec


def scalar_sweep(config, resolution, replicates):
    """The sweep point by point through the scalar engine: its points and
    its runs that the price floor aborted."""
    points, aborts = [], 0
    for index, (val, mo, rand) in enumerate(simplex_points(resolution)):
        cfg = replace(config, population=config.population.with_mix(val, mo, rand))
        drops = []
        crashes = booms = 0
        for rep in range(replicates):
            result = run_once(replace(cfg, seed=mix_seed(config.seed, index, rep)))
            drops.append(metrics.max_relative_drop(result.prices))
            crashes += result.crash_step is not None
            booms += result.boom_step is not None
            aborts += result.aborted
        points.append(TernaryPoint(val, mo, rand, math.fsum(drops) / replicates,
                                   crashes / replicates, booms / replicates))
    return tuple(points), aborts


def on_both_loops(check):
    """check() with run_summaries stepping its runs in the compiled loop,
    then with the loader giving None, as where the loop cannot be built,
    so that each row comes from run."""
    check()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_crash_loop", lambda: None)
        check()


@st.composite
def sweep_configs(draw):
    horizon = draw(st.integers(20, 60))
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
        crash=draw(crash_predicates),
        m0=draw(st.sampled_from([-0.001, 0.0, 0.001])),
        seed=draw(st.integers(0, 2**32)))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=sweep_configs())
def test_batched_sweep_matches_scalar_runs(config):
    points, aborts = scalar_sweep(config, 2, 2)

    def check():
        grid = ternary_sweep(config, resolution=2, replicates=2)
        assert (grid.points, grid.aborted_runs) == (points, aborts)

    on_both_loops(check)


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
    points, aborts = scalar_sweep(config, 2, 3)
    assert aborts > 0

    def check():
        grid = ternary_sweep(config, resolution=2, replicates=3)
        assert (grid.points, grid.aborted_runs) == (points, aborts)
        # the crash frequency of the pure-momentum point comes from the aborts
        pure_mo = [p for p in grid.points if p.mo_frac == 1.0][0]
        assert pure_mo.crash_freq == 1.0
        assert grid.steps < grid.runs * config.market.horizon

    on_both_loops(check)


def recorded_batches(monkeypatch):
    """A list that gets (initials, seeds, summaries) of each batch that
    the sweep's run_summaries summarises from now on."""
    batches = []
    run_summaries = summaries.run_summaries

    def recording(initials, params, commitments, seeds, crash):
        result = run_summaries(initials, params, commitments, seeds, crash)
        batches.append((initials, seeds, result))
        return result

    monkeypatch.setattr(summaries, "run_summaries", recording)
    return batches


CAP = experiments._MAX_BATCH_RUNS


# at the cap and one run over it, the 10 points x (CAP // 10 + 2)
# replicates split into two batches of equal width; with fixed valuations
# the batches of 7 runs hold runs 0-5, 6-12 and 13-19, so the rand-free
# point 6, runs 12 and 13, is simulated once in each of two batches
@pytest.mark.parametrize("batch, replicates, valuation", [
    pytest.param(batch, replicates, valuation,
                 id=str(batch) if valuation == "gamma" else f"{batch}-{valuation}")
    for batch, replicates, valuation in
    [(1, 2, "gamma"), (7, 2, "gamma"), (10**6, 2, "gamma"), (CAP, CAP // 10 + 2, "gamma"),
     (CAP + 1, CAP // 10 + 2, "gamma"), (7, 2, "fixed")]])
def test_results_do_not_depend_on_batch_size(monkeypatch, batch, replicates, valuation):
    config = replace(abort_config(), population=PopulationSpec(
        val_fracs=(0.5, 0.5), valuation=valuation, rand_mode="refined"))
    expected, aborts = scalar_sweep(config, 3, replicates)
    monkeypatch.setattr(experiments, "_MAX_BATCH_RUNS", batch)
    batches_run = recorded_batches(monkeypatch)

    def check():
        grid = ternary_sweep(config, resolution=3, replicates=replicates)
        assert (grid.points, grid.aborted_runs) == (expected, aborts)
        batches = -(-grid.runs // batch)
        assert (grid.batches, grid.batch_runs) == (batches, -(-grid.runs // batches))

    on_both_loops(check)
    # the highest price of each run of the compiled loop's batches, which no
    # TernaryPoint reads
    for initials, seeds, result in batches_run[:len(batches_run) // 2]:
        assert list(result.max_price) == [
            max(run(state, config.market, config.commitments, seed, config.crash).prices)
            for state, seed in zip(initials, seeds)]


@pytest.mark.parametrize("valuation, simulated", [("fixed", 12), ("gamma", 18)])
def test_each_distinct_run_is_simulated_once(monkeypatch, valuation, simulated):
    # at resolution 2 three of the six points have no random trader; with
    # fixed valuations each of their three replicates is the same run
    batches = recorded_batches(monkeypatch)
    config = replace(abort_config(), population=PopulationSpec(valuation=valuation,
                                                               rand_mode="refined"))
    grid = ternary_sweep(config, resolution=2, replicates=3)
    widths = [len(initials) for initials, _, _ in batches]
    assert (widths, grid.runs, grid.batch_runs) == ([simulated], 18, 18)
    assert grid.points == scalar_sweep(config, 2, 3)[0]


def test_results_do_not_depend_on_worker_count():
    config = replace(abort_config(), seed=9)
    serial = ternary_sweep(config, resolution=3, replicates=3, workers=1)

    def check():
        assert ternary_sweep(config, resolution=3, replicates=3, workers=2) == serial

    on_both_loops(check)
