"""The batched sweep kernel (batch.run_summaries) against the scalar engine.

ternary_sweep steps every (simplex point, replicate) run of a sweep in
lockstep. The reference below is the per-point loop it replaced: one scalar
run_once per replicate, aggregated per point. Every TernaryPoint must be
identical, not merely close.
"""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crash_kinds import crash_predicates
from valtrack import batch, experiments, metrics
from valtrack.engine import run
from valtrack.experiments import (ExperimentConfig, TernaryPoint, run_once,
                                  simplex_points, ternary_sweep)
from valtrack.metrics import CrashPredicate
from valtrack.params import MarketParams
from valtrack.seeding import mix_seed
from valtrack.traders import PopulationSpec


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


def recorded_batches(monkeypatch):
    """A list that gets (initials, seeds, summaries) of each batch that
    batch.run_summaries steps from now on."""
    batches = []
    run_summaries = batch.run_summaries

    def recording(initials, params, commitments, seeds, crash):
        summaries = run_summaries(initials, params, commitments, seeds, crash)
        batches.append((initials, seeds, summaries))
        return summaries

    monkeypatch.setattr(batch, "run_summaries", recording)
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
    expected = scalar_sweep(config, 3, replicates)
    monkeypatch.setattr(experiments, "_MAX_BATCH_RUNS", batch)
    batches_run = recorded_batches(monkeypatch)
    grid = ternary_sweep(config, resolution=3, replicates=replicates)
    assert grid.points == expected
    assert grid.aborted_runs == scalar_aborts(config, 3, replicates)
    batches = -(-grid.runs // batch)
    assert (grid.batches, grid.batch_runs) == (batches, -(-grid.runs // batches))
    # the highest price of each run, which no TernaryPoint reads
    for initials, seeds, summaries in batches_run:
        assert summaries.max_price.tolist() == [
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
    assert grid.points == scalar_sweep(config, 2, 3)


# the pure-momentum runs fall through the price floor at step 28, inside
# a block of 5 or 32 steps, so their rows stop placing orders mid-block;
# 61 steps exceed the 60-step horizon
@pytest.mark.parametrize("block", [1, 5, 61])
def test_results_do_not_depend_on_rng_block_steps(monkeypatch, block):
    config = abort_config()
    expected = scalar_sweep(config, 2, 3)
    monkeypatch.setattr(batch, "_RNG_BLOCK_STEPS", block)
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
    generators = [np.random.Generator(np.random.PCG64(seed)) for seed in (0, 1, 2**63)]
    draws = np.zeros((4, 6))
    batch._draw_uniforms(generators + [None], draws)
    for seed, row in zip((0, 1, 2**63), draws):
        rng = np.random.Generator(np.random.PCG64(seed))
        assert (k * row).tolist() == [rng.uniform(0.0, k) for _ in range(6)]
    assert draws[3].tolist() == [0.0] * 6


finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@given(st.integers(2, 6).flatmap(
    lambda n: st.lists(st.lists(finite, min_size=n, max_size=n), min_size=1, max_size=8)))
def test_exact_row_sums_equal_fsum(rows):
    x, sums = batch._exact_row_sums(len(rows), len(rows[0]))
    x[...] = rows
    assert sums().tolist() == [math.fsum(row) for row in rows]


def test_exact_row_sums_fall_back_where_the_error_terms_round():
    # without the fallback the first row would come out one ulp off fsum
    rows = [[-8.897103545586257e+23, -4.625128280207544e+21, 3.10521607160941e+22,
             1.0746473120468017e+22, -8.430287510477103e-23],
            [0.1, 0.2, 0.3, 0.4, 0.5]]
    x, sums = batch._exact_row_sums(2, 5)
    x[...] = rows
    assert sums().tolist() == [math.fsum(row) for row in rows]


# the numpy names the kernel may use; each further ufunc or reduction
# faults in another 64-128 KiB of numpy's machine code (batch.py), and peak
# RSS is one of the sweep's end-to-end costs, so a new name is a reviewed
# change of this list
KERNEL_NUMPY_NAMES = {
    "add", "array", "count_nonzero", "divide", "empty", "empty_like", "equal", "errstate",
    "flatnonzero", "fromiter", "full", "greater", "less", "maximum", "minimum", "multiply",
    "ndarray", "ones", "where", "zeros"}


def test_the_kernel_uses_only_its_listed_numpy_names():
    tree = ast.parse(Path(batch.__file__).read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert used == KERNEL_NUMPY_NAMES
