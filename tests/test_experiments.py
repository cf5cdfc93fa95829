import concurrent.futures
import math
import os
from dataclasses import replace

import pytest

from valtrack import experiments
from valtrack.config import parse_config
from valtrack.errors import ConfigError
from valtrack.experiments import (ExperimentConfig, commitment_grid,
                                  grid_csv_rows, impact_comparison,
                                  multival_run, run_csv_rows, run_once,
                                  simplex_points, ternary_csv_rows,
                                  ternary_sweep, threshold_search)
from valtrack.metrics import CrashPredicate
from valtrack.params import MarketParams
from valtrack.traders import PopulationSpec


def base_config(**kw):
    defaults = dict(market=MarketParams(), population=PopulationSpec(),
                    crash=CrashPredicate.deciblack_drop(5), m0=-0.001, seed=0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestThresholdSearch:
    def test_deterministic_default_threshold(self):
        theta = threshold_search(base_config())
        assert 0.2160 < theta <= 0.2170  # analytic boundary is 0.216481

    def test_threshold_is_bracketed(self):
        cfg = base_config()
        theta = threshold_search(cfg, tol=1e-3)
        below = run_once(replace(cfg, population=cfg.population.with_mix(
            1 - (theta - 2e-3), theta - 2e-3, 0.0)))
        above = run_once(replace(cfg, population=cfg.population.with_mix(
            1 - (theta + 2e-3), theta + 2e-3, 0.0)))
        assert below.crash_step is None
        assert above.crash_step is not None

    def test_never_firing_predicate_reports_upper_boundary(self):
        cfg = base_config(crash=CrashPredicate.drop_below(1e-11))
        assert threshold_search(cfg) == 1.0

    def test_always_firing_predicate_reports_lower_boundary(self):
        # starting 10% overpriced, the valuation trader alone sells the
        # price down more than 8%, so even theta = 0 crashes
        cfg = base_config(population=PopulationSpec(p0=1.1),
                          crash=CrashPredicate.relative_drop(0.08))
        assert threshold_search(cfg) == 0.0

    def test_tiny_momentum_share_already_crashes_an_8pct_predicate(self):
        # any momentum trader at all caps the first step down 10%
        cfg = base_config(crash=CrashPredicate.relative_drop(0.08))
        assert threshold_search(cfg) <= 5e-4

    def test_invalid_bracket_rejected(self):
        # the bracket is [0, 1 - rand_frac], empty when random traders hold everything
        cfg = base_config(population=PopulationSpec(val_fracs=(0.0,), rand_frac=1.0))
        with pytest.raises(ConfigError, match="no room"):
            threshold_search(cfg)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # tol <= 0 used to bisect forever once the bracket was 1 ulp wide
        cfg = base_config()
        with pytest.raises(ConfigError, match="tol"):
            threshold_search(cfg, tol=tol)

    def test_replicate_majority_with_random_trader(self):
        pop = PopulationSpec(val_fracs=(0.8,), rand_frac=0.2)
        cfg = base_config(population=pop, replicates=5)
        theta = threshold_search(cfg, tol=5e-3)
        assert 0.05 < theta < 0.25

    def test_crash_level_predicates_agree_on_the_threshold(self):
        # crashes in this regime run to ~0, so a fall below 0.01 and a
        # 5-deciblack drop locate the same boundary
        deciblack = threshold_search(base_config())
        drop_below = threshold_search(
            base_config(crash=CrashPredicate.drop_below(0.01)))
        assert abs(deciblack - drop_below) <= 0.005


class TestTernary:
    def test_simplex_point_count_and_integrity(self):
        for r in (1, 4, 20):
            pts = simplex_points(r)
            assert len(pts) == (r + 1) * (r + 2) // 2
            for val, mo, rand in pts:
                assert val + mo + rand == pytest.approx(1.0, abs=1e-12)

    def test_small_sweep_statistics(self):
        cfg = base_config(population=PopulationSpec(rand_mode="refined"),
                          crash=CrashPredicate.relative_drop(0.30),
                          m0=0.0, seed=11)
        grid = ternary_sweep(cfg, resolution=3, replicates=3)
        assert len(grid.points) == 10
        pure_val = [p for p in grid.points if p.val_frac == 1.0][0]
        assert pure_val.mean_drop == 0.0
        assert pure_val.crash_freq == 0.0
        for p in grid.points:
            assert 0.0 <= p.crash_freq <= 1.0
            assert 0.0 <= p.boom_freq <= 1.0
            assert p.mean_drop >= 0.0

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_replicates_below_one_rejected(self, replicates):
        with pytest.raises(ConfigError, match="replicates"):
            ternary_sweep(base_config(), resolution=2, replicates=replicates)

    def test_sweep_is_reproducible(self):
        cfg = base_config(m0=0.0, seed=42,
                          crash=CrashPredicate.relative_drop(0.30))
        a = ternary_sweep(cfg, resolution=2, replicates=3)
        b = ternary_sweep(cfg, resolution=2, replicates=3)
        assert a == b

    def test_workers_do_not_change_results(self):
        cfg = base_config(m0=0.0, seed=13,
                          crash=CrashPredicate.relative_drop(0.30))
        serial = ternary_sweep(cfg, resolution=2, replicates=2, workers=1)
        parallel = ternary_sweep(cfg, resolution=2, replicates=2, workers=2)
        assert serial == parallel

    def test_csv_rows_schema(self):
        cfg = base_config(m0=0.0, seed=1)
        grid = ternary_sweep(cfg, resolution=1, replicates=1)
        rows = list(ternary_csv_rows(grid))
        assert rows[0] == ["val_frac", "mo_frac", "rand_frac", "mean_drop",
                           "crash_freq", "boom_freq"]
        assert len(rows) == 4

    def test_crash_frequency_nondecreasing_along_momentum_ray(self):
        # walk up the momentum share at a fixed val:rand ratio of one;
        # allow three binomial standard errors of Monte-Carlo slack
        cfg = base_config(population=PopulationSpec(rand_mode="refined"),
                          crash=CrashPredicate.relative_drop(0.30),
                          m0=0.0, seed=23)
        reps = 20
        freqs = []
        for mo in (0.0, 0.2, 0.4, 0.6):
            pop = cfg.population.with_mix((1 - mo) / 2, mo, (1 - mo) / 2)
            crashes = 0
            for rep in range(reps):
                from valtrack.seeding import mix_seed
                result = run_once(replace(cfg, population=pop,
                                          seed=mix_seed(cfg.seed, int(mo * 100), rep)))
                if result.crash_step is not None:
                    crashes += 1
            freqs.append(crashes / reps)
        for lo, hi in zip(freqs, freqs[1:]):
            se = math.sqrt(max(lo * (1 - lo), 0.25 / reps) / reps)
            assert hi >= lo - 3 * se


class TestCommitmentGrid:
    def test_two_by_two_cells(self):
        cfg = base_config(market=MarketParams(settlement="current"))
        grid = commitment_grid(cfg, (0.1, 0.3), (0.1, 0.3), cells=2)
        assert len(grid.cells) == 4
        for cell in grid.cells:
            assert 0.0 < cell.theta_analytic <= 1.0
            assert 0.0 < cell.theta_sim <= 1.0
            assert cell.settlement == "current"
        # the equal-commitment default cell reproduces the known numbers
        base_cell = [c for c in grid.cells
                     if c.k_buy == 0.1 and c.k_sell == 0.1][0]
        assert base_cell.theta_analytic == pytest.approx(0.21648068905, abs=1e-6)
        assert 0.20 < base_cell.theta_sim < 0.22

    def test_csv_rows_schema(self):
        cfg = base_config(market=MarketParams(settlement="current"))
        grid = commitment_grid(cfg, (0.1, 0.1), (0.1, 0.1), cells=1)
        rows = list(grid_csv_rows(grid))
        assert rows[0] == ["k_buy", "k_sell", "theta_analytic", "theta_sim",
                           "settlement"]
        assert rows[1][4] == "current"


class TestImpactComparison:
    def test_thresholds_sit_near_the_ratio_one(self):
        report = impact_comparison(base_config())
        assert 0.20 <= report.ratio_threshold <= 0.23
        assert 0.20 <= report.powerlaw_linear_threshold <= 0.23
        assert 0.20 <= report.powerlaw_concave_threshold <= 0.23

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            impact_comparison(base_config(), workers=0)


class TestProcessPool:
    """The harnesses start no more processes than they have tasks or the
    machine has CPUs, whatever worker count they are asked for."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every pool started, on a 4-CPU machine whose
        pools run their tasks in this process; no process is started."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        return sizes

    def test_sweep_batches_for_the_processes_it_starts(self, pool_sizes):
        cfg = base_config(m0=0.0, seed=13, crash=CrashPredicate.relative_drop(0.30))
        serial = ternary_sweep(cfg, resolution=2, replicates=2)
        assert pool_sizes == []
        # 12 runs on 4 processes: 4 batches of 3 runs
        grid = ternary_sweep(cfg, resolution=2, replicates=2, workers=100_000)
        assert pool_sizes == [4]
        assert (grid, grid.batches, grid.batch_runs) == (serial, 4, 3)

    def test_no_more_processes_than_tasks(self, pool_sizes):
        cfg = base_config(market=MarketParams(settlement="current", horizon=50))
        serial = impact_comparison(cfg)
        assert impact_comparison(cfg, workers=8) == serial
        assert commitment_grid(cfg, (0.1, 0.1), (0.1, 0.1), cells=1, workers=8) \
            == commitment_grid(cfg, (0.1, 0.1), (0.1, 0.1), cells=1)
        # three threshold searches; one grid cell needs no pool
        assert pool_sizes == [3]


class TestMultival:
    def test_run_shapes_and_reports(self):
        pop = PopulationSpec(val_fracs=(0.05,) * 10, rand_frac=0.5,
                             valuation="gamma", rand_mode="refined")
        cfg = base_config(population=pop, m0=0.0, seed=3,
                          crash=CrashPredicate.relative_drop(0.30))
        report = multival_run(cfg, n_vals=10, horizon=200)
        assert len(report.valuations) == 10
        assert len(report.result.prices) <= 201
        assert report.val_wealth_var_start == pytest.approx(0.0, abs=1e-20)
        assert report.val_wealth_var_end > 0.0
        assert math.fsum(report.histogram.frequencies) == pytest.approx(1.0)

    def test_momentum_heavy_mix_crashes(self):
        pop = PopulationSpec(val_fracs=(0.05,) * 10, mo_frac=0.30,
                             rand_frac=0.20, valuation="gamma",
                             rand_mode="refined")
        cfg = base_config(population=pop, m0=0.0, seed=1,
                          crash=CrashPredicate.relative_drop(0.30))
        report = multival_run(cfg, n_vals=10, horizon=1000)
        assert report.result.crash_step is not None

    def test_crash_is_decided_over_the_lengthened_run(self):
        # the price first falls 30 % at step 296: past the config's 250-step
        # horizon, inside the 1000 steps multival runs
        cfg = parse_config(overrides={
            "population.mo_frac": "0.1", "population.rand_frac": "0.2",
            "population.rand_mode": "refined", "crash.kind": "relative_drop",
            "crash.value": "0.3", "run.seed": "16"})
        result = multival_run(cfg, n_vals=10, horizon=1000).result
        assert result.crash_step == 296
        assert result.prices[296] <= 0.7 * result.prices[0] < min(result.prices[:296])

    def test_one_valuation_trader_is_rejected_before_the_run(self, monkeypatch):
        monkeypatch.setattr(experiments, "run_once", lambda cfg: pytest.fail("simulated"))
        with pytest.raises(ConfigError, match="two valuation traders"):
            multival_run(base_config(), n_vals=1)

    def test_run_csv_includes_wealth_columns(self):
        cfg = base_config(population=PopulationSpec(val_fracs=(0.8,),
                                                    mo_frac=0.2))
        result = run_once(replace(cfg, market=MarketParams(horizon=3)))
        rows = list(run_csv_rows(result))
        assert rows[0][:7] == ["time", "price", "momentum", "q_p", "q_s",
                               "executed", "cap_hit"]
        assert rows[0][7:] == ["wealth_0", "wealth_1"]
        assert len(rows) == 5


class TestRefinedRandPurpose:
    def test_refined_variant_reduces_crash_frequency(self):
        # wealth-proportional orders with critical floors remove most of the
        # downward pressure that holding-proportional orders exert when
        # assets outweigh cash
        def crash_rate(mode):
            crashes = 0
            for s in range(12):
                pop = PopulationSpec(val_fracs=(0.2,), rand_frac=0.8,
                                     rand_mode=mode)
                cfg = base_config(population=pop, m0=0.0, seed=s,
                                  crash=CrashPredicate.relative_drop(0.30))
                if run_once(cfg).crash_step is not None:
                    crashes += 1
            return crashes / 12
        assert crash_rate("refined") < crash_rate("basic") - 0.3


class TestCashRichMarketBooms:
    def test_low_asset_ratio_flips_crash_into_boom(self):
        # the crash-prone mix at rho = 4 turns into a boom at rho = 0.25
        crash_cfg = base_config(
            population=PopulationSpec(val_fracs=(0.7,), mo_frac=0.3),
            crash=CrashPredicate.drop_below(0.01))
        crashing = run_once(crash_cfg)
        assert crashing.crash_step is not None

        boom_cfg = base_config(
            market=MarketParams(rho=0.25),
            population=PopulationSpec(val_fracs=(0.7,), mo_frac=0.3, rho=0.25),
            crash=CrashPredicate.drop_below(0.01), m0=0.001)
        booming = run_once(boom_cfg)
        assert booming.crash_step is None
        assert booming.boom_step is not None
