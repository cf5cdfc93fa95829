import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crash_kinds import PriceTrace
from valtrack.errors import ConfigError, DomainError
from valtrack.metrics import (CrashPredicate, estimator_mc, max_relative_drop,
                              price_level_histogram, tau, tau_hat,
                              tau_hat_predicted_std)


class TestTau:
    def test_zero_at_exact_tracking(self):
        assert tau(1.0, 1.0) == 0.0

    def test_factor_of_two_is_one_black(self):
        assert tau(2.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_one_deciblack_is_about_seven_percent(self):
        assert tau(1.0718, 1.0) == pytest.approx(0.1, abs=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            tau(0.0, 1.0)
        with pytest.raises(DomainError):
            tau(1.0, -2.0)

    @given(p=st.floats(1e-6, 1e6), u=st.floats(1e-6, 1e6),
           a=st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_scale_invariance(self, p, u, a):
        assert tau(p, u) == tau(u, p)
        assert tau(a * p, a * u) == pytest.approx(tau(p, u), rel=1e-9, abs=1e-12)

    def test_deciblack_composition(self):
        # a 3-deciblack value fall plus 2 deciblacks of underpricing
        # compounds to a 5-deciblack price fall
        u = 1.0
        value_after_fall = u * 2.0 ** -0.3
        price = value_after_fall * 2.0 ** -0.2
        assert tau(price, u) == pytest.approx(0.5, rel=1e-12)


class TestMaxRelativeDrop:
    def test_drop_is_relative_to_start(self):
        assert max_relative_drop([1.0, 1.2, 0.8]) == pytest.approx(0.2)

    def test_monotone_rise_has_zero_drop(self):
        assert max_relative_drop([1.0, 1.1, 1.5]) == 0.0

    def test_deep_fall(self):
        assert max_relative_drop([1.0, 0.01]) == pytest.approx(0.99)


def firing(test, series):
    """test(series[0], p) for each price p of the series."""
    return [test(series[0], p) for p in series]


class TestDetectors:
    """The predicate's crash and boom readings, price by price, as the
    engine scans a run with them."""

    def test_drop_below_fires_at_first_step_under_level(self):
        pred = CrashPredicate.drop_below(0.01)
        assert firing(pred.crash_at, [1.0, 0.5, 0.005]) == [False, False, True]

    def test_deciblack_drop_threshold(self):
        pred = CrashPredicate.deciblack_drop(5)
        assert firing(pred.crash_at, [1.0, 0.71]) == [False, False]
        assert firing(pred.crash_at, [1.0, 0.707]) == [False, True]

    def test_stable_series_has_no_crash(self):
        pred = CrashPredicate.relative_drop(0.30)
        assert not any(firing(pred.crash_at, [1.0] * 20))

    def test_deciblack_crash_iff_2929_percent_drop(self):
        pred = CrashPredicate.deciblack_drop(5)
        threshold = 1.0 - 2.0 ** -0.5
        rng = np.random.default_rng(6)
        for _ in range(200):
            series = [1.0] + list(rng.uniform(0.5, 1.5, size=10))
            fired = any(firing(pred.crash_at, series))
            assert fired == (max_relative_drop(series) >= threshold - 1e-15)

    def test_boom_is_reciprocal_rise(self):
        pred = CrashPredicate.relative_drop(0.30)
        assert firing(pred.boom_at, [1.0, 1.2, 1.0 / 0.7 + 1e-12]) == [False, False, True]
        assert firing(pred.boom_at, [1.0, 1.3]) == [False, False]
        pred2 = CrashPredicate.drop_below(0.01)
        assert firing(pred2.boom_at, [1.0, 150.0]) == [False, True]

    def test_predicate_validation(self):
        with pytest.raises(ConfigError):
            CrashPredicate.relative_drop(1.5)
        with pytest.raises(ConfigError):
            CrashPredicate.drop_below(-1.0)
        with pytest.raises(ConfigError):
            CrashPredicate("nonsense", 0.5)

    @pytest.mark.parametrize("make", [CrashPredicate.drop_below, CrashPredicate.relative_drop,
                                      CrashPredicate.deciblack_drop])
    def test_a_nan_value_is_rejected(self, make):
        with pytest.raises(ConfigError):
            make(math.nan)


FLOOR = 1e-12  # engine.PRICE_FLOOR


class TestStopPrice:
    """stop_price(p0, floor) is the largest float at which the predicate or
    the floor fires, found in at most 4 crash_at calls: the stop price fires
    and the float above it does not."""

    @given(crash=st.floats(5e-324, 1e300).map(CrashPredicate.drop_below)
           | (st.floats(0.0, 1e-16, exclude_min=True)
              | st.floats(1.0 - 1e-16, 1.0, exclude_max=True)
              | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
              ).map(CrashPredicate.relative_drop)
           | st.floats(5e-324, 1e5).map(CrashPredicate.deciblack_drop),
           p0=st.floats(FLOOR, 1e300))
    # a ratio threshold that is subnormal, 2^-1025.1, or 0 once the ratio underflows
    @example(crash=CrashPredicate.deciblack_drop(10251.0), p0=1e300)
    @example(crash=CrashPredicate.deciblack_drop(16000.0), p0=1e300)
    @example(crash=CrashPredicate.relative_drop(math.nextafter(1.0, 0.0)), p0=1e300)
    @example(crash=CrashPredicate.drop_below(5e-324), p0=FLOOR)
    @example(crash=CrashPredicate.drop_below(1e300), p0=FLOOR)
    @settings(max_examples=500, deadline=None)
    def test_the_stop_price_fires_and_the_next_float_up_does_not(self, crash, p0):
        trace = PriceTrace(crash)
        stop = trace.stop_price(p0, FLOOR)
        assert len(trace.prices) <= 4
        above = math.nextafter(stop, math.inf)
        assert [p < FLOOR or crash.crash_at(p0, p) for p in (stop, above)] == [True, False]


class TestTauHat:
    def test_equal_valuations(self):
        assert tau_hat([1.0, 1.0, 1.0], 2.0) == pytest.approx(1.0)

    def test_symmetric_sample_centers_on_mean(self):
        assert tau_hat([0.5, 1.5], 1.0) == 0.0

    def test_large_sample_converges(self):
        rng = np.random.default_rng(12)
        vals = rng.gamma(8.0, 1.0 / 8.0, size=10_000)
        assert tau_hat(vals, 1.3) == pytest.approx(0.3785116232537298, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            tau_hat([], 1.0)


class TestPredictedStd:
    def test_reference_value(self):
        assert tau_hat_predicted_std(0.35355339059327373, 1.0, 100, 1.3) \
            == pytest.approx(0.05100697232983947, rel=1e-10)

    def test_root_n_scaling(self):
        one = tau_hat_predicted_std(0.5, 1.0, 100, 1.3)
        four = tau_hat_predicted_std(0.5, 1.0, 400, 1.3)
        assert one == pytest.approx(2 * four, rel=1e-12)

    def test_undefined_at_exact_tracking(self):
        with pytest.raises(DomainError):
            tau_hat_predicted_std(0.5, 1.0, 100, 1.0)


class TestEstimatorMC:
    def test_report_matches_delta_method_at_moderate_n(self):
        report = estimator_mc(8.0, 8.0, 1.3, 100, 4000, seed=5)
        assert report.empirical_std == pytest.approx(report.predicted_std,
                                                     rel=0.10)
        assert report.mean_ok and report.var_ok
        assert abs(report.skewness) < 0.5

    def test_consistency_across_sample_sizes(self):
        biases = []
        stds = []
        for n in (10, 100, 1000, 10_000):
            report = estimator_mc(8.0, 8.0, 1.3, n, 1000, seed=123)
            biases.append(abs(report.bias))
            stds.append(report.empirical_std)
        assert biases[-1] < biases[0]
        assert stds[0] > stds[1] > stds[2] > stds[3]

    def test_mean_of_estimates_is_centered(self):
        report = estimator_mc(8.0, 8.0, 1.3, 50, 4000, seed=9)
        assert report.u_hat_mean == pytest.approx(1.0, abs=0.01)
        assert report.mean_z <= 3.0

    def test_rejects_degenerate_inputs(self):
        # shape, rate, p, n, reps, seed
        for args in [(8.0, 8.0, 1.3, 1, 100, 0), (8.0, 8.0, 1.3, 50, 1, 0),
                     (0.0, 8.0, 1.3, 50, 100, 0), (8.0, -1.0, 1.3, 50, 100, 0),
                     (8.0, 8.0, 0.0, 50, 100, 0), (8.0, 8.0, math.nan, 50, 100, 0),
                     (8.0, 8.0, 1.3, 50, 100, -5)]:
            with pytest.raises(ConfigError):
                estimator_mc(*args)


class TestHistogram:
    def test_constant_price_at_mean_valuation(self):
        hist = price_level_histogram([1.0] * 50, [0.9, 1.1])
        center_bin = hist.bin_centers.index(0.0)
        assert hist.frequencies[center_bin] == 1.0

    def test_mass_sums_to_one_even_with_outliers(self):
        hist = price_level_histogram([1.0, 100.0, 0.001], [0.9, 1.1])
        assert math.fsum(hist.frequencies) == pytest.approx(1.0, rel=1e-12)

    def test_shifted_series_lands_in_signed_bin(self):
        # sd of the valuations is about 0.1414: one sd above the mean
        vals = [0.9, 1.1]
        sd = float(np.std(vals, ddof=1))
        hist = price_level_histogram([1.0 + sd] * 10, vals)
        idx = hist.frequencies.index(1.0)
        assert hist.bin_centers[idx] == pytest.approx(1.0)

    def test_zero_sd_rejected(self):
        with pytest.raises(DomainError):
            price_level_histogram([1.0], [1.0, 1.0])
