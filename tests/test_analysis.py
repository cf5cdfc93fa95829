import math

import numpy as np
import pytest

from valtrack import (AnalysisConstants, CommitmentParams, MarketParams,
                      PopulationSpec, init_population, reduce, reduced_step,
                      run, alpha_fixed_points, beta_fixed_points,
                      mo_crash_threshold_analytic)
from valtrack.analysis import (BOUNDARY, CASE_1, CASE_2, CASE_3, CASE_4,
                               ReducedState, alpha_map, alpha_min_location,
                               beta_map, classify_region,
                               crash_sufficient, boom_sufficient,
                               crash_threshold_formula, newton_root,
                               outer_alpha_root, outer_root_window, reconstruct)
from valtrack.engine import step
from valtrack.errors import (BoundaryError, ContractError, DegenerateCaseError,
                             DomainError)
from valtrack.metrics import CrashPredicate


def default_constants(**kw):
    market = MarketParams()
    commitments = CommitmentParams(**kw)
    return AnalysisConstants.from_params(market, commitments)


def state_for(theta, p0=1.0, m0=-0.001, rho=4.0):
    spec = PopulationSpec(val_fracs=(1.0 - theta,), mo_frac=theta, p0=p0, rho=rho)
    return init_population(spec, m0=m0)


class TestReduce:
    def test_equilibrium_coordinates_at_default_split(self):
        # alpha = log(0.784/0.216) - log 4 at p = u, identical portfolio mixes
        state = state_for(0.216, m0=0.0)
        red = reduce(state, default_constants())
        assert red.pi == 0.0
        assert red.m == 0.0
        assert red.alpha == pytest.approx(-0.09716374845364777, abs=1e-12)

    def test_alpha_zero_when_buying_powers_balance(self):
        # theta = 0.2 gives c_V = q_M p = 0.8, so the two buying powers tie
        state = state_for(0.2, m0=0.0)
        red = reduce(state, default_constants())
        assert red.alpha == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_against_reconstruct(self):
        rng = np.random.default_rng(8)
        consts = default_constants()
        for _ in range(100):
            theta = rng.uniform(0.05, 0.9)
            state = state_for(theta, p0=rng.uniform(0.8, 1.2),
                              m0=rng.uniform(-0.01, 0.01))
            red = reduce(state, consts)
            c_v, q_v, c_m, q_m = reconstruct(red, consts, state.total_cash,
                                             state.total_asset)
            val, mo = state.traders
            assert c_v == pytest.approx(val.cash, rel=1e-12, abs=1e-12)
            assert q_v == pytest.approx(val.asset, rel=1e-12, abs=1e-12)
            assert c_m == pytest.approx(mo.cash, rel=1e-12, abs=1e-12)
            assert q_m == pytest.approx(mo.asset, rel=1e-12, abs=1e-12)

    def test_back_diagonal_is_degenerate(self):
        consts = default_constants()
        # B e^beta = A e^alpha with A = B: alpha = beta
        red = ReducedState(pi=0.1, m=0.0, alpha=0.3, beta=0.3)
        with pytest.raises(DegenerateCaseError):
            reconstruct(red, consts, 1.0, 4.0)

    def test_zero_holdings_rejected(self):
        state = state_for(0.216)
        state.traders[0].cash = 0.0
        with pytest.raises(DomainError):
            reduce(state, default_constants())


@pytest.mark.parametrize("name", ["kv_buy", "kv_sell", "km_buy", "km_sell"])
def test_zero_commitment_has_no_constants(name):
    with pytest.raises(DomainError, match="A and B must be positive"):
        default_constants(**{name: 0.0})


class TestClassify:
    @pytest.mark.parametrize("pi,m,expected", [
        (1e-3, -1e-3, CASE_1),
        (-1e-3, -1e-3, CASE_2),
        (-1e-3, 1e-3, CASE_3),
        (1e-3, 1e-3, CASE_4),
        (0.0, 0.1, BOUNDARY),
        (0.1, 0.0, BOUNDARY),
    ])
    def test_sign_classification(self, pi, m, expected):
        assert classify_region(pi, m) == expected


class TestReducedStep:
    def test_case1_shifts_are_exact(self):
        consts = default_constants()
        state = ReducedState(pi=0.05, m=-0.001, alpha=-0.2, beta=0.1)
        out = reduced_step(state, consts)
        assert out.pi == state.pi - consts.eta
        assert out.alpha == state.alpha + consts.eta
        assert out.beta == state.beta + consts.eta
        assert out.m == pytest.approx((1 - consts.mu) * state.m
                                      - consts.mu * consts.eta, rel=1e-15)

    def test_case3_mirrors_case1(self):
        consts = default_constants()
        state = ReducedState(pi=-0.05, m=0.001, alpha=-0.2, beta=0.1)
        out = reduced_step(state, consts)
        assert out.pi == state.pi + consts.eta
        assert out.alpha == state.alpha - consts.eta
        assert out.beta == state.beta - consts.eta

    def test_case2_uncapped_price_move_is_lambda_alpha(self):
        consts = default_constants()
        state = ReducedState(pi=-0.03, m=-0.001, alpha=-0.05, beta=0.2)
        out = reduced_step(state, consts)
        assert out.pi == pytest.approx(state.pi - 0.002, abs=1e-15)

    def test_boundary_raises(self):
        consts = default_constants()
        with pytest.raises(BoundaryError):
            reduced_step(ReducedState(0.0, -0.001, 0.0, 0.0), consts)

    def test_pi_and_momentum_accumulate_logged_impacts(self):
        # within one stay in the buying/selling case, pi_n = pi_0 + sum(phi)
        # and m_n = (1-mu)^n m_0 + mu sum (1-mu)^(n-k-1) phi_k
        consts = default_constants()
        state = reduce(state_for(0.3, p0=0.98, m0=-0.0005), consts)
        phis = []
        states = [state]
        for _ in range(40):
            nxt = reduced_step(states[-1], consts)
            if classify_region(nxt.pi, nxt.m) != CASE_2:
                break
            phis.append(nxt.pi - states[-1].pi)
            states.append(nxt)
        assert len(phis) >= 10
        n = len(phis)
        mu = consts.mu
        pi_n = states[0].pi + math.fsum(phis)
        m_n = ((1 - mu) ** n * states[0].m
               + mu * math.fsum((1 - mu) ** (n - k - 1) * phis[k]
                                for k in range(n)))
        assert states[-1].pi == pytest.approx(pi_n, abs=1e-12)
        assert states[-1].m == pytest.approx(m_n, abs=1e-12)


class TestAlphaMap:
    def test_symmetric_commitments_fix_zero(self):
        consts = default_constants()
        assert alpha_map(0.0, consts) == 0.0

    def test_continuous_at_zero_and_cap_junctions(self):
        consts = default_constants(kv_buy=0.08, km_sell=0.15)
        for x in (0.0, 2.5, -2.5):  # eta/lam = 2.5
            eps = 1e-9
            left = alpha_map(x - eps, consts)
            right = alpha_map(x + eps, consts)
            assert abs(left - right) < 1e-7

    def test_slope_at_least_one_minus_lambda(self):
        consts = default_constants(kv_buy=0.07, km_sell=0.22)
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(-4.0, 4.0, size=2000))
        ys = [alpha_map(float(x), consts) for x in xs]
        slopes = np.diff(ys) / np.diff(xs)
        assert slopes.min() >= 1 - consts.lam - 1e-9

    def test_monotone_iteration_never_flips_direction(self):
        consts = default_constants(kv_buy=0.07, km_sell=0.22)
        for start in (-2.0, -0.5, -0.05, 0.05, 1.0):
            x = start
            sign = None
            for _ in range(50):
                nxt = alpha_map(x, consts)
                delta = nxt - x
                if abs(delta) < 1e-14:
                    break
                if sign is None:
                    sign = delta > 0
                else:
                    assert (delta > 0) == sign
                x = nxt


class TestAlphaFixedPoints:
    def test_trivial_case_at_equal_commitments(self):
        report = alpha_fixed_points(default_constants())
        assert report.trivial
        assert report.selected == 0.0
        assert report.exists

    def test_minimum_location(self):
        assert alpha_min_location(0.1, 0.04) == pytest.approx(
            -0.9555114450274364, abs=1e-12)

    def test_outer_window_endpoints(self):
        lo, hi = outer_root_window(km_sell=0.1, eta=0.1, lam=0.04)
        assert lo == pytest.approx(0.09516258196404043, abs=1e-10)
        assert hi == pytest.approx(0.10258993978547381, abs=1e-10)

    def test_outer_root_existence_window(self):
        inside = default_constants(kv_buy=0.10, km_sell=0.1)
        outside = default_constants(kv_buy=0.11, km_sell=0.1)
        assert outer_alpha_root(inside) is not None
        assert outer_alpha_root(outside) is None

    def test_roots_have_tiny_residuals(self):
        # kv = 0.10 sits in the outer window for km = 0.12 and the inner
        # residual dips negative at its minimum: one outer plus two inner roots
        consts = default_constants(kv_buy=0.10, km_sell=0.12)
        report = alpha_fixed_points(consts)
        assert report.exists
        assert len(report.roots) == 3
        for root in report.roots:
            assert root.residual <= 1e-10
            assert alpha_map(root.value, consts) == pytest.approx(
                root.value, abs=1e-9)

    def test_selected_is_largest_negative_root(self):
        consts = default_constants(kv_buy=0.10, km_sell=0.12)
        report = alpha_fixed_points(consts)
        assert report.selected == max(r.value for r in report.roots)
        assert report.selected < 0.0

    def test_no_roots_reports_minus_infinity(self):
        consts = default_constants(kv_buy=0.02, km_sell=0.05)
        report = alpha_fixed_points(consts)
        assert not report.exists
        assert report.selected == -math.inf

    def test_closed_form_agrees_with_newton(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 20:
            km = rng.uniform(0.05, 0.4)
            lo, hi = outer_root_window(km, 0.1, 0.04)
            kv = rng.uniform(lo, hi)
            if not (0 < kv < km):
                continue
            consts = default_constants(kv_buy=kv, km_sell=km)
            closed = outer_alpha_root(consts)
            if closed is None:
                continue

            def f(a):
                return 0.1 + math.log((1 - kv) / (1 - km * math.exp(a)))

            def fp(a):
                k = km * math.exp(a)
                return k / (1 - k)

            newton = newton_root(f, fp, closed - 0.1)
            assert abs(newton - closed) <= 1e-10
            checked += 1


class TestBetaFixedPoints:
    def test_trivial_case(self):
        report = beta_fixed_points(default_constants())
        assert report.trivial
        assert report.selected == 0.0

    def test_roots_are_fixed_points_of_beta_map(self):
        consts = default_constants(km_buy=0.12, kv_sell=0.10)
        report = beta_fixed_points(consts)
        assert report.exists
        assert report.roots
        for root in report.roots:
            assert abs(beta_map(root.value, consts) - root.value) <= 1e-10
        assert report.selected == min(r.value for r in report.roots)
        assert report.selected > 0.0

    def test_mirror_identity_between_the_two_maps(self):
        # the beta map is the alpha map under negation with each trader's
        # buy and sell commitments exchanged; check the identity pointwise
        # against constants built from the exchanged commitments
        rng = np.random.default_rng(31)
        for _ in range(20):
            kv_buy, kv_sell, km_buy, km_sell = rng.uniform(0.02, 0.4, size=4)
            consts = AnalysisConstants.from_params(
                MarketParams(),
                CommitmentParams(kv_buy=kv_buy, kv_sell=kv_sell,
                                 km_buy=km_buy, km_sell=km_sell))
            swapped = AnalysisConstants.from_params(
                MarketParams(),
                CommitmentParams(kv_buy=kv_sell, kv_sell=kv_buy,
                                 km_buy=km_sell, km_sell=km_buy))
            for beta in rng.uniform(-3.0, 3.0, size=25):
                assert beta_map(float(beta), consts) == pytest.approx(
                    -alpha_map(float(-beta), swapped), abs=1e-12)


class TestSufficientConditions:
    def test_quarter_mo_share_is_crash_sufficient(self):
        consts = default_constants()
        state = state_for(0.25, m0=-1e-4)
        red = reduce(state, consts)
        assert red.alpha == pytest.approx(-0.2876820724517809, abs=1e-12)
        assert crash_sufficient(red, consts)

    def test_ten_percent_mo_share_is_not(self):
        consts = default_constants()
        red = reduce(state_for(0.10, m0=-1e-4), consts)
        assert red.alpha == pytest.approx(0.8109302162163288, abs=1e-12)
        assert not crash_sufficient(red, consts)

    def test_precondition_is_enforced(self):
        consts = default_constants()
        red = reduce(state_for(0.25, m0=-0.01), consts)
        with pytest.raises(ContractError):
            crash_sufficient(red, consts)
        with pytest.raises(ContractError):
            boom_sufficient(red, consts)

    def test_crash_sufficient_states_crash_in_the_engine(self):
        rng = np.random.default_rng(55)
        consts_checked = 0
        while consts_checked < 8:
            kv, km = rng.uniform(0.08, 0.3, size=2)
            commitments = CommitmentParams(kv_buy=kv, km_sell=km)
            consts = AnalysisConstants.from_params(MarketParams(), commitments)
            theta = mo_crash_threshold_analytic(consts, 4.0)
            if theta >= 0.98:
                continue
            theta_probe = min(theta + 0.02, 0.99)
            state = state_for(theta_probe, m0=-1e-4)
            red = reduce(state, consts)
            if not crash_sufficient(red, consts):
                continue
            result = run(state, MarketParams(settlement="current", horizon=1500),
                         commitments, seed=0,
                         crash=CrashPredicate.drop_below(0.01))
            assert result.crash_step is not None or result.aborted
            consts_checked += 1

    def test_trivial_regimes_compare_against_plus_minus_eta(self):
        # kv_buy >= km_sell selects alpha_minus = 0, km_buy <= kv_sell beta_plus = 0
        consts = default_constants(kv_buy=0.2, km_sell=0.1, km_buy=0.1, kv_sell=0.2)
        eta = consts.eta
        for x in (-eta - 1e-12, -eta, -eta + 1e-12, 0.0):
            red = ReducedState(pi=0.0, m=0.0, alpha=x, beta=-x)
            assert crash_sufficient(red, consts) == (x < -eta)
            assert boom_sufficient(red, consts) == (-x > eta)

    def test_boom_mirror_with_cash_rich_market(self):
        # rho < 1 biases toward booms: beta at p = u is positive and large
        commitments = CommitmentParams()
        consts = AnalysisConstants.from_params(MarketParams(rho=0.25), commitments)
        state = init_population(
            PopulationSpec(val_fracs=(0.5,), mo_frac=0.5, rho=0.25), m0=1e-4)
        red = reduce(state, consts)
        assert boom_sufficient(red, consts)


class TestAnalyticThreshold:
    def test_default_parameters(self):
        consts = default_constants()
        assert mo_crash_threshold_analytic(consts, 4.0) == pytest.approx(
            0.21648068905247012, abs=1e-9)

    def test_vanishing_asset_ratio_needs_full_wealth(self):
        consts = default_constants()
        assert mo_crash_threshold_analytic(consts, 1e-12) == pytest.approx(1.0)

    def test_formula_limit_in_buy_commitment(self):
        assert crash_threshold_formula(1e-12, 0.1, 4.0, 0.1, 0.0) \
            == pytest.approx(0.0, abs=1e-9)

    def test_no_fixed_point_gives_one(self):
        consts = default_constants(kv_buy=0.02, km_sell=0.05)
        assert mo_crash_threshold_analytic(consts, 4.0) == 1.0


class TestEngineEquivalence:
    # cases 3 and 4 step through the mirror of cases 1 and 2, so the engine
    # is checked from a start in each of the four cases
    @pytest.mark.parametrize("pi_sign, m_sign, case", [
        (1, -1, CASE_1), (-1, -1, CASE_2), (-1, 1, CASE_3), (1, 1, CASE_4)],
        ids=[CASE_1, CASE_2, CASE_3, CASE_4])
    def test_short_trajectories_match_engine(self, pi_sign, m_sign, case):
        rng = np.random.default_rng(777)
        for _ in range(10):
            theta = rng.uniform(0.1, 0.4)
            commitments = CommitmentParams(*rng.uniform(0.05, 0.25, size=6))
            params = MarketParams(settlement="current", horizon=50)
            state = state_for(theta, p0=math.exp(pi_sign * rng.uniform(1e-3, 0.1)),
                              m0=m_sign * float(rng.uniform(1e-4, 1e-3)))
            consts = AnalysisConstants.from_params(
                params, commitments, total_cash=state.total_cash,
                total_asset=state.total_asset)
            red = reduce(state, consts)
            assert classify_region(red.pi, red.m) == case
            for _ in range(50):
                state, _ = step(state, params, commitments)
                red = reduced_step(red, consts)
                eng = reduce(state, consts)
                assert abs(eng.pi - red.pi) < 1e-9
                assert abs(eng.m - red.m) < 1e-9
                assert abs(eng.alpha - red.alpha) < 1e-9
                assert abs(eng.beta - red.beta) < 1e-9
