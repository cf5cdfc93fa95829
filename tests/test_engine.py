import copy
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valtrack import (CommitmentParams, MarketParams, MarketState,
                      PopulationSpec, Trader, init_population, run, step)
from valtrack import engine
from valtrack.errors import InvalidInputError
from valtrack.metrics import CrashPredicate


def two_trader_state(theta=0.216, p0=1.0, m0=-0.001, rho=4.0):
    spec = PopulationSpec(val_fracs=(1.0 - theta,), mo_frac=theta, p0=p0, rho=rho)
    return init_population(spec, m0=m0)


def market_state(price, traders, momentum=0.0):
    return MarketState(price=price, momentum=momentum, time=0, traders=traders,
                       total_cash=sum(t.cash for t in traders),
                       total_asset=sum(t.asset for t in traders))


# a Val trader bids all its cash and a Mo trader offers all its asset
ALL_IN = CommitmentParams(kv_buy=1.0, km_sell=1.0)


def flow_state(p, q_p, q_s, momentum=-0.001):
    """A state at price p whose order flow under ALL_IN is q_p, q_s: a Val
    trader bids q_p * p cash below its valuation, and on negative momentum
    a Mo trader offers q_s."""
    return market_state(p, [Trader(q_p * p, 0.0, "val", valuation=2.0 * p),
                            Trader(0.0, q_s, "mo")], momentum)


def capped_move(p, q_p, q_s, params):
    """The price a step moves p to under order flow q_p, q_s."""
    out, record = step(flow_state(p, q_p, q_s), params, ALL_IN)
    assert (record.q_p, record.q_s) == (q_p, q_s)
    return out.price


def ratio_price(p, q_p, q_s, lam, eta):
    return capped_move(p, q_p, q_s, MarketParams(lam=lam, eta=eta))


def powerlaw_price(p, q_p, q_s, liquidity, zeta, eta):
    return capped_move(p, q_p, q_s, MarketParams(impact="powerlaw", liquidity=liquidity,
                                                 zeta=zeta, eta=eta))


class TestRatioImpact:
    def test_balanced_orders_leave_price_unchanged(self):
        assert ratio_price(1.0, 1.0, 1.0, 0.04, 0.1) == 1.0

    def test_small_imbalance(self):
        # 2 ** 0.04, evaluated independently
        assert ratio_price(1.0, 2.0, 1.0, 0.04, 0.1) == pytest.approx(
            1.0281138266560665, rel=1e-12)

    def test_cap_engages_on_large_imbalance(self):
        # lam * log(100) = 0.1842 exceeds the 0.1 cap
        assert ratio_price(1.0, 100.0, 1.0, 0.04, 0.1) == pytest.approx(
            1.1051709180756477, rel=1e-12)

    def test_one_sided_flow_moves_at_cap(self):
        assert ratio_price(2.0, 1.0, 0.0, 0.04, 0.1) == pytest.approx(
            2.0 * 1.1051709180756477, rel=1e-12)
        assert ratio_price(2.0, 0.0, 1.0, 0.04, 0.1) == pytest.approx(
            2.0 * 0.9048374180359595, rel=1e-12)

    def test_no_orders_no_move(self):
        assert ratio_price(3.5, 0.0, 0.0, 0.04, 0.1) == 3.5

    def test_rejects_non_finite(self):
        # the order flow is checked on every step: here a bid of 1e307 cash
        # at the 1e-12 price floor is an infinite purchase volume
        buyer = Trader(1e308, 1.0, "val", valuation=1.0)
        with pytest.raises(InvalidInputError, match="order flow"):
            step(market_state(1e-12, [buyer]), MarketParams(), CommitmentParams())
        # the state is checked on entry
        with pytest.raises(InvalidInputError, match="price"):
            step(market_state(-1.0, [buyer]), MarketParams(), CommitmentParams())

    @given(q1=st.floats(1e-6, 1e3), q2=st.floats(1e-6, 1e3),
           q_s=st.floats(1e-6, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_buy_volume(self, q1, q2, q_s):
        lo, hi = sorted((q1, q2))
        assert (ratio_price(1.0, lo, q_s, 0.04, 0.1)
                <= ratio_price(1.0, hi, q_s, 0.04, 0.1))


class TestPowerlawImpact:
    def test_zero_imbalance(self):
        assert powerlaw_price(1.0, 3.0, 3.0, 1.0, 1.0, 0.1) == 1.0

    def test_linear_exponent(self):
        assert powerlaw_price(1.0, 1.05, 1.0, 1.0, 1.0, 0.1) == pytest.approx(
            1.0512710963760241, rel=1e-12)

    def test_concave_exponent(self):
        # 0.05 ** 0.8 = 0.09102821015130401 stays under the cap
        assert powerlaw_price(1.0, 1.05, 1.0, 1.0, 0.8, 0.1) == pytest.approx(
            1.0952999033986409, rel=1e-12)

    def test_cap_applies(self):
        assert powerlaw_price(1.0, 5.0, 1.0, 1.0, 1.0, 0.1) == pytest.approx(
            1.1051709180756477, rel=1e-12)

    def test_negative_imbalance_mirrors(self):
        up = powerlaw_price(1.0, 1.03, 1.0, 1.0, 0.8, 0.1)
        down = powerlaw_price(1.0, 1.0, 1.03, 1.0, 0.8, 0.1)
        assert up * down == pytest.approx(1.0, rel=1e-12)


def momentum_after(m, q_p, mu):
    """The momentum a step from m at price 1 leaves, under buy volume q_p
    alone: none leaves the price as it is, any moves it up by the cap."""
    _, record = step(flow_state(1.0, q_p, 0.0, momentum=m), MarketParams(mu=mu), ALL_IN)
    return record.momentum_after


class TestMomentum:
    def test_fixed_point_at_constant_price(self):
        assert momentum_after(0.0, 0.0, 0.002) == 0.0

    def test_decay_without_price_change(self):
        assert momentum_after(-0.001, 0.0, 0.002) == pytest.approx(
            -0.000998, rel=1e-12)

    def test_new_return_weighted_by_mu(self):
        # one-sided buying moves the price from 1 to e^0.1 at the cap
        assert momentum_after(0.0, 1.0, 0.002) == pytest.approx(
            0.0002, rel=1e-9)


def settle_orders(state, bid, offer):
    """The state after a step settles, at the state's price, a bid of `bid`
    cash by its Val trader and an offer of `offer` asset by its Mo trader."""
    val, mo = state.traders
    commitments = CommitmentParams(kv_buy=bid / val.cash, km_sell=offer / mo.asset)
    out, _ = step(state, MarketParams(settlement="current"), commitments)
    return out


class TestSettle:
    def state(self, price=1.0):
        # below its valuation the Val trader bids; on negative momentum the
        # Mo trader offers
        traders = [Trader(10.0, 0.0, "val", valuation=100.0), Trader(0.0, 40.0, "mo")]
        return MarketState(price=price, momentum=-0.001, time=0, traders=traders,
                           total_cash=10.0, total_asset=40.0)

    def test_no_orders_is_identity(self):
        s = self.state()
        out = settle_orders(s, 0.0, 0.0)
        assert out.traders[0].cash == 10.0
        assert out.traders[1].asset == 40.0

    def test_exact_parity_fills_both_sides(self):
        s = self.state()
        out = settle_orders(s, 10.0, 10.0)
        assert out.traders[0].cash == pytest.approx(0.0, abs=1e-15)
        assert out.traders[0].asset == pytest.approx(10.0)
        assert out.traders[1].cash == pytest.approx(10.0)
        assert out.traders[1].asset == pytest.approx(30.0)

    def test_prorata_scales_larger_side(self):
        # 10 cash of demand vs 40 asset offered: sell side scaled by 1/4
        s = self.state()
        out = settle_orders(s, 10.0, 40.0)
        assert out.traders[0].asset == pytest.approx(10.0)
        assert out.traders[1].asset == pytest.approx(30.0)
        assert out.traders[1].cash == pytest.approx(10.0)

    def test_rejects_bad_settlement_price(self):
        # settlement trusts its price: step rejects a state that would
        # settle at a price that is not finite and > 0
        for price in (0.0, math.inf, math.nan):
            s = self.state()
            s.price = price
            with pytest.raises(InvalidInputError):
                step(s, MarketParams(settlement="current"), CommitmentParams())

    @given(bid=st.floats(0.0, 10.0), offer=st.floats(0.0, 40.0),
           p=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_nonnegativity(self, bid, offer, p):
        out = settle_orders(self.state(p), bid, offer)
        assert out.cash_sum() == pytest.approx(10.0, rel=1e-12)
        assert out.asset_sum() == pytest.approx(40.0, rel=1e-12)
        for t in out.traders:
            assert t.cash >= 0.0 and t.asset >= 0.0


class TestStep:
    def test_equilibrium_is_frozen_apart_from_time(self):
        state = two_trader_state(m0=0.0)
        out, record = step(state, MarketParams(), CommitmentParams())
        assert out.price == state.price
        assert out.momentum == 0.0
        assert out.time == 1
        assert record.q_p == 0.0 and record.q_s == 0.0

    def test_balanced_orders_execute_fully_without_price_move(self):
        traders = [Trader(10.0, 10.0, "val", valuation=2.0),
                   Trader(10.0, 10.0, "mo")]
        state = MarketState(price=1.0, momentum=-0.5, time=0, traders=traders,
                            total_cash=20.0, total_asset=20.0)
        # val buys 1.0 cash (p < u), mo offers 1.0 asset: exact parity
        out, record = step(state, MarketParams(), CommitmentParams())
        assert out.price == 1.0
        assert record.executed == pytest.approx(1.0)
        assert not record.cap_hit

    def test_random_trader_without_an_rng_is_rejected(self):
        state = init_population(PopulationSpec(val_fracs=(0.8,), rand_frac=0.2))
        with pytest.raises(InvalidInputError, match="no rng"):
            step(state, MarketParams(), CommitmentParams())

    def test_one_sided_step_caps_price_and_flags(self):
        state = two_trader_state(m0=-0.001)  # p = u: only the Mo sells
        out, record = step(state, MarketParams(), CommitmentParams())
        assert out.price == pytest.approx(0.9048374180359595, rel=1e-12)
        assert record.cap_hit
        assert record.executed == 0.0

    def test_case2_price_move_matches_log_order_ratio(self):
        state = two_trader_state(theta=0.3, p0=0.95, m0=-0.001)
        c = CommitmentParams()
        val, mo = state.traders
        q_p = c.kv_buy * val.cash / state.price  # p < u: the Val trader bids
        q_s = c.km_sell * mo.asset               # m < 0: the Mo trader offers
        expected = state.price * math.exp(max(-0.1, min(0.1, 0.04 * math.log(q_p / q_s))))
        out, _ = step(state, MarketParams(), CommitmentParams())
        assert out.price == pytest.approx(expected, rel=1e-14)


holdings = st.floats(0.0, 10.0)


@st.composite
def random_markets(draw):
    """A state of 1-4 traders with random holdings, and market params with
    either impact, eta 0.1 or 2 and either settlement."""
    traders = []
    for kind in draw(st.lists(st.sampled_from(["val", "mo", "rand"]), min_size=1, max_size=4)):
        cash, asset = draw(holdings), draw(holdings)
        traders.append(Trader(cash, asset, kind, valuation=draw(st.floats(0.5, 2.0)),
                              rand_mode=draw(st.sampled_from(["basic", "refined"])),
                              critical_cash=0.2 * cash, critical_asset=0.2 * asset))
    state = market_state(draw(st.floats(0.05, 20.0)), traders,
                         momentum=draw(st.floats(-0.01, 0.01)))
    impact, zeta = draw(st.sampled_from([("ratio", 1.0), ("powerlaw", 1.0),
                                         ("powerlaw", 0.8)]))
    params = MarketParams(impact=impact, zeta=zeta, eta=draw(st.sampled_from([0.1, 2.0])),
                          settlement=draw(st.sampled_from(["updated", "current"])))
    return state, params


class TestCapHit:
    @given(market=random_markets(), seed=st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_cap_hit_matches_the_price_move(self, market, seed):
        state, params = market
        _, record = step(state, params, CommitmentParams(), np.random.default_rng(seed))
        old, new, eta = record.old_price, record.new_price, params.eta
        if record.cap_hit:
            assert new == old * math.exp(eta if record.q_p > record.q_s else -eta)
        else:
            # |log(new/old)| <= eta, without the rounding of a log
            assert old * math.exp(-eta) <= new <= old * math.exp(eta)


class TestRun:
    def test_horizon_one_gives_two_points(self):
        state = two_trader_state()
        result = run(state, MarketParams(horizon=1), CommitmentParams(), seed=0,
                     crash=CrashPredicate.deciblack_drop())
        assert len(result.prices) == 2
        assert len(result.momenta) == 2
        assert len(result.wealth) == 2

    def test_identical_seed_and_config_reproduce_bitwise(self):
        spec = PopulationSpec(val_fracs=(0.5,), mo_frac=0.2, rand_frac=0.3)
        crash = CrashPredicate.relative_drop(0.3)
        a = run(init_population(spec, m0=-0.001), MarketParams(horizon=100),
                CommitmentParams(), seed=99, crash=crash)
        b = run(init_population(spec, m0=-0.001), MarketParams(horizon=100),
                CommitmentParams(), seed=99, crash=crash)
        assert a.prices == b.prices
        assert a.momenta == b.momenta
        assert a.wealth == b.wealth

    def test_price_floor_aborts_and_counts_as_crash(self):
        # Mo holds everything: one-sided selling caps the price down forever
        spec = PopulationSpec(val_fracs=(0.0,), mo_frac=1.0)
        state = init_population(spec, m0=-0.001)
        # a fall below 1e-13 fires only after the 1e-12 floor has aborted the run
        result = run(state, MarketParams(horizon=300), CommitmentParams(), seed=0,
                     crash=CrashPredicate.drop_below(1e-13))
        assert result.aborted
        assert result.crash_step == len(result.prices) - 1
        assert len(result.prices) < 301

    def test_wealth_is_marked_to_market(self):
        state = two_trader_state(theta=0.3)
        result = run(state, MarketParams(horizon=5), CommitmentParams(), seed=1,
                     crash=CrashPredicate.deciblack_drop())
        for t, snapshot in enumerate(result.wealth):
            total = sum(snapshot)
            expected = (result.final_state.total_cash
                        + result.final_state.total_asset * result.prices[t])
            assert total == pytest.approx(expected, rel=1e-9)


def random_config(rng):
    k = rng.uniform(0.02, 0.3, size=6)
    commitments = CommitmentParams(*k)
    mix = rng.dirichlet(np.ones(3))
    n_vals = int(rng.integers(1, 4))
    spec = PopulationSpec(
        val_fracs=tuple([mix[0] / n_vals] * n_vals), mo_frac=mix[1],
        rand_frac=mix[2],
        valuation="gamma" if rng.random() < 0.3 else "fixed",
        rand_mode="refined" if rng.random() < 0.5 else "basic",
        rho=rng.uniform(0.5, 6.0), p0=rng.uniform(0.8, 1.2))
    params = MarketParams(
        impact="powerlaw" if rng.random() < 0.5 else "ratio",
        zeta=rng.uniform(0.5, 1.5),
        settlement="current" if rng.random() < 0.5 else "updated",
        rho=spec.rho, horizon=100)
    return params, commitments, spec


class TestInvariantSweep:
    def test_conservation_cap_and_nonnegativity_across_mixes(self):
        rng = np.random.default_rng(20240917)
        for case in range(20):
            params, commitments, spec = random_config(rng)
            state = init_population(spec, m0=rng.uniform(-0.002, 0.002),
                                    rng=np.random.default_rng(case))
            c0, q0 = state.total_cash, state.total_asset
            step_rng = np.random.default_rng(1000 + case)
            for _ in range(100):
                state, record = step(state, params, commitments, step_rng)
                assert abs(math.log(record.new_price / record.old_price)) \
                    <= params.eta + 1e-12
                assert abs(state.cash_sum() - c0) <= 1e-12 * max(c0, 1.0)
                assert abs(state.asset_sum() - q0) <= 1e-12 * max(q0, 1.0)
                for trader in state.traders:
                    assert trader.cash >= 0.0
                    assert trader.asset >= 0.0


class TestInputsStayUnchanged:
    """Each entry point steps a private copy of its state in place; the
    state it was given, and that state's traders, stay as they were."""

    def test_step_run_and_crash_step_leave_their_input_unchanged(self):
        spec = PopulationSpec(val_fracs=(0.3, 0.2), mo_frac=0.3, rand_frac=0.2,
                              valuation="gamma", rand_mode="refined")
        state = init_population(spec, m0=-0.001, rng=np.random.default_rng(1))
        before = copy.deepcopy(state)
        params = MarketParams(horizon=50)
        out, _ = step(state, params, CommitmentParams(), np.random.default_rng(2))
        result = run(state, params, CommitmentParams(), seed=3,
                     crash=CrashPredicate.drop_below(1e-9))
        engine.crash_step(state, params, CommitmentParams(), 3, CrashPredicate.drop_below(1e-9))
        # the sweep passes one start object for every replicate of a point
        engine.run_summaries([state, state], params, CommitmentParams(), [3, 4],
                             CrashPredicate.drop_below(1e-9))
        assert state == before
        assert out.traders != before.traders != result.final_state.traders  # they traded
        given = {id(t) for t in state.traders}
        assert not given & {id(t) for t in out.traders + result.final_state.traders}


# a drop below 1e-13 fires only after the 1e-12 price floor has aborted the run
CRASH_KINDS = {
    "drop_below": (CrashPredicate.drop_below, [1e-13, 0.01, 0.5, 0.9]),
    "relative_drop": (CrashPredicate.relative_drop, [0.05, 0.3]),
    "deciblack_drop": (CrashPredicate.deciblack_drop, [0.5, 2.0, 5.0]),
}


@st.composite
def crash_probes(draw):
    """A seeded Val/Mo/Rand start, market and commitment params and a crash
    predicate, over every population, impact, settlement and crash kind."""
    horizon = draw(st.integers(1, 80))
    mo = draw(st.sampled_from([0.0, 0.1, 0.22, 0.4, 1.0]))
    rand = draw(st.sampled_from([0.0, 0.1, 0.3])) * (1.0 - mo)
    n_vals = draw(st.integers(1, 3))
    spec = PopulationSpec(val_fracs=(max(1.0 - mo - rand, 0.0) / n_vals,) * n_vals,
                          mo_frac=mo, rand_frac=rand,
                          valuation=draw(st.sampled_from(["fixed", "gamma"])),
                          rand_mode=draw(st.sampled_from(["basic", "refined"])),
                          p0=draw(st.sampled_from([0.005, 0.5, 0.95, 1.0, 1.05])),
                          rho=draw(st.sampled_from([1.0, 4.0])))
    seed = draw(st.integers(0, 2**32))
    state = init_population(spec, m0=draw(st.sampled_from([-0.001, 0.0, 0.001])),
                            rng=np.random.default_rng(seed))
    impact, zeta = draw(st.sampled_from([("ratio", 1.0), ("powerlaw", 1.0),
                                         ("powerlaw", 0.8)]))
    # at eta = 2 a lone momentum seller falls through the price floor
    params = MarketParams(horizon=horizon, impact=impact, zeta=zeta,
                          eta=draw(st.sampled_from([0.1, 1.0, 2.0])),
                          settlement=draw(st.sampled_from(["updated", "current"])))
    commitments = CommitmentParams(*draw(st.lists(st.floats(0.02, 0.5),
                                                  min_size=6, max_size=6)))
    make, values = CRASH_KINDS[draw(st.sampled_from(sorted(CRASH_KINDS)))]
    crash = make(draw(st.sampled_from(values)))
    return state, params, commitments, seed, crash


def outcome(fn):
    """fn()'s value, or the message of the InvalidInputError it raises."""
    try:
        return fn()
    except InvalidInputError as error:
        return f"InvalidInputError: {error}"


def assert_crash_step_matches_run(state, params, commitments, seed, crash):
    summary = outcome(lambda: engine.crash_step(state, params, commitments, seed, crash))
    full = outcome(lambda: run(state, params, commitments, seed, crash,
                               stop_at_crash=True).crash_step)
    assert summary == full
    return summary


class TestCrashStep:
    """engine.crash_step is run(..., stop_at_crash=True).crash_step without
    the history."""

    @given(probe=crash_probes())
    @settings(max_examples=300, deadline=None)
    def test_matches_run_stopped_at_the_crash(self, probe):
        assert_crash_step_matches_run(*probe)

    def test_price_floor_abort_is_a_crash(self):
        # a lone momentum seller at eta = 1 falls through the 1e-12 floor
        # at step 28, to e^-28 = 6.9e-13, before it falls below 1e-13
        state = init_population(PopulationSpec(val_fracs=(0.0,), mo_frac=1.0), m0=-0.001)
        params, crash = MarketParams(eta=1.0, horizon=60), CrashPredicate.drop_below(1e-13)
        result = run(state, params, CommitmentParams(), 0, crash, stop_at_crash=True)
        assert result.aborted
        assert assert_crash_step_matches_run(state, params, CommitmentParams(), 0,
                                             crash) == len(result.prices) - 1 == 28

    def test_start_below_a_drop_below_level_is_a_crash_at_index_0(self):
        state = two_trader_state(theta=0.1, p0=0.005)
        assert assert_crash_step_matches_run(state, MarketParams(), CommitmentParams(), 0,
                                             CrashPredicate.drop_below(0.01)) == 0


def assert_rows_match_runs(states, params, commitments, seeds, crash):
    def batched():
        s = engine.run_summaries(states, params, commitments, seeds, crash)
        return list(zip(s.min_price.tolist(), s.crashed.tolist(), s.boomed.tolist(),
                        s.aborted.tolist(), s.steps.tolist()))

    def scalar():
        runs = [run(state, params, commitments, seed, crash)
                for state, seed in zip(states, seeds)]
        return [(min(r.prices), r.crash_step is not None, r.boom_step is not None,
                 r.aborted, len(r.prices) - 1) for r in runs]

    def rows_or_error(fn):
        # the two engines word their price message differently
        try:
            return fn()
        except InvalidInputError:
            return InvalidInputError

    rows = rows_or_error(batched)
    assert rows == rows_or_error(scalar)
    return rows


class TestRunSummaries:
    """Each row of engine.run_summaries is what the scalar run of its state
    and seed reads."""

    @given(probe=crash_probes())
    @settings(max_examples=300, deadline=None)
    def test_each_row_matches_its_scalar_run(self, probe):
        state, params, commitments, seed, crash = probe
        assert_rows_match_runs([state] * 3, params, commitments, [seed, seed + 1, seed + 2],
                               crash)

    def test_runs_that_abort_at_different_steps_keep_their_own_rows(self):
        # at eta = 30 momentum sellers fall through the 1e-12 floor at step
        # 1 from p0 = 1 and at step 4 from p0 = 1e30; the first run's Val
        # trader would bid below its valuation of 1 after the abort, and the
        # pure-Val run never trades
        def start(**spec):
            return init_population(PopulationSpec(**spec), m0=-0.001)

        states = [start(val_fracs=(0.5,), mo_frac=0.5), start(),
                  start(val_fracs=(0.0,), mo_frac=1.0, p0=1e30)]
        rows = assert_rows_match_runs(states, MarketParams(eta=30.0, horizon=10),
                                      CommitmentParams(), [0, 1, 2],
                                      CrashPredicate.drop_below(1e-13))
        assert [row[3:] for row in rows] == [(True, 1), (False, 10), (True, 4)]


class TestRunFindsTheFirstCrashAndBoom:
    """run's crash_step and boom_step are the first indices of its prices
    where the predicate and its boom reading fire; a run the price floor
    aborts crashes at its last index unless it crashed before."""

    @given(probe=crash_probes(), stop_at_crash=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_steps_are_first_indices_of_the_recorded_prices(self, probe, stop_at_crash):
        state, params, commitments, seed, crash = probe
        result = outcome(lambda: run(state, params, commitments, seed, crash,
                                     stop_at_crash=stop_at_crash))
        assume(not isinstance(result, str))
        prices = result.prices

        def first(fires):
            return next((i for i, p in enumerate(prices) if fires(prices[0], p)), None)

        last = len(prices) - 1
        crashed = first(crash.crash_at)
        assert result.aborted == (prices[-1] < engine.PRICE_FLOOR)
        assert result.crash_step == (last if result.aborted and crashed is None else crashed)
        assert result.boom_step == first(crash.boom_at)
        if stop_at_crash and result.crash_step is not None:
            assert result.crash_step == last

    def test_a_start_crash_stops_before_the_first_step(self):
        # the first step would underflow the price to 0 and raise
        state, params = invalid_state(), MarketParams(eta=1000.0)
        crash = CrashPredicate.drop_below(2.0)
        assert engine.crash_step(state, params, CommitmentParams(), 0, crash) == 0
        result = run(state, params, CommitmentParams(), 0, crash, stop_at_crash=True)
        assert (result.prices, result.crash_step) == ([1.0], 0)


class TestRunIsChainedSteps:
    """run builds its step body once per run, step once per call; both
    step the same way."""

    @given(probe=crash_probes())
    @settings(max_examples=200, deadline=None)
    def test_run_equals_horizon_chained_steps(self, probe):
        state, params, commitments, seed, crash = probe

        def chained():
            rng = np.random.Generator(np.random.PCG64(seed))
            current, prices, momenta, records = state, [state.price], [state.momentum], []
            for _ in range(params.horizon):
                current, record = step(current, params, commitments, rng)
                prices.append(current.price)
                momenta.append(current.momentum)
                records.append(record)
                if current.price < engine.PRICE_FLOOR:
                    break
            return prices, momenta, records, current

        def whole():
            result = run(state, params, commitments, seed, crash)
            return result.prices, result.momenta, result.records, result.final_state

        # repr tells floats apart bit for bit, -0.0 from 0.0 included
        assert repr(outcome(whole)) == repr(outcome(chained))


def invalid_state(price=1.0, momentum=-0.001, mo_cash=0.2, val_cash=0.8, val_asset=3.2,
                  kind="mo", rand_mode="basic"):
    traders = [Trader(val_cash, val_asset, "val"),
               Trader(mo_cash, 0.8, kind, rand_mode=rand_mode)]
    return market_state(price, traders, momentum)


@pytest.mark.parametrize("state, params", [
    (invalid_state(price=math.nan), MarketParams()),
    (invalid_state(price=math.inf), MarketParams()),
    (invalid_state(momentum=math.nan), MarketParams()),
    (invalid_state(momentum=math.inf), MarketParams()),
    (invalid_state(momentum=0.001, mo_cash=-1.0), MarketParams()),
    (invalid_state(), MarketParams(eta=1000.0)),
    (invalid_state(price=0.0), MarketParams()),
    (invalid_state(price=1e-13), MarketParams()),
    (invalid_state(val_cash=math.nan), MarketParams()),
    (invalid_state(val_asset=-1.0), MarketParams()),
    (invalid_state(kind="momentum"), MarketParams()),
    (invalid_state(kind="rand", rand_mode="fancy"), MarketParams()),
], ids=["nan price", "inf price", "nan momentum", "inf momentum",
        "negative bid", "price underflows to 0", "price 0.0", "price below the floor",
        "NaN cash", "negative asset", "unknown kind", "unknown rand mode"])
def test_crash_step_raises_where_run_raises(state, params):
    """step, run, crash_step and, next to a valid state, the batched
    run_summaries all reject the state."""
    crash = CrashPredicate.relative_drop(0.3)
    with pytest.raises(InvalidInputError):
        step(state, params, CommitmentParams())
    with pytest.raises(InvalidInputError):
        engine.crash_step(state, params, CommitmentParams(), 0, crash)
    assert assert_crash_step_matches_run(state, params, CommitmentParams(), 0,
                                         crash).startswith("InvalidInputError")
    with pytest.raises(InvalidInputError):
        engine.run_summaries([invalid_state(), state], params, CommitmentParams(), [0, 1],
                             crash)
