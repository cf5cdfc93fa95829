import contextlib
import copy
import functools
import importlib.machinery
import math
import os
import shutil
import signal
import stat
import subprocess
import sys
import sysconfig
import warnings
from array import array
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crash_kinds import PriceTrace, crash_predicates
from valtrack import (CommitmentParams, MarketParams, MarketState,
                      PopulationSpec, Trader, init_population, run, step)
from valtrack import cli, engine, experiments, summaries
from valtrack.errors import ConfigError, InvalidInputError
from valtrack.metrics import CrashPredicate
from valtrack.seeding import mix_seed
from valtrack.traders import KIND_RAND, KIND_VAL, RAND_MODES, population_orders


def two_trader_state(theta=0.216, p0=1.0, m0=-0.001, rho=4.0):
    spec = PopulationSpec(val_fracs=(1.0 - theta,), mo_frac=theta, p0=p0, rho=rho)
    return init_population(spec, m0=m0)


def market_state(price, traders, momentum=0.0):
    return MarketState(price=price, momentum=momentum, traders=traders,
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
        # the state is rejected on entry: a bid of 1e307 cash at the 1e-12
        # price floor would be an infinite purchase volume
        buyer = Trader(1e308, 1.0, "val", valuation=1.0)
        with pytest.raises(InvalidInputError, match="total cash"):
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
        return MarketState(price=price, momentum=-0.001, traders=traders,
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
        assert record.q_p == 0.0 and record.q_s == 0.0

    def test_balanced_orders_execute_fully_without_price_move(self):
        traders = [Trader(10.0, 10.0, "val", valuation=2.0),
                   Trader(10.0, 10.0, "mo")]
        state = MarketState(price=1.0, momentum=-0.5, traders=traders,
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
        summaries.run_summaries([state, state], params, CommitmentParams(), [3, 4],
                                CrashPredicate.drop_below(1e-9))
        assert state == before
        assert out.traders != before.traders != result.final_state.traders  # they traded
        given = {id(t) for t in state.traders}
        assert not given & {id(t) for t in out.traders + result.final_state.traders}


# The step loops, engine._stepper and the compiled loop of _crashloop.c,
# at its entries for engine.crash_step and summaries.run_summaries, state
# one rule. assert_engines_agree is their one differential oracle, and
# engine_cases draws its inputs; each edge input below is one call of it,
# with the facts its case pins.

def outcome(fn):
    """fn()'s value, or the message of the InvalidInputError it raises."""
    try:
        return fn()
    except InvalidInputError as error:
        return f"InvalidInputError: {error}"


def first_index(fires, prices):
    """The first index of prices where fires(prices[0], price) holds, or None."""
    return next((i for i, p in enumerate(prices) if fires(prices[0], p)), None)


def bits(values):
    """The values as packed doubles, equal for two lists only if the lists
    are equal bit for bit: unlike ==, they tell -0.0 from 0.0, as repr does
    at a tenth of its cost."""
    return array("d", values).tobytes()


def summary_row(result):
    """The row summaries.run_summaries gives the run of this RunResult."""
    return (min(result.prices), max(result.prices), result.crash_step is not None,
            result.boom_step is not None, result.aborted, len(result.prices) - 1)


def recorded_crash_step(*args):
    """(crash_step(*args), or the message of the InvalidInputError it
    raises, and the (code, steps, price) that the compiled crash loop
    returned to it, or None where that loop did not step it)."""
    loop, returned = engine._crash_loop(), []
    if loop is None:
        return outcome(lambda: engine.crash_step(*args)), None

    def recording(*loop_args):
        returned.append(loop.crash_step(*loop_args))
        return returned[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_crash_loop", lambda: SimpleNamespace(crash_step=recording))
        value = outcome(lambda: engine.crash_step(*args))
    return value, (returned[0] if returned else None)


def assert_engines_agree(states, params, commitments, seeds, crash, expect=None):
    """Check that step, run, crash_step and summaries.run_summaries step each
    state from its seed alike, and return run's outcome for each state: its
    RunResult, or the message of the InvalidInputError it raises.

    - A chain of `step` calls records what `run` records, bit for bit, and
      raises where `run` raises, with its message: every state of a run
      has its start's price ceiling. run's crash_step, boom_step and
      aborted are the first indices of the chain's prices where they fire.
    - crash_step, which steps a Val/Mo market in the compiled crash loop,
      returns the chain's first crash, or else its error. Where that
      loop stops at a crash or an end, the price it returns is the chain's
      price at the step count it returns, bit for bit. Where the run
      neither raises nor aborts, crash_step with a drop below the chain's
      lowest price after the start, and with a drop below the next float
      up, returns that predicate's first index over the chain's prices:
      this pins the lowest price and its first step bit for bit.
    - run_summaries gives each state the summary row of its run, its
      lowest and highest price bit for bit (repr tells every float apart),
      alone and between two rows of another layout: one more Val trader,
      without a Rand trader before the states and with one of their mode
      after them. It does so in the compiled summary loop and with the
      loader giving None, as where that loop cannot be built, so that
      each row comes from run. Where rows raise, the batch raises the
      error of its first row whose start check_state rejects, else of its
      first row whose run raises, a row behind a valid one included. The
      rows of another layout are checked through their batch rows, and in
      full where they raise.
    - Every step of the chain keeps cash and asset to 1e-12 (relative
      above 1) and holdings >= 0, and moves the price within e^+-eta, by
      exactly e^+-eta where cap_hit is set.

    Every warning is an error. expect, if given, is the start of the message
    that every state's run, crash_step and all four batches raise.
    """
    n_vals = 1 + max(sum(t.kind == KIND_VAL for t in s.traders) for s in states)
    mode = next((t.rand_mode for s in states for t in s.traders
                 if t.kind == KIND_RAND and t.rand_mode in RAND_MODES), "refined")
    other = PopulationSpec(val_fracs=(0.6 / n_vals,) * n_vals, mo_frac=0.4, rand_mode=mode)
    all_states = [init_population(other, m0=-0.001), *states,
                  init_population(replace(other, mo_frac=0.2, rand_frac=0.2), m0=-0.001)]
    all_seeds = [0, *seeds, 1]

    def scalar(state, seed, row_only=False):
        """(run's outcome, crash_step's, and where the run raises, 1 if
        check_state rejects its start and 2 if a step raises); with
        row_only, only run's outcome of a run that does not raise"""
        def run_in(loop, predicate=crash, stop_at_crash=False):
            with pytest.MonkeyPatch.context() as patch:
                if loop == "python":
                    patch.setattr(engine, "_crash_loop", lambda: None)
                return outcome(lambda: run(state, params, commitments, seed, predicate,
                                           stop_at_crash))

        run_trace = PriceTrace(crash)
        result = run_in("python", run_trace)
        if row_only and not isinstance(result, str):
            return result, None, None
        rng = np.random.Generator(np.random.PCG64(seed))
        chain, records, error = [state], [], None
        try:
            for _ in range(params.horizon):
                current, record = step(chain[-1], params, commitments, rng)
                chain.append(current)
                records.append(record)
                if current.price < engine.PRICE_FLOOR:
                    break
        except InvalidInputError as e:
            error = f"InvalidInputError: {e}"
        prices = [s.price for s in chain]
        raised = result if isinstance(result, str) else None
        assert error == raised

        up, down = math.exp(params.eta), math.exp(-params.eta)
        cash, asset = state.cash_sum(), state.asset_sum()
        for current, r in zip(chain[1:], records):
            if r.cap_hit:
                assert r.new_price == r.old_price * (up if r.q_p > r.q_s else down)
            else:
                assert r.old_price * down <= r.new_price <= r.old_price * up
            assert abs(current.cash_sum() - cash) <= 1e-12 * max(cash, 1.0)
            assert abs(current.asset_sum() - asset) <= 1e-12 * max(asset, 1.0)
            assert all(t.cash >= 0.0 and t.asset >= 0.0 for t in current.traders)

        def stopped_at(predicate):
            value, returned = recorded_crash_step(state, params, commitments, seed, predicate)
            if returned and returned[0] not in (engine._LOOP_CEILING, engine._LOOP_DEMAND):
                _, steps, price = returned
                assert bits([price]) == bits([prices[steps]])
            return value

        rejected = isinstance(outcome(lambda: engine.check_state(state)), str)
        stopped, crashed = stopped_at(crash), None
        if rejected:
            assert stopped == raised
        else:
            # a run the price floor aborts crashes at its last index unless
            # it crashed before
            crashed = first_index(crash.crash_at, prices)
            if prices[-1] < engine.PRICE_FLOOR and crashed is None:
                crashed = len(prices) - 1
            assert stopped == (raised if crashed is None else crashed)
            if not (raised or prices[-1] < engine.PRICE_FLOOR):
                low = min(prices[1:])
                for pinned in map(CrashPredicate.drop_below, (low, math.nextafter(low, math.inf))):
                    assert stopped_at(pinned) == first_index(pinned.crash_at, prices)
        assert bits(run_trace.prices) == bits(prices[:len(run_trace.prices)])

        def recorded(result):
            """what a RunResult records, bit for bit, or an error message"""
            if isinstance(result, str):
                return result
            return (bits(result.prices), bits(result.momenta),
                    bits(v for r in result.records for v in r),
                    bits(w for row in result.wealth for w in row), repr(result.final_state),
                    result.crash_step, result.boom_step, result.aborted)

        def chained(steps):
            """what run records of the chain's first `steps` steps"""
            kept = prices[:steps + 1]
            return (bits(kept), bits(s.momentum for s in chain[:steps + 1]),
                    bits(v for r in records[:steps] for v in r),
                    bits(t.cash + t.asset * s.price for s in chain[:steps + 1]
                         for t in s.traders), repr(chain[steps]),
                    crashed, first_index(crash.boom_at, kept), kept[-1] < engine.PRICE_FLOOR)

        # run in both loops, to its end and stopped at its crash
        for stop_at_crash in (False, True):
            expect = raised or chained(len(prices) - 1)
            if stop_at_crash and crashed is not None:
                expect = chained(crashed)
            for loop in ("compiled", "python"):
                got = result if (loop, stop_at_crash) == ("python", False) else run_in(
                    loop, stop_at_crash=stop_at_crash)
                assert recorded(got) == expect, (loop, stop_at_crash)
        return result, stopped, raised and (1 if rejected else 2)

    def expected(rows):
        """What run_summaries returns or raises for all_states[rows]."""
        runs = checked[rows]
        failures = sorted((failed, i) for i, (_, _, failed) in enumerate(runs) if failed)
        if failures:
            return runs[failures[0][1]][0]
        return [summary_row(result) for result, _, _ in runs]

    def batched(rows):
        s = summaries.run_summaries(all_states[rows], params, commitments, all_seeds[rows], crash)
        return list(zip(s.min_price, s.max_price, s.crashed, s.boomed, s.aborted, s.steps))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checked = [scalar(state, seed, row_only=i in (0, len(states) + 1))
                   for i, (state, seed) in enumerate(zip(all_states, all_seeds))]
        alone, beside = slice(1, -1), slice(None)
        rows = [outcome(lambda: batched(r)) for r in (alone, beside)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_crash_loop", lambda: None)
            rows += [outcome(lambda: batched(r)) for r in (alone, beside)]
    assert [repr(r) for r in rows] == [repr(expected(r)) for r in (alone, beside)] * 2
    results = [result for result, _, _ in checked[alone]]
    if expect is not None:
        for message in [*results, *(stopped for _, stopped, _ in checked[alone]), *rows]:
            assert isinstance(message, str) and message.startswith(expect), message
    return results


@st.composite
def engine_cases(draw, layout=None, width=1):
    """The arguments of assert_engines_agree: `width` seeded replicates of
    one start, market and commitment params and a crash predicate, over every
    impact, settlement and crash kind and every commitment from 0 to 1. At
    eta = 2 a lone momentum seller falls through the price floor; at eta =
    30 a one-sided flow reaches the floor or the ceiling in a few steps.

    layout picks the kind of start, and each kind is drawn if it is None:
    three in eight "population", 1-3 Val traders (fixed or gamma
    valuations), a Mo and a Rand trader of either mode, in any order, from
    a price near the floor, below, at and above the valuation, where at a
    Mo share of 1 the Val trader holds nothing; three in eight "val_mo",
    such a population of one Val trader and at most one Mo trader, the
    layout of every threshold_search probe, where half the runs can only
    crash through the price floor, or not at all; two in eight "any", 1-4
    traders of any kinds and holdings. The horizon is 1-80 steps;
    engine_cases(layout="val_mo") runs up to 300, past the default 250 of
    a probe."""
    seed = draw(st.integers(0, 2**32))
    max_horizon = 300 if layout == "val_mo" else 80
    layout = layout or draw(st.sampled_from(["population"] * 3 + ["val_mo"] * 3 + ["any"] * 2))
    val_mo = layout == "val_mo"
    if layout != "any":
        mo = draw(st.sampled_from([0.0, 0.1, 0.2164, 0.4, 0.9, 1.0]) | st.floats(0.0, 1.0))
        rand = 0.0 if val_mo else draw(st.sampled_from([0.0, 0.1, 0.3])) * (1.0 - mo)
        n_vals = 1 if val_mo else draw(st.integers(1, 3))
        u = draw(st.sampled_from([0.5, 1.0, 2.0]))
        spec = PopulationSpec(
            val_fracs=(max(1.0 - mo - rand, 0.0) / n_vals,) * n_vals, mo_frac=mo,
            rand_frac=rand, u=u,
            valuation="fixed" if val_mo else draw(st.sampled_from(["fixed", "gamma"])),
            rand_mode=draw(st.sampled_from(["basic", "refined"])),
            p0=u * draw(st.sampled_from([1e-9, 0.005, 0.5, 0.9, 0.95, 1.0, 1.05, 1.1, 300.0])),
            rho=draw(st.sampled_from([1.0, 4.0]) | st.floats(0.5, 6.0)))
        state = init_population(spec, m0=draw(st.sampled_from([-0.001, 0.0, 0.001])
                                             | st.floats(-0.002, 0.002)),
                                rng=np.random.default_rng(seed))
        state.traders = draw(st.permutations(state.traders))
    else:
        traders = []
        for kind in draw(st.lists(st.sampled_from(["val", "mo", "rand"]), min_size=1,
                                  max_size=4)):
            cash, asset = draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 10.0))
            traders.append(Trader(cash, asset, kind, valuation=draw(st.floats(0.5, 2.0)),
                                  rand_mode=draw(st.sampled_from(["basic", "refined"])),
                                  critical_cash=0.2 * cash, critical_asset=0.2 * asset))
        state = market_state(draw(st.floats(0.05, 20.0)), traders,
                             momentum=draw(st.floats(-0.01, 0.01)))
    impact, zeta = draw(st.sampled_from([("ratio", 1.0), ("powerlaw", 1.0), ("powerlaw", 0.8)])
                        | st.tuples(st.just("powerlaw"), st.floats(0.5, 1.5)))
    params = MarketParams(horizon=draw(st.integers(1, max_horizon)), impact=impact,
                          zeta=zeta, eta=draw(st.sampled_from([0.1, 1.0, 2.0, 30.0])),
                          settlement=draw(st.sampled_from(["updated", "current"])))
    commitments = CommitmentParams(*draw(st.lists(st.floats(0.0, 1.0), min_size=6,
                                                  max_size=6)))
    crash = draw(crash_predicates | st.just(CrashPredicate.drop_below(1e-13))
                 if val_mo else crash_predicates)
    return [state] * width, params, commitments, [seed + i for i in range(width)], crash


class TestRunIsChainedSteps:
    """run builds its step body once per run, step once per call; both
    step the same way, over starts of every layout."""

    @given(case=engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_run_equals_horizon_chained_steps(self, case):
        assert_engines_agree(*case)


class TestDrawBlocks:
    """run and crash_step take their uniforms from the generator
    engine.DRAW_BLOCK at a time; a chain of step calls draws them one at a
    time from rng.random. Three random traders of both modes draw six
    uniforms a step, so 400 steps cross nine block boundaries, and the last
    block is drawn in part."""

    @staticmethod
    def state():
        traders = [Trader(0.3, 1.2, "val", valuation=0.5), Trader(0.2, 0.8, "mo"),
                   Trader(0.2, 0.8, "rand"),
                   Trader(0.2, 0.8, "rand", rand_mode="refined", critical_cash=0.04,
                          critical_asset=0.16),
                   Trader(0.1, 0.4, "rand")]
        return market_state(1.0, traders, momentum=-0.001)

    def test_run_and_crash_step_equal_chained_steps_across_blocks(self):
        # the oracle pins crash_step at the run's lowest price, which this
        # falling market reaches at step 396, 2,376 draws in
        params = MarketParams(horizon=400)
        [result] = assert_engines_agree([self.state()], params, CommitmentParams(), [0],
                                        CrashPredicate.drop_below(1e-9))
        assert not result.aborted
        assert result.prices.index(min(result.prices)) * 6 > 3 * engine.DRAW_BLOCK

    def test_a_compiled_run_is_one_loop_call_that_grows_its_series(self, monkeypatch):
        # the compiled run steps from its seed to its last row in one call
        # of the summary loop, which grows the empty series it is given to
        # 2 * rows + 1 rows each time it is full and cuts it to the rows it
        # wrote: these 2,000 steps write 2,001 rows across eleven growths
        calls = []
        loop = compiled_loop()

        def counted(*args):
            calls.append(args[13:])
            return loop.run_summaries(*args)

        params, crash = MarketParams(horizon=2000), CrashPredicate.drop_below(1e-9)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_crash_loop", lambda: SimpleNamespace(run_summaries=counted))
            result = run(self.state(), params, CommitmentParams(), 0, crash)
        [(horizon, _, series)] = calls
        assert (horizon, len(result.prices)) == (2000, 2001)
        assert len(series) == 2001 * (6 + len(self.state().traders)) * 8
        assert_engines_agree([self.state()], params, CommitmentParams(), [0], crash)

    def test_an_early_crash_at_an_unbounded_horizon_returns_at_once(self):
        # what a run draws does not grow with its horizon: a block of 2e12
        # uniforms would not fit in memory
        prices = run(self.state(), MarketParams(horizon=5), CommitmentParams(), 0,
                     CrashPredicate.drop_below(1e-9)).prices
        assert prices[3] < min(prices[:3])
        crash = CrashPredicate.drop_below(math.nextafter(prices[3], math.inf))
        params = MarketParams(horizon=10**12)
        result = run(self.state(), params, CommitmentParams(), 0, crash, stop_at_crash=True)
        assert (result.crash_step, result.prices) == (3, prices[:4])
        assert engine.crash_step(self.state(), params, CommitmentParams(), 0, crash) == 3


class TestCapHit:
    """Over markets of 1-4 traders of any kinds and holdings, each step
    moves the price within e^+-eta, by exactly e^+-eta where cap_hit is set."""

    @given(case=engine_cases(layout="any"))
    @settings(max_examples=60, deadline=None)
    def test_cap_hit_matches_the_price_move(self, case):
        assert_engines_agree(*case)


def sweep_config(rng):
    """A population of every trader kind, with market and commitment
    params, drawn from rng: the fixed configs of TestInvariantSweep."""
    commitments = CommitmentParams(*rng.uniform(0.02, 0.3, size=6))
    mix = rng.dirichlet(np.ones(3))
    n_vals = int(rng.integers(1, 4))
    spec = PopulationSpec(
        val_fracs=tuple([mix[0] / n_vals] * n_vals), mo_frac=mix[1], rand_frac=mix[2],
        valuation="gamma" if rng.random() < 0.3 else "fixed",
        rand_mode="refined" if rng.random() < 0.5 else "basic",
        rho=rng.uniform(0.5, 6.0), p0=rng.uniform(0.8, 1.2))
    params = MarketParams(impact="powerlaw" if rng.random() < 0.5 else "ratio",
                          zeta=rng.uniform(0.5, 1.5),
                          settlement="current" if rng.random() < 0.5 else "updated",
                          rho=spec.rho, horizon=100)
    return params, commitments, spec


class TestInvariantSweep:
    """Conservation, the cap and non-negative holdings over 100 steps of
    20 fixed mixes of every trader kind, impact and settlement."""

    def test_conservation_cap_and_nonnegativity_across_mixes(self):
        rng = np.random.default_rng(20240917)
        for case in range(20):
            params, commitments, spec = sweep_config(rng)
            state = init_population(spec, m0=rng.uniform(-0.002, 0.002),
                                    rng=np.random.default_rng(case))
            assert_engines_agree([state], params, commitments, [1000 + case],
                                 CrashPredicate.relative_drop(0.3))


def counted_steps(fn, limit=1000):
    """(fn(), the steps it took), counted as the calls of exp in engine:
    each step of the _stepper body calls it once. A step past the limit
    fails at once, so a loop that keeps stepping cannot hang the test."""
    steps = 0

    def exp(x):
        nonlocal steps
        steps += 1
        assert steps <= limit, f"more than {limit} steps"
        return math.exp(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "math", SimpleNamespace(**{**vars(math), "exp": exp}))
        return fn(), steps


def compiled_loop():
    """The compiled loop's module; the test skips where it cannot be
    built, which test_the_compiled_loop_loads_where_it_can_be_built fails."""
    loop = engine._crash_loop()
    if loop is None:
        pytest.skip("the compiled crash loop cannot be built here")
    return loop


@contextlib.contextmanager
def crash_loop(kind):
    """crash_step stepping its two-trader markets in the compiled loop
    ("compiled"), or, with the loader returning None as it does where the
    loop cannot be built, in the _stepper body ("python")."""
    with pytest.MonkeyPatch.context() as patch:
        if kind == "python":
            patch.setattr(engine, "_crash_loop", lambda: None)
        else:
            compiled_loop()
        yield


@contextlib.contextmanager
def deadline(seconds=10):
    """Fail the block with TimeoutError if it still runs after `seconds`.
    The compiled loop checks for signals every 2**20 steps, so a call of
    it that keeps stepping cannot hang the test."""
    def expire(signum, frame):
        raise TimeoutError(f"the compiled loop still stepped after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def loop_results(seconds=10):
    """Yield a list, and append to it each (code, steps, price) that the
    compiled loop returns to crash_step meanwhile, within deadline(seconds)."""
    loop, results = compiled_loop(), []

    def recording(*args):
        results.append(loop.crash_step(*args))
        return results[-1]

    with deadline(seconds), pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_crash_loop", lambda: SimpleNamespace(crash_step=recording))
        yield results


def compiled_steps(fn):
    """(fn(), the steps the compiled loop returns for fn's one crash_step)."""
    with loop_results() as results:
        value = fn()
    [(_, steps, _)] = results
    return value, steps


def bench_grid_probes(tmp_path):
    """The crash_step calls of one bench `grid` iteration: `grid --cells 3`
    at both settlements and `impact`, with bench/configs/grid.conf."""
    config = Path(__file__).resolve().parents[1] / "bench" / "configs" / "grid.conf"
    common = ["--config", str(config), "--workers", "1", "--seed", "1", "--out", str(tmp_path)]
    probes = []

    def recording(*args):
        probes.append(args)
        return engine.crash_step(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "crash_step", recording)
        for settlement in ("current", "updated"):
            assert cli.main(["grid", *common, "--settlement", settlement, "--cells", "3"]) == 0
        assert cli.main(["impact", *common]) == 0
    return probes


def assert_bench_grid_probes_match_run(loop, tmp_path):
    """Every crash_step probe of a bench `grid` iteration, with crash_step
    stepping two-trader markets in the given loop, is run's crash."""
    with crash_loop(loop):
        probes = bench_grid_probes(tmp_path)
    assert len(probes) == 273
    # the theta = 0 end of each of the 21 bisections (18 cells and 3
    # impact searches) is a Val trader alone at its valuation
    assert sum(all(order == 0.0 for orders in population_orders(commitments)(
                   state.traders, state.price, state.momentum, None) for order in orders)
               for state, _, commitments, _, _ in probes) == 21
    # the probes of one cell share their params: batch them together
    cells = {}
    for state, params, commitments, seed, crash in probes:
        cells.setdefault((params, commitments, crash), []).append((state, seed))
    outcomes = []
    with crash_loop(loop):
        for (params, commitments, crash), runs in cells.items():
            states, seeds = zip(*runs)
            outcomes += [result.crash_step for result in
                         assert_engines_agree(states, params, commitments, seeds, crash)]
    assert None in outcomes and sum(o is not None for o in outcomes) > 100


class TestCrashStep:
    """engine.crash_step is run's crash_step without the history: the run
    stops at its crash."""

    def test_price_floor_abort_is_a_crash(self):
        # a lone momentum seller at eta = 1 falls through the 1e-12 floor
        # at step 28, to e^-28 = 6.9e-13, before it falls below 1e-13
        state = init_population(PopulationSpec(val_fracs=(0.0,), mo_frac=1.0), m0=-0.001)
        [result] = assert_engines_agree([state], MarketParams(eta=1.0, horizon=60),
                                        CommitmentParams(), [0], CrashPredicate.drop_below(1e-13))
        assert result.aborted and result.crash_step == len(result.prices) - 1 == 28

    def test_start_below_a_drop_below_level_is_a_crash_at_index_0(self):
        [result] = assert_engines_agree([two_trader_state(theta=0.1, p0=0.005)], MarketParams(),
                                        CommitmentParams(), [0], CrashPredicate.drop_below(0.01))
        assert result.crash_step == 0

    def test_an_order_flow_overflow_raises_what_run_raises(self):
        # the state is rejected on entry: a bid of 1e299 cash at the 1e-12
        # price floor would buy more than 1e308
        assert_engines_agree([invalid_state(price=1e-12, val_cash=1e300)], MarketParams(),
                             CommitmentParams(), [0], CrashPredicate.relative_drop(0.3),
                             expect="InvalidInputError: total cash")

    @pytest.mark.parametrize("state", [
        init_population(PopulationSpec(), m0=-0.001), two_trader_state(m0=0.0),
    ], ids=["val at its valuation", "val mo at zero momentum"])
    def test_an_order_free_start_stops_without_stepping(self, state):
        # a start that places no order never places one, so the compiled
        # loop stops at its first step and reports the horizon: 10**9
        # steps return inside loop_results' 10 s. The _stepper body steps
        # to the horizon
        assert compiled_steps(lambda: engine.crash_step(
            state, MarketParams(horizon=10**9), CommitmentParams(), 0,
            CrashPredicate.relative_drop(0.3))) == (None, 10**9)
        assert compiled_steps(lambda: engine.crash_step(
            two_trader_state(), MarketParams(horizon=3), CommitmentParams(), 0,
            CrashPredicate.relative_drop(0.3))) == (None, 3)
        with crash_loop("python"):
            for start in (state, two_trader_state()):
                assert counted_steps(lambda: engine.crash_step(
                    start, MarketParams(horizon=3), CommitmentParams(), 0,
                    CrashPredicate.relative_drop(0.3))) == (None, 3)

    def test_a_horizon_past_2_63_with_an_order_free_start_returns_none_at_once(self):
        # the horizon is clamped to the loop's 64-bit count, which no run
        # reaches, and the order-free stop reports that count
        state = init_population(PopulationSpec(), m0=-0.001)
        assert compiled_steps(lambda: engine.crash_step(
            state, MarketParams(horizon=2**70), CommitmentParams(), 0,
            CrashPredicate.relative_drop(0.3))) == (None, 2**63 - 1)

    def test_a_market_that_empties_both_sides_stops_mid_run(self):
        # the Val trader's whole cash buys the Mo trader's whole asset at
        # an unmoved price: both sides fill at step 1, and from step 2 on
        # neither holds what it would order. The compiled loop stops there
        # and reports the horizon, so 10**12 steps return at once
        state = market_state(1.0, [Trader(1.0, 0.0, "val", valuation=2.0),
                                   Trader(0.0, 1.0, "mo")], momentum=-0.001)
        params = MarketParams(horizon=20)
        [result] = assert_engines_agree([state], params, ALL_IN, [0],
                                        CrashPredicate.drop_below(0.5))
        assert [(r.q_p, r.q_s, r.executed) for r in result.records[:2]] == [
            (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)]
        for horizon in (20, 10**12):
            assert compiled_steps(lambda: engine.crash_step(
                state, replace(params, horizon=horizon), ALL_IN, 0,
                CrashPredicate.drop_below(0.5))) == (None, horizon)
        with crash_loop("python"):
            assert counted_steps(lambda: engine.crash_step(
                state, params, ALL_IN, 0, CrashPredicate.drop_below(0.5))) == (None, 20)

    def test_every_probe_of_a_bench_grid_iteration_matches_run(self, tmp_path):
        assert_bench_grid_probes_match_run("compiled", tmp_path)

    def test_every_probe_of_a_bench_grid_iteration_matches_run_in_the_python_loop(self, tmp_path):
        assert_bench_grid_probes_match_run("python", tmp_path)

    @given(case=engine_cases(layout="population"))
    @settings(max_examples=60, deadline=None)
    def test_matches_run_stopped_at_the_crash(self, case):
        assert_engines_agree(*case)

    @given(case=engine_cases(layout="population"))
    @settings(max_examples=60, deadline=None)
    def test_matches_run_stopped_at_the_crash_in_the_python_loop(self, case):
        with crash_loop("python"):
            assert_engines_agree(*case)

    @given(case=engine_cases(layout="val_mo"))
    @settings(max_examples=60, deadline=None)
    def test_val_mo_loop_matches_run_stopped_at_the_crash(self, case):
        with crash_loop("compiled"):
            assert_engines_agree(*case)

    @given(case=engine_cases(layout="val_mo"))
    @settings(max_examples=60, deadline=None)
    def test_val_mo_markets_match_run_stopped_at_the_crash_in_the_python_loop(self, case):
        with crash_loop("python"):
            assert_engines_agree(*case)

    @given(case=engine_cases(layout="val_mo"))
    @settings(max_examples=50, deadline=None)
    def test_val_mo_markets_never_reach_the_generic_step_body(self, case):
        def generic(*args):
            raise AssertionError("_stepper built for a Val/Mo market")

        compiled_loop()
        states, params, commitments, seeds, crash = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_stepper", generic)
            outcome(lambda: engine.crash_step(states[0], params, commitments, seeds[0], crash))

    @pytest.mark.parametrize("spec", [
        PopulationSpec(val_fracs=(0.9,), mo_frac=0.1),
        PopulationSpec(val_fracs=(0.8,), mo_frac=0.1, rand_frac=0.1),
    ], ids=["val mo", "val mo rand"])
    def test_predicate_calls_do_not_grow_with_the_horizon(self, spec):
        # both runs go the whole horizon without a crash, in the two-trader
        # loop and in the generic one
        state, calls = init_population(spec, m0=-0.001), []
        for horizon in (250, 2500):
            trace = PriceTrace(CrashPredicate.deciblack_drop())
            assert engine.crash_step(state, MarketParams(horizon=horizon), CommitmentParams(), 0,
                                     trace) is None
            calls.append(len(trace.prices))
        assert calls[0] == calls[1] <= 4

    @pytest.mark.parametrize("spec", [
        PopulationSpec(val_fracs=(0.7,), mo_frac=0.2, rand_frac=0.1),
        PopulationSpec(val_fracs=(0.9,), rand_frac=0.1),
        PopulationSpec(val_fracs=(0.4, 0.4), mo_frac=0.2),
        PopulationSpec(val_fracs=(0.5, 0.5)),
    ], ids=["val mo rand", "val rand", "two val and mo", "two val"])
    def test_other_markets_step_in_the_generic_body(self, spec):
        class Generic(Exception):
            pass

        def generic(*args):
            raise Generic

        state = init_population(spec, m0=-0.001)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_stepper", generic)
            with pytest.raises(Generic):
                engine.crash_step(state, MarketParams(), CommitmentParams(), 0,
                                  CrashPredicate.drop_below(0.01))


@pytest.mark.parametrize("theta, p0, m0, settlement", [
    (0.3, 1.02, 0.0001806328536114849, "updated"),
    (0.4, 1.1, 0.0001512681081388683, "current"),
], ids=["updated", "current"])
def test_the_compiled_loop_rounds_each_product_on_its_own(theta, p0, m0, settlement):
    # the compiled loop's price at each horizon, and the compiled run's
    # prices, are _stepper's, bit for bit. At m0 > 0 the Mo trader bids
    # while the Val trader's larger offer moves the price down, and m0 is
    # the one that makes the two products of the first momentum update,
    # mu * log(p1 / p0) + (1 - mu) * m0, round to opposite values: 0.0, so
    # the Mo trader is silent at step 2. A build that fuses the update into
    # one rounding (gcc 12 with -ffp-contract=fast -mfma, x86-64 Xeon)
    # leaves the first product's rounding error as the momentum, and the
    # Mo trader trades at step 2
    compiled_loop()
    state = two_trader_state(theta=theta, p0=p0, m0=m0)
    params = MarketParams(settlement=settlement, horizon=30)
    crash = CrashPredicate.drop_below(1e-9)
    with crash_loop("python"):
        oracle = run(state, params, CommitmentParams(), 0, crash)
    assert oracle.momenta[1] == 0.0 and oracle.prices[2] != oracle.prices[1]
    assert bits(run(state, params, CommitmentParams(), 0, crash).prices) == bits(oracle.prices)
    with loop_results() as results:
        for horizon in range(1, params.horizon + 1):
            assert engine.crash_step(state, replace(params, horizon=horizon), CommitmentParams(),
                                     0, crash) is None
    assert bits(price for _, _, price in results) == bits(oracle.prices[1:])


def test_the_compiled_loop_loads_where_it_can_be_built(tmp_path, monkeypatch):
    """Where sysconfig's C compiler is installed and Python.h exists,
    crash_step steps two-trader markets in the compiled loop: the loader
    gives it, and a fresh loader builds it into an empty user cache
    ($XDG_CACHE_HOME/valtrack, mode 0700), leaving the one extension there,
    and loads it; a second fresh loader loads that file again."""
    include = sysconfig.get_paths()["include"]
    cc = (sysconfig.get_config_var("CC") or "").split()
    if not (cc and shutil.which(cc[0]) and os.path.exists(os.path.join(include, "Python.h"))):
        pytest.skip("no C compiler or no Python.h: two-trader markets step in _stepper")
    assert engine._crash_loop() is not None
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "valtrack"
    for _ in range(2):
        loop = functools.cache(engine._crash_loop.__wrapped__)()
        [built] = cache.iterdir()
        assert loop is not None and loop.__file__ == str(built)
        assert built.name.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700


def test_the_compiled_loops_compile_without_warnings(tmp_path):
    # gcc's -Wall and -Wextra warnings, with the loader's own flags, in a
    # whole build, whose optimiser also reports code left unused or read
    # before it is set
    compiled_loop()
    cc = sysconfig.get_config_var("CC").split()
    done = subprocess.run([*cc, *engine._LOOP_FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-I", sysconfig.get_paths()["include"], engine._LOOP_SOURCE,
                           "-o", str(tmp_path / "crashloop.so"), "-lm"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_a_loop_that_cannot_be_built_leaves_nothing_and_falls_back(tmp_path, monkeypatch):
    # with no compiler on the PATH the loader gives None, and crash_step
    # steps two-trader markets in _stepper
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    loader = functools.cache(engine._crash_loop.__wrapped__)
    assert loader() is None
    assert list((tmp_path / "valtrack").iterdir()) == []
    monkeypatch.setattr(engine, "_crash_loop", loader)
    assert counted_steps(lambda: engine.crash_step(
        two_trader_state(), MarketParams(horizon=3), CommitmentParams(), 0,
        CrashPredicate.relative_drop(0.3))) == (None, 3)


class TestRunSummaries:
    """Each row of summaries.run_summaries is what the scalar run of its state
    and seed reads."""

    @given(case=engine_cases(width=3))
    @settings(max_examples=60, deadline=None)
    def test_each_row_matches_its_scalar_run(self, case):
        assert_engines_agree(*case)

    def test_runs_that_abort_at_different_steps_keep_their_own_rows(self):
        # at eta = 30 momentum sellers fall through the 1e-12 floor at step
        # 1 from p0 = 1 and at step 4 from p0 = 1e30; the first run's Val
        # trader would bid below its valuation of 1 after the abort, and the
        # pure-Val run never trades
        def start(**spec):
            return init_population(PopulationSpec(**spec), m0=-0.001)

        states = [start(val_fracs=(0.5,), mo_frac=0.5), start(),
                  start(val_fracs=(0.0,), mo_frac=1.0, p0=1e30)]
        results = assert_engines_agree(states, MarketParams(eta=30.0, horizon=10),
                                       CommitmentParams(), [0, 1, 2],
                                       CrashPredicate.drop_below(1e-13))
        assert [summary_row(r)[4:] for r in results] == [(True, 1), (False, 10), (True, 4)]

    def test_a_market_without_a_random_trader_stops_at_its_first_order_free_step(self):
        # two Val traders at their valuation and a Mo trader with no asset
        # at negative momentum place no order, so they never place one: the
        # compiled loop stops at its first step and reports the horizon, so
        # 10**12 steps return at once; the _stepper body steps them all
        state = market_state(1.0, [Trader(1.0, 2.0, "val"), Trader(0.5, 1.0, "val"),
                                   Trader(0.5, 0.0, "mo")], momentum=-0.001)
        compiled_loop()
        with deadline():
            s = summaries.run_summaries([state], MarketParams(horizon=10**12),
                                        CommitmentParams(), [0], CrashPredicate.drop_below(0.5))
        assert (s.min_price[0], s.max_price[0], s.aborted[0], s.steps[0]) == (
            1.0, 1.0, False, 10**12)
        params = MarketParams(horizon=20)
        s = summaries.run_summaries([state], params, CommitmentParams(), [0],
                                    CrashPredicate.drop_below(0.5))
        assert (s.min_price[0], s.max_price[0], s.aborted[0], s.steps[0]) == \
            engine._stepped_row(state, engine.check_state(state), params, CommitmentParams(), 0)

    def test_a_random_trader_that_places_no_order_is_not_cut_short(self):
        # a basic Rand trader of 5e-324 cash bids all of it times its draw,
        # which rounds to 0 below a draw of 1/2: at seed 2 it places no
        # order at step 1, while the Val trader sits at its valuation, and
        # then bids 5e-324, which moves the price up by the cap, where the
        # Val trader sells
        state = market_state(1.0, [Trader(5e-324, 0.0, "rand"), Trader(1.0, 4.0, "val")])
        [result] = assert_engines_agree([state], MarketParams(horizon=20),
                                        CommitmentParams(kr_buy=1.0), [2],
                                        CrashPredicate.relative_drop(0.3))
        assert result.records[0].q_p == 0.0 and result.records[0].new_price == 1.0
        assert result.records[1].q_p > 0.0 and max(result.prices) > 1.0

    def test_an_aborted_row_places_no_order_at_its_frozen_price(self):
        # at eta = 705 the Mo seller takes the price from 1e-12 to about
        # 6.6e-319 in one step; the refined random trader's offer divides
        # its reference wealth by the price, which overflows at that price
        refined = init_population(PopulationSpec(val_fracs=(0.0,), mo_frac=0.7,
                                                 rand_frac=0.3, rand_mode="refined",
                                                 critical_frac=0.0, p0=1e-12), m0=-0.001)
        states = [refined, init_population(PopulationSpec(), m0=-0.001)]
        results = assert_engines_agree(states, MarketParams(eta=705.0, horizon=10),
                                       CommitmentParams(kr_buy=0.0), [0, 1],
                                       CrashPredicate.drop_below(1e-13))
        assert summary_row(results[0])[2:] == (True, False, True, 1)
        assert summary_row(results[0])[0] == pytest.approx(6.6434e-319, rel=1e-4)

    def test_a_price_overflow_raises_what_run_raises(self):
        # a lone Mo bid moves the price from 1 up by e^100 a step, to e^700
        # at step 7 and past the largest float at step 8
        state = invalid_state(momentum=0.001, val_asset=0.0)
        crash = CrashPredicate.relative_drop(0.3)
        [result] = assert_engines_agree([state], MarketParams(eta=100.0, horizon=7),
                                        CommitmentParams(), [0], crash)
        assert len(result.prices) == 8
        # beside it, a market whose Val trader also only bids, valuing the
        # asset above e^700, crosses its lower ceiling (a larger asset total)
        # at the same step: the batch raises the first row's error
        lower = market_state(1.0, [Trader(0.8, 0.5, "val", valuation=1e306),
                                   Trader(0.2, 0.8, "mo")], momentum=0.001)
        for message in assert_engines_agree([state, lower], MarketParams(eta=100.0, horizon=10),
                                            CommitmentParams(), [0, 1], crash,
                                            expect="InvalidInputError: price must stay <= "):
            assert message.endswith("got inf")

    def test_a_start_that_runs_share_is_checked_once(self, monkeypatch):
        # replicates of a fixed-valuation sweep point share one start: it is
        # checked once, and each run steps a copy of it from its own seed
        shared, other = TestDrawBlocks.state(), two_trader_state()
        params, crash = MarketParams(horizon=60), CrashPredicate.drop_below(0.9)
        alone = [summaries.run_summaries([state], params, CommitmentParams(), [seed], crash)
                 for state, seed in [(shared, 1), (other, 0), (shared, 2), (shared, 3)]]
        checked, check_state = [], engine.check_state
        monkeypatch.setattr(engine, "check_state",
                            lambda state: checked.append(state) or check_state(state))
        batch = summaries.run_summaries([shared, other, shared, shared], params,
                                        CommitmentParams(), [1, 0, 2, 3], crash)
        assert checked == [shared, other] and checked[0] is shared
        assert [(s.min_price[0], s.max_price[0], s.crashed[0], s.steps[0]) for s in alone] == \
            list(zip(batch.min_price, batch.max_price, batch.crashed, batch.steps))
        assert len(set(batch.min_price[i] for i in (0, 2, 3))) == 3


class TestSeedStreams:
    """The compiled loop seeds each random stream from its 64-bit engine
    seed as numpy does, np.random.PCG64(seed): SeedSequence(seed), then
    PCG64's srandom. The seeds are checked where they enter."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    @staticmethod
    def compiled(seeds):
        """The first two uniforms of each seed's stream as the compiled loop
        seeds it: a lone basic random trader with cash and asset 1 that
        commits all it holds at price 1 bids the first and offers the
        second, so a one-step run records them as q_p and q_s exactly."""
        compiled_loop()
        state = market_state(1.0, [Trader(1.0, 1.0, "rand")])
        params, commitments = MarketParams(horizon=1), CommitmentParams(kr_buy=1.0, kr_sell=1.0)
        crash = CrashPredicate.drop_below(1e-9)
        return [run(state, params, commitments, seed, crash).records[0][2:4] for seed in seeds]

    @staticmethod
    def numpy(seeds):
        return [tuple(np.random.Generator(np.random.PCG64(seed)).random(2).tolist())
                for seed in seeds]

    def test_the_edge_seeds_seed_numpys_streams(self):
        assert self.compiled(self.EDGE_SEEDS) == self.numpy(self.EDGE_SEEDS)

    def test_ten_thousand_engine_seeds_of_a_sweep_seed_numpys_streams(self):
        # a sweep run's engine seed, mix_seed(mix_seed(seed, point, replicate), 1)
        seeds = [mix_seed(mix_seed(7, i // 100, i % 100), 1) for i in range(10**4)]
        assert self.compiled(seeds) == self.numpy(seeds)

    @given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_any_64_bit_seeds_seed_numpys_streams(self, seeds):
        assert self.compiled(seeds) == self.numpy(seeds)

    def test_runs_at_the_edge_seeds_draw_numpys_uniforms(self):
        assert_engines_agree([TestDrawBlocks.state()] * len(self.EDGE_SEEDS),
                             MarketParams(horizon=40), CommitmentParams(), self.EDGE_SEEDS,
                             CrashPredicate.drop_below(1e-9))

    @pytest.mark.parametrize("kind", ["compiled", "python"])
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.0, "7", True])
    def test_a_random_trader_needs_an_int_seed_in_64_bits(self, kind, seed):
        # numpy would seed 2**70 from three words, reject -1 with its own
        # ValueError and take True as 1; every entry point raises
        # InvalidInputError instead
        state, params = TestDrawBlocks.state(), MarketParams(horizon=5)
        crash = CrashPredicate.drop_below(1e-9)
        with crash_loop(kind):
            for call in (lambda: run(state, params, CommitmentParams(), seed, crash),
                         lambda: engine.crash_step(state, params, CommitmentParams(), seed,
                                                   crash),
                         lambda: summaries.run_summaries([two_trader_state(), state], params,
                                                         CommitmentParams(), [0, seed],
                                                         crash)):
                with pytest.raises(InvalidInputError, match=r"seed in \[0, 2\*\*64\)"):
                    call()

    @pytest.mark.parametrize("kind", ["compiled", "python"])
    def test_a_start_without_a_random_trader_never_reads_its_seed(self, kind):
        state, params = two_trader_state(theta=0.3), MarketParams(horizon=50)
        crash = CrashPredicate.relative_drop(0.3)
        with crash_loop(kind):
            prices = run(state, params, CommitmentParams(), 0, crash).prices
            assert run(state, params, CommitmentParams(), -1, crash).prices == prices
            assert engine.crash_step(state, params, CommitmentParams(), 2**70, crash) == \
                engine.crash_step(state, params, CommitmentParams(), 0, crash)
            s = summaries.run_summaries([state], params, CommitmentParams(), [-1], crash)
            assert s.min_price[0] == min(prices)


class TestRunFindsTheFirstCrashAndBoom:
    """run's crash_step and boom_step are the first indices of its prices
    where the predicate and its boom reading fire; a run the price floor
    aborts crashes at its last index unless it crashed before. A run to the
    horizon is checked by assert_engines_agree, one stopped at its crash
    here."""

    @given(case=engine_cases())
    @settings(max_examples=100, deadline=None)
    def test_steps_are_first_indices_of_the_recorded_prices(self, case):
        states, params, commitments, seeds, crash = case
        result = outcome(lambda: run(states[0], params, commitments, seeds[0], crash,
                                     stop_at_crash=True))
        assume(not isinstance(result, str))
        prices = result.prices
        last = len(prices) - 1
        crashed = first_index(crash.crash_at, prices)
        assert result.aborted == (prices[-1] < engine.PRICE_FLOOR)
        assert result.crash_step == (last if result.aborted and crashed is None else crashed)
        assert result.boom_step == first_index(crash.boom_at, prices)
        if result.crash_step is not None:
            assert result.crash_step == last

    def test_a_start_crash_stops_before_the_first_step(self):
        # the first step would overflow the price to inf and raise
        state, params = price_overflow_state(), MarketParams(eta=709.0)
        crash = CrashPredicate.drop_below(20.0)
        assert engine.crash_step(state, params, CommitmentParams(), 0, crash) == 0
        result = run(state, params, CommitmentParams(), 0, crash, stop_at_crash=True)
        assert (result.prices, result.crash_step) == ([10.0], 0)


def invalid_state(price=1.0, momentum=-0.001, mo_cash=0.2, val_cash=0.8, val_asset=3.2,
                  kind="mo", rand_mode="basic"):
    traders = [Trader(val_cash, val_asset, "val"),
               Trader(mo_cash, 0.8, kind, rand_mode=rand_mode)]
    return market_state(price, traders, momentum)


def price_overflow_state():
    """A lone Mo bid at price 10: at eta 709 its capped move takes the price
    to 10 * e^709, which overflows to inf at the first step."""
    return invalid_state(price=10.0, momentum=0.001, val_asset=0.0)


@pytest.mark.parametrize("state, params", [
    (invalid_state(price=math.nan), MarketParams()),
    (invalid_state(price=math.inf), MarketParams()),
    (invalid_state(momentum=math.nan), MarketParams()),
    (invalid_state(momentum=math.inf), MarketParams()),
    (invalid_state(momentum=0.001, mo_cash=-1.0), MarketParams()),
    (price_overflow_state(), MarketParams(eta=709.0)),
    (invalid_state(price=0.0), MarketParams()),
    (invalid_state(price=1e-13), MarketParams()),
    (invalid_state(val_cash=math.nan), MarketParams()),
    (invalid_state(val_asset=-1.0), MarketParams()),
    (invalid_state(kind="momentum"), MarketParams()),
    (invalid_state(kind="rand", rand_mode="fancy"), MarketParams()),
    # a bid of 1e299 cash at the 1e-12 price floor buys more than 1e308
    (invalid_state(price=1e-12, val_cash=1e300), MarketParams()),
], ids=["nan price", "inf price", "nan momentum", "inf momentum",
        "negative bid", "price overflows to inf", "price 0.0", "price below the floor",
        "NaN cash", "negative asset", "unknown kind", "unknown rand mode",
        "order flow overflows"])
def test_crash_step_raises_where_run_raises(state, params):
    assert_engines_agree([state], params, CommitmentParams(), [0],
                         CrashPredicate.relative_drop(0.3), expect="InvalidInputError")


def test_holdings_whose_orders_can_overflow_are_rejected():
    # each trader's bid of 1e308 cash is finite, their sum is not: the
    # total cash overflows, which check_state rejects before any step
    state = market_state(1.0, [Trader(1e308, 0.0, "val", valuation=2.0),
                               Trader(1e308, 0.0, "mo")], momentum=0.001)
    assert_engines_agree([state], MarketParams(), CommitmentParams(kv_buy=1.0, km_buy=1.0), [0],
                         CrashPredicate.relative_drop(0.3), expect="InvalidInputError: total cash")


def test_holdings_above_the_recorded_total_step_finitely_up_to_a_bound():
    # at the ceiling, the largest float for a recorded total of 0.5, asset
    # holdings of 1.5 times that total are worth 3/4 of it: with 1e295
    # cash, the refined Rand trader's reference wealth stays finite, and
    # its zero buy commitment times it bids 0. At twice the total the
    # reference overflows to inf, and 0 * inf would bid NaN.
    def state(asset):
        trader = Trader(1e295, asset, "rand", rand_mode="refined")
        return MarketState(sys.float_info.max, 0.0, [trader], total_cash=1e295, total_asset=0.5)

    params, commitments = MarketParams(horizon=3), CommitmentParams(kr_buy=0.0, kr_sell=0.5)
    [result] = assert_engines_agree([state(0.75)], params, commitments, [0],
                                    CrashPredicate.relative_drop(0.3))
    assert engine.check_state(state(0.75)) == sys.float_info.max
    assert result.prices[-1] < result.prices[0] and all(map(math.isfinite, result.prices))
    assert_engines_agree([state(math.nextafter(0.75, math.inf))], params, commitments, [0],
                         CrashPredicate.relative_drop(0.3),
                         expect="InvalidInputError: asset holdings 0.75")


def test_holdings_at_the_bounds_step_with_finite_flows():
    # every trader bids all its cash at the 1e-12 floor: the purchase volume
    # is about sys.float_info.max / 2, and the one-sided flow moves the price
    # up at the cap. crash_step steps one Val trader in the compiled crash
    # loop and two in _stepper.
    cash = engine.MAX_TOTAL_CASH
    one = market_state(engine.PRICE_FLOOR, [Trader(cash, 0.0, "val", valuation=1.0)])
    two = market_state(engine.PRICE_FLOOR, [Trader(cash / 2, 0.0, "val", valuation=1.0),
                                            Trader(cash / 2, 0.0, "val", valuation=1.0)])
    assert one.cash_sum() == two.cash_sum() == cash
    for result in assert_engines_agree([one, two], MarketParams(horizon=5),
                                       CommitmentParams(kv_buy=1.0), [0, 1],
                                       CrashPredicate.relative_drop(0.3)):
        assert result.records[0].q_p == pytest.approx(sys.float_info.max / 2, rel=1e-12)
        assert all(math.isfinite(r.q_p) for r in result.records)
        assert len(result.prices) == 6 and result.prices[-1] > result.prices[0]
        assert result.crash_step is None


@pytest.mark.parametrize("traders", [
    [Trader(math.nextafter(engine.MAX_TOTAL_CASH, math.inf), 0.0, "val", valuation=2.0)],
    [Trader(0.0, math.nextafter(engine.MAX_TOTAL_ASSET, math.inf), "mo")],
], ids=["cash", "asset"])
def test_a_total_above_its_bound_is_rejected(traders):
    assert_engines_agree([market_state(1.0, traders, momentum=-0.001)], MarketParams(),
                         CommitmentParams(), [0], CrashPredicate.relative_drop(0.3),
                         expect="InvalidInputError: total cash")


def test_a_settlement_demand_overflow_is_rejected():
    # the Mo offer moves the price from the floor to about 6.6e-319, where
    # the Val bid of 10 cash is an infinite asset demand: settling it would
    # sell the offer for nothing
    state = MarketState(1e-12, -0.001, [Trader(100.0, 0.0, "val", valuation=1.0),
                                        Trader(0.0, 2e14, "mo")], 100.0, 2e14)
    assert_engines_agree([state], MarketParams(eta=705, impact="powerlaw", horizon=3),
                         CommitmentParams(), [0], CrashPredicate.relative_drop(0.3),
                         expect="InvalidInputError: demand must stay finite")


def refined_rich_state(price):
    """A refined random trader holding 1e300 asset next to a Mo trader
    holding 1 cash: its reference wealth overflows above price 1e8."""
    return MarketState(price, 0.001, [Trader(1.0, 1e300, "rand", rand_mode="refined"),
                                      Trader(1.0, 0.0, "mo")], 2.0, 1e300)


@pytest.mark.parametrize("price, params, commitments", [
    (1e10, MarketParams(horizon=3), CommitmentParams(kr_buy=0.0)),
    (1e10, MarketParams(horizon=3, impact="powerlaw"), CommitmentParams(kr_sell=0.0)),
    (1e7, MarketParams(eta=5.0, horizon=3), CommitmentParams(kr_sell=0.0)),
], ids=["zero bid commitment", "zero offer commitment, power law", "price rises past it"])
def test_a_price_above_the_ceiling_is_rejected(price, params, commitments):
    # above the ceiling the refined trader's reference wealth is inf, and a
    # zero commitment times it a NaN order: under ratio impact the price
    # would stay put against a one-sided offer, under power-law impact rise
    # at the cap against it. A start above the ceiling is rejected on entry;
    # the one-sided Mo and Rand bids take the last start from 1e7 to 1.5e9
    # in the first step, past the ceiling of about 9e7.
    assert_engines_agree([refined_rich_state(price)], params, commitments, [0],
                         CrashPredicate.relative_drop(0.3),
                         expect="InvalidInputError: price must stay <= ")


@pytest.mark.parametrize("impact", ["ratio", "powerlaw"])
def test_a_state_at_its_price_ceiling_steps_with_finite_orders(impact):
    # at the ceiling the refined trader's asset is worth MAX_ASSET_VALUE;
    # with a zero bid commitment it only offers, so the price falls at the cap
    ceiling = engine.MAX_ASSET_VALUE / 1e300
    state = refined_rich_state(ceiling)
    state.momentum = -0.001
    assert engine.check_state(state) == ceiling
    for result in assert_engines_agree([state, state], MarketParams(horizon=5, impact=impact),
                                       CommitmentParams(kr_buy=0.0), [0, 1],
                                       CrashPredicate.relative_drop(0.3)):
        assert all(math.isfinite(r.q_p) and math.isfinite(r.q_s) for r in result.records)
        assert all(math.isfinite(w) for row in result.wealth for w in row)
        assert result.prices == sorted(result.prices, reverse=True)
        assert result.prices[-1] < result.prices[0]


def test_a_flow_ratio_that_underflows_moves_by_its_log_difference():
    # a Mo bid of the smallest subnormal cash against a Val offer of 4
    # asset is a flow ratio that underflows to 0, whose log raised
    # ValueError: the move is lam * (log q_p - log q_s), about -29.8, under
    # the cap, and it takes the price through the floor
    state = MarketState(1.0, 0.001, [Trader(0.0, 4.0, "val", valuation=0.5),
                                     Trader(5e-324, 0.0, "mo")], 5e-324, 4.0)
    params = MarketParams(eta=100.0, horizon=3)
    [result] = assert_engines_agree([state], params, CommitmentParams(kv_sell=1.0, km_buy=1.0),
                                    [0], CrashPredicate.relative_drop(0.3))
    record = result.records[0]
    assert record.q_p > 0.0 and record.q_p / record.q_s == 0.0 and not record.cap_hit
    assert record.new_price == math.exp(params.lam * (math.log(record.q_p) - math.log(record.q_s)))
    assert result.crash_step == 1 and summary_row(result)[2:] == (True, False, True, 1)


def test_a_flow_ratio_that_underflows_above_the_floor_pins_its_price():
    # the market above at lam = 0.01: the move, about -7.5, leaves the price
    # near 5.7e-4, above the floor, so the oracle pins that price bit for
    # bit through crash_step, which steps the market in the crash loop
    state = MarketState(1.0, 0.001, [Trader(0.0, 4.0, "val", valuation=0.5),
                                     Trader(5e-324, 0.0, "mo")], 5e-324, 4.0)
    params = MarketParams(lam=0.01, eta=100.0, horizon=1)
    [result] = assert_engines_agree([state], params, CommitmentParams(kv_sell=1.0, km_buy=1.0),
                                    [0], CrashPredicate.relative_drop(0.3))
    record = result.records[0]
    assert record.q_p > 0.0 and record.q_p / record.q_s == 0.0 and not result.aborted
    assert record.new_price == math.exp(params.lam * (math.log(record.q_p) - math.log(record.q_s)))
    assert 1e-4 < record.new_price < 1e-3


def test_a_flow_ratio_that_overflows_moves_at_the_cap_without_a_warning():
    # a Val bid of 1e295 cash at the 1e-12 floor against a Mo offer of 1e-300
    # asset: the flow ratio overflows to inf, and so does the settlement
    # factor demand / q_s, where run() takes the 1 of its min
    state = MarketState(1e-12, -0.001, [Trader(1e295, 0.0, "val", valuation=1.0),
                                        Trader(0.0, 1e-300, "mo")], 1e295, 1e-300)
    [result] = assert_engines_agree([state], MarketParams(horizon=2), CommitmentParams(kv_buy=1.0),
                                    [0], CrashPredicate.relative_drop(0.3))
    assert result.prices == [1e-12, 1e-12 * math.exp(0.1), 1e-12 * math.exp(0.1) * math.exp(0.1)]
    assert all(r.cap_hit for r in result.records)


def test_a_move_of_exactly_eta_is_not_a_cap_hit():
    # a Val bid of 0.1 cash at price 1 against no offer is a power-law
    # imbalance of exactly 0.1 = eta at liquidity 1 and zeta 1: the price
    # moves by e^eta, as at the cap, but the move is not above the cap, so
    # cap_hit is unset; at the higher price the same bid buys less
    params = MarketParams(impact="powerlaw", horizon=3)
    [result] = assert_engines_agree([flow_state(1.0, 0.1, 0.0)], params, ALL_IN, [0],
                                    CrashPredicate.relative_drop(0.3))
    assert [(r.q_p, r.new_price, r.cap_hit) for r in result.records[:1]] == [
        (0.1, math.exp(params.eta), False)]
    assert not any(r.cap_hit for r in result.records)


@pytest.mark.parametrize("traders, momentum", [
    ([Trader(-0.0, 1.0, "val", valuation=2.0)], 0.0),
    ([Trader(-0.0, 1.0, "val", valuation=2.0), Trader(-0.0, 1.0, "mo")], 0.001),
], ids=["val", "val mo"])
def test_order_totals_of_negative_zero_bids_are_positive_zero(traders, momentum):
    # check_state accepts a cash of -0.0, whose bids are -0.0; math.fsum
    # sums them to 0.0, so the recorded q_p and executed volume are 0.0,
    # which repr, unlike ==, tells from -0.0
    state = market_state(1.0, traders, momentum)
    params, crash = MarketParams(horizon=3), CrashPredicate.relative_drop(0.3)
    engine.check_state(state)
    assert_engines_agree([state], params, CommitmentParams(), [0], crash)
    recorded = run(state, params, CommitmentParams(), 0, crash).records[0]
    chained = step(state, params, CommitmentParams())[1]
    assert repr((recorded.q_p, recorded.executed)) == repr((chained.q_p, chained.executed)) \
        == "(0.0, 0.0)"


def test_flow_ratios_at_the_overflow_margin_match_run_beside_ordinary_rows():
    # at price 1 one Val trader bids its cash and another offers its asset,
    # so the flow ratio is cash / asset: exactly 2**1000, its next float
    # up, and 2**-30 / 5e-324 = 2**1044, which overflows
    def flow(cash, asset):
        return market_state(1.0, [Trader(cash, 0.0, "val", valuation=2.0),
                                  Trader(0.0, asset, "val", valuation=0.5)])

    inside = flow(1.0, 2.0 ** -1000)
    outside = flow(1.0, math.nextafter(2.0 ** -1000, 0.0))
    overflowing = flow(2.0 ** -30, 5e-324)
    params = MarketParams(horizon=3)
    commitments = CommitmentParams(kv_buy=1.0, kv_sell=1.0)
    for _, record in (step(s, params, commitments) for s in (inside, outside, overflowing)):
        assert record.cap_hit and record.new_price == math.exp(params.eta)
    ordinary = [invalid_state(), init_population(PopulationSpec(rand_mode="refined"), m0=-0.001)]
    for states in ([inside] + ordinary, [outside] + ordinary,
                   ordinary + [overflowing, inside]):
        assert_engines_agree(states, params, commitments, list(range(len(states))),
                             CrashPredicate.relative_drop(0.3))


@pytest.mark.parametrize("liquidity", [1e-160, 1e-310], ids=["power", "quotient"])
def test_a_power_law_move_that_overflows_moves_at_the_cap(liquidity):
    # at liquidity 1e-160 every imbalance of the reference Val/Mo market is
    # above 1e150, whose square overflows a double and raised OverflowError;
    # at 1e-310 the quotient imbalance / liquidity overflows. A power
    # above DBL_MAX is above eta <= ln(DBL_MAX), so each step moves at the
    # cap. crash_step steps one Val trader in the compiled crash loop and
    # two in _stepper.
    one = init_population(PopulationSpec(val_fracs=(0.5,), mo_frac=0.5), m0=0.001)
    two = init_population(PopulationSpec(val_fracs=(0.25, 0.25), mo_frac=0.5), m0=0.001)
    params = MarketParams(impact="powerlaw", zeta=2.0, liquidity=liquidity, horizon=6)
    first, second = assert_engines_agree([one, two], params, CommitmentParams(), [0, 1],
                                         CrashPredicate.relative_drop(0.3))
    for result in (first, second):
        assert result.records[0].cap_hit and result.records[0].new_price == math.exp(params.eta)
        assert result.crash_step is None
    assert first.prices == second.prices and all(r.cap_hit for r in first.records)


def test_eta_is_bounded_by_the_largest_finite_exponent():
    eta = math.log(sys.float_info.max)
    assert MarketParams(eta=eta).eta == eta
    with pytest.raises(ConfigError, match="eta"):
        MarketParams(eta=math.nextafter(eta, math.inf))


def test_summaries_take_any_layout_that_run_takes():
    # two Mo traders and two Rand traders of either mode in one market,
    # and a batch whose Rand traders differ in mode from row to row
    traders = [Trader(0.3, 1.2, "val", valuation=1.2), Trader(0.1, 0.4, "mo"),
               Trader(0.2, 0.8, "mo"), Trader(0.2, 0.8, "rand"),
               Trader(0.2, 0.8, "rand", rand_mode="refined", critical_cash=0.04,
                      critical_asset=0.16)]
    mixed = market_state(1.0, traders, momentum=-0.001)
    basic = init_population(PopulationSpec(val_fracs=(0.7,), rand_frac=0.3), m0=0.001)
    params, crash = MarketParams(horizon=60), CrashPredicate.relative_drop(0.3)
    assert_engines_agree([mixed, basic, mixed], params, CommitmentParams(), [0, 1, 2], crash)
    with pytest.raises(InvalidInputError, match="1 initial states but 2 seeds"):
        summaries.run_summaries([mixed], params, CommitmentParams(), [0, 1], crash)


def test_an_order_total_rounds_half_even_across_partials():
    # the bids 1e16, 1 and 1e-16 sum to 1e16 + 1 + 1e-16, which fsum rounds
    # up to 1e16 + 2; without its half-even correction across partials it
    # rounds down to 1e16, the offer of the Mo trader. The power-law move
    # reads their difference: 2 / 100 up, or no move at all.
    traders = [Trader(cash, 0.0, "val", valuation=2.0) for cash in (1e16, 1.0, 1e-16)]
    state = market_state(1.0, [*traders, Trader(0.0, 1e16, "mo")], momentum=-0.001)
    [result] = assert_engines_agree([state], MarketParams(impact="powerlaw", liquidity=100.0,
                                                          horizon=3),
                                    CommitmentParams(kv_buy=1.0, km_sell=1.0), [0],
                                    CrashPredicate.relative_drop(0.3))
    assert (result.records[0].q_p, result.records[0].q_s) == (1e16 + 2, 1e16)
    assert result.prices[1] == math.exp(0.02)
