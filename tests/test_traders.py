import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valtrack import PopulationSpec, init_population
from valtrack.errors import ConfigError
from valtrack.params import CommitmentParams
from valtrack.traders import Trader, population_orders

K = CommitmentParams()  # every commitment 0.1


def trader_orders(trader, price, momentum, commitments, rng):
    """population_orders for one trader, as (bid, offer), drawing from rng."""
    (bid,), (offer,) = population_orders(commitments)(
        [trader], price, momentum, None if rng is None else rng.random)
    return bid, offer


def val(cash, asset, u):
    return Trader(cash, asset, "val", valuation=u)


def refined(cash, asset, critical_cash=0.0, critical_asset=0.0):
    return Trader(cash, asset, "rand", rand_mode="refined",
                  critical_cash=critical_cash, critical_asset=critical_asset)


class TestValOrders:
    def test_sells_above_valuation(self):
        bid, offer = trader_orders(val(5.0, 10.0, 1.0), 2.0, 0.0, K, None)
        assert (bid, offer) == (0.0, 1.0)

    def test_buys_below_valuation(self):
        bid, offer = trader_orders(val(10.0, 5.0, 1.0), 0.5, 0.0, K, None)
        assert (bid, offer) == (1.0, 0.0)

    def test_no_order_at_tie(self):
        assert trader_orders(val(10.0, 10.0, 1.0), 1.0, 0.0, K, None) == (0.0, 0.0)

    @given(p=st.floats(0.01, 100), u=st.floats(0.01, 100),
           cash=st.floats(0, 1e6), asset=st.floats(0, 1e6),
           kb=st.floats(0, 1), ks=st.floats(0, 1), m=st.floats(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_orders_never_exceed_holdings_and_signs(self, p, u, cash, asset, kb, ks, m):
        # momentum plays no part in a valuation trader's rule
        bid, offer = trader_orders(val(cash, asset, u), p, m,
                                   CommitmentParams(kv_buy=kb, kv_sell=ks), None)
        assert 0.0 <= bid <= cash
        assert 0.0 <= offer <= asset
        if bid > 0:
            assert p < u
        if offer > 0:
            assert p > u


class TestMoOrders:
    def test_sells_on_negative_momentum(self):
        assert trader_orders(Trader(5.0, 10.0, "mo"), 1.0, -0.001, K, None) == (0.0, 1.0)

    def test_buys_on_positive_momentum(self):
        assert trader_orders(Trader(10.0, 5.0, "mo"), 1.0, 0.001, K, None) == (1.0, 0.0)

    def test_no_order_at_zero(self):
        assert trader_orders(Trader(10.0, 10.0, "mo"), 1.0, 0.0, K, None) == (0.0, 0.0)

    def test_deterministic(self):
        args = (Trader(3.0, 7.0, "mo"), 2.5, -0.5, CommitmentParams(km_buy=0.2, km_sell=0.3),
                None)
        assert trader_orders(*args) == trader_orders(*args) == (0.0, 0.3 * 7.0)


class TestRandBasic:
    def test_zero_ceilings_give_zero_orders(self):
        rng = np.random.default_rng(0)
        zero = CommitmentParams(kr_buy=0.0, kr_sell=0.0)
        assert trader_orders(Trader(10.0, 10.0, "rand"), 1.0, 0.0, zero, rng) == (0.0, 0.0)

    def test_zero_holdings_give_zero_orders(self):
        rng = np.random.default_rng(0)
        assert trader_orders(Trader(0.0, 0.0, "rand"), 1.0, 0.0, K, rng) == (0.0, 0.0)

    def test_mean_offer_matches_uniform_mean(self):
        rng = np.random.default_rng(123)
        trader = Trader(1.0, 1.0, "rand")
        offers = [trader_orders(trader, 1.0, 0.0, K, rng)[1] for _ in range(100_000)]
        assert np.mean(offers) == pytest.approx(0.05, abs=1e-3)

    def test_both_sides_can_be_positive(self):
        rng = np.random.default_rng(7)
        half = CommitmentParams(kr_buy=0.5, kr_sell=0.5)
        bid, offer = trader_orders(Trader(10.0, 10.0, "rand"), 1.0, 0.0, half, rng)
        assert bid > 0 and offer > 0


class TestRandRefined:
    def test_zero_cash_means_zero_reference(self):
        rng = np.random.default_rng(0)
        bid, offer = trader_orders(refined(0.0, 10.0, 1.0, 1.0), 1.0, 0.0, K, rng)
        assert bid == 0.0
        # reference = min(cash, asset value) = 0 when cash is below its floor
        assert offer == 0.0

    def test_zero_floors_equal_wealth_proportional(self):
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        cash, asset, p = 3.0, 8.0, 1.25
        bid, offer = trader_orders(refined(cash, asset), p, 0.0, K, rng_a)
        wealth = cash + asset * p
        bid_ref = min(rng_b.uniform(0, 0.1) * wealth, cash)
        offer_ref = min(rng_b.uniform(0, 0.1) * wealth / p, asset)
        assert bid == bid_ref
        assert offer == offer_ref

    def test_floor_constrains_to_lower_holding(self):
        rng = np.random.default_rng(5)
        # cash 1 below its floor 2: reference collapses to min(1, 40) = 1
        trader = refined(1.0, 40.0, 2.0, 0.0)
        bids = []
        for _ in range(1000):
            bid, offer = trader_orders(trader, 1.0, 0.0, K, rng)
            bids.append(bid)
            assert offer <= 0.1 * 1.0  # offers now reference cash, not wealth
        assert max(bids) <= 0.1 * 1.0

    @given(cash=st.floats(0, 100), asset=st.floats(0, 100),
           p=st.floats(0.01, 10))
    @settings(max_examples=200, deadline=None)
    def test_orders_respect_holdings(self, cash, asset, p):
        rng = np.random.default_rng(11)
        bid, offer = trader_orders(refined(cash, asset, 0.2 * cash, 0.2 * asset * p),
                                   p, 0.0, K, rng)
        assert 0.0 <= bid <= cash
        assert 0.0 <= offer <= asset


def uniform_basic(cash, asset, kr_buy, kr_sell, rng):
    """The basic random rule of trader_orders as written with Generator.uniform."""
    return rng.uniform(0.0, kr_buy) * cash, rng.uniform(0.0, kr_sell) * asset


def uniform_refined(cash, asset, p, critical_cash, critical_asset, kr_buy, kr_sell, rng):
    """The refined random rule of trader_orders as written with Generator.uniform."""
    asset_value = asset * p
    reference = cash + asset_value
    if cash < critical_cash or asset_value < critical_asset:
        reference = min(cash, asset_value)
    return (min(rng.uniform(0.0, kr_buy) * reference, cash),
            min(rng.uniform(0.0, kr_sell) * reference / p, asset))


class TestRandDraws:
    @given(seed=st.integers(0, 2**64 - 1), cash=st.floats(0, 1e6), asset=st.floats(0, 1e6),
           p=st.floats(1e-6, 1e6), cash_floor=st.floats(0, 2), asset_floor=st.floats(0, 2),
           kb=st.floats(0, 1), ks=st.floats(0, 1), calls=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_match_generator_uniform_bit_for_bit(self, seed, cash, asset, p, cash_floor,
                                                 asset_floor, kb, ks, calls):
        rng = np.random.Generator(np.random.PCG64(seed))
        population_rng = np.random.Generator(np.random.PCG64(seed))
        oracle = np.random.Generator(np.random.PCG64(seed))
        commitments = CommitmentParams(kr_buy=kb, kr_sell=ks)
        # floors up to twice the holding reach both reference branches
        floors = (cash_floor * cash, asset_floor * asset * p)
        basic, refined_trader = Trader(cash, asset, "rand"), refined(cash, asset, *floors)
        orders = population_orders(commitments)
        for _ in range(calls):
            got = (*trader_orders(basic, p, 0.0, commitments, rng),
                   *trader_orders(refined_trader, p, 0.0, commitments, rng))
            # a population draws trader by trader, each bid before its offer
            (bid, refined_bid), (offer, refined_offer) = orders(
                [basic, refined_trader], p, 0.0, population_rng.random)
            want = (*uniform_basic(cash, asset, kb, ks, oracle),
                    *uniform_refined(cash, asset, p, *floors, kb, ks, oracle))
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert [x.hex() for x in (bid, offer, refined_bid, refined_offer)] == [
                x.hex() for x in want]
        assert (rng.bit_generator.state == population_rng.bit_generator.state
                == oracle.bit_generator.state)


class TestSampleGamma:
    """Gamma-distributed valuations, as init_population draws them."""

    def test_moments_of_gamma_8_8(self):
        n = 200_000
        spec = PopulationSpec(val_fracs=(1.0 / n,) * n, valuation="gamma")
        state = init_population(spec, rng=np.random.default_rng(2024))
        draws = np.array([t.valuation for t in state.traders])
        assert draws.mean() == pytest.approx(1.0, abs=2e-3)
        assert draws.var(ddof=1) == pytest.approx(0.125, abs=5e-3)

    def test_exponential_special_case_tail(self):
        rng = np.random.default_rng(17)
        draws = rng.gamma(1.0, 1.0, size=1_000_000)
        assert (draws > 1.0).mean() == pytest.approx(math.exp(-1), abs=5e-3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            PopulationSpec(valuation="gamma", gamma_shape=0.0)
        with pytest.raises(ConfigError):
            PopulationSpec(valuation="gamma", gamma_rate=-1.0)


class TestInitPopulation:
    def test_single_val_gets_rho_assets(self):
        state = init_population(PopulationSpec())
        assert state.traders[0].cash == pytest.approx(1.0)
        assert state.traders[0].asset == pytest.approx(4.0)

    def test_wealth_split_matches_fractions(self):
        spec = PopulationSpec(val_fracs=(0.784,), mo_frac=0.216)
        state = init_population(spec)
        mo = state.traders[1]
        assert mo.cash == pytest.approx(0.216)
        assert mo.asset == pytest.approx(0.216 * 4.0)

    def test_ten_vals_at_five_percent(self):
        spec = PopulationSpec(val_fracs=(0.05,) * 10, rand_frac=0.5)
        state = init_population(spec, rng=np.random.default_rng(0))
        vals = [t for t in state.traders if t.kind == "val"]
        assert len(vals) == 10
        for v in vals:
            assert v.cash == pytest.approx(0.05)
            assert v.asset == pytest.approx(0.05 * 4.0)

    def test_totals_are_exact_sums(self):
        spec = PopulationSpec(val_fracs=(0.3, 0.3), mo_frac=0.25, rand_frac=0.15)
        state = init_population(spec)
        assert state.cash_sum() == state.total_cash
        assert state.asset_sum() == state.total_asset

    def test_gamma_valuations_are_heterogeneous(self):
        spec = PopulationSpec(val_fracs=(0.1,) * 10, valuation="gamma")
        state = init_population(spec, rng=np.random.default_rng(42))
        valuations = {t.valuation for t in state.traders}
        assert len(valuations) == 10
        assert all(u > 0 for u in valuations)

    def test_fraction_sum_is_validated(self):
        with pytest.raises(ConfigError):
            PopulationSpec(val_fracs=(0.5,), mo_frac=0.6)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(PopulationSpec)
                                      if not isinstance(f.default, str)])
    def test_a_non_finite_field_is_rejected(self, name, value):
        with pytest.raises(ConfigError):
            PopulationSpec(**{name: (value,) if name == "val_fracs" else value})

    def test_refined_rand_floors_from_initial_holdings(self):
        spec = PopulationSpec(val_fracs=(0.5,), rand_frac=0.5,
                              rand_mode="refined", critical_frac=0.2)
        state = init_population(spec)
        rand = state.traders[-1]
        assert rand.critical_cash == pytest.approx(0.2 * 0.5)
        assert rand.critical_asset == pytest.approx(0.2 * 0.5 * 4.0)
