"""Discrete-time market mechanism.

One step: collect orders at the prevailing price, move the price by the
configured impact function (capped at e^[+-eta]), settle the orders at the
updated or the current price, update momentum.

Unit conventions: bids are cash amounts, offers are asset quantities. The
purchase volume q_p used by the impact functions is total bid cash divided
by the prevailing price, so q_p and q_s are both asset quantities and the
ratio in the price update is dimensionless. Natural logarithms throughout.

The scalar step is written in the body `_stepper` builds for a run with
the run's constants bound, and once more in crash_step's two-trader loop
(below). It takes the uncapped log move of the order flow (infinite for
one-sided ratio-power flow, 0 for no flow), caps it at +-eta, moves the
price by the capped value and sets cap_hit from the uncapped one.
One-sided order flow thus moves the price at the cap; zero flow on both
sides leaves it unchanged.

Inputs are validated at the boundary. MarketParams and CommitmentParams
check themselves when built, and `check_state` checks a state and its
traders where it enters `run`, `step`, `crash_step` or
`batch.run_summaries`, and bounds the totals so that every order flow and,
up to the state's price ceiling, every asset value stays finite. So a step
checks only its new price against the ceiling, and below the floor the
demand at it. Both engines raise the same InvalidInputError.

A run crashes when its crash predicate fires at some step of it, the start
included, or when the price floor aborts it. `run` and `crash_step`
decide that as they step, the start first, and stop at the first crash
when asked to (crash_step always is).

Two engines share these rules. The scalar one steps a private copy of
its state in place: `step` returns a new state and leaves its input as it
was, `run` records every step, and `crash_step` keeps no history and
returns only what a threshold bisection reads, run(..., stop_at_crash=True)
.crash_step. A crash_step market of one Val trader and at most one Mo
trader, the layout of the bisection probes of `grid` and `impact` at the
reference setup, steps in `_val_mo_crash_step`, which keeps the price,
momentum and four holdings in locals and inlines the two order rules: a
general trader count cannot have locals, and they more than halve the
cost of a step. `_stepper` stays the only body of `step`, `run` (the
oracle of both loops) and every other crash_step market, with a Rand
trader or more than one Val trader. The other engine is the batched
kernel of `batch`, with `run` as its oracle.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from . import metrics
from .errors import InvalidInputError
from .params import IMPACT_RATIO, SETTLE_UPDATED, CommitmentParams, MarketParams
from .traders import (KIND_MO, KIND_RAND, KIND_VAL, RAND_MODES, TRADER_KINDS, MarketState,
                      trader_orders)

PRICE_FLOOR = 1e-12
MAX_TOTAL_CASH = PRICE_FLOOR * sys.float_info.max / 2.0
MAX_TOTAL_ASSET = sys.float_info.max / 2.0
MAX_ASSET_VALUE = sys.float_info.max / 2.0


class StepRecord(NamedTuple):
    """Audit record of one step, used for tests and CSV output."""

    old_price: float
    new_price: float
    q_p: float
    q_s: float
    executed: float
    momentum_before: float
    momentum_after: float
    cap_hit: bool


@dataclass(slots=True)
class RunResult:
    """Time series of one run.

    prices/momenta have length steps+1 (initial point included); wealth[t]
    holds each trader's marked-to-market wealth at step t. crash_step and
    boom_step are the first indices into prices where the crash predicate
    and its boom reading fire, or None, found as the run steps. aborted
    marks runs stopped by the price floor; one that had not crashed before
    crashes at its last index.
    """

    prices: list
    momenta: list
    wealth: list
    records: list
    final_state: MarketState
    crash_step: int | None
    boom_step: int | None
    aborted: bool


def check_state(state: MarketState) -> float:
    """Return the state's price ceiling, or raise InvalidInputError unless
    the state can be stepped: a price at or above the 1e-12 floor (a run
    below it has aborted) and at or below the ceiling, a finite momentum,
    holdings >= 0, known trader kinds and random-trader modes, and totals
    that keep every order flow finite, cash <= MAX_TOTAL_CASH and asset <=
    MAX_TOTAL_ASSET: a bid is at most its trader's cash, an offer at most
    its asset, and a live price at least the floor. At or below the
    ceiling, the price at which the total asset is worth MAX_ASSET_VALUE
    (at most the largest float), every asset value, wealth and refined
    random-trader reference stays finite, so no zero commitment times an
    infinite reference makes a NaN order. Each factor 2 absorbs the
    rounding drift of the totals; a run keeps its start's ceiling."""
    if not (state.price >= PRICE_FLOOR and math.isfinite(state.momentum)):
        raise InvalidInputError(f"need a price >= {PRICE_FLOOR} and a finite momentum, "
                                f"got {state.price}, {state.momentum}")
    cash = asset = 0.0
    for t in state.traders:
        if not (t.cash >= 0.0 and t.asset >= 0.0):  # an inf holding fails the totals
            raise InvalidInputError(f"holdings must be >= 0, got {t.cash}, {t.asset}")
        if t.kind not in TRADER_KINDS:
            raise InvalidInputError(f"unknown trader kind {t.kind!r}")
        if t.kind == KIND_RAND and t.rand_mode not in RAND_MODES:
            raise InvalidInputError(f"unknown rand mode {t.rand_mode!r}")
        cash += t.cash
        asset += t.asset
    if not (cash <= MAX_TOTAL_CASH and asset <= MAX_TOTAL_ASSET):
        raise InvalidInputError(f"total cash {cash} or asset {asset} is above its bound")
    ceiling = MAX_ASSET_VALUE / max(asset, 0.5)
    if not state.price <= ceiling:
        raise InvalidInputError(f"price must stay <= {ceiling}, got {state.price}")
    return ceiling


def _stepper(params: MarketParams, commitments: CommitmentParams, ceiling: float):
    """The step of a run with these constants and check_state's price
    ceiling: advance(state, rng, record) steps a valid state in place (a
    checked state that nothing else holds, or the output of a previous
    advance) and returns its record if asked.

    Impact: the uncapped log move is lam * log(q_p/q_s) for ratio-power
    flow, or |(q_p - q_s)/liquidity|^zeta signed by the imbalance for
    power-law flow, infinite where that power overflows. Settlement at the
    updated or the current price: bids stay fixed in cash and convert to
    asset demand at that price, offers stay fixed in asset units, and the
    larger side is scaled down pro-rata to parity, so totals are conserved
    and no holding goes negative.
    Momentum: the smoothed log return mu * log(p_new/p) + (1 - mu) * m.
    """
    eta, lam, mu, zeta, liquidity = (params.eta, params.lam, params.mu, params.zeta,
                                     params.liquidity)
    one_minus_mu = 1.0 - mu
    ratio = params.impact == IMPACT_RATIO
    updated = params.settlement == SETTLE_UPDATED
    orders = trader_orders
    fsum, log, exp, copysign, inf = math.fsum, math.log, math.exp, math.copysign, math.inf

    def advance(state, rng, record):
        p, m, traders = state.price, state.momentum, state.traders
        bids, offers = [], []
        for trader in traders:
            bid, offer = orders(trader, p, m, commitments, rng)
            bids.append(bid)
            offers.append(offer)
        total_bid = fsum(bids)
        q_p = total_bid / p
        q_s = fsum(offers)
        if not ratio:
            # a zero imbalance moves nothing: 0.0 ** zeta == 0.0
            imbalance = q_p - q_s
            try:
                dlog = copysign(abs(imbalance / liquidity) ** zeta, imbalance)
            except OverflowError:  # above DBL_MAX, so above eta <= ln(DBL_MAX)
                dlog = copysign(inf, imbalance)
        elif q_p > 0.0 and q_s > 0.0:
            try:
                dlog = lam * log(q_p / q_s)
            except ValueError:  # the ratio underflows to 0
                dlog = lam * (log(q_p) - log(q_s))
        else:  # one-sided flow moves at the cap, no flow not at all
            dlog = inf if q_p > q_s else -inf if q_p < q_s else 0.0
        move = dlog if dlog < eta else eta
        p_new = p * exp(move if move > -eta else -eta)
        if not p_new <= ceiling:
            raise InvalidInputError(f"price must stay <= {ceiling}, got {p_new}")
        p_settle = p_new if updated else p
        demand = total_bid / p_settle
        if demand == inf:  # only a settlement price below the floor gets here
            raise InvalidInputError(f"demand must stay finite, got inf at price {p_new}")
        if demand > 0.0 and q_s > 0.0:
            f_buy = q_s / demand
            f_buy = f_buy if f_buy < 1.0 else 1.0
            f_sell = demand / q_s
            f_sell = f_sell if f_sell < 1.0 else 1.0
            for trader, bid, offer in zip(traders, bids, offers):
                if bid > 0.0:
                    paid = bid * f_buy
                    trader.cash -= paid
                    trader.asset += paid / p_settle
                if offer > 0.0:
                    sold = offer * f_sell
                    trader.asset -= sold
                    trader.cash += sold * p_settle
        state.price = p_new
        state.momentum = mu * log(p_new / p) + one_minus_mu * m
        if record:
            return StepRecord(p, p_new, q_p, q_s, q_s if q_s < demand else demand, m,
                              state.momentum, abs(dlog) > eta)

    return advance


def step(state: MarketState, params: MarketParams, commitments: CommitmentParams,
         rng: "np.random.Generator | None" = None) -> tuple[MarketState, StepRecord]:
    """Advance the market by one step; the price updates even when no trade
    executes. The input state is left as it was. Raises InvalidInputError
    on a state check_state rejects or with a random trader but no rng."""
    ceiling = check_state(state)
    if rng is None and any(t.kind == KIND_RAND for t in state.traders):
        raise InvalidInputError("random trader present but no rng supplied")
    new_state = state.copy()
    return new_state, _stepper(params, commitments, ceiling)(new_state, rng, True)


def _start(initial: MarketState, seed: int):
    """(a private copy of a checked initial state, the run's PCG64
    generator, its price ceiling), the generator built only for a state
    with a random trader. Only then is numpy imported, so a deterministic
    run never loads it."""
    ceiling = check_state(initial)
    if not any(t.kind == KIND_RAND for t in initial.traders):
        return initial.copy(), None, ceiling
    import numpy as np
    return initial.copy(), np.random.Generator(np.random.PCG64(seed)), ceiling


def run(initial: MarketState, params: MarketParams, commitments: CommitmentParams,
        seed: int, crash: "metrics.CrashPredicate",
        stop_at_crash: bool = False) -> RunResult:
    """Run params.horizon steps from the initial state, stepping one private
    copy of it in place.

    Identical seed and configuration give a bit-identical result. A run
    aborts if the price falls below the 1e-12 floor. Crash and boom are
    decided as the run steps, as RunResult says. With stop_at_crash the run
    stops at its crash, the start included, which shortens the recorded
    series. Raises InvalidInputError on an initial state check_state rejects.
    """
    state, rng, ceiling = _start(initial, seed)
    crash_at, boom_at = crash.crash_at, crash.boom_at
    p0 = state.price
    prices = [p0]
    momenta = [state.momentum]
    wealth = [[t.cash + t.asset * p0 for t in state.traders]]
    records = []
    crashed = 0 if crash_at(p0, p0) else None
    boomed = 0 if boom_at(p0, p0) else None
    aborted = False
    advance = _stepper(params, commitments, ceiling)
    for i in range(1, params.horizon + 1):
        if aborted or stop_at_crash and crashed is not None:
            break
        records.append(advance(state, rng, True))
        p = state.price
        prices.append(p)
        momenta.append(state.momentum)
        wealth.append([t.cash + t.asset * p for t in state.traders])
        if boomed is None and boom_at(p0, p):
            boomed = i
        aborted = p < PRICE_FLOOR
        if crashed is None and (aborted or crash_at(p0, p)):
            crashed = i
    return RunResult(prices, momenta, wealth, records, state, crashed, boomed, aborted)


def crash_step(initial: MarketState, params: MarketParams, commitments: CommitmentParams,
               seed: int, crash: "metrics.CrashPredicate") -> int | None:
    """run(initial, params, commitments, seed, crash, stop_at_crash=True)
    .crash_step, from the same steps but keeping no history.

    The run stops at its crash: 0 for a start that already satisfies the
    predicate, else the first step where the predicate fires or the price
    floor aborts it. A market of one Val trader and at most one Mo trader,
    such as a bisection probe of the reference `grid` and `impact`, steps
    in _val_mo_crash_step, which holds the holdings in locals; every other
    market steps in the _stepper body.
    """
    state, rng, ceiling = _start(initial, seed)
    crash_at = crash.crash_at
    p0 = state.price
    if crash_at(p0, p0):
        return 0
    if sorted(t.kind for t in state.traders) in ([KIND_VAL], [KIND_MO, KIND_VAL]):
        return _val_mo_crash_step(state, params, commitments, ceiling, crash_at)
    advance = _stepper(params, commitments, ceiling)
    for t in range(1, params.horizon + 1):
        advance(state, rng, False)
        p = state.price
        if p < PRICE_FLOOR or crash_at(p0, p):
            return t
    return None


def _val_mo_crash_step(state, params, commitments, ceiling, crash_at):
    """crash_step's loop after the start for a checked state of one Val
    trader and at most one Mo trader: the _stepper body with trader_orders'
    Val and Mo rules inlined and the price, momentum and four holdings in
    locals, a missing Mo trader holding 0.0. A sum of two orders is their
    fsum but for the sign of a zero sum, which no later value reads."""
    eta, lam, mu, zeta, liquidity = (params.eta, params.lam, params.mu, params.zeta,
                                     params.liquidity)
    one_minus_mu = 1.0 - mu
    ratio = params.impact == IMPACT_RATIO
    updated = params.settlement == SETTLE_UPDATED
    c = commitments
    kv_buy, kv_sell, km_buy, km_sell = c.kv_buy, c.kv_sell, c.km_buy, c.km_sell
    log, exp, copysign, inf, floor = math.log, math.exp, math.copysign, math.inf, PRICE_FLOOR
    cv = av = cm = am = 0.0
    for trader in state.traders:
        if trader.kind == KIND_VAL:
            cv, av, u = trader.cash, trader.asset, trader.valuation
        else:
            cm, am = trader.cash, trader.asset
    p0 = p = state.price
    m = state.momentum
    for t in range(1, params.horizon + 1):
        bv = kv_buy * cv if p < u else 0.0
        ov = kv_sell * av if p > u else 0.0
        bm = km_buy * cm if m > 0.0 else 0.0
        om = km_sell * am if m < 0.0 else 0.0
        total_bid = bv + bm
        q_p = total_bid / p
        q_s = ov + om
        if not ratio:
            imbalance = q_p - q_s
            try:
                dlog = copysign(abs(imbalance / liquidity) ** zeta, imbalance)
            except OverflowError:
                dlog = copysign(inf, imbalance)
        elif q_p > 0.0 and q_s > 0.0:
            try:
                dlog = lam * log(q_p / q_s)
            except ValueError:  # the ratio underflows to 0
                dlog = lam * (log(q_p) - log(q_s))
        else:
            dlog = inf if q_p > q_s else -inf if q_p < q_s else 0.0
        move = dlog if dlog < eta else eta
        p_new = p * exp(move if move > -eta else -eta)
        if not p_new <= ceiling:
            raise InvalidInputError(f"price must stay <= {ceiling}, got {p_new}")
        p_settle = p_new if updated else p
        demand = total_bid / p_settle
        if demand == inf:  # only a settlement price below the floor gets here
            raise InvalidInputError(f"demand must stay finite, got inf at price {p_new}")
        if demand > 0.0 and q_s > 0.0:
            f_buy = q_s / demand
            f_buy = f_buy if f_buy < 1.0 else 1.0
            f_sell = demand / q_s
            f_sell = f_sell if f_sell < 1.0 else 1.0
            if bv > 0.0:
                paid = bv * f_buy
                cv -= paid
                av += paid / p_settle
            if ov > 0.0:
                sold = ov * f_sell
                av -= sold
                cv += sold * p_settle
            if bm > 0.0:
                paid = bm * f_buy
                cm -= paid
                am += paid / p_settle
            if om > 0.0:
                sold = om * f_sell
                am -= sold
                cm += sold * p_settle
        m = mu * log(p_new / p) + one_minus_mu * m
        p = p_new
        if p < floor or crash_at(p0, p):
            return t
    return None
