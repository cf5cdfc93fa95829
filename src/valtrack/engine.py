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
(below). The body takes a step's orders from one call of
`traders.population_orders`, whose random traders call the draw it is
given: `rng.random` in `step`, and in `run` and `crash_step` the run's
`_draw`, which takes its generator's uniforms DRAW_BLOCK at a time, the
same sequence. It takes the
uncapped log move of the order flow (infinite for one-sided ratio-power
flow, 0 for no flow), caps it at +-eta, moves the price by the capped
value and sets cap_hit from the uncapped one. One-sided order flow thus
moves the price at the cap; zero flow on both sides leaves it unchanged.

Inputs are validated at the boundary. MarketParams and CommitmentParams
check themselves when built, and `check_state` checks a state and its
traders where it enters `run`, `step`, `crash_step` or
`batch.run_summaries`, and bounds the totals so that every order flow and,
up to the state's price ceiling, every asset value stays finite. The
ceiling comes from the state's recorded total asset, which no step
changes, so every entry point gives a run one ceiling. So a step checks
only its new price against the ceiling, and below the floor the demand at
it. Both engines raise the same InvalidInputError.

A run crashes when its crash predicate fires at some step of it, the start
included, or when the price floor aborts it. `run` and `crash_step`
decide that as they step, the start first, and stop at the first crash
when asked to (crash_step always is). `run` asks the predicate itself at
every step. `crash_step` asks it only for `CrashPredicate.stop_price`,
the largest price at which the predicate or the floor fires, once per
run, and then compares each price with that stop price.

A crash_step probe thus stops in one of three ways: at its crash, at the
horizon, or, in the two-trader loop below, at the first step that places
no order, with the answer "no crash", which that step certifies exactly
(see `_val_mo_crash_step`).

Two engines share these rules. The scalar one steps a private copy of
its state in place: `step` returns a new state and leaves its input as it
was, `run` records every step, and `crash_step` keeps no history and
returns only what a threshold bisection reads, run(..., stop_at_crash=True)
.crash_step. A crash_step market of one Val trader and at most one Mo
trader, the layout of the bisection probes of `grid` and `impact` at the
reference setup, steps in `_val_mo_crash_step`, which reads its start
without a copy, keeps the price, momentum and four holdings in locals and
inlines the two order rules: a general trader count cannot have locals,
and they more than halve the cost of a step. `_stepper` stays the only
body of `step`, `run` (the oracle of both loops) and every other
crash_step market, with a Rand trader or more than one Val trader. The other engine is the batched
kernel of `batch`, with `run` as its oracle.
"""

import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from operator import methodcaller
from typing import NamedTuple

from .errors import InvalidInputError
from .params import IMPACT_RATIO, SETTLE_UPDATED, CommitmentParams, MarketParams
from .seeding import generator
from .traders import (KIND_MO, KIND_RAND, KIND_VAL, RAND_MODES, TRADER_KINDS, MarketState,
                      population_orders)

PRICE_FLOOR = 1e-12
MAX_TOTAL_CASH = PRICE_FLOOR * sys.float_info.max / 2.0
MAX_TOTAL_ASSET = sys.float_info.max / 2.0
MAX_ASSET_VALUE = sys.float_info.max / 2.0
# Uniforms a run takes from its generator per call. A block of them is the
# sequence of single draws bit for bit; a fixed size keeps what a run draws
# beyond its last step, and holds in memory, small whatever its horizon.
DRAW_BLOCK = 256


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
    its asset, and a live price at least the floor.

    The ceiling is the price at which the state's recorded total_asset
    (at least 0.5) is worth MAX_ASSET_VALUE, half the largest float. The
    recorded total does not drift, so every state of a run has its start's
    ceiling, whichever entry point checks it. The holdings must sum to at
    most 1.5 times that total, so at or below the ceiling they are worth
    at most 3/4 of the largest float: with the cash, bounded by a 1e-12
    share of it, every asset value, wealth and refined random-trader
    reference stays finite, and no zero commitment times an infinite
    reference makes a NaN order. At twice the total a reference can
    overflow. The margins absorb the rounding drift of the holdings, as
    each factor 2 of the bounds does that of the totals."""
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
    recorded = max(state.total_asset, 0.5)
    if not asset <= 1.5 * recorded:  # a NaN total fails here too
        raise InvalidInputError(f"asset holdings {asset} exceed 1.5 times the recorded "
                                f"total {state.total_asset}")
    ceiling = MAX_ASSET_VALUE / recorded
    if not state.price <= ceiling:
        raise InvalidInputError(f"price must stay <= {ceiling}, got {state.price}")
    return ceiling


def _powerlaw_move(imbalance: float, liquidity: float, zeta: float) -> float:
    """The uncapped power-law move |imbalance / liquidity|^zeta signed by
    the imbalance, infinite where the power overflows; 0.0 ** zeta == 0.0.
    Both scalar loops and, element by element, the batched kernel call it."""
    try:
        return math.copysign(abs(imbalance / liquidity) ** zeta, imbalance)
    except OverflowError:  # above DBL_MAX, so above eta <= ln(DBL_MAX)
        return math.copysign(math.inf, imbalance)


def _stepper(params: MarketParams, commitments: CommitmentParams, ceiling: float):
    """The step of a run with these constants and check_state's price
    ceiling: advance(state, draw, record) steps a valid state in place (a
    checked state that nothing else holds, or the output of a previous
    advance) and returns its record if asked. The orders come from one
    population_orders call, whose random traders call draw().

    Impact: the uncapped log move is lam * log(q_p/q_s) for ratio-power
    flow, or _powerlaw_move(q_p - q_s, liquidity, zeta) for power-law
    flow. Settlement at the updated or the current price: bids stay fixed
    in cash and convert to asset demand at that price, offers stay fixed in
    asset units, and the larger side is scaled down pro-rata to parity, so
    totals are conserved and no holding goes negative.
    Momentum: the smoothed log return mu * log(p_new/p) + (1 - mu) * m.
    """
    eta, lam, mu, zeta, liquidity = (params.eta, params.lam, params.mu, params.zeta,
                                     params.liquidity)
    one_minus_mu = 1.0 - mu
    ratio = params.impact == IMPACT_RATIO
    updated = params.settlement == SETTLE_UPDATED
    orders = population_orders(commitments)
    fsum, log, exp, inf = math.fsum, math.log, math.exp, math.inf

    def advance(state, draw, record):
        p, m, traders = state.price, state.momentum, state.traders
        bids, offers = orders(traders, p, m, draw)
        total_bid = fsum(bids)
        q_p = total_bid / p
        q_s = fsum(offers)
        if not ratio:
            dlog = _powerlaw_move(q_p - q_s, liquidity, zeta)
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
    draw = None if rng is None else rng.random
    return new_state, _stepper(params, commitments, ceiling)(new_state, draw, True)


def _draw(state: MarketState, seed: int):
    """The run's draw(): the next uniform on [0, 1) of its stream,
    seeding.generator(seed), taken DRAW_BLOCK at a time as the run needs
    them, the uniforms of Generator.random() calls bit for bit. Built only
    for a state with a random trader; only then is numpy imported, so a
    deterministic run never loads it."""
    if not any(t.kind == KIND_RAND for t in state.traders):
        return None
    blocks = map(generator(seed).random, repeat(DRAW_BLOCK))
    return chain.from_iterable(map(methodcaller("tolist"), blocks)).__next__


def run(initial: MarketState, params: MarketParams, commitments: CommitmentParams,
        seed: int, crash: "CrashPredicate",
        stop_at_crash: bool = False) -> RunResult:
    """Run params.horizon steps from the initial state, stepping one private
    copy of it in place.

    Identical seed and configuration give a bit-identical result. A run
    aborts if the price falls below the 1e-12 floor. Crash and boom are
    decided as the run steps, as RunResult says. With stop_at_crash the run
    stops at its crash, the start included, which shortens the recorded
    series. Raises InvalidInputError on an initial state check_state rejects.
    """
    ceiling = check_state(initial)
    state, draw = initial.copy(), _draw(initial, seed)
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
        records.append(advance(state, draw, True))
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
               seed: int, crash: "CrashPredicate") -> int | None:
    """run(initial, params, commitments, seed, crash, stop_at_crash=True)
    .crash_step, from the same steps but keeping no history.

    The run stops at its crash: 0 for a start that already satisfies the
    predicate, else the first step where the predicate fires or the price
    floor aborts it, found by one comparison per step with the predicate's
    stop price, computed once from the start. A market of one Val trader
    and at most one Mo trader, such as a bisection probe of the reference
    `grid` and `impact`, steps in _val_mo_crash_step, which reads the
    checked start without copying it and holds the holdings in locals; it
    also stops, with None, at the first step that places no order, from
    which nothing changes again. Every other market steps a copy of the
    start in the _stepper body until its crash or the horizon.
    """
    ceiling = check_state(initial)
    stop = crash.stop_price(initial.price, PRICE_FLOOR)
    if initial.price <= stop:
        return 0
    if sorted(t.kind for t in initial.traders) in ([KIND_VAL], [KIND_MO, KIND_VAL]):
        return _val_mo_crash_step(initial, params, commitments, ceiling, stop)
    state, draw = initial.copy(), _draw(initial, seed)
    advance = _stepper(params, commitments, ceiling)
    for t in range(1, params.horizon + 1):
        advance(state, draw, False)
        if state.price <= stop:
            return t
    return None


def _val_mo_crash_step(state, params, commitments, ceiling, stop):
    """crash_step's loop after the start for a checked state of one Val
    trader and at most one Mo trader, which it reads and leaves as it was,
    stopping at the first price at or below stop: the _stepper body with
    population_orders' Val and Mo rules inlined and the price, momentum and
    four holdings in locals, a missing Mo trader holding 0.0. A sum of two
    orders is their fsum but for the sign of a zero sum, which no later
    value reads.

    It also stops, with None, at the first step whose four orders are all
    zero: total_bid and q_s are 0.0, tested on total_bid rather than on
    q_p, which can underflow to 0 for a positive bid. From such a step on
    nothing changes that an order reads, so no order is ever placed again
    and the run never crashes:
    - no flow moves the price by exp(0.0) == 1.0, so p stays above stop;
    - no order settles, so no holding moves;
    - m becomes mu * log(1.0) + (1 - mu) * m, of m's sign or 0: the Mo
      trader, silent at m with its holdings, stays silent, and so does the
      Val trader, which reads only the unchanged p and holdings;
    - the price stays at or below the ceiling, and a zero bid makes a zero
      demand, so no step raises either."""
    eta, lam, mu, zeta, liquidity = (params.eta, params.lam, params.mu, params.zeta,
                                     params.liquidity)
    one_minus_mu = 1.0 - mu
    ratio = params.impact == IMPACT_RATIO
    updated = params.settlement == SETTLE_UPDATED
    c = commitments
    kv_buy, kv_sell, km_buy, km_sell = c.kv_buy, c.kv_sell, c.km_buy, c.km_sell
    log, exp, inf = math.log, math.exp, math.inf
    cv = av = cm = am = 0.0
    for trader in state.traders:
        if trader.kind == KIND_VAL:
            cv, av, u = trader.cash, trader.asset, trader.valuation
        else:
            cm, am = trader.cash, trader.asset
    p = state.price
    m = state.momentum
    for t in range(1, params.horizon + 1):
        bv = kv_buy * cv if p < u else 0.0
        ov = kv_sell * av if p > u else 0.0
        bm = km_buy * cm if m > 0.0 else 0.0
        om = km_sell * am if m < 0.0 else 0.0
        total_bid = bv + bm
        q_s = ov + om
        if total_bid == 0.0 and q_s == 0.0:
            return None
        q_p = total_bid / p
        if not ratio:
            dlog = _powerlaw_move(q_p - q_s, liquidity, zeta)
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
        if p <= stop:
            return t
    return None
