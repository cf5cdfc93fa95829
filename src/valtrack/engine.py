"""Discrete-time market mechanism.

One step: collect orders at the prevailing price, move the price by the
configured impact function (capped at e^[+-eta]), settle the orders at the
updated or the current price, update momentum, advance time.

Unit conventions: bids are cash amounts, offers are asset quantities. The
purchase volume q_p used by the impact functions is total bid cash divided
by the prevailing price, so q_p and q_s are both asset quantities and the
ratio in the price update is dimensionless. Natural logarithms throughout.

The scalar step is written once, in the body `_stepper` builds for a run
with the run's constants bound. It takes the uncapped log move of the
order flow (infinite for one-sided ratio-power flow, 0 for no flow), caps
it at +-eta, moves the price by the capped value and sets cap_hit from the
uncapped one. One-sided order flow thus moves the price at the cap; zero
flow on both sides leaves it unchanged.

Inputs are validated at the boundary. MarketParams and CommitmentParams
check themselves when built, and `check_state` checks a state and its
traders where it enters `run`, `step`, `crash_step` or `run_summaries`.
Inside the loop a step checks only what a valid state does not guarantee:
a finite order flow >= 0 and a finite new price > 0. Both engines raise
InvalidInputError on the same inputs.

A run crashes when its crash predicate fires at some step of it, the start
included, or when the price floor aborts it. `run` and `crash_step`
decide that as they step, the start first, and stop at the first crash
when asked to (crash_step always is).

Two engines share these rules. The scalar one steps a private copy of
its state in place, one step body for all its entry points: `step`
returns a new state and leaves its input as it was, `run` records every
step, and `crash_step` keeps no history and returns only what a threshold
bisection reads, run(..., stop_at_crash=True).crash_step. `run_summaries`
steps a batch of independent runs in lockstep as numpy arrays and keeps
only what a sweep reads of each run; a run that falls below the price
floor keeps its row and places no orders. The batched kernel reproduces
`run` bit for bit, and `run` is its test oracle.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import metrics
from .errors import InvalidInputError
from .params import IMPACT_RATIO, SETTLE_UPDATED, CommitmentParams, MarketParams
from .traders import (KIND_RAND, RAND_MODES, TRADER_KINDS, MarketState, batch_layout,
                      batch_orders, trader_orders)

PRICE_FLOOR = 1e-12


class StepRecord(NamedTuple):
    """Audit record of one step, used for tests and CSV output."""

    time: int
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


def check_state(state: MarketState) -> None:
    """Raise InvalidInputError unless the state can be stepped: a finite
    price at or above the 1e-12 price floor (a run below it has aborted),
    a finite momentum, finite holdings >= 0, known trader kinds and known
    random-trader modes."""
    if not (PRICE_FLOOR <= state.price < math.inf and math.isfinite(state.momentum)):
        raise InvalidInputError(f"need a finite price >= {PRICE_FLOOR} and a finite momentum, "
                                f"got {state.price}, {state.momentum}")
    for t in state.traders:
        if not (0.0 <= t.cash < math.inf and 0.0 <= t.asset < math.inf):
            raise InvalidInputError(f"holdings must be finite and >= 0, got {t.cash}, {t.asset}")
        if t.kind not in TRADER_KINDS:
            raise InvalidInputError(f"unknown trader kind {t.kind!r}")
        if t.kind == KIND_RAND and t.rand_mode not in RAND_MODES:
            raise InvalidInputError(f"unknown rand mode {t.rand_mode!r}")


def _stepper(params: MarketParams, commitments: CommitmentParams):
    """The step of a run with these constants: advance(state, rng, record)
    steps a valid state in place (a checked state that nothing else holds,
    or the output of a previous advance) and returns its record if asked.

    Impact: the uncapped log move is lam * log(q_p/q_s) for ratio-power
    flow, or |(q_p - q_s)/liquidity|^zeta signed by the imbalance for
    power-law flow. Settlement at the updated or the current price: bids
    stay fixed in cash and convert to asset demand at that price, offers
    stay fixed in asset units, and the larger side is scaled down pro-rata
    to parity, so totals are conserved and no holding goes negative.
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
        if not (0.0 <= q_p < inf and 0.0 <= q_s < inf):
            raise InvalidInputError(f"order flow must be finite and >= 0, got {q_p}, {q_s}")
        if not ratio:
            # a zero imbalance moves nothing: 0.0 ** zeta == 0.0
            imbalance = q_p - q_s
            dlog = copysign(abs(imbalance / liquidity) ** zeta, imbalance)
        elif q_p > 0.0 and q_s > 0.0:
            dlog = lam * log(q_p / q_s)
        else:  # one-sided flow moves at the cap, no flow not at all
            dlog = inf if q_p > q_s else -inf if q_p < q_s else 0.0
        move = dlog if dlog < eta else eta
        p_new = p * exp(move if move > -eta else -eta)
        if not 0.0 < p_new < inf:
            raise InvalidInputError(f"price must stay finite and > 0, got {p_new}")
        p_settle = p_new if updated else p
        demand = total_bid / p_settle
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
        state.time += 1
        if record:
            return StepRecord(state.time, p, p_new, q_p, q_s,
                              q_s if q_s < demand else demand, m, state.momentum,
                              abs(dlog) > eta)

    return advance


def step(state: MarketState, params: MarketParams, commitments: CommitmentParams,
         rng: np.random.Generator | None = None) -> tuple[MarketState, StepRecord]:
    """Advance the market by one step; the price updates even when no trade
    executes. The input state is left as it was. Raises InvalidInputError
    on a state check_state rejects or with a random trader but no rng."""
    check_state(state)
    if rng is None and any(t.kind == KIND_RAND for t in state.traders):
        raise InvalidInputError("random trader present but no rng supplied")
    new_state = state.copy()
    return new_state, _stepper(params, commitments)(new_state, rng, True)


def _start(initial: MarketState, seed: int):
    """(a private copy of a checked initial state, the run's PCG64
    generator), the generator built only for a state with a random trader."""
    check_state(initial)
    rand = any(t.kind == KIND_RAND for t in initial.traders)
    return initial.copy(), np.random.Generator(np.random.PCG64(seed)) if rand else None


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
    state, rng = _start(initial, seed)
    crash_at, boom_at = crash.crash_at, crash.boom_at
    p0 = state.price
    prices = [p0]
    momenta = [state.momentum]
    wealth = [[t.cash + t.asset * p0 for t in state.traders]]
    records = []
    crashed = 0 if crash_at(p0, p0) else None
    boomed = 0 if boom_at(p0, p0) else None
    aborted = False
    advance = _stepper(params, commitments)
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
    floor aborts it.
    """
    state, rng = _start(initial, seed)
    crash_at = crash.crash_at
    p0 = state.price
    if crash_at(p0, p0):
        return 0
    advance = _stepper(params, commitments)
    for t in range(1, params.horizon + 1):
        advance(state, rng, False)
        p = state.price
        if p < PRICE_FLOOR or crash_at(p0, p):
            return t
    return None


# --- replicate-batched summary kernel ------------------------------------------
#
# run_summaries matches run bit for bit because it keeps the scalar path's
# arithmetic, not just its formulas:
#   - orders come from traders.batch_orders, the scalar rules as arrays;
#   - every row sum equals math.fsum of the row (_exact_row_sums);
#   - exp, log and ** are the libm calls the scalar path makes, applied one
#     element at a time (_libm); numpy's vectorised exp and log round
#     differently from libm on a few percent of inputs;
#   - each run draws from its own PCG64 stream the uniforms its scalar run
#     would draw, _RNG_BLOCK_STEPS steps at a time: one random_raw call per
#     stream per block, where drawing the whole horizon at once would hold
#     about 4 KiB more per run;
#   - each expression keeps the scalar left-to-right order, and min/max
#     become comparisons and np.where, which pick the same operand;
#   - crash and boom come from the lowest and highest price of the run:
#     crash_at and boom_at compare the price, or price / p0 which rounds
#     monotonically in it, so a predicate fires at some step iff it fires
#     at that extreme.
# Traders a run lacks are padded as zero-holding traders: they add exactly
# 0.0 to every sum and never trade. For the same reason a run the price
# floor aborts keeps its row: from the next step its bids and offers are
# zeroed, so its price, lowest and highest price and holdings stay as they
# were at its abort, and every array keeps its shape for the whole batch.
#
# The kernel keeps to a few numpy operations: arithmetic, comparisons,
# np.where, isfinite and count_nonzero, plus the boolean assignment that
# zeroes aborted rows, which only a batch with an abort reaches. Each further
# ufunc or reduction faults in another 64-128 KiB of numpy's machine code,
# and peak RSS is one of the sweep's end-to-end costs.

_RNG_BLOCK_STEPS = 32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53: numpy's uint64 -> [0, 1) map


@dataclass(frozen=True, slots=True)
class RunSummaries:
    """What a sweep reads of each run of a batch, indexed like the batch.

    min_price is the lowest price of the run, its initial price included.
    crashed and boomed say whether the predicate, or its boom reading,
    fires at some step of the run, as run() sets crash_step and boom_step;
    a run stopped by the price floor is aborted and counts as crashed.
    steps is the step the run stopped at: its abort or the horizon.
    """

    min_price: np.ndarray
    crashed: np.ndarray
    boomed: np.ndarray
    aborted: np.ndarray
    steps: np.ndarray


def _two_sum(a, b):
    """Knuth's error-free sum: s + e == a + b exactly, s = fl(a + b)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _exact_row_sums(x: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array, each equal to math.fsum of its row.

    A TwoSum cascade leaves the running sum s and error terms whose exact
    sum is the rest of the row total. Where a second TwoSum cascade adds
    those error terms without error, s + E is the exact total and its
    rounding fl(s + E) is the correctly rounded sum math.fsum returns. Rows
    where it is not exact fall back to math.fsum.
    """
    s = x[:, 0]
    errors = []
    for j in range(1, x.shape[1]):
        s, e = _two_sum(s, x[:, j])
        errors.append(e)
    if not errors:
        return s.copy()
    tail = errors[0]
    rounded = []
    for e in errors[1:]:
        tail, f = _two_sum(tail, e)
        rounded.append(f)
    total = s + tail
    for f in rounded:
        if np.count_nonzero(f):
            for i in np.flatnonzero(f):
                total[i] = math.fsum(x[i].tolist())
    return total


def _libm(fn, values: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) for each element, on Python floats so that math.exp,
    math.log and pow are the scalar path's calls."""
    floats = values.tolist()
    return np.fromiter(map(fn, floats, *(repeat(a) for a in args)), float, len(floats))


def _require_valid(values: np.ndarray, positive: bool, what: str) -> None:
    """Raise InvalidInputError unless every value is finite and > 0
    (positive) or >= 0; the scalar path's guards reject the same values."""
    sign_ok = (values > 0.0) if positive else (values >= 0.0)
    valid = np.where(np.isfinite(values), sign_ok, False)
    if np.count_nonzero(valid) < len(values):
        raise InvalidInputError(f"{what} must be finite and {'> 0' if positive else '>= 0'}"
                                f", got {values[np.argmin(valid)]}")


def _draw_uniforms(bitgens, steps: int) -> np.ndarray:
    """The next 2 * steps uniforms on [0, 1) of each stream, one row per
    stream, as Generator.random() returns them; k * u is uniform(0, k).
    A run without a random trader has no stream (None) and gets zeros."""
    none = np.zeros(2 * steps, dtype=np.uint64)
    raw = np.array([none if b is None else b.random_raw(2 * steps) for b in bitgens])
    np.right_shift(raw, 11, out=raw)
    return raw * _DOUBLE_UNIT


def run_summaries(initials, params: MarketParams, commitments: CommitmentParams,
                  seeds, crash: "metrics.CrashPredicate") -> RunSummaries:
    """Run each initial state for params.horizon steps, in lockstep, and
    summarise each run as run(initial, params, commitments, seed, crash)
    would, bit for bit, for its seed.

    A state may hold any number of valuation traders and at most one
    momentum and one random trader; the random traders of a batch share one
    mode. Runs that fall below the price floor keep their row and place no
    orders, so they end where run() stops them. Raises InvalidInputError
    wherever run() would.
    """
    if len(initials) != len(seeds):
        raise InvalidInputError(f"{len(initials)} initial states but {len(seeds)} seeds")
    for state in initials:
        check_state(state)
    n_runs = len(initials)
    cash, asset, valuations, critical, rand_rows, rand_mode = batch_layout(initials)
    horizon, eta, mu = params.horizon, params.eta, params.mu
    one_minus_mu = 1.0 - mu

    p = np.array([s.price for s in initials], dtype=float)
    m = np.array([s.momentum for s in initials], dtype=float)
    p0 = p.copy()
    low = p.copy()
    high = p.copy()
    aborted = np.zeros(n_runs, dtype=bool)
    n_aborted = 0
    steps = np.full(n_runs, horizon)
    bitgens = [np.random.PCG64(s) if r else None for s, r in zip(seeds, rand_rows)]
    uniforms = None
    # order flow: row i holds run i's bids and row n_runs + i its offers
    flow = np.zeros((2 * n_runs, cash.shape[1]))
    bids, offers = flow[:n_runs], flow[n_runs:]

    for t in range(1, horizon + 1):
        if rand_mode is not None:
            k = (t - 1) % _RNG_BLOCK_STEPS
            if k == 0:
                draws = _draw_uniforms(bitgens, min(_RNG_BLOCK_STEPS, horizon - t + 1))
            uniforms = draws[:, 2 * k:2 * k + 2]
        batch_orders(bids, offers, p, m, cash, asset, valuations, critical, rand_mode,
                     uniforms, commitments)
        if n_aborted:
            bids[aborted] = 0.0
            offers[aborted] = 0.0
        totals = _exact_row_sums(flow)
        total_bid = totals[:n_runs]
        q = totals.copy()
        q[:n_runs] /= p
        _require_valid(q, False, "order flow")
        q_p, q_s = q[:n_runs], q[n_runs:]

        # the uncapped log move, capped once at eta; one-sided ratio-power
        # flow moves at the cap
        if params.impact == IMPACT_RATIO:
            two_sided = np.where(q_p > 0.0, q_s > 0.0, False)
            flow_ratio = np.where(two_sided, q_p, 1.0) / np.where(two_sided, q_s, 1.0)
            dlog = np.where(two_sided, params.lam * _libm(math.log, flow_ratio),
                            np.where(q_p > q_s, np.inf, np.where(q_p < q_s, -np.inf, 0.0)))
        else:
            imbalance = q_p - q_s
            dlog = _libm(pow, np.abs(imbalance / params.liquidity), params.zeta)
            dlog = np.where(imbalance < 0.0, -dlog, dlog)
        dlog = np.where(dlog < eta, dlog, eta)
        p_new = p * _libm(math.exp, np.where(dlog > -eta, dlog, -eta))
        _require_valid(p_new, True, "price")

        # settlement: the larger side is scaled down pro-rata to parity
        p_settle = p_new if params.settlement == SETTLE_UPDATED else p
        demand = total_bid / p_settle
        trade = np.where(demand > 0.0, q_s > 0.0, False)
        # no trade leaves both factors 0, and a zero order times a finite
        # factor pays and sells exactly 0.0, so every row settles at once
        f_buy = np.where(trade, q_s, 0.0) / np.where(trade, demand, 1.0)
        f_sell = np.where(trade, demand, 0.0) / np.where(trade, q_s, 1.0)
        paid = bids * np.where(f_buy < 1.0, f_buy, 1.0)[:, None]
        sold = offers * np.where(f_sell < 1.0, f_sell, 1.0)[:, None]
        p_settle = p_settle[:, None]
        cash -= paid
        cash += sold * p_settle
        asset += paid / p_settle
        asset -= sold

        m = mu * _libm(math.log, p_new / p) + one_minus_mu * m
        p = p_new
        low = np.where(p < low, p, low)
        high = np.where(p > high, p, high)

        floored = p < PRICE_FLOOR
        n_floored = np.count_nonzero(floored)
        if n_floored > n_aborted:
            # a frozen row stays below the floor, so the rows that differ
            # are the runs that abort at this step
            steps = np.where(floored == aborted, steps, t)
            aborted, n_aborted = floored, n_floored
            if n_aborted == n_runs:
                break

    crashed = np.where(aborted, True, crash.crash_at(p0, low))
    return RunSummaries(low, crashed, crash.boom_at(p0, high), aborted, steps)
