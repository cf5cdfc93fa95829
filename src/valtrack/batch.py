"""Replicate-batched summary kernel.

`run_summaries` steps a batch of independent runs in lockstep as numpy
arrays and keeps only what a sweep reads of each run; a run that falls
below the price floor keeps its row and places no orders. The batched
kernel reproduces `engine.run` bit for bit, and `run` is its test oracle.
`batch_layout` lays the markets of a batch out as arrays and
`batch_orders` states the Val, Mo and Rand rules over them, with
`traders.trader_orders` as its oracle.

This is the only module of the package that imports numpy when it is
imported; `experiments` imports it where a sweep runs its batches, so the
commands that never step a batch start without it.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, truediv

import numpy as np

from .engine import PRICE_FLOOR, check_state
from .errors import InvalidInputError
from .params import IMPACT_RATIO, SETTLE_UPDATED, CommitmentParams, MarketParams
from .traders import KIND_MO, KIND_RAND, KIND_VAL, RAND_REFINED

# run_summaries matches run bit for bit because it keeps the scalar path's
# arithmetic, not just its formulas:
#   - orders come from batch_orders, the scalar rules as arrays;
#   - every row sum equals math.fsum of the row (_exact_row_sums);
#   - exp, log and ** are the libm calls the scalar path makes, applied one
#     element at a time to Python floats (_libm, and the price move
#     p * exp(d)); numpy's vectorised exp and log round differently from
#     libm on a few percent of inputs;
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
# floor aborts keeps its row: from the next step its orders are computed at
# its start price, which check_state kept at or above the floor (a division
# by its frozen price below it can overflow), and then zeroed, so its price,
# lowest and highest price and holdings stay as they were at its abort, and
# every array keeps its shape for the whole batch.
# No step checks the order flow, which check_state's bounds keep finite, nor
# a refined trader's asset value, which each row's price ceiling keeps
# finite. Where run() lets a value overflow to inf, the kernel does not warn
# of it either: the power-law move and the new price are computed in Python
# floats, which overflow to inf without numpy's warning; the flow ratio is
# divided in numpy unless a row of the step is within _RATIO_MARGIN of
# overflowing, and then in Python floats; and a settlement factor is divided
# out only where it is below 1. The new price is checked against the
# ceiling; a demand can overflow only below the floor, so only there is it
# checked, also in Python floats.
#
# The kernel keeps to a few numpy operations: arithmetic, comparisons,
# np.where and count_nonzero, plus boolean indexing of aborting and
# aborted rows, which only a batch with an abort reaches. Each further
# ufunc or reduction faults in another 64-128 KiB of numpy's machine code,
# and peak RSS is one of the sweep's end-to-end costs.

_RNG_BLOCK_STEPS = 32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53: numpy's uint64 -> [0, 1) map
_RATIO_MARGIN = 2.0 ** -1000  # offered >= bought * margin keeps bought / offered finite


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


def batch_layout(states):
    """Holdings and strategy fields of several markets as numpy arrays, one
    row per market, for run_summaries.

    Columns are n_vals valuation traders (the most any market has), then
    one momentum and one random trader; a market lacking a trader holds
    nothing in its column. Returns (cash, asset, valuations, critical,
    rand_rows, rand_mode): critical holds the random trader's critical cash
    and asset value, rand_rows[i] whether market i has a random trader, and
    rand_mode the one random-trader mode of all markets (None without one).
    Raises InvalidInputError for a layout run_summaries cannot step.
    """
    n_vals = max(sum(t.kind == KIND_VAL for t in s.traders) for s in states)
    cash = np.zeros((len(states), n_vals + 2))
    asset = np.zeros_like(cash)
    valuations = np.ones((len(states), n_vals))
    critical = np.zeros((len(states), 2))
    rand_rows = []
    modes = set()
    for row, state in enumerate(states):
        kinds = [t.kind for t in state.traders]
        if kinds.count(KIND_MO) > 1 or kinds.count(KIND_RAND) > 1:
            raise InvalidInputError("a batched market holds at most one momentum "
                                    "and one random trader")
        val_col = 0
        for t in state.traders:
            if t.kind == KIND_VAL:
                col = val_col
                valuations[row, col] = t.valuation
                val_col += 1
            elif t.kind == KIND_MO:
                col = n_vals
            else:  # KIND_RAND, the only other kind check_state accepts
                col = n_vals + 1
                critical[row] = t.critical_cash, t.critical_asset
                modes.add(t.rand_mode)
            cash[row, col] = t.cash
            asset[row, col] = t.asset
        rand_rows.append(KIND_RAND in kinds)
    if len(modes) > 1:
        raise InvalidInputError(f"batched markets need one random-trader mode, got {sorted(modes)}")
    return cash, asset, valuations, critical, rand_rows, modes.pop() if modes else None


def batch_orders(bids, offers, p, m, cash, asset, valuations, critical, rand_mode,
                 uniforms, commitments: CommitmentParams) -> None:
    """Orders of markets laid out by batch_layout at prices p and momenta m,
    written in place into bids (cash) and offers (asset), arrays shaped
    like cash.

    uniforms[i] holds the two draws on [0, 1) that market i's random
    trader takes this step, bid first. Each order equals what
    traders.trader_orders returns for its trader, bit for bit: the same
    expressions in the same order, with np.where for the branches and for
    min. The random trader's column is written only when rand_mode is set.
    """
    c = commitments
    n_vals = valuations.shape[1]
    mo, rand = n_vals, n_vals + 1
    price = p[:, None]
    bids[:, :n_vals] = np.where(price < valuations, c.kv_buy * cash[:, :n_vals], 0.0)
    offers[:, :n_vals] = np.where(price > valuations, c.kv_sell * asset[:, :n_vals], 0.0)
    bids[:, mo] = np.where(m > 0.0, c.km_buy * cash[:, mo], 0.0)
    offers[:, mo] = np.where(m < 0.0, c.km_sell * asset[:, mo], 0.0)
    if rand_mode is None:
        return
    u_bid = c.kr_buy * uniforms[:, 0]
    u_offer = c.kr_sell * uniforms[:, 1]
    r_cash, r_asset = cash[:, rand], asset[:, rand]
    if rand_mode == RAND_REFINED:
        r_value = r_asset * p
        below = np.where(r_cash < critical[:, 0], True, r_value < critical[:, 1])
        reference = np.where(below, np.where(r_value < r_cash, r_value, r_cash),
                             r_cash + r_value)
        bid = u_bid * reference
        offer = u_offer * reference / p
        bids[:, rand] = np.where(r_cash < bid, r_cash, bid)
        offers[:, rand] = np.where(r_asset < offer, r_asset, offer)
    else:
        bids[:, rand] = u_bid * r_cash
        offers[:, rand] = u_offer * r_asset


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
    math.log and ** are the scalar path's calls."""
    floats = values.tolist()
    return np.fromiter(map(fn, floats, *(repeat(a) for a in args)), float, len(floats))


def _powerlaw_move(imbalance: float, liquidity: float, zeta: float) -> float:
    """The scalar path's uncapped power-law move of one run, in Python
    floats, whose division overflows to inf without numpy's warning."""
    try:
        return math.copysign(abs(imbalance / liquidity) ** zeta, imbalance)
    except OverflowError:  # above DBL_MAX, so above eta <= ln(DBL_MAX)
        return math.copysign(math.inf, imbalance)


def _draw_uniforms(bitgens, steps: int) -> np.ndarray:
    """The next 2 * steps uniforms on [0, 1) of each stream, one row per
    stream, as Generator.random() returns them; k * u is uniform(0, k).
    A run without a random trader has no stream (None) and gets zeros."""
    none = np.zeros(2 * steps, dtype=np.uint64)
    raw = np.array([none if b is None else b.random_raw(2 * steps) for b in bitgens])
    np.right_shift(raw, 11, out=raw)
    return raw * _DOUBLE_UNIT


def run_summaries(initials, params: MarketParams, commitments: CommitmentParams,
                  seeds, crash: "CrashPredicate") -> RunSummaries:
    """Run each initial state for params.horizon steps, in lockstep, and
    summarise each run as run(initial, params, commitments, seed, crash)
    would, bit for bit, for its seed.

    A state may hold any number of valuation traders and at most one
    momentum and one random trader; the random traders of a batch share one
    mode. Runs that fall below the price floor keep their row and place no
    orders, so they end where run() stops them. Raises InvalidInputError
    wherever run() would, with run()'s message where one row raises. The
    bid totals over the price cannot overflow (check_state): a live row's
    price is at or above the floor, and a frozen row bids 0.
    """
    if len(initials) != len(seeds):
        raise InvalidInputError(f"{len(initials)} initial states but {len(seeds)} seeds")
    ceiling = np.array([check_state(state) for state in initials])
    n_runs = len(initials)
    cash, asset, valuations, critical, rand_rows, rand_mode = batch_layout(initials)
    horizon, eta, mu = params.horizon, params.eta, params.mu
    updated = params.settlement == SETTLE_UPDATED
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
        batch_orders(bids, offers, np.where(aborted, p0, p) if n_aborted else p, m, cash,
                     asset, valuations, critical, rand_mode, uniforms, commitments)
        if n_aborted:
            bids[aborted] = 0.0
            offers[aborted] = 0.0
        totals = _exact_row_sums(flow)
        total_bid = totals[:n_runs]
        q_p, q_s = total_bid / p, totals[n_runs:]

        # the uncapped log move, capped once at eta; one-sided ratio-power
        # flow moves at the cap
        if params.impact == IMPACT_RATIO:
            two_sided = np.where(q_p > 0.0, q_s > 0.0, False)
            bought = np.where(two_sided, q_p, 1.0)
            offered = np.where(two_sided, q_s, 1.0)
            # numpy rounds a quotient as Python does and underflows without a
            # warning; a row that passes this test has a ratio below 2**1001,
            # also where the product rounds as a subnormal, far below
            # DBL_MAX ~ 2**1024; so only a step where some row fails it can
            # overflow, and that step divides in Python floats
            if np.count_nonzero(offered < bought * _RATIO_MARGIN):
                ratios = list(map(truediv, bought.tolist(), offered.tolist()))
            else:
                ratios = (bought / offered).tolist()
            try:
                log_ratio = np.fromiter(map(math.log, ratios), float, n_runs)
            except ValueError:  # a ratio underflows to 0: run() logs each side
                log_ratio = np.array([math.log(r) if r else math.log(a) - math.log(b)
                                      for r, a, b in zip(ratios, bought.tolist(),
                                                         offered.tolist())])
            dlog = np.where(two_sided, params.lam * log_ratio,
                            np.where(q_p > q_s, np.inf, np.where(q_p < q_s, -np.inf, 0.0)))
        else:
            dlog = _libm(_powerlaw_move, q_p - q_s, params.liquidity, params.zeta)
        dlog = np.where(dlog < eta, dlog, eta)
        factors = map(math.exp, np.where(dlog > -eta, dlog, -eta).tolist())
        p_new = np.fromiter(map(mul, p.tolist(), factors), float, n_runs)
        above = p_new > ceiling
        if np.count_nonzero(above):
            i = above.tolist().index(True)
            raise InvalidInputError(f"price must stay <= {ceiling[i]}, got {p_new[i]}")
        floored = p_new < PRICE_FLOOR
        n_floored = np.count_nonzero(floored)

        # settlement: the larger side is scaled down pro-rata to parity
        p_settle = p_new if updated else p
        if updated and n_floored > n_aborted:  # in Python floats, without a warning
            for bid, price in zip(total_bid[floored].tolist(), p_new[floored].tolist()):
                if bid / price == math.inf:
                    raise InvalidInputError(f"demand must stay finite, got inf at price {price}")
        demand = total_bid / p_settle
        trade = np.where(demand > 0.0, q_s > 0.0, False)
        # a factor is its quotient only where that is below 1 (where it would
        # overflow, run() takes min(quotient, 1) = 1), else 1 for a trade and
        # 0 for none; a zero order times a finite factor pays and sells
        # exactly 0.0, so every row settles at once
        buy, sell = q_s < demand, demand < q_s
        f_buy = np.where(buy, q_s, trade) / np.where(buy, demand, 1.0)
        f_sell = np.where(sell, demand, trade) / np.where(sell, q_s, 1.0)
        paid = bids * f_buy[:, None]
        sold = offers * f_sell[:, None]
        p_settle = p_settle[:, None]
        cash -= paid
        cash += sold * p_settle
        asset += paid / p_settle
        asset -= sold

        m = mu * _libm(math.log, p_new / p) + one_minus_mu * m
        p = p_new
        low = np.where(p < low, p, low)
        high = np.where(p > high, p, high)

        if n_floored > n_aborted:
            # a frozen row stays below the floor, so the rows that differ
            # are the runs that abort at this step
            steps = np.where(floored == aborted, steps, t)
            aborted, n_aborted = floored, n_floored
            if n_aborted == n_runs:
                break

    crashed = np.where(aborted, True, crash.crash_at(p0, low))
    return RunSummaries(low, crashed, crash.boom_at(p0, high), aborted, steps)
