"""Replicate-batched summary kernel.

`run_summaries` steps a batch of independent runs in lockstep as numpy
arrays and keeps only what a sweep reads of each run; a run that falls
below the price floor keeps its row and places no orders. The batched
kernel reproduces `engine.run` bit for bit, and `run` is its test oracle.
`batch_layout` lays the markets of a batch out as arrays and
`batch_orders` states the Val, Mo and Rand rules over them, with
`traders.population_orders` as its oracle.

This is the only module of the package that imports numpy when it is
imported; `experiments` imports it where a sweep runs its batches, so the
commands that never step a batch start without it.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul

import numpy as np

from .engine import PRICE_FLOOR, _powerlaw_move, check_state
from .errors import InvalidInputError
from .params import IMPACT_RATIO, SETTLE_UPDATED, CommitmentParams, MarketParams
from .seeding import generator
from .traders import KIND_MO, KIND_RAND, KIND_VAL, RAND_REFINED

# run_summaries matches run bit for bit because it keeps the scalar path's
# arithmetic, not just its formulas:
#   - orders come from batch_orders, the scalar rules as arrays;
#   - every row sum equals math.fsum of the row (_exact_row_sums);
#   - exp, log and ** are the libm calls the scalar path makes, applied one
#     element at a time to Python floats (_libm, and the price move
#     p * exp(d)); numpy's vectorised exp and log round differently from
#     libm on a few percent of inputs;
#   - each run draws from its own generator the uniforms its scalar run
#     would draw, _RNG_BLOCK_STEPS steps at a time, where drawing the whole
#     horizon at once would hold about 4 KiB more per run;
#   - each expression keeps the scalar left-to-right order, and min/max
#     become comparisons, np.where, np.minimum and np.maximum, which pick
#     the same operand;
#   - crash and boom come from the lowest and highest price of the run:
#     crash_at and boom_at compare the price, or price / p0 which rounds
#     monotonically in it, so a predicate fires at some step iff it fires
#     at that extreme.
# Traders a run lacks are padded as zero-holding traders: they add exactly
# 0.0 to every sum and never trade. For the same reason a run the price
# floor aborts keeps its row: its orders are zeroed from the next step, so
# its price, lowest and highest price and holdings stay as they were at
# its abort, and every array keeps its shape for the whole batch.
# No step checks the order flow, which check_state's bounds keep finite, nor
# a refined trader's asset value, which each row's price ceiling keeps
# finite. Where run() lets a value overflow to inf, the kernel lets numpy
# do so silently (np.errstate): the flow ratio, and an aborted row's offer
# at its frozen price, which is then zeroed. A settlement factor is
# divided out only where it is below 1. The new price is checked against
# the ceiling; a demand can overflow only below the floor, so only there
# is it checked, in Python floats.
#
# Layout. A batch of n runs stacks the two sides of its market: hold has
# 2n rows and one column per trader, the cash of run i in row i and its
# asset in row n + i, and flow, shaped alike, the bids (cash) above the
# offers (asset). Both are in Fortran order, so each trader's column is one
# contiguous vector, and flow is the head of the row sums' buffer
# (_cascade). A value the two halves test or apply with opposite signs is
# stacked with its negation, which is exact: the momentum as the rows m
# and -m, and the price as the rows 1, p, -p, 1 (_PriceRows), whose slices
# hold every price vector a step reads. So p < u and -p < -u (p > u) are
# one comparison, the settlement of both halves one product, and the
# ceiling and floor tests one comparison. Every array is allocated once per
# batch and written in place with out=; two price blocks, for the step's
# old and new price, swap every step. A step costs a fixed number of numpy
# calls, 64 for a sweep batch, each about a microsecond at a sweep's width
# whatever it does.
#
# The kernel keeps to a few numpy operations, which
# tests/test_sweep_kernel.py::test_the_kernel_uses_only_its_listed_numpy_names
# lists: arithmetic, comparisons, np.where, np.minimum and np.maximum,
# count_nonzero, plus boolean indexing of aborting and aborted rows, which
# only a batch with an abort reaches. Each further ufunc or reduction
# faults in another 64-128 KiB of numpy's machine code, and peak RSS is one
# of the sweep's end-to-end costs.

_RNG_BLOCK_STEPS = 32
_TINY = 5e-324  # the least positive double


@dataclass(frozen=True, slots=True)
class RunSummaries:
    """What a sweep reads of each run of a batch, indexed like the batch.

    min_price and max_price are the lowest and highest price of the run,
    its initial price included. crashed and boomed say whether the
    predicate, or its boom reading, fires at some step of the run, as
    run() sets crash_step and boom_step; a run stopped by the price floor
    is aborted and counts as crashed. steps is the step the run stopped
    at: its abort or the horizon.
    """

    min_price: np.ndarray
    max_price: np.ndarray
    crashed: np.ndarray
    boomed: np.ndarray
    aborted: np.ndarray
    steps: np.ndarray


def batch_layout(states):
    """Holdings and strategy fields of n markets as numpy arrays, for
    run_summaries.

    Columns are n_vals valuation traders (the most any market has), then
    one momentum and one random trader; a market lacking a trader holds
    nothing in its column. Returns (hold, valuations, critical, rand_rows,
    rand_mode): hold stacks the markets' cash (rows 0 to n-1) above their
    asset (rows n to 2n-1), each column contiguous (Fortran order) as the
    kernel reads them, critical the random trader's critical cash
    above its critical asset value (2n values), rand_rows[i] says whether
    market i has a random trader, and rand_mode is the one random-trader
    mode of all markets (None without one). Raises InvalidInputError for a
    layout run_summaries cannot step.
    """
    n = len(states)
    n_vals = max(sum(t.kind == KIND_VAL for t in s.traders) for s in states)
    hold = np.zeros((2 * n, n_vals + 2), order="F")
    valuations = np.ones((n, n_vals))
    critical = np.zeros(2 * n)
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
                critical[row], critical[n + row] = t.critical_cash, t.critical_asset
                modes.add(t.rand_mode)
            hold[row, col], hold[n + row, col] = t.cash, t.asset
        rand_rows.append(KIND_RAND in kinds)
    if len(modes) > 1:
        raise InvalidInputError(f"batched markets need one random-trader mode, got {sorted(modes)}")
    return hold, valuations, critical, rand_rows, modes.pop() if modes else None


def batch_orders(flow, hold, valuations, critical, rand_mode, commitments: CommitmentParams):
    """The order rules of markets laid out by batch_layout, as
    orders(prices, momenta, uniforms), which writes each trader's bid and
    offer into flow, an array shaped like hold: bids (cash) in the rows of
    cash, offers (asset) in the rows of asset.

    prices stacks the rows 1, p and -p of the markets' prices p, momenta
    the rows m and -m of their momenta, and uniforms the two draws on
    [0, 1) that each market's random trader takes this step, bid draws
    above offer draws. Each order equals what traders.population_orders
    returns for its trader, bit for bit: the same expressions in the same
    order, with comparisons and np.where for the branches, and
    np.minimum(y, x) for min(x, y): like min, it returns x where the two
    compare equal, as 0.0 and -0.0 do. The random trader's column is
    written only when rand_mode is set.
    """
    c = commitments
    n, n_vals = valuations.shape
    # one (cash, asset) pair of rows per trader
    held, out = hold.T.reshape(-1, 2, n), flow.T.reshape(-1, 2, n)
    # the Val and Mo traders: buy commitments above sell ones, and valuations
    # u above -u, so that p < u buys and -p < -u sells, m > 0 buys and -m > 0
    # sells
    vm_held, vm_out = held[:-1], out[:-1]
    k = np.array([[[c.kv_buy], [c.kv_sell]]] * n_vals + [[[c.km_buy], [c.km_sell]]])
    signed_valuations = valuations.T[:, None] * np.array([[1.0], [-1.0]])
    trades = np.empty(vm_out.shape, dtype=bool)
    val_trades, mo_trades = trades[:-1], trades[-1]
    r_held, r_out = held[-1], out[-1]
    r_offer = r_out[1]
    k_rand = np.array([[c.kr_buy], [c.kr_sell]])
    critical = critical.reshape(2, n)
    wealth = np.empty((2, n))
    cash, value = wealth
    below = np.empty((2, n), dtype=bool)

    def orders(prices, momenta, uniforms):
        np.less(prices[1:], signed_valuations, out=val_trades)
        np.greater(momenta, 0.0, out=mo_trades)
        vm_out[...] = np.where(trades, k * vm_held, 0.0)
        if rand_mode is None:
            return
        np.multiply(k_rand, uniforms, out=r_out)
        if rand_mode == RAND_REFINED:
            # reference: the marked-to-market wealth, or min(cash, asset
            # value) once either is below its critical level
            np.multiply(r_held, prices[:2], out=wealth)
            np.less(wealth, critical, out=below)
            reference = np.where(below[0] | below[1], np.minimum(value, cash), cash + value)
            np.multiply(r_out, reference, out=r_out)
            np.divide(r_offer, prices[1], out=r_offer)
            np.minimum(r_held, r_out, out=r_out)
        else:
            np.multiply(r_out, r_held, out=r_out)

    return orders


def _two_sum_error(a, b, s, out):
    """Knuth's TwoSum error of s = fl(a + b), into out: s + out == a + b."""
    bb = s - a
    np.add(a - (s - bb), b - bb, out=out)


def _cascade(rows: int, cols: int):
    """A zeroed Fortran-order buffer of cols terms followed by their running
    sums from the last term to the first, and the column slices of that
    cascade: (left, right, sum) of each of its TwoSums, and the three as one
    slice each. The last column is the total."""
    buffer = np.zeros((rows, 2 * cols - 1), order="F")
    left, right, total = buffer[:, cols - 1:-1], buffer[:, :cols - 1][:, ::-1], buffer[:, cols:]
    return buffer, [(left[:, j], right[:, j], total[:, j]) for j in range(cols - 1)], (
        left, right, total)


def _exact_row_sums(rows: int, cols: int):
    """(x, sums): x, a zeroed rows x cols array, cols >= 2 as batch_layout
    gives, and sums(), which returns the row sums of x as x holds them at
    the call, each equal to math.fsum of its row, in a vector that the next
    call overwrites.

    x is the first columns of a _cascade buffer, so the running sums of
    each row, and their TwoSum errors, take no copy: the last running sum s
    and the error terms, whose exact sum is the rest of the row total.
    Where the running sums of those error terms are exact as well (their
    own TwoSum errors are zero), s + E is the exact total and its rounding
    fl(s + E) is the correctly rounded sum math.fsum returns. Rows where
    they are not exact fall back to math.fsum.
    """
    terms, steps, two_sum = _cascade(rows, cols)
    errors, error_steps, error_two_sum = _cascade(rows, cols - 1)
    x, rounded = terms[:, :cols], np.empty((rows, cols - 2), order="F")
    cascades = (steps, (*two_sum, errors[:, :cols - 1])), (error_steps, (*error_two_sum, rounded))
    last, total = (terms[:, -1], errors[:, -1]), np.empty(rows)

    def sums():
        for running, two_sum in cascades:
            for a, b, s in running:
                np.add(a, b, out=s)
            _two_sum_error(*two_sum)
        np.add(*last, out=total)
        if np.count_nonzero(rounded):
            for i in set((np.flatnonzero(rounded.T) % rows).tolist()):
                total[i] = math.fsum(x[i].tolist())
        return total

    return x, sums


def _libm(fn, values: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) for each element, on Python floats so that math.exp,
    math.log and ** are the scalar path's calls."""
    floats = values.tolist()
    return np.fromiter(map(fn, floats, *(repeat(a) for a in args)), float, len(floats))


def _draw_uniforms(generators, block: np.ndarray) -> None:
    """Fill row i of block with the next uniforms on [0, 1) of generator i,
    as its scalar run draws them (k * u is uniform(0, k)); a run without a
    random trader has no generator (None) and keeps its row."""
    for stream, row in zip(generators, block):
        if stream is not None:
            stream.random(out=row)


class _PriceRows:
    """The rows 1, p, -p, 1 of the prices p of n runs, and the slices of
    them that a step reads."""

    __slots__ = ("p", "orders", "signed", "per_unit", "pay", "sell")

    def __init__(self, n: int):
        rows = np.ones((4, n))
        self.p = rows[1]
        self.orders = rows[:3]  # 1, p, -p: batch_orders' prices
        self.signed = rows[1:3]  # p, -p
        self.per_unit = rows[1::2]  # p, 1: the flow totals over them are quantities
        self.pay = rows[:3:2]  # 1, -p: paid cash over them is paid, -bought
        self.sell = rows[2:]  # -p, 1: sold asset times them is -proceeds, sold


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
    n = len(initials)
    hold, valuations, critical, rand_rows, rand_mode = batch_layout(initials)
    horizon, eta, lam = params.horizon, params.eta, params.lam
    ratio = params.impact == IMPACT_RATIO
    updated = params.settlement == SETTLE_UPDATED
    one_minus_mu = 1.0 - params.mu

    flow, totals = _exact_row_sums(*hold.shape)
    orders = batch_orders(flow, hold, valuations, critical, rand_mode, commitments)
    flows = flow.T.reshape(-1, 2, n)
    signs = np.array([[1.0], [-1.0]])
    signed_mu = params.mu * signs
    # a one-sided ratio-power flow's move, to be capped: +2 eta with bids
    # only, -2 eta with offers only
    one_sided_moves = np.array([[-2.0 * eta], [2.0 * eta]])
    # flow settled at each run's fill factor, and the holdings it changes
    fill = np.empty((2, n))
    fill_rows = fill.reshape(-1, 1)
    moved, change = np.empty_like(flow), np.empty_like(flow)
    settled = moved.T.reshape(-1, 2, n)
    paid, sold = settled[:, :1], settled[:, 1:]
    changes = change.T.reshape(-1, 2, n)
    # the quantities q_p, demand, q_s, demand: [q_p; q_s], [demand; q_s] and
    # [q_s; demand] are slices of it
    quantities = np.empty((4, n))
    q, side, other_side = quantities[::2], quantities[1:3], quantities[2:]
    empty = np.empty((2, n), dtype=bool)

    p = [s.price for s in initials]
    p0 = np.array(p, dtype=float)
    old, new = _PriceRows(n), _PriceRows(n)
    np.multiply(p0, signs, out=old.signed)
    momenta = np.array([s.momentum for s in initials], dtype=float) * signs
    # the signed prices above the ceiling and below the floor, and the
    # highest and minus the lowest price so far
    limits = np.array([ceiling, [-PRICE_FLOOR] * n])
    extremes = old.signed.copy()
    beyond = np.empty((2, n), dtype=bool)
    aborted = np.zeros(n, dtype=bool)
    n_aborted = 0
    steps = np.full(n, horizon)
    generators = [generator(s) if r else None for s, r in zip(seeds, rand_rows)]
    block = np.zeros((n, 2 * _RNG_BLOCK_STEPS))
    uniforms = None

    with np.errstate(over="ignore"):
        for t in range(1, horizon + 1):
            if rand_mode is not None:
                k = (t - 1) % _RNG_BLOCK_STEPS
                if k == 0:
                    drawn = block[:, :2 * min(_RNG_BLOCK_STEPS, horizon - t + 1)]
                    _draw_uniforms(generators, drawn)
                    draws = drawn.T.reshape(-1, 2, n)
                uniforms = draws[k]
            orders(old.orders, momenta, uniforms)
            if n_aborted:
                flows[:, :, aborted] = 0.0
            flow_totals = totals()
            total_bid = flow_totals[:n]
            np.divide(flow_totals.reshape(2, n), old.per_unit, out=q)

            # the uncapped log move, capped at eta and then at -eta; a
            # one-sided ratio-power flow has a log move of 0 and moves at the cap
            if ratio:
                np.equal(q, 0.0, out=empty)
                one_sided = empty[0] | empty[1]
                sides = np.where(one_sided, 1.0, q)
                ratios = (sides[0] / sides[1]).tolist()
                try:
                    logs = np.fromiter(map(math.log, ratios), float, n)
                except ValueError:  # a ratio underflows to 0: run() logs each side
                    logs = np.array([math.log(r) if r else math.log(a) - math.log(b)
                                     for r, a, b in zip(ratios, *sides.tolist())])
                moves = np.where(empty, one_sided_moves, 0.0)
                move = lam * logs + (moves[0] + moves[1])
            else:  # in Python floats, whose division overflows without a warning
                move = _libm(_powerlaw_move, q[0] - q[1], params.liquidity, params.zeta)
            move = np.maximum(np.minimum(move, eta), -eta)
            p_new = list(map(mul, p, map(math.exp, move.tolist())))
            np.multiply(np.fromiter(p_new, float, n), signs, out=new.signed)
            np.greater(new.signed, limits, out=beyond)
            n_out = np.count_nonzero(beyond)
            np.maximum(extremes, new.signed, out=extremes)
            if n_out > n_aborted:
                if np.count_nonzero(beyond[0]):
                    i = beyond[0].tolist().index(True)
                    raise InvalidInputError(f"price must stay <= {ceiling[i]}, got {p_new[i]}")
                floored = beyond[1].copy()

            # settlement: the larger side is scaled down pro-rata to parity
            settle = new if updated else old
            if updated and n_out > n_aborted:  # in Python floats, without a warning
                for bid, price in zip(total_bid[floored].tolist(), new.p[floored].tolist()):
                    if bid / price == math.inf:
                        raise InvalidInputError(f"demand must stay finite, got inf at price {price}")
            np.divide(total_bid, settle.p, out=quantities[1::2])
            # each side fills at min(other side, side) / side: the quotient
            # where it is below 1 (where it would overflow, run() takes
            # min(quotient, 1) = 1), else 1, and 0 where either side is 0,
            # as run() then trades nothing; a zero order times a finite
            # factor pays and sells exactly 0.0, so every row settles at once
            np.divide(np.minimum(other_side, side), np.maximum(side, _TINY), out=fill)
            np.multiply(flow, fill_rows, out=moved)
            # cash - paid and asset + paid / p, then + sold * p and - sold
            np.divide(paid, settle.pay, out=changes)
            hold -= change
            np.multiply(sold, settle.sell, out=changes)
            hold -= change

            np.add(_libm(math.log, new.p / old.p) * signed_mu, one_minus_mu * momenta,
                   out=momenta)
            p = p_new
            old, new = new, old

            if n_out > n_aborted:
                # a frozen row stays below the floor, so the rows that differ
                # are the runs that abort at this step
                steps = np.where(floored == aborted, steps, t)
                aborted, n_aborted = floored, n_out
                if n_aborted == n:
                    break

    low = extremes[1] * -1.0
    high = extremes[0].copy()
    crashed = np.where(aborted, True, crash.crash_at(p0, low))
    return RunSummaries(low, high, crashed, crash.boom_at(p0, high), aborted, steps)
