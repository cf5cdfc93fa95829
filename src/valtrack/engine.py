"""Discrete-time market mechanism.

One step: collect orders at the prevailing price, move the price by the
configured impact function (capped at e^[+-eta]), settle the orders at the
updated or the current price, update momentum.

Unit conventions: bids are cash amounts, offers are asset quantities. The
purchase volume q_p used by the impact functions is total bid cash divided
by the prevailing price, so q_p and q_s are both asset quantities and the
ratio in the price update is dimensionless. Natural logarithms throughout.

The scalar step is written once in Python, in the body `_stepper` builds
for a run with the run's constants bound. The body takes a step's orders
from one call of `traders.population_orders`, whose random traders call
the draw it is given: `rng.random` in `step`, and in `run` and
`crash_step` the run's `_draw`, which takes its generator's uniforms
DRAW_BLOCK at a time, the same sequence. It takes the uncapped log move
of the order flow (infinite for one-sided ratio-power flow, 0 for no
flow), caps it at +-eta, moves the price by the capped value and sets
cap_hit from the uncapped one. One-sided order flow thus moves the price
at the cap; zero flow on both sides leaves it unchanged.

Inputs are validated at the boundary. MarketParams and CommitmentParams
check themselves when built, and `check_state` checks a state and its
traders where it enters `run`, `step`, `crash_step` or
`summaries.run_summaries`, and bounds the totals so that every order flow
and, up to the state's price ceiling, every asset value stays finite. The
ceiling comes from the state's recorded total asset, which no step
changes, so every entry point gives a run one ceiling. So a step checks
only its new price against the ceiling, and below the floor the demand at
it. Every loop raises the same InvalidInputError. The same entry points,
`step` aside, check the seed of a start with a random trader, an int in
[0, 2**64) and not a bool (`_stream_seed`, seeding's contract).

A run crashes when its crash predicate fires at some step of it, the start
included, or when the price floor aborts it. `run` and `crash_step`
decide that as they step, the start first, and stop at the first crash
when asked to (crash_step always is). `run` in `_stepper` asks the
predicate itself at every step. `crash_step` and the compiled `run` ask
it only for `CrashPredicate.stop_price`, the largest price at which the
predicate or the floor fires, once per run, and then compare each price
with that stop price. `summaries.run_summaries` asks it once per run, at
the run's lowest and highest price, and the compiled `run` asks the boom
reading at the highest price first.

Each entry point steps a private copy of its state in place: `step`
returns a new state and leaves its input as it was, `run` records every
step, `crash_step` keeps no history and returns only what a threshold
bisection reads, run(..., stop_at_crash=True).crash_step, and
`summaries.run_summaries` only what a sweep reads of each run of a batch.
`_stepper` is the body of `step` and the oracle of every loop.

The compiled loop. `_crashloop.c` holds one C loop, the `_stepper` body
with the order rules inlined, at three entries: crash_step's, for the
markets `crash_loop_for` names, one Val trader and at most one Mo
trader, the layout of every bisection probe of a Val/Mo `grid` or
`impact`; a batch of summaries.run_summaries in one call; and `run` as a
one-run batch that also appends each step's row to a series that the
loop grows (summaries.recorded_run). Each call steps whole runs, seeding
each random stream from its engine seed as numpy's PCG64 does, so the
compiled loops need no numpy and no call goes on from another. A run
that writes no series and has no random trader stops at its first step
that places no order, reported as its horizon. The header says why the
loop is the scalar engine bit for bit and why that stop is exact.
`_crash_loop` builds the module at the first call that needs it into the
user cache, $XDG_CACHE_HOME/valtrack or ~/.cache/valtrack. Where it
cannot, `run` steps in `_stepper`, and crash_step and run_summaries in
`_stepped_row`, with the same answers, slower (README gives the cost).
The `run`, `sweep`, `grid`, `impact` and `multival` sidecars name the
loop that ran in their telemetry, "compiled" or "python".
"""

import functools
import math
import os
import sys
import zlib
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
# What a step raises where its new price passes the ceiling, or where the
# demand at the settlement price is infinite: the same in every loop.
_CEILING_ERROR = "price must stay <= {}, got {}"
_DEMAND_ERROR = "demand must stay finite, got inf at price {}"


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
        raise InvalidInputError(_CEILING_ERROR.format(ceiling, state.price))
    return ceiling


def _stepper(params: MarketParams, commitments: CommitmentParams, ceiling: float):
    """The step of a run with these constants and check_state's price
    ceiling: advance(state, draw, record) steps a valid state in place (a
    checked state that nothing else holds, or the output of a previous
    advance) and returns its record if asked. The orders come from one
    population_orders call, whose random traders call draw().

    Impact: the uncapped log move is lam * log(q_p/q_s) for ratio-power
    flow, or |(q_p - q_s) / liquidity|^zeta signed by q_p - q_s for
    power-law flow, infinite where the power overflows. Settlement at the
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
    orders = population_orders(commitments)
    fsum, log, exp, inf, copysign = math.fsum, math.log, math.exp, math.inf, math.copysign

    def advance(state, draw, record):
        p, m, traders = state.price, state.momentum, state.traders
        bids, offers = orders(traders, p, m, draw)
        total_bid = fsum(bids)
        q_p = total_bid / p
        q_s = fsum(offers)
        if not ratio:
            try:
                dlog = copysign(abs((q_p - q_s) / liquidity) ** zeta, q_p - q_s)
            except OverflowError:  # above DBL_MAX, so above eta <= ln(DBL_MAX)
                dlog = copysign(inf, q_p - q_s)
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
            raise InvalidInputError(_CEILING_ERROR.format(ceiling, p_new))
        p_settle = p_new if updated else p
        demand = total_bid / p_settle
        if demand == inf:  # only a settlement price below the floor gets here
            raise InvalidInputError(_DEMAND_ERROR.format(p_new))
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


def _stream_seed(state: MarketState, seed: int) -> int | None:
    """The seed of the state's random stream, or None for a state without a
    random trader, which draws nothing and whose seed is never read.
    Raises InvalidInputError unless a random trader's seed is an int in
    [0, 2**64) and not a bool, the seeds whose streams seeding's contract
    fixes."""
    if KIND_RAND not in [t.kind for t in state.traders]:
        return None
    if not (type(seed) is int and 0 <= seed < 2**64):
        raise InvalidInputError(f"a run with a random trader needs a seed in [0, 2**64), "
                                f"got {seed!r}")
    return seed


def _draw(seed: int | None):
    """The run's draw(): the next uniform on [0, 1) of its stream,
    seeding.generator(seed), taken DRAW_BLOCK at a time as the run needs
    them, the uniforms of Generator.random() calls bit for bit; None for
    the seed None of a state without a random trader (_stream_seed). Only
    a stream imports numpy, so a deterministic run never loads it."""
    if seed is None:
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
    series. Raises InvalidInputError on an initial state check_state rejects,
    and with a random trader on a seed _stream_seed rejects.

    It steps in the compiled summary loop where _crash_loop() gives one
    (summaries.recorded_run), and in _stepper where it does not.
    """
    ceiling, seed = check_state(initial), _stream_seed(initial, seed)
    loop = _crash_loop()
    if loop is not None:
        from .summaries import recorded_run  # not loaded by the commands that run no full run
        return recorded_run(loop, initial, ceiling, params, commitments, seed, crash,
                            stop_at_crash)
    state, draw = initial.copy(), _draw(seed)
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
    stop price, computed once from the start. It steps in the compiled
    loop where crash_loop_for gives one, which also stops, with None, at
    the first step that places no order, and in _stepped_row where not.
    """
    ceiling = check_state(initial)
    stop = crash.stop_price(initial.price, PRICE_FLOOR)
    loop = crash_loop_for(t.kind for t in initial.traders)
    if loop is None:
        low, _, _, steps = _stepped_row(initial, ceiling, params, commitments,
                                        _stream_seed(initial, seed), stop)
        return steps if low <= stop else None
    cv = av = cm = am = 0.0
    for trader in initial.traders:
        if trader.kind == KIND_VAL:
            cv, av, u = trader.cash, trader.asset, trader.valuation
        else:
            cm, am = trader.cash, trader.asset
    c = commitments
    code, steps, p_new = loop.crash_step(
        initial.price, initial.momentum, cv, av, cm, am, u,
        c.kv_buy, c.kv_sell, c.km_buy, c.km_sell,
        params.eta, params.lam, params.mu, params.zeta, params.liquidity,
        params.impact == IMPACT_RATIO, params.settlement == SETTLE_UPDATED,
        min(params.horizon, 2**63 - 1), ceiling, stop)  # no run takes 2**63 steps
    _raise_loop_failure(code, ceiling, p_new)
    return steps if p_new <= stop else None


def crash_loop_for(kinds):
    """The compiled loop that crash_step steps a market of traders of these
    kinds in, or None where it steps it in _stepped_row: the rule for
    which markets compile. crash_step's C entry takes one Val trader and
    at most one Mo trader, the layout of every bisection probe of a Val/Mo
    population, and only where _crash_loop() gives the module."""
    return _crash_loop() if sorted(kinds) in ([KIND_VAL], [KIND_MO, KIND_VAL]) else None


def _stepped_row(initial: MarketState, ceiling: float, params: MarketParams,
                 commitments: CommitmentParams, seed: int | None,
                 stop: float = -math.inf) -> tuple:
    """The compiled summary loop's row of one run from a start whose price
    ceiling check_state gave, with the seed _stream_seed gave, (lowest
    price, highest price, aborted, steps), from a copy of the start
    stepped in _stepper without records to its abort, its first price at
    or below stop, or its horizon: the row of summaries.run_summaries, and
    the run of crash_step, where no compiled loop steps them."""
    state, draw = initial.copy(), _draw(seed)
    advance = _stepper(params, commitments, ceiling)
    p = low = high = state.price
    steps = 0
    while steps < params.horizon and not (p < PRICE_FLOOR or p <= stop):
        advance(state, draw, False)
        steps += 1
        p = state.price
        low = p if p < low else low
        high = p if p > high else high
    return low, high, p < PRICE_FLOOR, steps


def _raise_loop_failure(code: int, ceiling: float, p_new: float) -> None:
    """Raise the scalar step's InvalidInputError where a compiled loop
    returns the ceiling or the demand failure at price p_new."""
    if code == _LOOP_CEILING:
        raise InvalidInputError(_CEILING_ERROR.format(ceiling, p_new))
    if code == _LOOP_DEMAND:
        raise InvalidInputError(_DEMAND_ERROR.format(p_new))


# The compiled loop's C source and compile flags, and the failure codes it returns.
_LOOP_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_crashloop.c")
_LOOP_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_LOOP_CEILING, _LOOP_DEMAND = 1, 2


@functools.cache
def _crash_loop():
    """The module of the compiled loops, or None where it cannot be built or
    loaded. Its file in the user cache is named by the crc32 of its source
    and flags and by the interpreter's extension suffix; loading a file
    that is there imports nothing the CLI has not loaded already."""
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
    try:
        with open(_LOOP_SOURCE, "rb") as fh:
            key = zlib.crc32(" ".join(_LOOP_FLAGS).encode(), zlib.crc32(fh.read()))
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or
                             os.path.join(os.path.expanduser("~"), ".cache"), "valtrack")
        path = os.path.join(cache, f"crashloop-{key:08x}{EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(path):
            _build_crash_loop(cache, path)
        loader = ExtensionFileLoader("valtrack._crashloop", path)
        module = loader.create_module(ModuleSpec(loader.name, loader, origin=path))
        loader.exec_module(module)
        return module
    except (OSError, ImportError):  # every entry point falls back to _stepper
        return None


def _build_crash_loop(cache: str, path: str) -> None:
    """Compile _LOOP_SOURCE to path with sysconfig's compiler and headers,
    through a temporary name in the cache directory (made with mode 0700)
    that os.replace moves into place, so that processes building it at
    once each move a whole file. Raises OSError where it cannot."""
    import subprocess
    import sysconfig
    import tempfile
    include = sysconfig.get_paths()["include"]
    cc = (sysconfig.get_config_var("CC") or "").split()
    if not cc or not os.path.exists(os.path.join(include, "Python.h")):
        raise OSError("no C compiler or no Python.h")
    os.makedirs(cache, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=os.path.basename(path), dir=cache)
    os.close(fd)
    try:
        done = subprocess.run([*cc, *_LOOP_FLAGS, "-I", include, _LOOP_SOURCE, "-o", tmp,
                               "-lm"], capture_output=True)
        if done.returncode != 0:
            raise OSError(f"{cc[0]} exited with {done.returncode}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
