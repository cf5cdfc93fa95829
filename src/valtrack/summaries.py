"""The compiled summary loop's Python side: a sweep's run summaries, and
full runs.

`run_summaries` summarises a batch of runs, bit for bit as `engine.run`
would, in one call of the compiled summary loop of `_crashloop.c` where
`engine._crash_loop()` gives it, and in `engine._stepped_row`, `_stepper`
without records, where it does not. `recorded_run` is `engine.run` in
that loop, with a series that the loop grows by one row per step. Each
is one call of the loop, which seeds each run's random stream from its
engine seed, numpy's PCG64 of that seed without numpy, so a sweep or a
run whose valuations are fixed never loads numpy where the loop is
built. `run` is the oracle of both. `experiments` imports this
module where a sweep runs its batches and before a full run builds its
start (`run_once`), and `engine.run` where it has the compiled loop, so
`grid`, `impact` and `analyze`, which run no full run, do not load it.
"""

import math
from array import array
from dataclasses import dataclass
from itertools import repeat, starmap

from . import engine
from .engine import PRICE_FLOOR, RunResult, StepRecord
from .errors import InvalidInputError
from .params import IMPACT_RATIO, SETTLE_UPDATED, CommitmentParams, MarketParams
from .traders import KIND_MO, KIND_RAND, KIND_VAL, RAND_BASIC, RAND_REFINED

# The compiled summary loop's codes of the trader kinds and random-trader modes.
_LOOP_KINDS = {KIND_VAL: 0, KIND_MO: 1, RAND_BASIC: 2, RAND_REFINED: 3}
# The leading columns of a series row; each trader's wealth follows them.
_ROW_COLUMNS = 6  # price, momentum, q_p, q_s, executed, cap_hit


@dataclass(frozen=True, slots=True)
class RunSummaries:
    """What a sweep reads of each run of a batch, indexed like the batch.

    min_price and max_price are the lowest and highest price of the run,
    its initial price included, as packed doubles (array("d")). crashed
    and boomed say whether the predicate, or its boom reading, fires at
    some step of the run, as run() sets crash_step and boom_step; a run
    stopped by the price floor is aborted and counts as crashed. steps is
    the step the run stopped at: its abort or the horizon.
    """

    min_price: array
    max_price: array
    crashed: tuple
    boomed: tuple
    aborted: tuple
    steps: tuple


def _loop_buffers(states, ceilings, stops, seeds):
    """The buffers the summary loop steps these runs from: starts, first,
    kinds, holdings and seeds, as _crashloop.c's run_summaries lays them
    out. seeds are engine._stream_seed's: a run's stream is that of
    np.random.PCG64(seed), which the loop seeds; a run without a random
    trader, whose seed is None, gets seed 0 and never reads it."""
    starts, first, kinds, holdings = [], [0], bytearray(), []
    for state, ceiling, stop in zip(states, ceilings, stops):
        starts += state.price, state.momentum, ceiling, stop
        for t in state.traders:
            kinds.append(_LOOP_KINDS[t.rand_mode if t.kind == KIND_RAND else t.kind])
            holdings += t.cash, t.asset, t.valuation, t.critical_cash, t.critical_asset
        first.append(len(kinds))
    return (array("d", starts), array("q", first), kinds, array("d", holdings),
            array("Q", [0 if seed is None else seed for seed in seeds]))


def _step_loop(loop, buffers, params: MarketParams, commitments: CommitmentParams, *series):
    """One call of the summary loop on _loop_buffers' buffers, with a series
    bytearray if one is given: its (code, row, price, rows)."""
    c = commitments
    return loop.run_summaries(
        *buffers, array("d", (c.kv_buy, c.kv_sell, c.km_buy, c.km_sell, c.kr_buy, c.kr_sell)),
        params.eta, params.lam, params.mu, params.zeta, params.liquidity,
        params.impact == IMPACT_RATIO, params.settlement == SETTLE_UPDATED,
        min(params.horizon, 2**63 - 1), PRICE_FLOOR, *series)  # no run takes 2**63 steps


def run_summaries(initials, params: MarketParams, commitments: CommitmentParams,
                  seeds, crash: "CrashPredicate") -> RunSummaries:
    """Summarise run(initial, params, commitments, seed, crash) for each
    initial state and its seed, bit for bit, leaving the states unchanged.

    Any states run() accepts summarise. Crash and boom are read at the
    lowest and highest price: the predicates compare the price, or
    price / p0, which rounds monotonically in it, so one fires at some step
    iff it fires at that extreme. Raises InvalidInputError where run()
    would: every start is checked first, once however many runs share it,
    then the seed of each run with a random trader, and then the batch
    raises the error of its first failing row.
    """
    if len(initials) != len(seeds):
        raise InvalidInputError(f"{len(initials)} initial states but {len(seeds)} seeds")
    checked = {}  # a start that several runs share is checked once
    for state in initials:
        if id(state) not in checked:
            checked[id(state)] = engine.check_state(state)
    ceilings = [checked[id(state)] for state in initials]
    seeds = list(map(engine._stream_seed, initials, seeds))
    loop = engine._crash_loop()
    if loop is None:
        rows = [engine._stepped_row(state, ceiling, params, commitments, seed)
                for state, ceiling, seed in zip(initials, ceilings, seeds)]
    else:
        buffers = _loop_buffers(initials, ceilings, repeat(-math.inf), seeds)
        code, row, p_new, rows = _step_loop(loop, buffers, params, commitments)
        if code:
            engine._raise_loop_failure(code, ceilings[row], p_new)
    low, high, aborted, steps = zip(*rows) if rows else ((),) * 4
    p0 = [state.price for state in initials]
    crashed = tuple(a or crash.crash_at(p, lo) for a, p, lo in zip(aborted, p0, low))
    return RunSummaries(array("d", low), array("d", high), crashed,
                        tuple(map(crash.boom_at, p0, high)), aborted, steps)


def recorded_run(loop, initial, ceiling: float, params: MarketParams,
                 commitments: CommitmentParams, seed: int, crash: "CrashPredicate",
                 stop_at_crash: bool) -> RunResult:
    """engine.run(initial, params, commitments, seed, crash, stop_at_crash)
    of a start whose price ceiling check_state gave, bit for bit, stepped
    as a one-run batch of the compiled summary loop, which writes each
    step's row into a series that it grows, in one call.

    With stop_at_crash the loop stops at the first price at or below
    crash.stop_price(p0, PRICE_FLOOR), as crash_step does; that price, the
    first one where the predicate fires or the floor aborts the run, is
    also where crash_step is read. boom_step is read like run_summaries'
    boomed, at the highest price first."""
    p0 = initial.price
    stop = crash.stop_price(p0, PRICE_FLOOR)
    buffers = _loop_buffers([initial], [ceiling], [stop if stop_at_crash else -math.inf],
                            [seed])
    rows = bytearray()
    code, _, p_new, _ = _step_loop(loop, buffers, params, commitments, rows)
    if code:
        engine._raise_loop_failure(code, ceiling, p_new)
    series, width = memoryview(rows).cast("d"), _ROW_COLUMNS + len(initial.traders)
    prices, momenta = series[0::width].tolist(), series[1::width].tolist()
    records = list(starmap(StepRecord, zip(
        prices, prices[1:], series[width + 2::width].tolist(),
        series[width + 3::width].tolist(), series[width + 4::width].tolist(), momenta,
        momenta[1:], map((1.0).__eq__, series[width + 5::width]))))
    wealth = [series[i:i + width - _ROW_COLUMNS].tolist()
              for i in range(_ROW_COLUMNS, len(series), width)]
    state = initial.copy()
    for j, trader in enumerate(state.traders):
        trader.cash, trader.asset = buffers[3][5 * j], buffers[3][5 * j + 1]
    state.price, state.momentum = prices[-1], momenta[-1]
    crashed = boomed = None
    if min(prices) <= stop:
        crashed = next(i for i, p in enumerate(prices) if p <= stop)
    if crash.boom_at(p0, max(prices)):
        boomed = next(i for i, p in enumerate(prices) if crash.boom_at(p0, p))
    return RunResult(prices, momenta, wealth, records, state, crashed, boomed,
                     prices[-1] < PRICE_FLOOR)
