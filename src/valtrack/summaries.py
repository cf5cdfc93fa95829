"""What a sweep reads of each run of a batch.

`run_summaries` summarises a batch of runs, bit for bit as `engine.run`
would, in one call of the compiled summary loop of `_crashloop.c` where
`engine._crash_loop()` gives it, and from `run` where it does not. `run`
is its oracle as well as its fallback. Only `experiments` imports this
module, where a sweep runs its batches, so the commands that never
summarise a batch do not load it.
"""

from array import array
from dataclasses import dataclass

from . import engine
from .errors import InvalidInputError
from .params import IMPACT_RATIO, SETTLE_UPDATED, CommitmentParams, MarketParams
from .seeding import generator
from .traders import KIND_MO, KIND_RAND, KIND_VAL, RAND_BASIC, RAND_REFINED

# The compiled summary loop's codes of the trader kinds and random-trader modes.
_LOOP_KINDS = {KIND_VAL: 0, KIND_MO: 1, RAND_BASIC: 2, RAND_REFINED: 3}


@dataclass(frozen=True, slots=True)
class RunSummaries:
    """What a sweep reads of each run of a batch, indexed like the batch.

    min_price and max_price are the lowest and highest price of the run,
    its initial price included, as packed doubles (array("d")): a sweep
    holds every batch's summaries until it aggregates them. crashed and boomed say whether the
    predicate, or its boom reading, fires at some step of the run, as
    run() sets crash_step and boom_step; a run stopped by the price floor
    is aborted and counts as crashed. steps is the step the run stopped
    at: its abort or the horizon.
    """

    min_price: array
    max_price: array
    crashed: tuple
    boomed: tuple
    aborted: tuple
    steps: tuple


def run_summaries(initials, params: MarketParams, commitments: CommitmentParams,
                  seeds, crash: "CrashPredicate") -> RunSummaries:
    """Summarise run(initial, params, commitments, seed, crash) for each
    initial state and its seed, bit for bit, leaving the states unchanged.

    Any states run() accepts summarise. Crash and boom are read at the
    lowest and highest price: the predicates compare the price, or
    price / p0, which rounds monotonically in it, so one fires at some step
    iff it fires at that extreme. Raises InvalidInputError where run()
    would: every start is checked first, and then the batch raises the
    error of its first failing row. The compiled loop takes a run's random
    draws from the PCG64 state and increment of its generator,
    seeding.generator(seed), passed in 64-bit halves; a run without a
    random trader builds no generator and passes zeros.
    """
    if len(initials) != len(seeds):
        raise InvalidInputError(f"{len(initials)} initial states but {len(seeds)} seeds")
    ceilings = [engine.check_state(state) for state in initials]
    loop = engine._crash_loop()
    if loop is None:
        rows = [(min(p), max(p), p[-1] < engine.PRICE_FLOOR, len(p) - 1) for p in (
            engine.run(state, params, commitments, seed, crash).prices
            for state, seed in zip(initials, seeds))]
    else:
        starts, first, kinds, holdings, streams = [], [0], bytearray(), [], []
        for state, ceiling, seed in zip(initials, ceilings, seeds):
            starts += state.price, state.momentum, ceiling
            for t in state.traders:
                kinds.append(_LOOP_KINDS[t.rand_mode if t.kind == KIND_RAND else t.kind])
                holdings += t.cash, t.asset, t.valuation, t.critical_cash, t.critical_asset
            first.append(len(kinds))
            pcg = {"state": 0, "inc": 0}
            if KIND_RAND in [t.kind for t in state.traders]:
                pcg = generator(seed).bit_generator.state["state"]
            streams += divmod(pcg["state"], 2**64) + divmod(pcg["inc"], 2**64)
        c = commitments
        code, row, p_new, rows = loop.run_summaries(
            array("d", starts), array("q", first), kinds, array("d", holdings),
            array("Q", streams),
            array("d", (c.kv_buy, c.kv_sell, c.km_buy, c.km_sell, c.kr_buy, c.kr_sell)),
            params.eta, params.lam, params.mu, params.zeta, params.liquidity,
            params.impact == IMPACT_RATIO, params.settlement == SETTLE_UPDATED,
            min(params.horizon, 2**63 - 1), engine.PRICE_FLOOR)  # no run takes 2**63 steps
        if code:
            engine._raise_loop_failure(code, ceilings[row], p_new)
    low, high, aborted, steps = zip(*rows) if rows else ((),) * 4
    p0 = [state.price for state in initials]
    crashed = tuple(a or crash.crash_at(p, lo) for a, p, lo in zip(aborted, p0, low))
    return RunSummaries(array("d", low), array("d", high), crashed,
                        tuple(map(crash.boom_at, p0, high)), aborted, steps)
