"""Machine-speed calibration loop.

The shared 2-core machines this benchmark runs on change speed by up to
1.7x within seconds, as neighbours load the cores. bench/run.py therefore
puts `calibrate()` before and after each timed operation and reports
end-to-end times in reference seconds: measured time x REFERENCE_S / mean
time of the calibration loops just before and just after it.

The loop is a fixed stand-in for the kind of work valtrack does: a small
three-trader market step loop (slotted dataclasses, numpy uniform draws,
math.fsum, log and exp, per-step records) and CSV-style row formatting
(repr of floats, joins, a sort). It imports nothing from valtrack, so a
change to valtrack cannot change it, and the parent commit and a change
are scaled by the same loop. A plain arithmetic loop tracked the
workloads' slowdowns less well (it slowed more than they did).
"""

import math
import time
from dataclasses import dataclass

import numpy as np

# A time t measured while the loop takes c seconds is reported as
# t * REFERENCE_S / c. The loop takes about 0.05 s on a quiet core of the
# machine the benchmark was defined on, so reference seconds stay close to
# that machine's seconds.
REFERENCE_S = 0.05


@dataclass(slots=True)
class _Holding:
    cash: float
    asset: float
    kind: int

    def copy(self):
        return _Holding(self.cash, self.asset, self.kind)


@dataclass(frozen=True, slots=True)
class _Record:
    old: float
    new: float
    q_p: float
    q_s: float


def _market(steps: int) -> float:
    rng = np.random.Generator(np.random.PCG64(12345))
    holdings = [_Holding(0.4, 1.6, 0), _Holding(0.3, 1.2, 1), _Holding(0.3, 1.2, 2)]
    p, m = 1.0, 0.0
    prices, records = [p], []
    for _ in range(steps):
        bids, offers = [], []
        for h in holdings:
            if h.kind == 0:
                bid, offer = (0.1 * h.cash, 0.0) if p < 1.0 else (0.0, 0.1 * h.asset)
            elif h.kind == 1:
                bid, offer = (0.1 * h.cash, 0.0) if m > 0 else (0.0, 0.1 * h.asset)
            else:
                bid = rng.uniform(0.0, 0.1) * h.cash
                offer = rng.uniform(0.0, 0.1) * h.asset
            bids.append(bid)
            offers.append(offer)
        q_p, q_s = math.fsum(bids) / p, math.fsum(offers)
        dlog = max(-0.1, min(0.1, 0.04 * math.log(q_p / q_s))) if q_p > 0 and q_s > 0 else 0.0
        p_new = p * math.exp(dlog)
        holdings = [h.copy() for h in holdings]
        f_buy = min(1.0, q_s / q_p) if q_p > 0 else 0.0
        f_sell = min(1.0, q_p / q_s) if q_s > 0 else 0.0
        for h, bid, offer in zip(holdings, bids, offers):
            h.cash += offer * f_sell * p_new - bid * f_buy
            h.asset += bid * f_buy / p_new - offer * f_sell
        m = 0.002 * math.log(p_new / p) + 0.998 * m
        records.append(_Record(p, p_new, q_p, q_s))
        p = p_new
        prices.append(p)
    return p


def _rows(n: int) -> int:
    rows = [{"t": i, "x": repr(i * 0.1), "pair": (i, i + 1)} for i in range(n)]
    rows.sort(key=lambda r: r["x"])
    return len(",".join(r["x"] for r in rows))


def calibrate():
    """Run the loop once; returns (wall seconds, cpu seconds)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _market(3000)
    _rows(12000)
    return time.perf_counter() - wall0, time.process_time() - cpu0
