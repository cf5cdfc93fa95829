"""The crash predicates that the engine and sweep test strategies draw
from, every kind at the values drawn for it, and PriceTrace, which records
the prices a predicate is asked about."""

from hypothesis import strategies as st

from valtrack.metrics import CrashPredicate

# a drop below 1e-13 fires only after the 1e-12 price floor has aborted the run
CRASH_KINDS = {
    "drop_below": (CrashPredicate.drop_below, [1e-13, 0.01, 0.5, 0.9]),
    "relative_drop": (CrashPredicate.relative_drop, [0.05, 0.3]),
    "deciblack_drop": (CrashPredicate.deciblack_drop, [0.5, 2.0, 5.0]),
}

crash_predicates = st.sampled_from([make(value) for make, values in CRASH_KINDS.values()
                                    for value in values])


class PriceTrace:
    """A crash predicate that fires where `crash` does and records every
    price it is asked about, those of its stop price's walk included, so
    that two runs can be compared step by step and calls counted."""

    stop_price = CrashPredicate.stop_price

    def __init__(self, crash):
        self.kind, self.value, self.crash, self.prices = crash.kind, crash.value, crash, []

    def crash_at(self, p0, p):
        self.prices.append(p)
        return self.crash.crash_at(p0, p)

    def boom_at(self, p0, p):
        return self.crash.boom_at(p0, p)
