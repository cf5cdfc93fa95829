"""The crash predicates that the engine and sweep-kernel strategies draw
from: every kind, each at the values drawn for it."""

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
