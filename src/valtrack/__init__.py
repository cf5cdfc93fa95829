"""Deterministic simulator and analytic toolkit for a value-tracking market
model with valuation, momentum and random traders.

Each public name is imported from its module on first use (PEP 562), so
importing the package loads none of them and a command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "CommitmentParams": "params", "MarketParams": "params",
    "MarketState": "traders", "PopulationSpec": "traders", "Trader": "traders",
    "init_population": "traders",
    "RunResult": "engine", "StepRecord": "engine", "run": "engine", "step": "engine",
    "crash_step": "engine",
    "AnalysisConstants": "analysis", "FixedPointReport": "analysis",
    "ReducedState": "analysis", "alpha_fixed_points": "analysis",
    "beta_fixed_points": "analysis", "mo_crash_threshold_analytic": "analysis",
    "reduce": "analysis", "reduced_step": "analysis",
    "CrashPredicate": "metrics", "EstimatorReport": "metrics", "estimator_mc": "metrics",
    "max_relative_drop": "metrics", "tau": "metrics", "tau_hat": "metrics",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
