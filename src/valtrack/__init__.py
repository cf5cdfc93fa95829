"""Deterministic simulator and analytic toolkit for a value-tracking market
model with valuation, momentum and random traders."""

__version__ = "0.1.0"

from .params import CommitmentParams, MarketParams
from .traders import MarketState, PopulationSpec, Trader, init_population
from .engine import RunResult, StepRecord, crash_step, run, step
from .analysis import (AnalysisConstants, FixedPointReport, ReducedState,
                       alpha_fixed_points, beta_fixed_points,
                       mo_crash_threshold_analytic, reduce, reduced_step)
from .metrics import (CrashPredicate, EstimatorReport, estimator_mc,
                      max_relative_drop, tau, tau_hat)

__all__ = [
    "CommitmentParams", "MarketParams", "MarketState", "PopulationSpec",
    "Trader", "init_population", "RunResult", "StepRecord", "run", "step",
    "crash_step", "AnalysisConstants", "FixedPointReport", "ReducedState",
    "alpha_fixed_points", "beta_fixed_points", "mo_crash_threshold_analytic",
    "reduce", "reduced_step", "CrashPredicate", "EstimatorReport",
    "estimator_mc", "max_relative_drop", "tau", "tau_hat", "__version__",
]
