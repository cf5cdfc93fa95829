"""Value-tracking metrics, the crash predicate and its boom reading, and
the tracking-error estimator built from a sample of valuations.

Tracking error is measured in Blacks: tau = |log2 p - log2 u|, so 1 Black is
a factor-of-two deviation and a deciblack (tau = 0.1) is roughly +-7%. This
is the one place the package uses base-2 logarithms.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError

CRASH_DROP_BELOW = "drop_below"
CRASH_RELATIVE_DROP = "relative_drop"
CRASH_DECIBLACK_DROP = "deciblack_drop"


def tau(p: float, u: float) -> float:
    """|log2 p - log2 u| in Blacks."""
    if p <= 0 or u <= 0 or not (math.isfinite(p) and math.isfinite(u)):
        raise DomainError(f"tau needs positive finite inputs, got {p}, {u}")
    return abs(math.log2(p) - math.log2(u))


def max_relative_drop(series) -> float:
    """Largest drop relative to the starting value: max(0, 1 - min p_t / p_0)."""
    series = list(series)
    if not series or series[0] <= 0:
        raise DomainError("need a nonempty series with positive start")
    return max(0.0, 1.0 - min(series) / series[0])


@dataclass(frozen=True, slots=True)
class CrashPredicate:
    """Configurable crash predicate.

    drop_below      price falls below an absolute level (value = level)
    relative_drop   price falls by a fraction of the start (value = fraction)
    deciblack_drop  price falls n deciblacks below the start (value = n)

    A run crashes when the predicate fires at some step of it, its start
    included. The boom reading of each predicate is the reciprocal price
    rise.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in (CRASH_DROP_BELOW, CRASH_RELATIVE_DROP, CRASH_DECIBLACK_DROP):
            raise ConfigError(f"unknown crash predicate {self.kind!r}")
        if self.kind == CRASH_DROP_BELOW and not self.value > 0:
            raise ConfigError("drop_below level must be > 0")
        if self.kind == CRASH_RELATIVE_DROP and not (0.0 < self.value < 1.0):
            raise ConfigError("relative_drop fraction must lie in (0, 1)")
        if self.kind == CRASH_DECIBLACK_DROP and not self.value > 0:
            raise ConfigError("deciblack_drop count must be > 0")

    @classmethod
    def drop_below(cls, level: float = 0.01):
        return cls(CRASH_DROP_BELOW, level)

    @classmethod
    def relative_drop(cls, fraction: float = 0.30):
        return cls(CRASH_RELATIVE_DROP, fraction)

    @classmethod
    def deciblack_drop(cls, n: float = 5.0):
        return cls(CRASH_DECIBLACK_DROP, n)

    def crash_at(self, p0: float, p: float) -> bool:
        if self.kind == CRASH_DROP_BELOW:
            return p < self.value
        if self.kind == CRASH_RELATIVE_DROP:
            return p / p0 <= 1.0 - self.value
        return p / p0 <= 2.0 ** (-self.value / 10.0)

    def stop_price(self, p0: float, floor: float) -> float:
        """The largest float p for which p < floor or crash_at(p0, p)
        holds, so that p <= stop_price is the same test for every positive
        price: both hold at every price below one where they hold, as a
        correctly rounded p / p0 is monotone in p.

        The walk starts at the kind's own boundary raised to the floor. For
        a ratio kind that is p0 times the midpoint of its threshold r and
        the next float up, where the rounded ratio turns from r to above
        it, scaled by 2^600 so that a subnormal or zero r keeps its bits.
        So the walk stays a few floats long."""
        if self.kind == CRASH_DROP_BELOW:
            p = self.value
        else:
            r = (1.0 - self.value if self.kind == CRASH_RELATIVE_DROP
                 else 2.0 ** (-self.value / 10.0))
            s = 2.0 ** 600
            p = (r * s + math.nextafter(r, math.inf) * s) / 2.0 * (p0 / s)
        p = max(p, floor)
        while not (p < floor or self.crash_at(p0, p)):
            p = math.nextafter(p, 0.0)
        while self.crash_at(p0, up := math.nextafter(p, math.inf)):
            p = up
        return p

    def boom_at(self, p0: float, p: float) -> bool:
        if self.kind == CRASH_DROP_BELOW:
            return p > 1.0 / self.value
        if self.kind == CRASH_RELATIVE_DROP:
            return p / p0 >= 1.0 / (1.0 - self.value)
        return p / p0 >= 2.0 ** (self.value / 10.0)


def tau_hat(valuations, p: float) -> float:
    """Tracking-error estimate from a sample of valuations: tau at their
    unweighted mean."""
    import numpy as np
    vals = np.asarray(valuations, dtype=float)
    if vals.size == 0:
        raise DomainError("need at least one valuation")
    if np.any(vals <= 0):
        raise DomainError("valuations must be positive")
    return tau(p, float(vals.mean()))


def tau_hat_predicted_std(sigma: float, u: float, n: int, p: float) -> float:
    """Leading-order (delta method) std of tau_hat: sigma / (u sqrt(n) ln 2).

    Undefined at p = u, where the derivative of the absolute value is not
    defined.
    """
    if sigma <= 0 or u <= 0 or n < 1:
        raise DomainError("need sigma, u > 0 and n >= 1")
    if p == u:
        raise DomainError("predicted std is undefined at p = u")
    return sigma / (u * math.sqrt(n) * math.log(2.0))


@dataclass(frozen=True, slots=True)
class EstimatorReport:
    """Monte-Carlo summary of the tau_hat sampling distribution."""

    n: int
    reps: int
    tau_true: float
    tau_hat_mean: float
    bias: float
    empirical_std: float
    predicted_std: float
    skewness: float
    u_hat_mean: float
    mean_z: float      # |mean(u_hat) - u| in MC standard errors
    var_z: float       # |var(u_hat) - theory| in MC standard errors
    mean_ok: bool      # within 3 standard errors
    var_ok: bool


def estimator_mc(shape: float, rate: float, p: float, n: int, reps: int,
                 seed: int) -> EstimatorReport:
    """Simulate the tau_hat estimator on Gamma(shape, rate) valuations.

    Each rep draws n valuations and computes tau_hat; the report compares
    the empirical spread with the delta-method prediction and checks the
    sample mean of valuations against the Gamma(n*shape, n*rate) moments
    implied by the gamma summation property (mean shape/rate, variance
    shape/(n rate^2)), at 3 Monte-Carlo standard errors. Raises ConfigError
    unless n, reps >= 2, shape, rate and p are finite and > 0 and seed >= 0.
    """
    if n < 2 or reps < 2:
        raise ConfigError(f"need n >= 2 and reps >= 2, got {n}, {reps}")
    if not all(0.0 < x < math.inf for x in (shape, rate, p)):
        raise ConfigError(f"need finite shape, rate, p > 0, got {shape}, {rate}, {p}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    import numpy as np

    from .seeding import generator  # here, so that parsing a config loads no seeding
    rng = generator(seed)
    u_true = shape / rate
    sigma = math.sqrt(shape) / rate
    tau_true = tau(p, u_true)

    samples = rng.gamma(shape, 1.0 / rate, size=(reps, n))
    u_hats = samples.mean(axis=1)
    tau_hats = np.abs(np.log2(p) - np.log2(u_hats))

    centered = tau_hats - tau_hats.mean()
    m2 = float(np.mean(centered ** 2))
    m3 = float(np.mean(centered ** 3))
    skew = m3 / m2 ** 1.5 if m2 > 0 else 0.0

    # mean of u_hat: exact variance of u_hat is shape/(n rate^2)
    var_theory = shape / (n * rate ** 2)
    mean_se = math.sqrt(var_theory / reps)
    mean_z = abs(float(u_hats.mean()) - u_true) / mean_se
    # variance of u_hat: u_hat ~ Gamma(n*shape, n*rate), excess kurtosis 6/(n*shape)
    var_se = var_theory * math.sqrt((2.0 + 6.0 / (n * shape)) / reps)
    var_z = abs(float(u_hats.var(ddof=1)) - var_theory) / var_se

    return EstimatorReport(
        n=n, reps=reps, tau_true=tau_true,
        tau_hat_mean=float(tau_hats.mean()),
        bias=float(tau_hats.mean()) - tau_true,
        empirical_std=float(tau_hats.std(ddof=1)),
        predicted_std=tau_hat_predicted_std(sigma, u_true, n, p),
        skewness=skew,
        u_hat_mean=float(u_hats.mean()),
        mean_z=mean_z, var_z=var_z,
        mean_ok=mean_z <= 3.0, var_ok=var_z <= 3.0,
    )


@dataclass(frozen=True, slots=True)
class Histogram:
    """Relative-frequency histogram of price levels in valuation-sd units."""

    bin_centers: tuple
    frequencies: tuple


HISTOGRAM_BIN_WIDTH = 0.25   # in valuation standard deviations
HISTOGRAM_HALF_RANGE = 6.0


def price_level_histogram(series, valuations) -> Histogram:
    """How much time the price spends at each level relative to the
    valuations, binned in units of their sample standard deviation.

    Bins are centered on multiples of HISTOGRAM_BIN_WIDTH out to
    +-HISTOGRAM_HALF_RANGE; observations beyond the range land in the edge
    bins, so the relative frequencies always sum to 1.
    """
    import numpy as np
    prices = np.asarray(list(series), dtype=float)
    vals = np.asarray(list(valuations), dtype=float)
    if vals.size < 2:
        raise DomainError("need at least two valuations for a standard deviation")
    sd = float(vals.std(ddof=1))
    if sd == 0.0:
        raise DomainError("valuations have zero standard deviation")
    if prices.size == 0:
        raise DomainError("empty price series")
    z = (prices - float(vals.mean())) / sd
    k = int(round(HISTOGRAM_HALF_RANGE / HISTOGRAM_BIN_WIDTH))
    centers = np.arange(-k, k + 1) * HISTOGRAM_BIN_WIDTH
    edges = np.arange(-k - 0.5, k + 1.5) * HISTOGRAM_BIN_WIDTH
    z = np.clip(z, edges[0] + 1e-12, edges[-1] - 1e-12)
    counts, _ = np.histogram(z, bins=edges)
    freqs = counts / counts.sum()
    return Histogram(tuple(float(c) for c in centers),
                     tuple(float(f) for f in freqs))
