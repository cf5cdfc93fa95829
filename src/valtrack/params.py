"""Model constants: market mechanism parameters and trader commitments."""

import math
import sys
from dataclasses import dataclass

from .errors import ConfigError

IMPACT_RATIO = "ratio"
IMPACT_POWERLAW = "powerlaw"
SETTLE_UPDATED = "updated"
SETTLE_CURRENT = "current"
MAX_ETA = math.log(sys.float_info.max)  # e^eta stays finite, a capped fall stays > 0


@dataclass(frozen=True, slots=True)
class MarketParams:
    """Constants of the market mechanism.

    lam      price-impact exponent of the ratio-power update
    eta      cap on |d log price| per step (nats), at most MAX_ETA = ln(DBL_MAX)
    mu       momentum smoothing constant, in (0, 1)
    rho      asset-cash ratio used when initialising holdings
    impact   "ratio" (power of the order ratio) or "powerlaw" (power of the
             order difference)
    zeta     power-law impact exponent (powerlaw variant only)
    liquidity  power-law impact scale (powerlaw variant only)
    settlement "updated" (trade at the post-impact price) or "current"
    horizon  number of steps per run
    """

    lam: float = 0.04
    eta: float = 0.1
    mu: float = 0.002
    rho: float = 4.0
    impact: str = IMPACT_RATIO
    zeta: float = 1.0
    liquidity: float = 1.0
    settlement: str = SETTLE_UPDATED
    horizon: int = 250

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lambda must be > 0, got {self.lam}")
        if not 0 < self.eta <= MAX_ETA:
            raise ConfigError(f"eta must lie in (0, {MAX_ETA}], got {self.eta}")
        if not (0.0 < self.mu < 1.0):
            raise ConfigError(f"mu must lie in (0, 1), got {self.mu}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ConfigError(f"rho must be > 0, got {self.rho}")
        if self.impact not in (IMPACT_RATIO, IMPACT_POWERLAW):
            raise ConfigError(f"unknown impact variant {self.impact!r}")
        if not (math.isfinite(self.zeta) and self.zeta > 0):
            raise ConfigError(f"zeta must be > 0, got {self.zeta}")
        if not (math.isfinite(self.liquidity) and self.liquidity > 0):
            raise ConfigError(f"liquidity must be > 0, got {self.liquidity}")
        if self.settlement not in (SETTLE_UPDATED, SETTLE_CURRENT):
            raise ConfigError(f"unknown settlement variant {self.settlement!r}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True, slots=True)
class CommitmentParams:
    """Per-step commitment proportions: fraction of cash placed on a buy
    order (k*_buy) and fraction of the asset holding offered on a sell
    order (k*_sell), for the valuation, momentum and random traders."""

    kv_buy: float = 0.10
    kv_sell: float = 0.10
    km_buy: float = 0.10
    km_sell: float = 0.10
    kr_buy: float = 0.10
    kr_sell: float = 0.10

    def __post_init__(self):
        for name in ("kv_buy", "kv_sell", "km_buy", "km_sell", "kr_buy", "kr_sell"):
            k = getattr(self, name)
            if not (math.isfinite(k) and 0.0 <= k <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {k}")
