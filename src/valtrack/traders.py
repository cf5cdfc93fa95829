"""Order-generating strategies and population construction.

Three trader kinds share one record type:

  val   buys below / sells above a private valuation u
  mo    buys on positive momentum, sells on negative momentum
  rand  bids and offers uniform-random amounts, possibly both at once;
        the refined variant scales orders by marked-to-market wealth with
        a critical-wealth floor

Exact ties (price equal to valuation, zero momentum) produce no order: the
dynamics are discontinuous there and no-order is the neutral choice.

`trader_orders` states these rules for one trader; `batch.batch_orders`
states them as arrays for the batched kernel, with `trader_orders` as its
oracle.
"""

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .params import CommitmentParams

KIND_VAL = "val"
KIND_MO = "mo"
KIND_RAND = "rand"
TRADER_KINDS = (KIND_VAL, KIND_MO, KIND_RAND)

RAND_BASIC = "basic"
RAND_REFINED = "refined"
RAND_MODES = (RAND_BASIC, RAND_REFINED)

VALUATION_FIXED = "fixed"
VALUATION_GAMMA = "gamma"


@dataclass(slots=True)
class Trader:
    """Cash/asset holdings plus strategy tag and strategy-specific fields."""

    cash: float
    asset: float
    kind: str
    valuation: float = 1.0       # val only
    rand_mode: str = RAND_BASIC  # rand only
    critical_cash: float = 0.0   # refined rand: floor on the cash holding
    critical_asset: float = 0.0  # refined rand: floor on the asset value

    def copy(self) -> "Trader":
        return Trader(self.cash, self.asset, self.kind, self.valuation,
                      self.rand_mode, self.critical_cash, self.critical_asset)


@dataclass(slots=True)
class MarketState:
    """Complete market snapshot: price, momentum and traders.

    total_cash / total_asset are the conserved totals fixed at
    initialisation.
    """

    price: float
    momentum: float
    traders: list
    total_cash: float
    total_asset: float

    def copy(self) -> "MarketState":
        return MarketState(self.price, self.momentum, [t.copy() for t in self.traders],
                           self.total_cash, self.total_asset)

    def cash_sum(self) -> float:
        return sum(t.cash for t in self.traders)

    def asset_sum(self) -> float:
        return sum(t.asset for t in self.traders)


def trader_orders(trader: Trader, price: float, momentum: float,
                  commitments: CommitmentParams,
                  rng: "np.random.Generator | None") -> tuple[float, float]:
    """One trader's orders at this price and momentum, as (bid cash, offer
    asset), by the rule of its kind. The trader is one engine.check_state
    accepts, and a random trader needs an rng.

    A random trader draws its bid first; k * rng.random() is
    rng.uniform(0.0, k) bit for bit. The refined one references
    marked-to-market wealth, or the lower of its cash and asset value once
    either dips below its critical level: this removes the downward price
    pressure of holding-proportional orders when assets outweigh cash.
    """
    cash, asset = trader.cash, trader.asset
    if trader.kind == KIND_VAL:
        if price > trader.valuation:
            return 0.0, commitments.kv_sell * asset
        if price < trader.valuation:
            return commitments.kv_buy * cash, 0.0
        return 0.0, 0.0
    if trader.kind == KIND_MO:
        if momentum > 0.0:
            return commitments.km_buy * cash, 0.0
        if momentum < 0.0:
            return 0.0, commitments.km_sell * asset
        return 0.0, 0.0
    if trader.rand_mode == RAND_REFINED:
        asset_value = asset * price
        reference = cash + asset_value
        if cash < trader.critical_cash or asset_value < trader.critical_asset:
            reference = min(cash, asset_value)
        return (min(commitments.kr_buy * rng.random() * reference, cash),
                min(commitments.kr_sell * rng.random() * reference / price, asset))
    return (commitments.kr_buy * rng.random() * cash,
            commitments.kr_sell * rng.random() * asset)


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """Initial population layout.

    val_fracs holds one wealth fraction per valuation trader; mo_frac and
    rand_frac are single traders. Fractions must sum to 1. Every trader
    receives its fraction of both the cash total and the asset total, so all
    start with the same portfolio mix. The asset supply is rho * cash / u_ref
    with u_ref = 1 for gamma-distributed valuations (their mean) and u for a
    fixed valuation.
    """

    val_fracs: tuple = (1.0,)
    mo_frac: float = 0.0
    rand_frac: float = 0.0
    valuation: str = VALUATION_FIXED
    u: float = 1.0
    gamma_shape: float = 8.0
    gamma_rate: float = 8.0
    cash: float = 1.0
    p0: float = 1.0
    rho: float = 4.0
    rand_mode: str = RAND_BASIC
    critical_frac: float = 0.2

    def __post_init__(self):
        fracs = list(self.val_fracs) + [self.mo_frac, self.rand_frac]
        if any(f < -1e-15 or f > 1.0 + 1e-12 for f in fracs):
            raise ConfigError(f"wealth fractions must lie in [0, 1]: {fracs}")
        total = sum(fracs)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"wealth fractions must sum to 1, got {total!r}")
        if self.valuation not in (VALUATION_FIXED, VALUATION_GAMMA):
            raise ConfigError(f"unknown valuation source {self.valuation!r}")
        if self.valuation == VALUATION_GAMMA and (self.gamma_shape <= 0 or self.gamma_rate <= 0):
            raise ConfigError("gamma parameters must be > 0")
        if self.u <= 0 or self.cash <= 0 or self.p0 <= 0 or self.rho <= 0:
            raise ConfigError("u, cash, p0 and rho must all be > 0")
        if self.rand_mode not in RAND_MODES:
            raise ConfigError(f"unknown rand mode {self.rand_mode!r}")
        if not (0.0 <= self.critical_frac <= 1.0):
            raise ConfigError(f"critical_frac must lie in [0, 1], got {self.critical_frac}")

    @property
    def n_vals(self) -> int:
        return len(self.val_fracs)

    @property
    def u_ref(self) -> float:
        if self.valuation == VALUATION_GAMMA:
            return self.gamma_shape / self.gamma_rate
        return self.u

    def with_mix(self, val_frac: float, mo_frac: float, rand_frac: float,
                 n_vals: int | None = None) -> "PopulationSpec":
        """Same spec with a new wealth split; val_frac is divided evenly
        across n_vals valuation traders (default: keep the current count)."""
        n = self.n_vals if n_vals is None else n_vals
        return replace(self, val_fracs=tuple([val_frac / n] * n),
                       mo_frac=mo_frac, rand_frac=rand_frac)


def init_population(spec: PopulationSpec, m0: float = 0.0,
                    rng: "np.random.Generator | None" = None) -> MarketState:
    """Build the initial MarketState for a population spec.

    Gamma-distributed valuations consume one draw per valuation trader from
    rng. Totals recorded on the state are the exact float sums of the
    allocations, so conservation holds exactly at t = 0.
    """
    if spec.valuation == VALUATION_GAMMA and rng is None:
        raise ConfigError("gamma-distributed valuations need an rng")
    cash_total = spec.cash
    asset_total = spec.rho * cash_total / spec.u_ref

    traders: list[Trader] = []
    for frac in spec.val_fracs:
        u = spec.u if spec.valuation == VALUATION_FIXED else float(
            rng.gamma(spec.gamma_shape, 1.0 / spec.gamma_rate))
        traders.append(Trader(frac * cash_total, frac * asset_total, KIND_VAL,
                              valuation=u))
    if spec.mo_frac > 0.0:
        traders.append(Trader(spec.mo_frac * cash_total,
                              spec.mo_frac * asset_total, KIND_MO))
    if spec.rand_frac > 0.0:
        cash0 = spec.rand_frac * cash_total
        asset0 = spec.rand_frac * asset_total
        traders.append(Trader(cash0, asset0, KIND_RAND, rand_mode=spec.rand_mode,
                              critical_cash=spec.critical_frac * cash0,
                              critical_asset=spec.critical_frac * asset0 * spec.p0))

    total_cash = math.fsum(t.cash for t in traders)
    total_asset = math.fsum(t.asset for t in traders)
    return MarketState(price=spec.p0, momentum=m0, traders=traders,
                       total_cash=total_cash, total_asset=total_asset)
