"""Order-generating strategies and population construction.

Three trader kinds share one record type:

  val   buys below / sells above a private valuation u
  mo    buys on positive momentum, sells on negative momentum
  rand  bids and offers uniform-random amounts, possibly both at once;
        the refined variant scales orders by marked-to-market wealth with
        a critical-wealth floor

Exact ties (price equal to valuation, zero momentum) produce no order: the
dynamics are discontinuous there and no-order is the neutral choice.

`population_orders` states these rules for a list of traders, their one
Python statement; the compiled loops of `_crashloop.c` state them in C,
with `population_orders` as their oracle.
"""

import math
from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import ConfigError
from .params import CommitmentParams, as_float, set_floats

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


def population_orders(commitments: CommitmentParams):
    """The order rules with these commitments, as orders(traders, price,
    momentum, draw): the bids (cash) and offers (asset) of a list of
    traders at this price and momentum, each by the rule of its kind, as
    two lists. The traders are ones engine.check_state accepts, and draw()
    returns the next uniform on [0, 1); only a random trader calls it.

    A random trader draws its bid first; k * draw() is uniform(0.0, k) bit
    for bit. The refined one references marked-to-market wealth, or the
    lower of its cash and asset value once either dips below its critical
    level: this removes the downward price pressure of holding-proportional
    orders when assets outweigh cash.
    """
    c = commitments
    kv_buy, kv_sell, km_buy, km_sell, kr_buy, kr_sell = (
        c.kv_buy, c.kv_sell, c.km_buy, c.km_sell, c.kr_buy, c.kr_sell)

    def orders(traders, price, momentum, draw):
        bids, offers = [], []
        for trader in traders:
            kind = trader.kind
            if kind == KIND_VAL:
                u = trader.valuation
                bid = kv_buy * trader.cash if price < u else 0.0
                offer = kv_sell * trader.asset if price > u else 0.0
            elif kind == KIND_MO:
                bid = km_buy * trader.cash if momentum > 0.0 else 0.0
                offer = km_sell * trader.asset if momentum < 0.0 else 0.0
            elif trader.rand_mode == RAND_REFINED:
                cash, asset = trader.cash, trader.asset
                asset_value = asset * price
                reference = cash + asset_value
                if cash < trader.critical_cash or asset_value < trader.critical_asset:
                    reference = min(cash, asset_value)
                bid = min(kr_buy * draw() * reference, cash)
                offer = min(kr_sell * draw() * reference / price, asset)
            else:
                bid = kr_buy * draw() * trader.cash
                offer = kr_sell * draw() * trader.asset
            bids.append(bid)
            offers.append(offer)
        return bids, offers

    return orders


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """Initial population layout.

    val_fracs holds one wealth fraction per valuation trader; mo_frac and
    rand_frac are single traders. Fractions must sum to 1. Every trader
    receives its fraction of both the cash total and the asset total, so all
    start with the same portfolio mix. The asset supply is rho * cash / u_ref
    with u_ref = gamma_shape / gamma_rate for gamma-distributed valuations
    (their mean) and u for a fixed valuation. Every numeric field must be
    finite: the fractions lie in [0, 1], critical_frac too, and u, the gamma
    parameters, cash, p0 and rho are > 0, and each is stored as a float.
    Inside an ExperimentConfig, rho must equal the market's.
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
        # one type test per field while they are floats, as with_mix's are
        if not (type(self.mo_frac) is type(self.rand_frac) is type(self.u)
                is type(self.gamma_shape) is type(self.gamma_rate) is type(self.cash)
                is type(self.p0) is type(self.rho) is type(self.critical_frac) is float
                and all(type(f) is float for f in self.val_fracs)):
            set_floats(self, _FLOAT_FIELDS)
            object.__setattr__(self, "val_fracs",
                               tuple(as_float(f, "val_fracs") for f in self.val_fracs))
        fracs = list(self.val_fracs) + [self.mo_frac, self.rand_frac]
        if not all(-1e-15 <= f <= 1.0 + 1e-12 for f in fracs):
            raise ConfigError(f"wealth fractions must lie in [0, 1]: {fracs}")
        total = sum(fracs)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"wealth fractions must sum to 1, got {total!r}")
        if self.valuation not in (VALUATION_FIXED, VALUATION_GAMMA):
            raise ConfigError(f"unknown valuation source {self.valuation!r}")
        inf = math.inf
        if not (0 < self.u < inf and 0 < self.gamma_shape < inf and 0 < self.gamma_rate < inf
                and 0 < self.cash < inf and 0 < self.p0 < inf and 0 < self.rho < inf):
            raise ConfigError("u, gamma parameters, cash, p0 and rho must be finite and > 0")
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
        across n_vals valuation traders (default: keep the current count).
        Built by the constructor, which checks it, at half the cost of
        dataclasses.replace: a threshold bisection builds one per probe."""
        n = self.n_vals if n_vals is None else n_vals
        return PopulationSpec(tuple([val_frac / n] * n), mo_frac, rand_frac,
                              *_unsplit_fields(self))


# The float fields of a PopulationSpec but val_fracs.
_FLOAT_FIELDS = ("mo_frac", "rand_frac", "u", "gamma_shape", "gamma_rate", "cash", "p0", "rho",
                 "critical_frac")
# The fields of a PopulationSpec after its wealth split, in field order.
_unsplit_fields = attrgetter(*[f.name for f in fields(PopulationSpec)][3:])


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
