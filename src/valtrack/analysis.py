"""Reduced-coordinate stability analysis of the two-trader market.

With a single valuation trader, a single momentum trader, no random trader
and settlement at the current price, the market closes in four coordinates:

    pi    log mispricing log(p/u)
    m     momentum
    alpha log ratio of the valuation trader's buying power to the momentum
          trader's selling power
    beta  log ratio of the momentum trader's buying power to the valuation
          trader's selling power

plus two constants A = km_sell u Q / (kv_buy C) and B = kv_sell u Q /
(km_buy C). The sign pattern of (pi, m) picks one of four cases; in the
case where the valuation trader buys and the momentum trader sells, the
alpha update is self-contained and its fixed points decide between recovery
and crash, which yields the analytic bound on the momentum trader's wealth
share.

Cases 3 and 4 are the mirror images of cases 1 and 2: the two traders swap
buying for selling and cash for asset value. The mirror maps a state to
(-pi, -m, -beta, -alpha) and the constants to kv_buy <-> kv_sell,
km_buy <-> km_sell, A -> 1/B, B -> 1/A. Every Mo-buys/Val-sells rule (the
case-3 and case-4 steps, the beta map, its fixed points and the boom
condition) is its Val-buys/Mo-sells counterpart conjugated by the mirror.
"""

import math
from dataclasses import dataclass

from .errors import (BoundaryError, ContractError, CrashDivergentError,
                     DegenerateCaseError, DomainError, NumericError)
from .params import CommitmentParams, MarketParams
from .traders import KIND_MO, KIND_VAL, MarketState

CASE_1 = "case1"   # pi > 0, m < 0: both sell
CASE_2 = "case2"   # pi < 0, m < 0: Val buys, Mo sells
CASE_3 = "case3"   # pi < 0, m > 0: both buy
CASE_4 = "case4"   # pi > 0, m > 0: Mo buys, Val sells
BOUNDARY = "boundary"

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class ReducedState:
    pi: float
    m: float
    alpha: float
    beta: float


@dataclass(frozen=True, slots=True)
class AnalysisConstants:
    """Reduced-dynamics constants; a_const and b_const are A and B above."""

    a_const: float
    b_const: float
    lam: float
    eta: float
    mu: float
    kv_buy: float
    kv_sell: float
    km_buy: float
    km_sell: float

    def __post_init__(self):
        if self.a_const <= 0 or self.b_const <= 0:
            raise DomainError("A and B must be positive")

    @classmethod
    def from_params(cls, params: MarketParams, commitments: CommitmentParams,
                    u: float = 1.0, total_cash: float = 1.0,
                    total_asset: float | None = None) -> "AnalysisConstants":
        k = commitments
        if 0.0 in (k.kv_buy, k.kv_sell, k.km_buy, k.km_sell):
            raise DomainError("A and B must be positive: need kv_buy, kv_sell, km_buy "
                              "and km_sell > 0")
        if total_asset is None:
            total_asset = params.rho * total_cash / u
        return cls(
            a_const=k.km_sell * u * total_asset / (k.kv_buy * total_cash),
            b_const=k.kv_sell * u * total_asset / (k.km_buy * total_cash),
            lam=params.lam, eta=params.eta, mu=params.mu,
            kv_buy=k.kv_buy, kv_sell=k.kv_sell, km_buy=k.km_buy, km_sell=k.km_sell,
        )


@dataclass(frozen=True, slots=True)
class FixedRoot:
    value: float
    region: str      # "outer": below -eta/lam, "inner": in [-eta/lam, 0]
    residual: float


@dataclass(frozen=True, slots=True)
class FixedPointReport:
    """Fixed points of the alpha map (or, mirrored, the beta map).

    selected is the largest negative fixed point alpha_minus (the smallest
    positive one for the beta map); -inf/+inf and exists=False when there is
    none. trivial marks the kv_buy >= km_sell shortcut where 0 is used."""

    roots: tuple
    exists: bool
    selected: float
    trivial: bool


def _find_trader(state: MarketState, kind: str):
    found = [t for t in state.traders if t.kind == kind]
    if len(found) != 1:
        raise DomainError(f"reduction needs exactly one {kind} trader, found {len(found)}")
    return found[0]


def reduce(state: MarketState, constants: AnalysisConstants) -> ReducedState:
    """Map a full market state (single Val, single Mo) to (pi, m, alpha, beta)."""
    val = _find_trader(state, KIND_VAL)
    mo = _find_trader(state, KIND_MO)
    if any(t.kind not in (KIND_VAL, KIND_MO) for t in state.traders):
        raise DomainError("reduction is defined for a Val/Mo-only market")
    p, u = state.price, val.valuation
    if p <= 0 or u <= 0:
        raise DomainError("price and valuation must be positive")
    if val.cash <= 0 or val.asset <= 0 or mo.cash <= 0 or mo.asset <= 0:
        raise DomainError("holdings must be interior (all positive)")
    alpha = math.log(constants.kv_buy * val.cash / (constants.km_sell * mo.asset * p))
    beta = math.log(constants.km_buy * mo.cash / (constants.kv_sell * val.asset * p))
    return ReducedState(pi=math.log(p / u), m=state.momentum, alpha=alpha, beta=beta)


def reconstruct(reduced: ReducedState, constants: AnalysisConstants,
                total_cash: float, total_asset: float) -> tuple[float, float, float, float]:
    """Invert the reduction: returns (c_V, q_V, c_M, q_M).

    Undefined on the back-diagonal B e^beta = A e^alpha, where alpha and
    beta carry no holdings information. The returned holdings lie in range
    exactly when the feasibility product
    (beta + pi + log B)(alpha + pi + log A) is <= 0.
    """
    a_term = constants.a_const * math.exp(reduced.alpha)
    b_term = constants.b_const * math.exp(reduced.beta)
    denom = b_term - a_term
    if denom == 0.0:
        raise DegenerateCaseError("back-diagonal: B e^beta equals A e^alpha")
    q_v_tilde = (math.exp(-reduced.pi) - a_term) / denom
    c_v_tilde = a_term * (b_term * math.exp(reduced.pi) - 1.0) / denom
    c_v = c_v_tilde * total_cash
    q_v = q_v_tilde * total_asset
    return c_v, q_v, total_cash - c_v, total_asset - q_v


def classify_region(pi: float, m: float) -> str:
    """Sign-based case classification; exact zeros are boundary states."""
    if not (math.isfinite(pi) and math.isfinite(m)):
        raise DomainError("pi and m must be finite")
    if pi == 0.0 or m == 0.0:
        return BOUNDARY
    if pi > 0.0:
        return CASE_1 if m < 0.0 else CASE_4
    return CASE_2 if m < 0.0 else CASE_3


def _clamp_impact(x: float, lam: float, eta: float) -> float:
    """Capped log price move for a log order ratio x."""
    return max(-eta, min(eta, lam * x))


def _log_or_raise(x: float, what: str) -> float:
    if x <= 0.0:
        raise CrashDivergentError(f"{what} has non-positive log argument ({x})")
    return math.log(x)


def alpha_map(alpha: float, c: AnalysisConstants) -> float:
    """Self-contained alpha update in the Val-buys/Mo-sells case.

    Continuous, with slope at least 1 - lambda; the two branches meet at 0.
    """
    if not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    phi = _clamp_impact(alpha, c.lam, c.eta)
    if alpha < 0.0:
        arg = (1.0 - c.kv_buy) / (1.0 - c.km_sell * math.exp(alpha))
    else:
        arg = (1.0 - c.kv_buy * math.exp(-alpha)) / (1.0 - c.km_sell)
    return alpha - phi + _log_or_raise(arg, "alpha map")


def _mirror_state(s: ReducedState) -> ReducedState:
    """The mirror image of a state: (pi, m, alpha, beta) -> (-pi, -m, -beta, -alpha)."""
    return ReducedState(-s.pi, -s.m, -s.beta, -s.alpha)


def _mirror_constants(c: AnalysisConstants) -> AnalysisConstants:
    """The mirror image of the constants: each trader's buy and sell
    commitments swap, and A -> 1/B, B -> 1/A as cash and asset value swap."""
    return AnalysisConstants(a_const=1.0 / c.b_const, b_const=1.0 / c.a_const,
                             lam=c.lam, eta=c.eta, mu=c.mu,
                             kv_buy=c.kv_sell, kv_sell=c.kv_buy,
                             km_buy=c.km_sell, km_sell=c.km_buy)


def beta_map(beta: float, c: AnalysisConstants) -> float:
    """Self-contained beta update in the Mo-buys/Val-sells case: the mirror
    of the alpha map, beta_map(b, c) = -alpha_map(-b, mirrored c)."""
    return -alpha_map(-beta, _mirror_constants(c))


def reduced_step(state: ReducedState, c: AnalysisConstants) -> ReducedState:
    """One step of the piecewise reduced dynamics.

    Case 1 (both traders sell) moves the price down at the cap with no
    trades; case 2 trades, with the self-contained alpha update and a cross
    update for beta. Cases 3 and 4 are cases 1 and 2 of the mirrored state
    and constants, mirrored back.
    """
    region = classify_region(state.pi, state.m)
    if region == BOUNDARY:
        raise BoundaryError(f"reduced step undefined on the boundary: {state}")
    if region in (CASE_3, CASE_4):
        return _mirror_state(reduced_step(_mirror_state(state), _mirror_constants(c)))

    pi, m, alpha, beta = state.pi, state.m, state.alpha, state.beta
    if region == CASE_1:
        return ReducedState(pi - c.eta, (1.0 - c.mu) * m - c.mu * c.eta,
                            alpha + c.eta, beta + c.eta)

    # CASE_2. The cross-update numerator and denominator share a common
    # factor of indefinite sign (it flips across the back-diagonal), so only
    # their ratio is meaningful; it is positive for any state with positive
    # holdings.
    a_c, b_c = c.a_const, c.b_const
    phi = _clamp_impact(alpha, c.lam, c.eta)
    alpha_new = alpha_map(alpha, c)
    cross = c.kv_buy * a_c * (math.exp(pi) - math.exp(-beta) / b_c)
    if alpha < 0.0:
        base = math.exp(-alpha) - a_c * math.exp(pi)
    else:
        base = 1.0 - a_c * math.exp(alpha + pi)
    num = base + cross
    den = base + c.km_sell * (b_c * math.exp(beta + pi) - 1.0)
    if den == 0.0:
        raise CrashDivergentError("beta cross update: zero denominator")
    beta_new = beta - phi + _log_or_raise(num / den, "beta cross update ratio")
    return ReducedState(pi + phi, (1.0 - c.mu) * m + c.mu * phi,
                        alpha_new, beta_new)


# --- fixed points of the alpha map ------------------------------------------

def _alpha_residual(alpha: float, c: AnalysisConstants) -> float:
    """f(alpha) = alpha_map(alpha) - alpha on the nonpositive half-line."""
    phi = _clamp_impact(alpha, c.lam, c.eta)
    arg = (1.0 - c.kv_buy) / (1.0 - c.km_sell * math.exp(alpha))
    return -phi + _log_or_raise(arg, "alpha residual")


def _alpha_residual_deriv(alpha: float, c: AnalysisConstants) -> float:
    k = c.km_sell * math.exp(alpha)
    deriv = k / (1.0 - k)
    if -c.eta / c.lam <= alpha <= c.eta / c.lam:
        deriv -= c.lam
    return deriv


def outer_alpha_root(c: AnalysisConstants) -> float | None:
    """Closed-form fixed point below -eta/lam, where the impact is capped.

    Exists exactly when kv_buy lies in the window
    (1 - e^-eta, 1 - e^-eta + km_sell e^{-eta (1 + 1/lambda)}).
    """
    lo, hi = outer_root_window(c.km_sell, c.eta, c.lam)
    if not (lo < c.kv_buy < hi):
        return None
    return math.log((1.0 - math.exp(c.eta) * (1.0 - c.kv_buy)) / c.km_sell)


def outer_root_window(km_sell: float, eta: float, lam: float) -> tuple[float, float]:
    """kv_buy existence window for the outer fixed point."""
    lo = 1.0 - math.exp(-eta)
    return lo, lo + km_sell * math.exp(-eta * (1.0 + 1.0 / lam))


def alpha_min_location(km_sell: float, lam: float) -> float:
    """Location of the minimum of the inner residual: log(lam/(km_sell (1+lam)))."""
    return math.log(lam / (km_sell * (1.0 + lam)))


def newton_root(f, fprime, x0: float) -> float:
    """Plain Newton-Raphson; raises NumericError with diagnostics on failure."""
    x = x0
    for i in range(_NEWTON_MAX_ITER):
        fx = f(x)
        dfx = fprime(x)
        if dfx == 0.0:
            raise NumericError(f"zero derivative at {x} after {i} iterations")
        delta = fx / dfx
        x -= delta
        if abs(delta) <= _NEWTON_TOL:
            return x
    raise NumericError(f"no convergence after {_NEWTON_MAX_ITER} iterations "
                       f"(x={x}, f={f(x)}, start={x0})")


def _bisect_root(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo <= _NEWTON_TOL:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha_fixed_points(c: AnalysisConstants) -> FixedPointReport:
    """Fixed points of the alpha map and the selected alpha_minus.

    kv_buy >= km_sell is the trivial case with alpha_minus = 0. Otherwise
    the inner roots on [-eta/lam, 0] are found with Newton-Raphson from
    -0.01 (bisection-safeguarded so the larger root is always the one
    returned), and the outer root comes from the closed form when its
    existence window admits it. No root at all reports alpha_minus = -inf.
    """
    if c.kv_buy >= c.km_sell:
        return FixedPointReport(roots=(), exists=True, selected=0.0, trivial=True)

    f = lambda a: _alpha_residual(a, c)
    fp = lambda a: _alpha_residual_deriv(a, c)
    roots: list[FixedRoot] = []

    outer = outer_alpha_root(c)
    if outer is not None:
        roots.append(FixedRoot(outer, "outer", abs(f(outer))))

    inner_left = -c.eta / c.lam
    a_min = min(0.0, max(inner_left, alpha_min_location(c.km_sell, c.lam)))
    larger = None
    if f(a_min) < 0.0:
        # larger root lies in [a_min, 0]: f is convex with f(0) > 0
        try:
            larger = newton_root(f, fp, -0.01)
        except (NumericError, CrashDivergentError):
            larger = None
        if larger is None or not (a_min - 1e-9 <= larger <= 1e-12) \
                or abs(f(larger)) > _RESIDUAL_TOL:
            larger = _bisect_root(f, a_min, 0.0)
            larger = newton_root(f, fp, larger)
        roots.append(FixedRoot(larger, "inner", abs(f(larger))))
        if a_min > inner_left and f(inner_left) > 0.0:
            smaller = _bisect_root(f, inner_left, a_min)
            smaller = newton_root(f, fp, smaller)
            roots.append(FixedRoot(smaller, "inner", abs(f(smaller))))

    if larger is not None:
        selected = larger
    elif outer is not None:
        selected = outer
    else:
        return FixedPointReport(roots=tuple(roots), exists=False,
                                selected=-math.inf, trivial=False)
    return FixedPointReport(roots=tuple(roots), exists=True,
                            selected=selected, trivial=False)


def beta_fixed_points(c: AnalysisConstants) -> FixedPointReport:
    """Fixed points of the beta map; selected is the smallest positive one.

    Derived from the alpha machinery through the exact mirror symmetry
    beta -> -alpha with (kv_buy, km_sell) replaced by (kv_sell, km_buy):
    the trivial case is km_buy <= kv_sell with beta_plus = 0.
    """
    mirrored = alpha_fixed_points(_mirror_constants(c))
    roots = tuple(FixedRoot(-r.value + 0.0, r.region, r.residual) for r in mirrored.roots)
    return FixedPointReport(roots=roots, exists=mirrored.exists,
                            selected=-mirrored.selected + 0.0, trivial=mirrored.trivial)


def crash_sufficient(reduced: ReducedState, c: AnalysisConstants) -> bool:
    """Sufficient condition for a crash from a near-equilibrium start.

    Requires |pi| <= eta and |m| <= mu * eta (the regime the condition is
    derived for); violating that is a contract error.
    """
    if abs(reduced.pi) > c.eta or abs(reduced.m) > c.mu * c.eta:
        raise ContractError("the sufficient conditions need |pi| <= eta and "
                            "|m| <= mu*eta")
    return reduced.alpha < alpha_fixed_points(c).selected - c.eta


def boom_sufficient(reduced: ReducedState, c: AnalysisConstants) -> bool:
    """Sufficient condition for a boom: the crash condition of the mirrored
    state and constants, beta > beta_plus + eta, with the same precondition."""
    return crash_sufficient(_mirror_state(reduced), _mirror_constants(c))


def crash_threshold_formula(kv_buy: float, km_sell: float, rho: float,
                            eta: float, alpha_minus: float) -> float:
    """Wealth-share bound given a fixed point:
    kv_buy / (km_sell rho e^{alpha_minus - eta} + kv_buy)."""
    return kv_buy / (km_sell * rho * math.exp(alpha_minus - eta) + kv_buy)


def mo_crash_threshold_analytic(c: AnalysisConstants, rho: float) -> float:
    """Initial momentum-trader wealth share that guarantees a crash, for
    u = 1 and p0 = 1. Returns 1 when the alpha map has no fixed point."""
    report = alpha_fixed_points(c)
    if not report.exists:
        return 1.0
    return crash_threshold_formula(c.kv_buy, c.km_sell, rho, c.eta, report.selected)
