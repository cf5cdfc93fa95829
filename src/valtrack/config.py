"""Experiment configuration: flat dotted-key text files plus overrides.

The file format is one `key = value` per line, `#` comments, blank lines
ignored. Keys are dotted paths (market.lambda, population.mo_frac, ...);
unknown keys are rejected with the offending line number. Overrides (from
CLI flags) use the same dotted keys and win over file values.
"""

import math

from .errors import ConfigError
from .experiments import ExperimentConfig
from .metrics import CrashPredicate
from .params import CommitmentParams, MarketParams
from .traders import PopulationSpec

# key -> (type tag, default accessor description)
SCHEMA: dict[str, str] = {
    "market.lambda": "float",
    "market.eta": "float",
    "market.mu": "float",
    "market.rho": "float",
    "market.impact": "str",          # ratio | powerlaw
    "market.zeta": "float",
    "market.liquidity": "float",
    "market.settlement": "str",      # updated | current
    "market.horizon": "int",
    "commit.kv_buy": "float",
    "commit.kv_sell": "float",
    "commit.km_buy": "float",
    "commit.km_sell": "float",
    "commit.kr_buy": "float",
    "commit.kr_sell": "float",
    "population.val_frac": "float",  # total valuation-trader share; -1 = remainder
    "population.n_vals": "int",
    "population.mo_frac": "float",
    "population.rand_frac": "float",
    "population.valuation": "str",   # fixed | gamma
    "population.u": "float",
    "population.gamma_shape": "float",
    "population.gamma_rate": "float",
    "population.cash": "float",
    "population.p0": "float",
    "population.rand_mode": "str",   # basic | refined
    "population.critical_frac": "float",
    "crash.kind": "str",             # drop_below | relative_drop | deciblack_drop
    "crash.value": "float",
    "run.m0": "float",
    "run.seed": "int",
    "run.replicates": "int",
}

DEFAULTS: dict[str, object] = {
    "market.lambda": 0.04,
    "market.eta": 0.1,
    "market.mu": 0.002,
    "market.rho": 4.0,
    "market.impact": "ratio",
    "market.zeta": 1.0,
    "market.liquidity": 1.0,
    "market.settlement": "updated",
    "market.horizon": 250,
    "commit.kv_buy": 0.10,
    "commit.kv_sell": 0.10,
    "commit.km_buy": 0.10,
    "commit.km_sell": 0.10,
    "commit.kr_buy": 0.10,
    "commit.kr_sell": 0.10,
    "population.val_frac": -1.0,
    "population.n_vals": 1,
    "population.mo_frac": 0.0,
    "population.rand_frac": 0.0,
    "population.valuation": "fixed",
    "population.u": 1.0,
    "population.gamma_shape": 8.0,
    "population.gamma_rate": 8.0,
    "population.cash": 1.0,
    "population.p0": 1.0,
    "population.rand_mode": "basic",
    "population.critical_frac": 0.2,
    "crash.kind": "deciblack_drop",
    "crash.value": 5.0,
    "run.m0": -0.001,
    "run.seed": 0,
    "run.replicates": 20,
}


def _convert(key: str, raw: str, where: str):
    kind = SCHEMA[key]
    raw = raw.strip()
    try:
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError
            return value
        if kind == "int":
            return int(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind} for {key}") from None


def parse_keyvalues(text: str, source: str = "<config>") -> dict:
    """Parse dotted-key assignments; raises ConfigError with line numbers."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw, f"{source}:{lineno}")
    return values


def build_config(values: dict) -> ExperimentConfig:
    """Materialize an ExperimentConfig from a complete dotted-key mapping."""
    v = dict(DEFAULTS)
    v.update(values)

    market = MarketParams(
        lam=v["market.lambda"], eta=v["market.eta"], mu=v["market.mu"],
        rho=v["market.rho"], impact=v["market.impact"], zeta=v["market.zeta"],
        liquidity=v["market.liquidity"], settlement=v["market.settlement"],
        horizon=v["market.horizon"])
    commitments = CommitmentParams(
        kv_buy=v["commit.kv_buy"], kv_sell=v["commit.kv_sell"],
        km_buy=v["commit.km_buy"], km_sell=v["commit.km_sell"],
        kr_buy=v["commit.kr_buy"], kr_sell=v["commit.kr_sell"])

    mo = v["population.mo_frac"]
    rand = v["population.rand_frac"]
    val = v["population.val_frac"]
    if val < 0:
        val = 1.0 - mo - rand
    n_vals = v["population.n_vals"]
    if n_vals < 1:
        raise ConfigError("population.n_vals must be >= 1")
    population = PopulationSpec(
        val_fracs=tuple([val / n_vals] * n_vals), mo_frac=mo, rand_frac=rand,
        valuation=v["population.valuation"], u=v["population.u"],
        gamma_shape=v["population.gamma_shape"], gamma_rate=v["population.gamma_rate"],
        cash=v["population.cash"], p0=v["population.p0"],
        rand_mode=v["population.rand_mode"],
        critical_frac=v["population.critical_frac"])

    crash = CrashPredicate(v["crash.kind"], v["crash.value"],
                           horizon=v["market.horizon"])
    return ExperimentConfig(market=market, commitments=commitments,
                            population=population, crash=crash,
                            m0=v["run.m0"], seed=v["run.seed"],
                            replicates=v["run.replicates"])


def parse_config(path: str | None = None, overrides: dict | None = None,
                 text: str | None = None) -> ExperimentConfig:
    """Resolve file values (if any) plus overrides into an ExperimentConfig."""
    values: dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values.update(parse_keyvalues(text, source=path))
    elif text is not None:
        values.update(parse_keyvalues(text))
    if overrides:
        for key, raw in overrides.items():
            if key not in SCHEMA:
                raise ConfigError(f"override: unknown key {key!r}")
            if isinstance(raw, str):
                values[key] = _convert(key, raw, "override")
            else:
                values[key] = raw
    return build_config(values)


def config_values(config: ExperimentConfig) -> dict:
    """Dotted-key mapping equivalent to the config (inverse of build_config)."""
    m, c, p = config.market, config.commitments, config.population
    # even splits reconstruct exactly: (x * n) / n == x for the splits we emit
    total_val = p.val_fracs[0] * p.n_vals if p.val_fracs else 0.0
    return {
        "market.lambda": m.lam, "market.eta": m.eta, "market.mu": m.mu,
        "market.rho": m.rho, "market.impact": m.impact, "market.zeta": m.zeta,
        "market.liquidity": m.liquidity, "market.settlement": m.settlement,
        "market.horizon": m.horizon,
        "commit.kv_buy": c.kv_buy, "commit.kv_sell": c.kv_sell,
        "commit.km_buy": c.km_buy, "commit.km_sell": c.km_sell,
        "commit.kr_buy": c.kr_buy, "commit.kr_sell": c.kr_sell,
        "population.val_frac": total_val, "population.n_vals": p.n_vals,
        "population.mo_frac": p.mo_frac, "population.rand_frac": p.rand_frac,
        "population.valuation": p.valuation, "population.u": p.u,
        "population.gamma_shape": p.gamma_shape,
        "population.gamma_rate": p.gamma_rate,
        "population.cash": p.cash, "population.p0": p.p0,
        "population.rand_mode": p.rand_mode,
        "population.critical_frac": p.critical_frac,
        "crash.kind": config.crash.kind, "crash.value": config.crash.value,
        "run.m0": config.m0, "run.seed": config.seed,
        "run.replicates": config.replicates,
    }


def serialize(config: ExperimentConfig) -> str:
    """Canonical dotted-key text for a config; parse_config round-trips it."""
    values = config_values(config)
    return "\n".join(f"{key} = {values[key]}" for key in SCHEMA) + "\n"
