"""Experiment configuration: flat dotted-key text files plus overrides.

The file format is one `key = value` per line, `#` comments, blank lines
ignored. Keys are dotted paths (market.lambda, population.mo_frac, ...);
unknown keys are rejected with the offending line number. Overrides (from
CLI flags) use the same dotted keys and win over file values.
"""

import math

from .errors import ConfigError
from .experiments import ExperimentConfig

# dotted key -> (part of ExperimentConfig, or None for its own fields;
#                field of that part; CLI flag, or None for --set only).
# A key's default and type are its field's in ExperimentConfig(); the flag
# is the option --<flag with '-' for '_'>.
# Two special keys do not map one to one onto their field (see
# build_config): population.val_frac and population.n_vals together make
# val_fracs, and market.rho is also the population's rho.
KEYS: dict[str, tuple[str | None, str, str | None]] = {
    "market.lambda": ("market", "lam", "lambda"),
    "market.eta": ("market", "eta", "eta"),
    "market.mu": ("market", "mu", "mu"),
    "market.rho": ("market", "rho", "rho"),
    "market.impact": ("market", "impact", "impact"),              # ratio | powerlaw
    "market.zeta": ("market", "zeta", "zeta"),
    "market.liquidity": ("market", "liquidity", "liquidity"),
    "market.settlement": ("market", "settlement", "settlement"),  # updated | current
    "market.horizon": ("market", "horizon", "horizon"),
    "commit.kv_buy": ("commitments", "kv_buy", "kv_buy"),
    "commit.kv_sell": ("commitments", "kv_sell", "kv_sell"),
    "commit.km_buy": ("commitments", "km_buy", "km_buy"),
    "commit.km_sell": ("commitments", "km_sell", "km_sell"),
    "commit.kr_buy": ("commitments", "kr_buy", "kr_buy"),
    "commit.kr_sell": ("commitments", "kr_sell", "kr_sell"),
    # total valuation-trader share, split evenly over n_vals; -1 = remainder
    "population.val_frac": ("population", "val_frac", "val"),
    "population.n_vals": ("population", "n_vals", "n_vals"),
    "population.mo_frac": ("population", "mo_frac", "mo"),
    "population.rand_frac": ("population", "rand_frac", "rand"),
    "population.valuation": ("population", "valuation", "valuation"),  # fixed | gamma
    "population.u": ("population", "u", "u"),
    "population.gamma_shape": ("population", "gamma_shape", None),
    "population.gamma_rate": ("population", "gamma_rate", None),
    "population.cash": ("population", "cash", "cash"),
    "population.p0": ("population", "p0", "p0"),
    "population.rand_mode": ("population", "rand_mode", "rand_mode"),  # basic | refined
    "population.critical_frac": ("population", "critical_frac", "critical_frac"),
    # drop_below | relative_drop | deciblack_drop
    "crash.kind": ("crash", "kind", "crash_kind"),
    "crash.value": ("crash", "value", "crash_value"),
    "run.m0": (None, "m0", "m0"),
    "run.seed": (None, "seed", "seed"),
    "run.replicates": (None, "replicates", "replicates"),
}


def _convert(key: str, raw: str, where: str):
    kind = type(_DEFAULTS[key])
    raw = raw.strip()
    try:
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind.__name__} "
                          f"for {key}") from None
    return value


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
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw, f"{source}:{lineno}")
    return values


def build_config(values: dict) -> ExperimentConfig:
    """Materialize an ExperimentConfig from a dotted-key mapping; missing
    keys take their defaults."""
    v = {**_DEFAULTS, **values}
    kwargs: dict = {part: {} for part, _, _ in KEYS.values()}
    for key, (part, field, _) in KEYS.items():
        kwargs[part][field] = v[key]
    kwargs["population"]["rho"] = kwargs["market"]["rho"]
    parts = {}
    for part, fields in kwargs.items():
        if part == "population":
            _split_val_frac(fields)
        if part is not None:
            parts[part] = type(getattr(_BASE, part))(**fields)
    return ExperimentConfig(**parts, **kwargs[None])


def _split_val_frac(fields: dict) -> None:
    """Replace val_frac and n_vals by val_fracs: the total valuation-trader
    share (-1: what the Mo and Rand traders leave) split evenly."""
    val, n_vals = fields.pop("val_frac"), fields.pop("n_vals")
    if n_vals < 1:
        raise ConfigError("population.n_vals must be >= 1")
    if val < 0:
        val = 1.0 - fields["mo_frac"] - fields["rand_frac"]
    fields["val_fracs"] = tuple([val / n_vals] * n_vals)


def parse_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve file values (if any) plus overrides into an ExperimentConfig."""
    values: dict[str, object] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values = parse_keyvalues(text, source=path)
    if overrides:
        for key, raw in overrides.items():
            if key not in KEYS:
                raise ConfigError(f"override: unknown key {key!r}")
            if isinstance(raw, str):
                values[key] = _convert(key, raw, "override")
            else:
                values[key] = raw
    return build_config(values)


def config_values(config: ExperimentConfig) -> dict:
    """Dotted-key mapping equivalent to the config (inverse of build_config)."""
    p = config.population
    # even splits reconstruct exactly: (x * n) / n == x for the splits we emit
    total_val = p.val_fracs[0] * p.n_vals if p.val_fracs else 0.0
    return {key: total_val if field == "val_frac"
            else getattr(config if part is None else getattr(config, part), field)
            for key, (part, field, _) in KEYS.items()}


_BASE = ExperimentConfig()
_DEFAULTS = {**config_values(_BASE), "population.val_frac": -1.0}
