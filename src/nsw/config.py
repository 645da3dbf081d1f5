"""Run configuration: a flat key=value file with strict key checking.

Defaults follow the minute-bar protocol the model was designed around:
dual-mode transform (levels=2), Hermite degree 3, 64-bar calibration window,
alpha levels 0.05, theta = 0.25, 60-second bars.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError
from .signals import SignalConfig
from .timeseries import DEFAULT_BAR_INTERVAL, MAX_PRICE, bar_step


@dataclass(frozen=True)
class RunConfig(SignalConfig):
    """The engine's SignalConfig plus the run, data and parcel fields."""

    # parcel
    theta: float = 0.25
    rebalance_len: int = 256  # T1
    horizon: int | None = None  # return lag tau0; None = coarsest wavelet support
    # data / synthesis
    bar_interval: float = DEFAULT_BAR_INTERVAL
    seed: int = 2009
    n_bars: int = 20000
    ou_rate: float = 0.05
    ou_vol: float = 0.01
    trend: float = 0.0
    base_price: float = 100.0
    gap_policy: str = "reject"
    cost_bps: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must be in [0, 1], got {self.theta}")
        if self.gap_policy not in ("reject", "forward_fill"):
            raise ConfigError(f"gap_policy must be reject|forward_fill, got {self.gap_policy!r}")
        if self.rebalance_len < 2 or self.n_bars < 2:
            raise ConfigError("rebalance_len and n_bars must be >= 2")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        bar_step(self.bar_interval)  # timestamps are whole seconds
        if not 0.0 <= self.cost_bps < 1e4:  # a fee of 100% or more leaves no equity
            raise ConfigError(f"cost_bps must be in [0, 10000), got {self.cost_bps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.ou_vol < math.inf:
            raise ConfigError(f"ou_vol must be >= 0 and finite, got {self.ou_vol}")
        if not (math.isfinite(self.ou_rate) and math.isfinite(self.trend)):
            raise ConfigError(f"ou_rate and trend must be finite, got {self.ou_rate}, {self.trend}")
        if not 0.0 < self.base_price < MAX_PRICE:
            raise ConfigError(f"base_price must be in (0, 2**500), got {self.base_price}")

    def resolved_horizon(self, filt) -> int:
        """tau0: explicit value, else the coarsest dilated support of the filter."""
        return self.horizon if self.horizon is not None else filt.support_at(self.levels)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _coerce(name, raw):
    kind = _FIELDS[name].type  # a string: annotations are postponed
    text = raw.strip()
    if kind.endswith(" | None") and text.lower() in ("none", ""):
        return None
    if kind.startswith("int"):
        return int(text)
    if kind.startswith("float"):
        return float(text)
    if kind == "bool":
        try:
            return _BOOL_STRINGS[text.lower()]
        except KeyError:
            raise ConfigError(f"{name}: expected a boolean, got {raw!r}") from None
    return text


def _parse_lines(lines, base: RunConfig | None, label: str) -> RunConfig:
    values = dataclasses.asdict(base) if base else {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{label} {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{label} {lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{label} {lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**values)


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; ``#`` starts a comment; unknown keys are rejected."""
    return _parse_lines(text.splitlines(), None, "line")


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    return parse_config(text)


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply CLI ``key=value`` overrides on top of a parsed config, one per line."""
    return _parse_lines(overrides, cfg, "override")


def format_config(cfg: RunConfig) -> str:
    """Self-describing dump in the same format parse_config reads."""
    lines = ["# resolved run configuration"]
    for name, value in cfg.as_dict().items():
        lines.append(f"{name} = {value if value is not None else 'none'}")
    return "\n".join(lines) + "\n"
