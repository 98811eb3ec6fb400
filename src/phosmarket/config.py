"""Flat key-value experiment configuration."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path


class ConfigError(ValueError):
    """Missing, unknown or ill-typed configuration entry."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one reproducible scenario run depends on."""

    scenario: str
    seed: int
    reference_market: str
    reference_year: int
    data_dir: Path
    output_dir: Path
    replications: int = 1000
    money_scale: int = 100
    unit_kt: float = 1.0
    theta: float = 0.5
    capacity_share_base: str = "mean"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.money_scale < 1:
            raise ConfigError("money_scale must be >= 1")
        if not math.isfinite(self.unit_kt):
            raise ConfigError("unit_kt must be finite")
        if self.unit_kt <= 0:
            raise ConfigError("unit_kt must be positive")
        if not math.isfinite(self.theta):
            raise ConfigError("theta must be finite")
        if self.theta < 0:
            raise ConfigError("theta must be nonnegative")
        if self.capacity_share_base not in ("mean", "latest"):
            raise ConfigError("capacity_share_base must equal 'mean' or 'latest'")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def with_overrides(self, **changes: object) -> ExperimentConfig:
        """A copy with every change that is not ``None`` applied."""
        return replace(self, **{key: value for key, value in changes.items() if value is not None})


# The file schema is the dataclass: each field's annotation names its parser,
# and a field without a default is a required key.
_TYPES = {"str": str, "int": int, "float": float, "Path": Path}
_PARSERS = {field.name: _TYPES[field.type] for field in fields(ExperimentConfig)}
_REQUIRED = tuple(field.name for field in fields(ExperimentConfig) if field.default is MISSING)


def load_config(path: Path) -> ExperimentConfig:
    """Parse a ``key = value`` file, one entry per line, each key once, ``#`` comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror or exc}") from None
    values: dict[str, object] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        first = key_lines.setdefault(key, lineno)
        if first != lineno:
            raise ConfigError(f"{path}:{lineno}: repeats key {key!r} of line {first}")
        value = value.strip()
        if not value:  # Path("") is the current directory, and str("") no name
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    try:
        return ExperimentConfig(**values)  # type: ignore[arg-type]
    except ConfigError as exc:  # a value out of range
        raise ConfigError(f"{path}: {exc}") from None
