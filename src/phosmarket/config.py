"""Flat key-value experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace
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
        if self.unit_kt <= 0:
            raise ConfigError("unit_kt must be positive")
        if self.theta < 0:
            raise ConfigError("theta must be nonnegative")
        if self.capacity_share_base not in ("mean", "latest"):
            raise ConfigError("capacity_share_base must be 'mean' or 'latest'")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def with_overrides(
        self,
        *,
        seed: int | None = None,
        replications: int | None = None,
        output_dir: Path | None = None,
        workers: int | None = None,
    ) -> ExperimentConfig:
        updates: dict = {}
        if seed is not None:
            updates["seed"] = seed
        if replications is not None:
            updates["replications"] = replications
        if output_dir is not None:
            updates["output_dir"] = Path(output_dir)
        if workers is not None:
            updates["workers"] = workers
        return replace(self, **updates) if updates else self


_PARSERS = {
    "scenario": str,
    "seed": int,
    "reference_market": str,
    "reference_year": int,
    "data_dir": Path,
    "output_dir": Path,
    "replications": int,
    "money_scale": int,
    "unit_kt": float,
    "theta": float,
    "capacity_share_base": str,
    "workers": int,
}

_REQUIRED = ("scenario", "seed", "reference_market", "reference_year", "data_dir", "output_dir")


def load_config(path: Path) -> ExperimentConfig:
    """Parse a ``key = value`` file, one entry per line, ``#`` comments."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
        try:
            values[key] = parser(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    return ExperimentConfig(**values)  # type: ignore[arg-type]
