"""Many-to-many matching simulator for the distributed DAP/MAP market."""

from .auction import (
    DemandBundle,
    FlowStart,
    cold_start,
    demand_bundle,
    local_spend,
    reference_start,
    run_english_auction,
    solve_minimal_markups,
    valuation,
    verify_equilibrium,
)
from .config import ExperimentConfig, load_config
from .core import (
    Equilibrium,
    FlowMatrix,
    MarketInstance,
    validate_flows,
    validate_instance,
)
from .experiment import ScenarioReport, emit_tables, run_experiment

__version__ = "0.1.0"

__all__ = [
    "DemandBundle",
    "Equilibrium",
    "ExperimentConfig",
    "FlowMatrix",
    "FlowStart",
    "MarketInstance",
    "ScenarioReport",
    "cold_start",
    "demand_bundle",
    "emit_tables",
    "load_config",
    "local_spend",
    "reference_start",
    "run_english_auction",
    "run_experiment",
    "solve_minimal_markups",
    "valuation",
    "validate_flows",
    "validate_instance",
    "verify_equilibrium",
]
