"""Exciton-multiplicity statistics for quantum dots.

Two routes to the multiplicity law of multi-exciton generation: the
statistical-theory (phase-space) distribution over even carrier counts,
and the synergetic birth-death master equation for the exciton population,
cross-checked by an exact stochastic-simulation oracle.
"""

__version__ = "0.1.0"

from .core import (
    DiscreteDistribution,
    ExtremaReport,
    KineticParams,
    MomentSummary,
    PhysicalParams,
    ReducedStatParams,
    moments,
    poisson_distribution,
    reduce_params,
    total_variation,
)
from .multiplicity import (
    CalibrationResult,
    calibrate_coupling,
    deviation_scan,
    log_stat_weight,
    multiplicity_distribution,
)
from .birthdeath import (
    birth_rate,
    death_rate,
    detailed_balance_gap,
    fast_meg_limit_root,
    find_extrema,
    stationary_distribution,
    step_ratio,
    transient_evolve,
)
from .ssa import (
    Trajectory,
    occupancy_histogram,
    simulate_trajectory,
    stationary_histogram,
)

__all__ = [
    "DiscreteDistribution", "ExtremaReport", "KineticParams", "MomentSummary",
    "PhysicalParams", "ReducedStatParams", "moments", "poisson_distribution",
    "reduce_params", "total_variation",
    "CalibrationResult", "calibrate_coupling", "deviation_scan",
    "log_stat_weight", "multiplicity_distribution",
    "birth_rate", "death_rate", "detailed_balance_gap", "fast_meg_limit_root",
    "find_extrema", "stationary_distribution", "step_ratio", "transient_evolve",
    "Trajectory", "occupancy_histogram", "simulate_trajectory", "stationary_histogram",
]
