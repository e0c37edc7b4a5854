"""apex-opt: constrained Bayesian optimization of noisy black-box systems.

The package tunes the parameters of an expensive, noisy system (e.g. a
networking protocol evaluated on a testbed) under percentile constraints.
It provides Gaussian-process surrogates with LCB/EI test-point selection,
outlier-escape heuristics, robustness/optimality confidence metrics,
greedy and reinforcement-learning baseline strategies, and a trace-replay
evaluation harness.
"""

from apexopt.domain import (
    ConstraintSpec,
    MetricSpec,
    Observation,
    ParameterDef,
    ParameterSet,
    ParameterSpace,
    Requirement,
    TerminationCriteria,
    canonicalize,
    enumerate_space,
    normalized_distance,
)
from apexopt.engine import Engine, EngineConfig, RunResult

__all__ = [
    "ConstraintSpec",
    "Engine",
    "EngineConfig",
    "MetricSpec",
    "Observation",
    "ParameterDef",
    "ParameterSet",
    "ParameterSpace",
    "Requirement",
    "RunResult",
    "TerminationCriteria",
    "canonicalize",
    "enumerate_space",
    "normalized_distance",
]

__version__ = "0.1.0"
