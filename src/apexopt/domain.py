"""Parameter spaces, metrics, requirements, observations.

Everything downstream (surrogates, acquisition, baselines, the engine)
works on two shared conventions defined here:

* parameter sets live on a finite grid; each dimension is affinely mapped
  to [0, 1] (optionally on a log2 axis) so that kernel length scales and
  distances are comparable across heterogeneous units;
* requirements are canonicalized to a pure minimization problem with
  every constraint in "value <= bound" form.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

logger = logging.getLogger(__name__)

MINIMIZE = "minimize"
MAXIMIZE = "maximize"


class ConfigError(ValueError):
    """Invalid domain object or configuration (CLI exit code 2)."""


class UnsatisfiableTerminationError(ConfigError):
    """Termination criteria that can never fire (CLI exit code 4)."""


@dataclass(frozen=True)
class ParameterDef:
    """One tunable parameter and its ordered list of allowed values.

    ``scale`` selects the metric-space axis used for normalization:
    ``linear`` uses the raw value, ``log2`` uses the base-2 exponent
    (appropriate for exponentially spaced values such as protocol
    intervals of 2**4 .. 2**16 ms).
    """

    name: str
    values: tuple[float, ...]
    unit: str = ""
    scale: str = "linear"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("parameter name must be non-empty")
        # A value is a number by the metric rule: not a bool or a string.
        if not all(map(is_metric_value, self.values)):
            raise ConfigError(
                f"parameter {self.name!r}: values must be numbers and finite"
            )
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ConfigError(f"parameter {self.name!r}: values must be non-empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(
                f"parameter {self.name!r}: values must be strictly increasing"
            )
        if self.scale not in ("linear", "log2"):
            raise ConfigError(
                f"parameter {self.name!r}: unknown scale {self.scale!r}"
            )
        if self.scale == "log2" and values[0] <= 0:
            raise ConfigError(
                f"parameter {self.name!r}: log2 scale requires positive values"
            )

    def position(self, value: float) -> float:
        """Metric-space position of a value on this parameter's axis."""
        return math.log2(value) if self.scale == "log2" else float(value)

    def normalize(self, value: float) -> float:
        """Map a value to [0, 1]; the min value maps to 0, the max to 1."""
        lo = self.position(self.values[0])
        hi = self.position(self.values[-1])
        if hi == lo:
            return 0.0
        return (self.position(value) - lo) / (hi - lo)


@dataclass(frozen=True)
class ParameterSet:
    """One concrete assignment of values, one per parameter definition."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def as_dict(self, space: "ParameterSpace") -> dict[str, float]:
        return {d.name: v for d, v in zip(space.defs, self.values)}


class ParameterSpace:
    """The finite grid of all candidate parameter sets.

    Sets are indexed 0 .. n_sets-1 in lexicographic order of per-dimension
    value indices (first definition most significant), which gives a
    deterministic index <-> value-vector bijection.
    """

    def __init__(self, defs: Sequence[ParameterDef]):
        defs = tuple(defs)
        if not defs:
            raise ConfigError("parameter space needs at least one definition")
        names = [d.name for d in defs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate parameter names in {names}")
        self.defs = defs
        self._sizes = tuple(len(d.values) for d in defs)
        self.n_sets = int(np.prod(self._sizes))
        self._coords: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return len(self.defs)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self._sizes

    def value_indices(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.n_sets:
            raise IndexError(f"set index {index} out of range 0..{self.n_sets - 1}")
        return tuple(int(i) for i in np.unravel_index(index, self._sizes))

    def set_at(self, index: int) -> ParameterSet:
        idx = self.value_indices(index)
        return ParameterSet(tuple(d.values[i] for d, i in zip(self.defs, idx)))

    def index_of(self, pset: Union[ParameterSet, Sequence[float]]) -> int:
        values = pset.values if isinstance(pset, ParameterSet) else tuple(pset)
        if len(values) != self.dimension:
            raise ConfigError(
                f"expected {self.dimension} values, got {len(values)}"
            )
        per_dim = []
        for d, v in zip(self.defs, values):
            # A value is a number by the metric rule: not a bool or a string.
            if not (is_metric_value(v) and float(v) in d.values):
                raise ConfigError(f"value {v!r} not allowed for parameter {d.name!r}")
            per_dim.append(d.values.index(float(v)))
        return int(np.ravel_multi_index(tuple(per_dim), self._sizes))

    def normalized(self, item: Union[int, ParameterSet, Sequence[float]]) -> np.ndarray:
        """Unit-cube coordinates of one parameter set."""
        if isinstance(item, (int, np.integer)):
            pset = self.set_at(int(item))
        elif isinstance(item, ParameterSet):
            pset = item
        else:
            pset = ParameterSet(tuple(item))
        return np.array(
            [d.normalize(v) for d, v in zip(self.defs, pset.values)], dtype=float
        )

    def normalized_all(self) -> np.ndarray:
        """(n_sets, dimension) matrix of unit-cube coordinates, cached."""
        if self._coords is None:
            self._coords = np.vstack(
                [self.normalized(i) for i in range(self.n_sets)]
            )
            self._coords.setflags(write=False)
        return self._coords

    def __len__(self) -> int:
        return self.n_sets

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self._sizes)
        return f"ParameterSpace({dims}; {[d.name for d in self.defs]})"


def enumerate_space(defs: Sequence[ParameterDef]) -> ParameterSpace:
    """Build the full grid of parameter sets from the definitions."""
    return ParameterSpace(defs)


@dataclass(frozen=True)
class MetricSpec:
    """A performance metric and the direction in which it improves."""

    name: str
    direction: str
    unit: str = ""

    def __post_init__(self) -> None:
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ConfigError(
                f"metric {self.name!r}: direction must be "
                f"{MINIMIZE!r} or {MAXIMIZE!r}, got {self.direction!r}"
            )


@dataclass(frozen=True)
class ConstraintSpec:
    """A percentile bound on a metric, e.g. median PRR >= 65%."""

    metric: str
    relation: str
    bound: float
    percentile: float = 0.5

    def __post_init__(self) -> None:
        if self.relation not in (">=", "<="):
            raise ConfigError(
                f"constraint on {self.metric!r}: relation must be '>=' or '<='"
            )
        if not math.isfinite(self.bound):
            raise ConfigError(f"constraint on {self.metric!r}: bound must be finite")
        if not 0.0 < self.percentile < 1.0:
            raise ConfigError(
                f"constraint on {self.metric!r}: percentile must be in (0, 1), "
                f"got {self.percentile}"
            )


@dataclass(frozen=True)
class Requirement:
    """Optimization goal plus zero or more percentile constraints."""

    goal: MetricSpec
    constraints: tuple[ConstraintSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        constrained = [c.metric for c in self.constraints]
        for metric in constrained:
            if constrained.count(metric) > 1:
                raise ConfigError(
                    f"metric {metric!r} has more than one constraint; "
                    "at most one constraint per metric is supported"
                )
        if any(c.metric == self.goal.name for c in self.constraints):
            logger.warning(
                "goal metric %r also appears as a constraint metric", self.goal.name
            )

    @property
    def metric_names(self) -> tuple[str, ...]:
        return canonicalize(self).metric_names


@dataclass(frozen=True)
class CanonicalConstraint:
    """Constraint in internal "sign * value <= bound" form."""

    metric: str
    sign: float
    bound: float
    percentile: float

    def satisfied(self, raw: float | np.ndarray) -> bool | np.ndarray:
        """Whether a raw value meets the constraint; elementwise on arrays."""
        return self.sign * raw <= self.bound


@dataclass(frozen=True)
class CanonicalForm:
    """Requirement reduced to minimization of ``goal_sign * goal_metric``.

    A maximize goal gets sign -1; a ">= c" constraint becomes
    "-metric <= -c". Canonicalizing a CanonicalForm is the identity.
    """

    goal_metric: str
    goal_sign: float
    constraints: tuple[CanonicalConstraint, ...]

    def goal_value(self, metrics: Mapping[str, float]) -> float:
        return self.goal_sign * metrics[self.goal_metric]

    @property
    def metric_names(self) -> tuple[str, ...]:
        names = [self.goal_metric]
        for c in self.constraints:
            if c.metric not in names:
                names.append(c.metric)
        return tuple(names)


def canonicalize(req: Union[Requirement, CanonicalForm]) -> CanonicalForm:
    """Reduce a requirement to the internal minimization form."""
    if isinstance(req, CanonicalForm):
        return req
    goal_sign = 1.0 if req.goal.direction == MINIMIZE else -1.0
    constraints = []
    for c in req.constraints:
        if c.relation == "<=":
            constraints.append(
                CanonicalConstraint(c.metric, 1.0, float(c.bound), c.percentile)
            )
        else:
            constraints.append(
                CanonicalConstraint(c.metric, -1.0, -float(c.bound), c.percentile)
            )
    return CanonicalForm(
        goal_metric=req.goal.name,
        goal_sign=goal_sign,
        constraints=tuple(constraints),
    )


def normalized_distance(space: ParameterSpace, a: int, b: int) -> float:
    """Euclidean distance between two sets, given by index, in unit-cube
    coordinates. The space diagonal (maximum possible distance) is
    sqrt(dimension)."""
    coords = space.normalized_all()
    return float(np.linalg.norm(coords[a] - coords[b]))


def max_distance(space: ParameterSpace) -> float:
    """Diagonal of the normalized space."""
    return math.sqrt(space.dimension)


def is_set_index(value: object, n_sets: int) -> bool:
    """Whether ``value`` names one of ``n_sets`` sets: an int, NumPy
    integers included, in 0..n_sets-1. A bool is not an index."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and 0 <= value < n_sets)


def is_metric_value(value: object) -> bool:
    """Whether ``value`` is a metric reading: a finite int or float, NumPy
    scalars included. A bool is not a reading, so a JSON ``true`` is not
    1.0."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class Observation:
    """Metric readings returned by one trial of one parameter set."""

    trial_index: int
    set_index: int
    metrics: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.trial_index < 1:
            raise ConfigError("trial_index must be >= 1")
        object.__setattr__(self, "metrics", dict(self.metrics))


@dataclass(frozen=True)
class TerminationCriteria:
    """Stop conditions; the run ends when any configured criterion fires."""

    max_trials: int | None = None
    alpha_target: float | None = None
    beta_target: float | None = None

    def __post_init__(self) -> None:
        if (
            self.max_trials is None
            and self.alpha_target is None
            and self.beta_target is None
        ):
            raise ConfigError("at least one termination criterion must be set")
        if self.max_trials is not None and self.max_trials < 1:
            raise ConfigError("max_trials must be a positive integer")
        if self.alpha_target is not None and not 0.0 <= self.alpha_target <= 100.0:
            raise UnsatisfiableTerminationError(
                f"alpha_target {self.alpha_target} is outside the reachable "
                "range [0, 100]"
            )
        if self.beta_target is not None and not 0.0 <= self.beta_target <= 1.0:
            raise UnsatisfiableTerminationError(
                f"beta_target {self.beta_target} is outside the reachable "
                "range [0, 1]"
            )
        if (
            self.beta_target is not None
            and self.beta_target >= 1.0
            and self.max_trials is None
        ):
            # The binomial robustness bound is strictly below 1 for any
            # finite number of trials.
            raise UnsatisfiableTerminationError(
                "beta_target = 1.0 can never be reached; set max_trials too"
            )
