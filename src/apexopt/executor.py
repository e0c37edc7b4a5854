"""Trial execution backends.

Given a parameter set, produce one Observation. Three interchangeable
backends:

* replay: sample pre-recorded trial results for the requested set without
  replacement; once a set's records are used up it is exhausted and the
  engine must move on. Requests for sets that were never recorded are
  served by the nearest recorded set (consuming its budget).
* synthetic: a table of one value per set plus seeded Gaussian noise,
  keyed by (seed, trial index, metric) so metric streams are independent
  and runs are reproducible.
* remote: a blocking HTTP client for a job-queue style testbed API
  (POST /jobs, poll GET /jobs/{id}, fetch GET /jobs/{id}/metrics).

``make_executor`` builds the backend for a trial source: a loaded
``TraceDataset``, a ``SyntheticSpec`` or a ``RemoteConfig``.

Dataset files are JSON Lines with a leading header object declaring the
parameter space, one record per line:

    {"header": {"parameters": [{"name": ..., "values": [...]}, ...],
                "metrics": ["energy", "prr"], "n_r": 6}}
    {"params": {"tx_power": -5, "n_tx": 1},
     "metrics": {"energy": 201.5, "prr": 71.2}, "run_id": "r0"}

CSV import is also accepted: a header row with ``param:<name>`` and
``metric:<name>`` columns plus an optional ``run_id`` column.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import operator
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from apexopt.domain import (
    ConfigError,
    Observation,
    ParameterDef,
    ParameterSpace,
    is_metric_value,
)


class ExecutorError(RuntimeError):
    """Base class for trial-execution failures (CLI exit code 3)."""


class SetExhausted(ExecutorError):
    """All recorded trials of the requested set have been consumed."""

    def __init__(self, set_index: int):
        super().__init__(f"parameter set {set_index} is exhausted")
        self.set_index = set_index


class DatasetExhausted(ExecutorError):
    """No unconsumed record remains anywhere in the dataset."""


class RemoteProtocolError(ExecutorError):
    """HTTP-level failure or malformed reply from the testbed."""


class JobFailedError(ExecutorError):
    """The testbed reported the job as failed."""

    def __init__(self, job_id: str):
        super().__init__(f"testbed job {job_id} failed")
        self.job_id = job_id


class TrialTimeoutError(ExecutorError):
    """The job did not complete within the allotted time."""


class DatasetFormatError(ConfigError):
    """Unreadable or ill-formed dataset file (CLI exit code 2)."""


@dataclass(frozen=True)
class TraceRecord:
    run_id: str
    metrics: Mapping[str, float]
    # The JSONL line or CSV row the record was loaded from; 0 if made in code.
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "metrics", {k: float(v) for k, v in self.metrics.items()}
        )


@dataclass
class TraceDataset:
    """Pre-recorded trial results grouped by parameter set."""

    space: ParameterSpace
    records_by_set: tuple[tuple[TraceRecord, ...], ...]

    def __post_init__(self) -> None:
        if len(self.records_by_set) != self.space.n_sets:
            raise DatasetFormatError(
                f"expected {self.space.n_sets} record groups, "
                f"got {len(self.records_by_set)}"
            )

    @property
    def n_records(self) -> int:
        return sum(len(r) for r in self.records_by_set)

    def counts(self) -> list[int]:
        return [len(r) for r in self.records_by_set]

    def metric_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for group in self.records_by_set:
            for rec in group:
                for m in rec.metrics:
                    if m not in names:
                        names.append(m)
        return tuple(names)

    def values(self, set_index: int, metric: str) -> list[float]:
        return [r.metrics[metric] for r in self.records_by_set[set_index]]

    def table(self, metric: str) -> np.ndarray:
        """Per-set median of the recorded values; NaN for an unrecorded set."""
        out = np.full(self.space.n_sets, np.nan)
        for idx in range(self.space.n_sets):
            values = self.values(idx, metric)
            if values:
                out[idx] = np.median(values)
        return out


def _record(run_id: str, metrics, line: int, where: str) -> TraceRecord:
    if not isinstance(metrics, Mapping) or not all(
        isinstance(v, float) or is_metric_value(v) for v in metrics.values()
    ):
        raise DatasetFormatError(f"{where}: metrics must map names to numbers")
    bad = [name for name, value in metrics.items() if not is_metric_value(value)]
    if bad:
        raise DatasetFormatError(f"{where}: non-finite values for metrics {bad}")
    return TraceRecord(run_id=run_id, metrics=metrics, line=line)


def _params_to_index(space: ParameterSpace, params: Mapping[str, float]) -> int:
    try:
        values = [params[d.name] for d in space.defs]
    except KeyError as e:
        raise DatasetFormatError(f"record missing parameter {e.args[0]!r}") from None
    except TypeError:
        raise DatasetFormatError("params must map names to values") from None
    return space.index_of(values)


def _group(
    space: ParameterSpace, rows: Sequence[tuple], path: Path
) -> tuple[tuple[TraceRecord, ...], ...]:
    """Per-set record groups of ``(line, params, metrics, run_id)`` rows."""
    groups: list[list[TraceRecord]] = [[] for _ in range(space.n_sets)]
    for line, params, metrics, run_id in rows:
        where = f"{path}:{line}"
        try:
            idx = _params_to_index(space, params)
        except ConfigError as e:
            raise DatasetFormatError(f"{where}: {e}") from None
        groups[idx].append(_record(run_id, metrics, line, where))
    return tuple(tuple(g) for g in groups)


def _space_from_header(header: Mapping, where: str) -> ParameterSpace:
    """The parameter space of the header at ``where`` (file and line);
    unknown parameter keys are ignored."""
    known = {f.name for f in fields(ParameterDef)}
    try:
        return ParameterSpace([
            ParameterDef(**{k: v for k, v in p.items() if k in known})
            for p in header["parameters"]
        ])
    except (AttributeError, KeyError, TypeError) as e:
        raise DatasetFormatError(f"{where}: malformed dataset header: {e}") from None
    except ConfigError as e:
        raise DatasetFormatError(f"{where}: {e}") from None


def load_dataset(
    path: Union[str, Path], space: ParameterSpace | None = None
) -> TraceDataset:
    """Load a JSONL or CSV trace dataset.

    An explicit ``space`` overrides the JSONL header; CSV files without an
    explicit space infer each parameter's value list from the distinct
    values present.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetFormatError(f"dataset file not found: {path}")
    if path.suffix.lower() == ".csv":
        return _load_csv(path, space)
    return _load_jsonl(path, space)


def _load_jsonl(path: Path, space: ParameterSpace | None) -> TraceDataset:
    header = None
    rows = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetFormatError(f"{path}:{line_no}: invalid JSON: {e}") from None
            if not isinstance(obj, dict):
                raise DatasetFormatError(f"{path}:{line_no}: expected a JSON object")
            if "header" in obj:
                if header is not None:
                    raise DatasetFormatError(f"{path}:{line_no}: duplicate header")
                header, header_at = obj["header"], f"{path}:{line_no}"
            elif "params" not in obj or "metrics" not in obj:
                raise DatasetFormatError(
                    f"{path}:{line_no}: record needs 'params' and 'metrics'"
                )
            else:
                rows.append((line_no, obj["params"], obj["metrics"],
                             str(obj.get("run_id", f"line{line_no}"))))
    if space is None:
        if header is None:
            raise DatasetFormatError(
                f"{path}: no header line and no explicit parameter space"
            )
        space = _space_from_header(header, header_at)
    return TraceDataset(space, _group(space, rows, path))


def _load_csv(path: Path, space: ParameterSpace | None) -> TraceDataset:
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if not reader.fieldnames:
            raise DatasetFormatError(f"{path}: empty CSV file")
        param_cols = [c for c in reader.fieldnames if c.startswith("param:")]
        metric_cols = [c for c in reader.fieldnames if c.startswith("metric:")]
        if not param_cols or not metric_cols:
            raise DatasetFormatError(
                f"{path}: need 'param:<name>' and 'metric:<name>' columns"
            )
        rows = list(reader)
    parsed = []
    for row_no, row in enumerate(rows, start=2):
        try:
            params = {c[len("param:"):]: float(row[c]) for c in param_cols}
            metrics = {c[len("metric:"):]: float(row[c]) for c in metric_cols}
        except (TypeError, ValueError):
            raise DatasetFormatError(f"{path}:{row_no}: non-numeric cell") from None
        parsed.append((row_no, params, metrics, row.get("run_id") or f"row{row_no}"))
    if space is None:
        defs = []
        for c in param_cols:
            name = c[len("param:"):]
            values = sorted({p[name] for _, p, _, _ in parsed})
            defs.append(ParameterDef(name=name, values=tuple(values)))
        space = ParameterSpace(defs)
    return TraceDataset(space, _group(space, parsed, path))


class ReplayExecutor:
    """One run's replay of a dataset: each trial draws an unconsumed record.

    Records are drawn without replacement. An exhausted set is listed by
    ``unavailable_sets``, so the engine never selects it; requesting one
    anyway raises SetExhausted. A set that was never recorded is served
    by the nearest recorded set (normalized distance, lowest index on
    ties), consuming that donor's budget.
    """

    def __init__(
        self,
        dataset: TraceDataset,
        seed: int,
        required_metrics: Sequence[str] = (),
    ):
        for idx, group in enumerate(dataset.records_by_set):
            for rec in group:
                missing = [m for m in required_metrics if m not in rec.metrics]
                if missing:
                    raise DatasetFormatError(
                        f"set {idx} record {rec.run_id!r} missing metrics {missing}"
                    )
        self.dataset = dataset
        self._remaining = [list(range(len(g))) for g in dataset.records_by_set]
        self._rng = np.random.default_rng(seed)
        self._consumed: list[tuple[int, int]] = []

    def run_trial(self, set_index: int, trial_index: int) -> Observation:
        records = self.dataset.records_by_set
        donor = set_index
        if not records[set_index]:
            donors = [
                i for i in range(len(records)) if records[i] and self._remaining[i]
            ]
            if not donors:
                raise DatasetExhausted("no unconsumed records remain in the dataset")
            coords = self.dataset.space.normalized_all()
            distances = np.linalg.norm(coords[donors] - coords[set_index], axis=1)
            donor = donors[int(np.argmin(distances))]
        elif not self._remaining[set_index]:
            raise SetExhausted(set_index)
        pool = self._remaining[donor]
        rec_idx = pool.pop(int(self._rng.integers(len(pool))))
        self._consumed.append((donor, rec_idx))
        return Observation(trial_index, set_index, records[donor][rec_idx].metrics)

    def unavailable_sets(self) -> frozenset[int]:
        """Sets the engine should not select: exhausted, or unservable.

        An unrecorded set borrows from recorded ones, so it closes only
        when every recorded set is exhausted.
        """
        records = self.dataset.records_by_set
        exhausted = {i for i, g in enumerate(records) if g and not self._remaining[i]}
        if len(exhausted) < sum(1 for g in records if g):
            return frozenset(exhausted)
        return frozenset(range(len(records)))

    @property
    def consumed(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._consumed)


@dataclass
class SyntheticSpec:
    """Noiseless metric tables over the space plus per-metric noise.

    Each table holds one value per set, in index order.
    """

    space: ParameterSpace
    metrics: dict[str, np.ndarray]
    noise_std: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Convert into a new dict: the caller's mapping stays as given.
        tables = {}
        for name, values in self.metrics.items():
            table = np.asarray(values, dtype=float)
            if table.shape != (self.space.n_sets,):
                raise ConfigError(
                    f"synthetic metric {name!r}: table must have one value "
                    f"per set ({self.space.n_sets}), got shape {table.shape}"
                )
            bad = np.flatnonzero(~np.isfinite(table))
            if bad.size:
                raise ConfigError(
                    f"synthetic metric {name!r}: value {table[bad[0]]} at set "
                    f"{bad[0]} is not finite"
                )
            tables[name] = table
        self.metrics = tables
        for name, std in self.noise_std.items():
            if name not in tables:
                raise ConfigError(f"noise std for {name!r}: unknown metric")
            if not 0.0 <= std < math.inf:
                raise ConfigError(
                    f"noise std for {name!r} must be nonnegative and finite"
                )

    def table(self, metric: str) -> np.ndarray:
        return self.metrics[metric]


@functools.cache
def _metric_stream_key(metric: str) -> int:
    return int.from_bytes(hashlib.sha256(metric.encode()).digest()[:8], "big")


def _uint32_words(value: int) -> tuple[int, ...]:
    """The 32-bit words, least significant first, that ``SeedSequence``
    reads from a nonnegative int; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed words need a nonnegative integer, got {value}")
    words = []
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return tuple(words) or (0,)


class SyntheticExecutor:
    """Table value plus Gaussian noise, reproducible from the seed.

    Noise draws are keyed by (seed, trial index, metric name) so metric
    streams are independent and replays are bit-identical.
    """

    def __init__(self, spec: SyntheticSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self._seed_words = _uint32_words(seed)
        self._key_words = {
            name: _uint32_words(_metric_stream_key(name)) for name in spec.metrics
        }

    def run_trial(self, set_index: int, trial_index: int) -> Observation:
        metrics = {}
        trial_words = None
        for name, table in self.spec.metrics.items():
            value = float(table[set_index])
            std = self.spec.noise_std.get(name, 0.0)
            if std > 0.0:
                # default_rng([seed, trial_index, key]) without its
                # Python-level conversion of the three ints: the same
                # uint32 words, so the same draws.
                if trial_words is None:
                    trial_words = self._seed_words + _uint32_words(trial_index)
                rng = np.random.default_rng(
                    np.array(trial_words + self._key_words[name], dtype=np.uint32)
                )
                value += std * rng.standard_normal()
            metrics[name] = value
        return Observation(trial_index, set_index, metrics)

    def unavailable_sets(self) -> frozenset[int]:
        return frozenset()


@dataclass
class RemoteConfig:
    """Endpoint and timing for the job-queue testbed protocol."""

    endpoint: str
    poll_interval: float = 5.0
    trial_duration: float = 600.0
    timeout: float | None = None
    http_timeout: float = 30.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every check: a NaN deadline never
        # passes, and a negative sleep raises.
        for name in ("trial_duration", "http_timeout", "timeout"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"remote {name} must be positive and finite")
        if not 0.0 <= self.poll_interval < math.inf:
            raise ConfigError("remote poll_interval must be nonnegative and finite")

    @property
    def effective_timeout(self) -> float:
        return self.timeout if self.timeout is not None else 2.0 * self.trial_duration


def remote_trial(cfg: RemoteConfig, params: Mapping[str, float]) -> dict[str, float]:
    """Submit one job, poll it to completion, and return its metrics."""
    import requests  # only the remote backend needs it (about 4 MB at import)

    base = cfg.endpoint.rstrip("/")
    deadline = time.monotonic() + cfg.effective_timeout
    try:
        resp = requests.post(
            f"{base}/jobs", json={"params": dict(params)}, timeout=cfg.http_timeout
        )
        resp.raise_for_status()
        job_id = str(resp.json()["job_id"])
    except (requests.RequestException, KeyError, ValueError) as e:
        raise RemoteProtocolError(f"job submission failed: {e}") from e
    while True:
        try:
            resp = requests.get(f"{base}/jobs/{job_id}", timeout=cfg.http_timeout)
            resp.raise_for_status()
            state = resp.json().get("state")
        except (requests.RequestException, ValueError) as e:
            raise RemoteProtocolError(f"job poll failed: {e}") from e
        if state == "done":
            break
        if state == "failed":
            raise JobFailedError(job_id)
        if time.monotonic() >= deadline:
            raise TrialTimeoutError(
                f"job {job_id} still {state!r} after the trial timeout"
            )
        time.sleep(cfg.poll_interval)
    try:
        resp = requests.get(f"{base}/jobs/{job_id}/metrics", timeout=cfg.http_timeout)
        resp.raise_for_status()
        metrics = {str(k): v for k, v in resp.json().items()}
    except (requests.RequestException, AttributeError, ValueError) as e:
        raise RemoteProtocolError(f"metric retrieval failed: {e}") from e
    bad = [name for name, value in metrics.items() if not is_metric_value(value)]
    if bad:
        raise RemoteProtocolError(
            f"metric retrieval failed: job {job_id} returned non-finite or "
            f"non-numeric values for {bad}"
        )
    return {name: float(value) for name, value in metrics.items()}


class RemoteExecutor:
    """Blocking run-one-trial client against the wire protocol."""

    def __init__(self, cfg: RemoteConfig, space: ParameterSpace):
        self.cfg = cfg
        self._space = space

    def run_trial(self, set_index: int, trial_index: int) -> Observation:
        params = self._space.set_at(set_index).as_dict(self._space)
        return Observation(trial_index, set_index, remote_trial(self.cfg, params))

    def unavailable_sets(self) -> frozenset[int]:
        return frozenset()


# Where a run's trials come from: a campaign needs the per-set tables of a
# replay dataset or synthetic landscape; a single run may also use a testbed.
TableSource = Union[TraceDataset, SyntheticSpec]
TrialSource = Union[TraceDataset, SyntheticSpec, RemoteConfig]


def make_executor(
    source: TrialSource,
    space: ParameterSpace,
    seed: int,
    required_metrics: Sequence[str] = (),
):
    """A fresh executor for one run, holding all of that run's state."""
    if isinstance(source, TraceDataset):
        return ReplayExecutor(source, seed, required_metrics)
    if isinstance(source, SyntheticSpec):
        return SyntheticExecutor(source, seed)
    return RemoteExecutor(source, space)


@dataclass
class DatasetReport:
    """Findings from a dataset validation pass."""

    path: str
    n_sets: int
    total_records: int
    covered_sets: int
    target_records: int
    shortfalls: list[tuple[int, int]]
    missing_metrics: list[tuple[int, str]]
    duplicate_run_ids: list[str]

    @property
    def full_coverage(self) -> bool:
        return self.covered_sets == self.n_sets

    def summary_lines(self) -> list[str]:
        lines = [
            f"{self.total_records} records, "
            + ("full coverage" if self.full_coverage
               else f"{self.covered_sets}/{self.n_sets} sets covered")
        ]
        for idx, count in self.shortfalls:
            lines.append(
                f"set {idx}: {count} records (target {self.target_records})"
            )
        for line_no, metric in self.missing_metrics:
            lines.append(f"line {line_no}: missing metric {metric!r}")
        for run_id in self.duplicate_run_ids:
            lines.append(f"duplicate run_id {run_id!r}")
        if len(lines) == 1:
            lines.append("no issues found")
        return lines


def validate_dataset(path: Union[str, Path], n_r: int = 6) -> DatasetReport:
    """Check coverage, per-set record counts, metrics, and run-id uniqueness.

    Record-level findings come in file order and name the JSONL line or
    CSV row of their record.
    """
    if n_r < 1:
        raise ConfigError("n_r (target records per set) must be >= 1")
    dataset = load_dataset(path)
    counts = dataset.counts()
    shortfalls = [(i, c) for i, c in enumerate(counts) if c < n_r]
    records = sorted(
        (rec for group in dataset.records_by_set for rec in group),
        key=lambda rec: rec.line,
    )
    expected = dataset.metric_names()
    missing = [
        (rec.line, m) for rec in records for m in expected if m not in rec.metrics
    ]
    seen_ids: set[str] = set()
    duplicates: list[str] = []
    for rec in records:
        if rec.run_id in seen_ids and rec.run_id not in duplicates:
            duplicates.append(rec.run_id)
        seen_ids.add(rec.run_id)
    return DatasetReport(
        path=str(Path(path)),
        n_sets=dataset.space.n_sets,
        total_records=dataset.n_records,
        covered_sets=sum(1 for c in counts if c > 0),
        target_records=n_r,
        shortfalls=shortfalls,
        missing_metrics=missing,
        duplicate_run_ids=duplicates,
    )
