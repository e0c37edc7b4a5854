"""Shared fixtures: spaces, requirements, the bundled dataset, a mock testbed,
a dataset writer and the BLAS thread count."""

from __future__ import annotations

import json
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from pathlib import Path

import pytest

from apexopt import surrogate
from apexopt.domain import (
    ConstraintSpec,
    MetricSpec,
    ParameterDef,
    ParameterSpace,
    Requirement,
)
from apexopt.executor import TraceDataset, TraceRecord, load_dataset


@pytest.fixture
def crystal_space() -> ParameterSpace:
    return ParameterSpace(
        [
            ParameterDef("tx_power", (-5.0, -3.0, -1.0, 0.0), unit="dBm"),
            ParameterDef("n_tx", (1.0, 2.0, 3.0, 4.0)),
        ]
    )


@pytest.fixture
def energy_prr_requirement() -> Requirement:
    return Requirement(
        goal=MetricSpec("energy", "minimize", "J"),
        constraints=(ConstraintSpec("prr", ">=", 65.0, 0.5),),
    )


@pytest.fixture(scope="session")
def bundled_dataset_path(tmp_path_factory) -> str:
    source = resources.files("apexopt.data") / "crystal_demo.jsonl"
    target = tmp_path_factory.mktemp("data") / "crystal_demo.jsonl"
    target.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    return str(target)


@pytest.fixture(scope="session")
def bundled_dataset(bundled_dataset_path) -> TraceDataset:
    return load_dataset(bundled_dataset_path)


def make_line_space(n: int) -> ParameterSpace:
    return ParameterSpace([ParameterDef("p", tuple(float(i) for i in range(n)))])


def make_dataset(
    space: ParameterSpace,
    metric_tables: dict[str, list[float]],
    records_per_set: int = 6,
    skip_sets: tuple[int, ...] = (),
) -> TraceDataset:
    """Noiseless dataset: each set repeats its table values verbatim."""
    groups = []
    for idx in range(space.n_sets):
        if idx in skip_sets:
            groups.append(())
            continue
        recs = tuple(
            TraceRecord(
                run_id=f"s{idx}r{k}",
                metrics={m: table[idx] for m, table in metric_tables.items()},
            )
            for k in range(records_per_set)
        )
        groups.append(recs)
    return TraceDataset(space, tuple(groups))


def save_dataset(dataset: TraceDataset, path: str | Path,
                 n_r: int | None = None) -> None:
    """Write a dataset as JSON Lines with a leading header object."""
    path = Path(path)
    header = {
        "parameters": [asdict(d) for d in dataset.space.defs],
        "metrics": list(dataset.metric_names()),
    }
    if n_r is not None:
        header["n_r"] = n_r
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        for idx in range(dataset.space.n_sets):
            params = dataset.space.set_at(idx).as_dict(dataset.space)
            for rec in dataset.records_by_set[idx]:
                fh.write(
                    json.dumps(
                        {"params": params, "metrics": dict(rec.metrics),
                         "run_id": rec.run_id},
                        sort_keys=True,
                    )
                    + "\n"
                )


def blas_threads() -> list[int]:
    """Thread count of each bundled OpenBLAS copy."""
    return [getter() for getter, _ in surrogate._blas_thread_controls()]


def set_blas_threads(counts: list[int]) -> None:
    """Set each bundled OpenBLAS copy's thread count, in ``blas_threads`` order."""
    controls = surrogate._blas_thread_controls()
    for (_, setter), count in zip(controls, counts, strict=True):
        setter(count)


@pytest.fixture
def caller_blas_threads():
    """The bundled OpenBLAS copies set to two threads, as a caller's may
    be; each copy's own count is put back afterwards."""
    original = blas_threads()
    if not original:
        pytest.skip("NumPy/SciPy do not bundle OpenBLAS here")
    set_blas_threads([2] * len(original))
    yield blas_threads()
    set_blas_threads(original)


class _MockTestbedHandler(BaseHTTPRequestHandler):
    """Job-queue stub: behavior per job is set by the server's `mode`."""

    def log_message(self, *args):  # keep test output clean
        pass

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        if not self.path.endswith("/jobs"):
            self._send(404, {"error": "not found"})
            return
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        server = self.server
        job_id = f"job-{server.next_id}"
        server.next_id += 1
        server.jobs[job_id] = {"params": payload.get("params", {}), "polls": 0}
        self._send(200, {"job_id": job_id})

    def do_GET(self):
        server = self.server
        parts = self.path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            job = server.jobs.get(job_id)
            if job is None:
                self._send(404, {"error": "unknown job"})
                return
            if len(parts) == 2:
                job["polls"] += 1
                if server.mode == "failed":
                    state = "failed" if job["polls"] > 1 else "running"
                elif server.mode == "stuck":
                    state = "running"
                else:
                    state = "done"
                self._send(200, {"state": state})
                return
            if parts[2] == "metrics":
                self._send(200, dict(server.metrics))
                return
        self._send(404, {"error": "not found"})


@pytest.fixture
def mock_testbed():
    """Yields a factory: mock_testbed(mode, metrics) -> base URL."""
    servers = []

    def start(mode: str = "done", metrics: dict | None = None) -> str:
        server = ThreadingHTTPServer(("127.0.0.1", 0), _MockTestbedHandler)
        server.mode = mode
        server.metrics = metrics or {"energy": 180.0, "prr": 92.0}
        server.jobs = {}
        server.next_id = 0
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def fail_fit_on_call(monkeypatch, k: int) -> None:
    """Make the k-th (1-based) ``surrogate.fit_many_xy`` call raise FitError,
    as a degenerate covariance matrix would."""
    from apexopt import surrogate

    real = surrogate.fit_many_xy
    calls = [0]

    def flaky(*args, **kwargs):
        calls[0] += 1
        if calls[0] == k:
            raise surrogate.FitError("forced degenerate fit")
        return real(*args, **kwargs)

    monkeypatch.setattr(surrogate, "fit_many_xy", flaky)
