"""Executor backends: replay, synthetic, remote stub, dataset IO."""

import json

import numpy as np
import pytest

from apexopt.domain import ConfigError, ParameterDef
from apexopt.executor import (
    DatasetExhausted,
    DatasetFormatError,
    JobFailedError,
    RemoteConfig,
    RemoteProtocolError,
    RemoteExecutor,
    ReplayExecutor,
    SetExhausted,
    SyntheticExecutor,
    SyntheticSpec,
    _metric_stream_key,
    TraceDataset,
    TraceRecord,
    TrialTimeoutError,
    load_dataset,
    make_executor,
    remote_trial,
    validate_dataset,
)
from tests.conftest import make_dataset, make_line_space, save_dataset


class TestReplay:
    def test_seventh_request_signals_exhaustion(self, crystal_space):
        ds = make_dataset(crystal_space, {"energy": [float(i) for i in range(16)]})
        executor = ReplayExecutor(ds, seed=0)
        for k in range(6):
            obs = executor.run_trial(3, trial_index=k + 1)
            assert obs.set_index == 3
        with pytest.raises(SetExhausted):
            executor.run_trial(3, trial_index=7)

    def test_draws_are_without_replacement(self, crystal_space):
        ds = make_dataset(crystal_space, {"energy": [float(i) for i in range(16)]})
        executor = ReplayExecutor(ds, seed=5)
        for k in range(6):
            executor.run_trial(2, k + 1)
        consumed = executor.consumed
        assert len(set(consumed)) == len(consumed) == 6

    def test_unrecorded_set_served_by_nearest_lower_index(self):
        space = make_line_space(3)
        ds = make_dataset(
            space, {"m": [10.0, 0.0, 30.0]}, records_per_set=2, skip_sets=(1,)
        )
        executor = ReplayExecutor(ds, seed=1)
        obs = executor.run_trial(1, trial_index=1)
        # Sets 0 and 2 are equidistant from 1: the lower index donates.
        assert obs.set_index == 1
        assert obs.metrics["m"] == 10.0
        assert executor.consumed[0][0] == 0

    def test_nearest_fallback_consumes_donor_budget(self):
        space = make_line_space(3)
        ds = make_dataset(
            space, {"m": [10.0, 0.0, 30.0]}, records_per_set=1, skip_sets=(1,)
        )
        executor = ReplayExecutor(ds, seed=1)
        executor.run_trial(1, 1)  # consumes set 0's only record
        assert 0 in executor.unavailable_sets()

    def test_dataset_exhausted_is_terminal(self):
        space = make_line_space(2)
        ds = make_dataset(space, {"m": [1.0, 2.0]}, records_per_set=1)
        executor = ReplayExecutor(ds, seed=0)
        executor.run_trial(0, 1)
        executor.run_trial(1, 2)
        with pytest.raises(SetExhausted):
            executor.run_trial(0, 3)
        # An unrecorded request with no donors left is terminal.
        ds2 = make_dataset(space, {"m": [1.0, 2.0]}, records_per_set=1,
                           skip_sets=(1,))
        executor2 = ReplayExecutor(ds2, seed=0)
        executor2.run_trial(0, 1)
        with pytest.raises(DatasetExhausted):
            executor2.run_trial(1, 2)

    def test_fixed_seed_gives_identical_sequences(self, bundled_dataset):
        def draw_sequence(seed):
            executor = ReplayExecutor(bundled_dataset, seed)
            rng = np.random.default_rng(99)
            out = []
            for k in range(40):
                idx = int(rng.integers(16))
                if idx in executor.unavailable_sets():
                    continue
                obs = executor.run_trial(idx, k + 1)
                out.append((obs.set_index, obs.metrics["energy"]))
            return out

        assert draw_sequence(7) == draw_sequence(7)
        assert draw_sequence(7) != draw_sequence(8)

    def test_required_metrics_enforced(self, crystal_space):
        ds = make_dataset(crystal_space, {"energy": [float(i) for i in range(16)]})
        with pytest.raises(DatasetFormatError, match="missing metrics"):
            ReplayExecutor(ds, seed=0, required_metrics=("energy", "prr"))

    def test_unavailable_marks_unrecorded_only_when_no_donors(self):
        space = make_line_space(3)
        ds = make_dataset(space, {"m": [1.0, 2.0, 3.0]}, records_per_set=1,
                          skip_sets=(2,))
        executor = ReplayExecutor(ds, seed=0)
        assert executor.unavailable_sets() == frozenset()
        executor.run_trial(0, 1)
        executor.run_trial(1, 2)
        assert executor.unavailable_sets() == frozenset({0, 1, 2})


class TestSynthetic:
    def test_noiseless_returns_exact_landscape(self, crystal_space):
        spec = SyntheticSpec(
            crystal_space, {"m": np.arange(16.0)}, noise_std={"m": 0.0}
        )
        obs = SyntheticExecutor(spec, 0).run_trial(9, trial_index=3)
        assert obs.metrics["m"] == 9.0

    def test_monte_carlo_mean(self, crystal_space):
        spec = SyntheticSpec(
            crystal_space, {"m": np.full(16, 50.0)}, noise_std={"m": 4.0}
        )
        executor = SyntheticExecutor(spec, 1)
        draws = [
            executor.run_trial(0, trial_index=t).metrics["m"]
            for t in range(1, 10_001)
        ]
        assert np.mean(draws) == pytest.approx(50.0, abs=3 * 4.0 / 100)

    def test_callers_tables_are_left_unchanged(self, crystal_space):
        tables = {"m": [float(i) for i in range(16)]}
        spec = SyntheticSpec(crystal_space, tables)
        assert type(tables["m"]) is list
        assert isinstance(spec.table("m"), np.ndarray)
        assert spec.metrics is not tables

    def test_metric_streams_are_independent(self, crystal_space):
        spec = SyntheticSpec(
            crystal_space,
            {"a": np.zeros(16), "b": np.zeros(16)},
            noise_std={"a": 1.0, "b": 1.0},
        )
        executor = SyntheticExecutor(spec, 3)
        xs = [executor.run_trial(0, t).metrics for t in range(1, 201)]
        a = np.array([m["a"] for m in xs])
        b = np.array([m["b"] for m in xs])
        assert not np.allclose(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.2

    def test_reproducible_from_seed_and_trial(self, crystal_space):
        spec = SyntheticSpec(
            crystal_space, {"m": np.zeros(16)}, noise_std={"m": 2.0}
        )
        x = SyntheticExecutor(spec, 4).run_trial(5, trial_index=9).metrics["m"]
        y = SyntheticExecutor(spec, 4).run_trial(5, trial_index=9).metrics["m"]
        assert x == y

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
    def test_draws_equal_default_rng_of_seed_trial_and_key(self, crystal_space, seed):
        spec = SyntheticSpec(
            crystal_space,
            {"a": np.zeros(16), "b": np.arange(16.0), "c": np.ones(16)},
            noise_std={"a": 1.5, "b": 0.25},
        )
        executor = SyntheticExecutor(spec, seed)
        for trial in (1, 2, 96, 2**32 - 1, 2**32, 2**40 + 7):
            obs = executor.run_trial(5, trial)
            for name, std in (("a", 1.5), ("b", 0.25)):
                key = _metric_stream_key(name)
                rng = np.random.default_rng([seed, trial, key])
                expected = float(spec.table(name)[5]) + std * rng.standard_normal()
                assert obs.metrics[name] == expected
            assert obs.metrics["c"] == 1.0

    def test_negative_seed_is_rejected(self, crystal_space):
        spec = SyntheticSpec(crystal_space, {"m": np.zeros(16)}, {"m": 1.0})
        with pytest.raises(ValueError):
            SyntheticExecutor(spec, -1)

    def test_table_must_cover_space(self, crystal_space):
        with pytest.raises(ConfigError):
            SyntheticSpec(crystal_space, {"m": np.zeros(5)})

    @pytest.mark.parametrize("std", [-1.0, np.inf, np.nan])
    def test_noise_std_must_be_finite_and_nonnegative(self, crystal_space, std):
        with pytest.raises(ConfigError, match="noise std for 'm'"):
            SyntheticSpec(crystal_space, {"m": np.zeros(16)}, {"m": std})

    def test_noise_std_of_unknown_metric_rejected(self, crystal_space):
        with pytest.raises(ConfigError, match="'x': unknown metric"):
            SyntheticSpec(crystal_space, {"m": np.zeros(16)}, {"x": 1.0})


class TestMakeExecutor:
    def test_one_backend_per_source_kind(self, crystal_space, bundled_dataset):
        spec = SyntheticSpec(crystal_space, {"m": np.zeros(16)})
        remote = RemoteConfig(endpoint="http://localhost:1")
        assert isinstance(make_executor(bundled_dataset, crystal_space, 0),
                          ReplayExecutor)
        assert isinstance(make_executor(spec, crystal_space, 0), SyntheticExecutor)
        assert isinstance(make_executor(remote, crystal_space, 0), RemoteExecutor)

    def test_replay_checks_required_metrics(self, crystal_space):
        ds = make_dataset(crystal_space, {"energy": [float(i) for i in range(16)]})
        with pytest.raises(DatasetFormatError, match="missing metrics"):
            make_executor(ds, crystal_space, 0, ("energy", "prr"))

    def test_each_call_gives_a_fresh_replay(self, bundled_dataset):
        space = bundled_dataset.space
        first = make_executor(bundled_dataset, space, 3)
        draws = [first.run_trial(0, k + 1).metrics for k in range(6)]
        second = make_executor(bundled_dataset, space, 3)
        assert second.unavailable_sets() == frozenset()
        assert [second.run_trial(0, k + 1).metrics for k in range(6)] == draws


class TestRemote:
    def test_happy_path(self, mock_testbed, crystal_space):
        base = mock_testbed(mode="done", metrics={"energy": 181.0, "prr": 93.5})
        cfg = RemoteConfig(endpoint=base, poll_interval=0.01, trial_duration=0.1)
        executor = RemoteExecutor(cfg, crystal_space)
        obs = executor.run_trial(4, 1)
        assert obs.metrics == {"energy": 181.0, "prr": 93.5}
        assert obs.set_index == 4

    def test_failed_job_raises_with_job_id(self, mock_testbed):
        base = mock_testbed(mode="failed")
        cfg = RemoteConfig(endpoint=base, poll_interval=0.01, trial_duration=0.1)
        with pytest.raises(JobFailedError, match="job-0"):
            remote_trial(cfg, {"tx_power": -5})

    def test_timeout_path(self, mock_testbed):
        base = mock_testbed(mode="stuck")
        cfg = RemoteConfig(endpoint=base, poll_interval=0.02, trial_duration=0.05,
                           timeout=0.1)
        with pytest.raises(TrialTimeoutError):
            remote_trial(cfg, {"tx_power": -5})

    def test_unreachable_endpoint_is_protocol_error(self):
        cfg = RemoteConfig(endpoint="http://127.0.0.1:1", poll_interval=0.01,
                           trial_duration=0.1, http_timeout=0.5)
        with pytest.raises(RemoteProtocolError):
            remote_trial(cfg, {})

    def test_non_finite_metrics_are_protocol_error(self, mock_testbed):
        base = mock_testbed(metrics={"energy": float("nan"), "prr": 92.0})
        cfg = RemoteConfig(endpoint=base, poll_interval=0.01, trial_duration=0.1)
        with pytest.raises(RemoteProtocolError, match="non-finite.*energy"):
            remote_trial(cfg, {"tx_power": -5})

    @pytest.mark.parametrize("bad", [True, "7"])
    def test_bool_or_string_metric_is_protocol_error(self, mock_testbed, bad):
        base = mock_testbed(metrics={"energy": bad, "prr": 92.0})
        cfg = RemoteConfig(endpoint=base, poll_interval=0.01, trial_duration=0.1)
        with pytest.raises(RemoteProtocolError, match="non-numeric.*energy"):
            remote_trial(cfg, {"tx_power": -5})

    def test_default_timeout_is_twice_trial_duration(self):
        cfg = RemoteConfig(endpoint="http://x", trial_duration=600.0)
        assert cfg.effective_timeout == 1200.0

    @pytest.mark.parametrize("key, value", [
        ("trial_duration", float("nan")), ("trial_duration", 0.0),
        ("trial_duration", float("inf")), ("timeout", float("nan")),
        ("timeout", -1.0), ("http_timeout", 0.0), ("http_timeout", float("nan")),
        ("poll_interval", -1.0), ("poll_interval", float("nan")),
        ("poll_interval", float("inf")),
    ])
    def test_bad_timing_is_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"remote {key} must be"):
            RemoteConfig(endpoint="http://x", **{key: value})

    def test_zero_poll_interval_is_accepted(self):
        assert RemoteConfig(endpoint="http://x", poll_interval=0.0).poll_interval == 0.0


class TestDatasetIO:
    def test_jsonl_roundtrip(self, tmp_path, crystal_space):
        ds = make_dataset(
            crystal_space,
            {"energy": [float(100 + i) for i in range(16)],
             "prr": [float(60 + i) for i in range(16)]},
            records_per_set=2,
        )
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path, n_r=2)
        loaded = load_dataset(path)
        assert loaded.space.n_sets == 16
        assert loaded.n_records == 32
        assert loaded.values(3, "energy") == [103.0, 103.0]

    def test_table_holds_per_set_medians(self):
        space = make_line_space(3)
        def group(values):
            return tuple(TraceRecord(f"r{v}", {"m": v}) for v in values)

        ds = TraceDataset(space, (group([3.0, 1.0, 2.0]), (), group([4.0, 8.0])))
        table = ds.table("m")
        assert table[0] == 2.0 and np.isnan(table[1]) and table[2] == 6.0

    def test_unknown_header_parameter_keys_are_ignored(self, tmp_path):
        header = {"parameters": [{"name": "p", "values": [0, 1], "unit": "dB",
                                  "comment": "added by another tool"}]}
        path = tmp_path / "extra.jsonl"
        path.write_text(
            json.dumps({"header": header}) + "\n"
            + json.dumps({"params": {"p": 1}, "metrics": {"m": 2.0}}) + "\n"
        )
        loaded = load_dataset(path)
        assert loaded.space.defs[0] == ParameterDef("p", (0.0, 1.0), unit="dB")
        assert loaded.values(1, "m") == [2.0]

    @pytest.mark.parametrize("values", [["0", "1"], [True, 1], [0, 10**400]],
                             ids=["string", "bool", "oversized-int"])
    def test_header_parameter_values_must_be_numbers(self, tmp_path, values):
        # The parameter-value rule of the records holds for the header too.
        path = tmp_path / "header.jsonl"
        path.write_text(
            json.dumps({"params": {"p": 1}, "metrics": {"m": 2.0}}) + "\n"
            + json.dumps({"header": {"parameters": [{"name": "p", "values": values}]}})
            + "\n"
        )
        with pytest.raises(DatasetFormatError,
                           match="header.jsonl:2: parameter 'p': values must be numbers"):
            load_dataset(path)

    def test_missing_header_requires_space(self, tmp_path):
        path = tmp_path / "no_header.jsonl"
        path.write_text(
            json.dumps({"params": {"p": 0.0}, "metrics": {"m": 1.0}}) + "\n"
        )
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(path)
        loaded = load_dataset(path, make_line_space(2))
        assert loaded.n_records == 1

    def test_csv_import_with_inferred_space(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text(
            "param:p,metric:m,run_id\n"
            "0,10.5,a\n"
            "1,11.5,b\n"
            "0,10.7,c\n"
        )
        ds = load_dataset(path)
        assert ds.space.n_sets == 2
        assert ds.values(0, "m") == [10.5, 10.7]

    def test_record_off_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = {"header": {"parameters": [{"name": "p", "values": [0, 1]}]}}
        rec = {"params": {"p": 5}, "metrics": {"m": 1.0}}
        path.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(DatasetFormatError, match="not allowed"):
            load_dataset(path)


    @pytest.mark.parametrize("name, text, reason", [
        ("nan.jsonl", '{"params": {"p": 0}, "metrics": {"m": 1.0}}\n'
                      '{"params": {"p": 1}, "metrics": {"m": NaN}}\n', "non-finite"),
        ("inf.jsonl", '{"params": {"p": 0}, "metrics": {"m": -Infinity}}\n',
         "non-finite"),
        ("nan.csv", "param:p,metric:m\n0,1.0\n1,nan\n", "non-finite"),
        ("text.jsonl", '{"params": {"p": 0}, "metrics": {"m": "high"}}\n',
         "metrics must map names to numbers"),
        # A JSON true or a numeric string is not a number either.
        ("true.jsonl", '{"params": {"p": 0}, "metrics": {"m": true}}\n',
         "metrics must map names to numbers"),
        ("string.jsonl", '{"params": {"p": 0}, "metrics": {"m": "7"}}\n',
         "metrics must map names to numbers"),
        # An int beyond the float range is not read as one.
        pytest.param("big.jsonl",
                     '{"params": {"p": 0}, "metrics": {"m": 1%s}}\n' % ("0" * 400),
                     "metrics must map names to numbers", id="big.jsonl"),
        # A malformed record or parameter value is rejected the same way.
        ("number.jsonl", '{"params": {"p": 0}, "metrics": {"m": 1.0}}\n7\n',
         "expected a JSON object"),
        ("params.jsonl", '{"params": 5, "metrics": {"m": 1.0}}\n',
         "params must map names to values"),
        ("null.jsonl", '{"params": {"p": null}, "metrics": {"m": 1.0}}\n',
         "value None not allowed"),
        # A parameter value follows the metric rule: a JSON number.
        ("true-param.jsonl", '{"params": {"p": true}, "metrics": {"m": 1.0}}\n',
         "value True not allowed"),
        ("string-param.jsonl", '{"params": {"p": "0"}, "metrics": {"m": 1.0}}\n',
         "value '0' not allowed"),
    ])
    def test_bad_metric_value_rejected_with_its_line(self, tmp_path, name, text,
                                                     reason):
        path = tmp_path / name
        path.write_text(text)
        line = len(text.splitlines())
        with pytest.raises(DatasetFormatError, match=f"{name}:{line}: {reason}"):
            load_dataset(path, make_line_space(2))


class TestValidateDataset:
    def test_complete_dataset_reports_full_coverage(self, bundled_dataset_path):
        report = validate_dataset(bundled_dataset_path, n_r=6)
        lines = report.summary_lines()
        assert lines[0] == "96 records, full coverage"
        assert report.shortfalls == []
        assert report.duplicate_run_ids == []

    def test_shortfall_flagged(self, tmp_path, crystal_space):
        tables = {"energy": [float(i) for i in range(16)]}
        ds = make_dataset(crystal_space, tables, records_per_set=6)
        groups = list(ds.records_by_set)
        groups[5] = groups[5][:5]
        short = TraceDataset(crystal_space, tuple(groups))
        path = tmp_path / "short.jsonl"
        save_dataset(short, path)
        report = validate_dataset(path, n_r=6)
        assert (5, 5) in report.shortfalls
        assert any("set 5: 5 records" in line for line in report.summary_lines())

    def test_missing_metric_flagged_with_line_number(self, tmp_path):
        lines = [
            json.dumps({"header": {"parameters": [{"name": "p", "values": [0, 1]}],
                                   "metrics": ["energy", "prr"]}}),
            json.dumps({"params": {"p": 0}, "metrics": {"energy": 1.0, "prr": 2.0},
                        "run_id": "a"}),
            json.dumps({"params": {"p": 1}, "metrics": {"energy": 1.0},
                        "run_id": "b"}),
        ]
        path = tmp_path / "miss.jsonl"
        path.write_text("\n".join(lines) + "\n")
        report = validate_dataset(path, n_r=1)
        assert (3, "prr") in report.missing_metrics
        assert any("line 3" in s for s in report.summary_lines())

    def test_duplicate_run_ids_flagged(self, tmp_path):
        lines = [
            json.dumps({"header": {"parameters": [{"name": "p", "values": [0, 1]}]}}),
            json.dumps({"params": {"p": 0}, "metrics": {"m": 1.0}, "run_id": "dup"}),
            json.dumps({"params": {"p": 1}, "metrics": {"m": 1.0}, "run_id": "dup"}),
        ]
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join(lines) + "\n")
        report = validate_dataset(path, n_r=1)
        assert report.duplicate_run_ids == ["dup"]
        # Listed in file order, not in the order of the sets they belong to.
        path = tmp_path / "dup.csv"
        path.write_text("param:p,metric:m,run_id\n2,1.0,z\n0,1.0,y\n2,1.0,y\n"
                        "0,1.0,z\n")
        assert validate_dataset(path, n_r=1).duplicate_run_ids == ["y", "z"]

    def test_unreadable_file_is_config_error(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            validate_dataset(tmp_path / "nope.jsonl")
