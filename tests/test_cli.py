"""CLI: config parsing, subcommands, exit codes, output artifacts."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
import yaml

from apexopt import evalharness
from apexopt.cli import (
    EXIT_CONFIG,
    EXIT_EXECUTOR,
    EXIT_OK,
    EXIT_UNSATISFIABLE,
    main,
    parse_config,
    reanalyze_run_file,
)
from apexopt.domain import (
    ConfigError,
    ConstraintSpec,
    MetricSpec,
    ParameterDef,
    ParameterSet,
    Requirement,
    TerminationCriteria,
)
from apexopt.engine import SELECTOR_ALIASES, EngineConfig
from apexopt.evalharness import run_campaign
from apexopt.executor import RemoteConfig
from apexopt.surrogate import KernelConfig
from tests.conftest import blas_threads, fail_fit_on_call, set_blas_threads


def base_config(dataset_path: str) -> dict:
    return {
        "protocol": {
            "name": "crystal-demo",
            "parameters": [
                {"name": "tx_power", "values": [-5, -3, -1, 0], "unit": "dBm"},
                {"name": "n_tx", "values": [1, 2, 3, 4]},
            ],
        },
        "requirement": {
            "goal": {"metric": "energy", "direction": "minimize", "unit": "J"},
            "constraints": [
                {"metric": "prr", "relation": ">=", "bound": 65, "percentile": 0.5}
            ],
        },
        "executor": {"kind": "replay", "replay": {"path": dataset_path}},
        "engine": {"selector": "gp-lcb", "seed": 4},
        "termination": {"max_trials": 10},
        "campaign": {"approach": "apex-ei", "iterations": 4, "max_trials": 30,
                     "base_seed": 1},
    }


@pytest.fixture
def config_file(tmp_path, bundled_dataset_path):
    def write(mutate=None, name="config.yaml"):
        cfg = base_config(bundled_dataset_path)
        if mutate:
            mutate(cfg)
        path = tmp_path / name
        path.write_text(yaml.safe_dump(cfg))
        return str(path)

    return write


class TestParseConfig:
    def test_crystal_example_is_valid(self, config_file):
        bundle = parse_config(config_file())
        assert bundle.config.space.n_sets == 16
        assert bundle.config.requirement.goal.name == "energy"
        assert bundle.config.requirement.constraints[0].bound == 65.0

    def test_missing_n_init_defaults_to_six(self, config_file):
        bundle = parse_config(config_file())
        assert bundle.engine_config().n_init == 6

    def test_default_delta_and_kernel(self, config_file):
        cfg = parse_config(config_file()).engine_config()
        assert cfg.delta == 0.1
        assert cfg.kernel.kind == "rbf"
        assert cfg.kernel.length_scale == 1.0

    def test_percentile_out_of_range_rejected(self, config_file):
        path = config_file(
            lambda c: c["requirement"]["constraints"][0].update({"percentile": 1.5})
        )
        with pytest.raises(ConfigError, match="percentile"):
            parse_config(path)

    def test_unknown_key_reported_with_path(self, config_file):
        path = config_file(lambda c: c["engine"].update({"learning": True}))
        with pytest.raises(ConfigError, match="engine.learning"):
            parse_config(path)

    def test_unknown_toplevel_key(self, config_file):
        path = config_file(lambda c: c.update({"plotting": {}}))
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(path)

    def test_bad_relation_rejected(self, config_file):
        path = config_file(
            lambda c: c["requirement"]["constraints"][0].update({"relation": ">"})
        )
        with pytest.raises(ConfigError, match="relation"):
            parse_config(path)

    @pytest.mark.parametrize("mutate, path", [
        (lambda c: c["protocol"]["parameters"][0].pop("name"),
         "protocol.parameters[0].name"),
        (lambda c: c["requirement"]["goal"].pop("direction"),
         "requirement.goal.direction"),
        (lambda c: c["requirement"]["constraints"][0].pop("bound"),
         "requirement.constraints[0].bound"),
        (lambda c: c.update({"executor": {"kind": "remote",
                                          "remote": {"poll_interval": 1.0}}}),
         "executor.remote.endpoint"),
        (lambda c: c["requirement"]["constraints"][0].update({"bound": "high"}),
         "requirement.constraints[0].bound"),
    ], ids=["parameter-name", "goal-direction", "constraint-bound",
            "remote-endpoint", "string-bound"])
    def test_missing_or_mistyped_key_names_its_path(self, config_file, mutate, path):
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ")):
            parse_config(config_file(mutate))

    def test_remote_block_with_only_endpoint_takes_the_defaults(self, config_file):
        endpoint = "http://127.0.0.1:1"
        bundle = parse_config(config_file(lambda c: c.update(
            {"executor": {"kind": "remote", "remote": {"endpoint": endpoint}}}
        )))
        assert bundle.source == RemoteConfig(endpoint=endpoint)

    def test_synthetic_expression_metrics(self, tmp_path):
        cfg = {
            "protocol": {"parameters": [{"name": "p", "values": [0, 1, 2]}]},
            "requirement": {"goal": {"metric": "m", "direction": "minimize"}},
            "executor": {
                "kind": "synthetic",
                "synthetic": {"metrics": {"m": {"expression": "10 + 5*z[0]"}},
                              "noise_std": {"m": 0.5}},
            },
            "termination": {"max_trials": 8},
        }
        path = tmp_path / "synth.yaml"
        path.write_text(yaml.safe_dump(cfg))
        bundle = parse_config(path)
        tables = bundle.source.metrics
        assert list(tables["m"]) == [10.0, 12.5, 15.0]

    def test_bad_expression_reported(self, tmp_path):
        cfg = {
            "protocol": {"parameters": [{"name": "p", "values": [0, 1]}]},
            "requirement": {"goal": {"metric": "m", "direction": "minimize"}},
            "executor": {
                "kind": "synthetic",
                "synthetic": {"metrics": {"m": {"expression": "z[0] +"}},
                              "noise_std": {}},
            },
            "termination": {"max_trials": 5},
        }
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigError, match="expression"):
            parse_config(path)


def _synthetic_config(tmp_path, metric: dict) -> str:
    """Config over a 3x2 grid whose one metric ``m`` is the given block."""
    cfg = {
        "protocol": {"parameters": [{"name": "p", "values": [0, 1, 2]},
                                    {"name": "q", "values": [1, 2]}]},
        "requirement": {"goal": {"metric": "m", "direction": "minimize"}},
        "executor": {
            "kind": "synthetic",
            "synthetic": {"metrics": {"m": metric}, "noise_std": {}},
        },
        "termination": {"max_trials": 5},
    }
    path = tmp_path / "expr.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestExpressionWhitelist:
    def test_full_grammar_is_accepted(self, tmp_path):
        expr = "-sqrt(z[0] + 1) * 2**z[1] / max(1, pi, e) + +abs(log(2.5))"
        bundle = parse_config(_synthetic_config(tmp_path, {"expression": expr}))
        table = bundle.source.metrics["m"]
        assert table.shape == (6,)
        assert table[0] == pytest.approx(-1.0 / 3.141592653589793 + 0.91629073187)

    @pytest.mark.parametrize("expr", [
        "(().__class__.__base__.__subclasses__()).__len__()",
        "__import__('os')",
        "z.__class__",
        "(lambda: 1)()",
        "[v for v in z][0]",
        "'1'",
        "sqrt(x=z[0])",
        "z[0] < 1",
        "open",
    ])
    def test_disallowed_syntax_is_a_config_error(self, tmp_path, expr):
        path = _synthetic_config(tmp_path, {"expression": expr})
        with pytest.raises(ConfigError, match=r"executor\.synthetic\.metrics\.m"):
            parse_config(path)

    @pytest.mark.parametrize("metric", [
        {"expression": "9**9**9"},
        {"expression": "(z[0]+2)**1e9"},
        {"expression": "1" + "0" * 400 + " * z[0]"},
        {"table": [1.0, 2.0, float("nan"), 4.0, 5.0, 6.0]},
        {"table": [1.0, 2.0, 3.0, 4.0, 5.0, float("inf")]},
        # A table entry is read as a metric value: a bool or a string is
        # not one.
        {"table": [1.0, 2.0, 3.0, 4.0, 5.0, True]},
        {"table": [1.0, 2.0, 3.0, 4.0, 5.0, "7"]},
        {"table": [1.0, 2.0, 3.0, 4.0, 5.0, "high"]},
    ])
    def test_overflow_or_non_finite_value_exits_2_at_once(self, tmp_path, capsys,
                                                          metric):
        path = _synthetic_config(tmp_path, metric)
        start = time.perf_counter()
        code = main(["optimize", path, "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_smoke_run_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["optimize", config_file(), "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "run_result.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["n_trials"] == 10
        with (out / "trials.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert rows[0]["param:tx_power"] != ""
        assert "best set:" in capsys.readouterr().out

    def test_seed_flag_beats_file_seed(self, config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        main(["optimize", config_file(), "--out", str(out_a), "--seed", "99"])
        main(["optimize", config_file(), "--out", str(out_b), "--seed", "99"])
        main(["optimize", config_file(), "--out", str(out_c)])
        a = json.loads((out_a / "run_result.json").read_text())
        b = json.loads((out_b / "run_result.json").read_text())
        c = json.loads((out_c / "run_result.json").read_text())
        assert a == b
        assert a["config"]["seed"] == 99
        assert c["config"]["seed"] == 4

    def test_max_trials_flag_beats_file(self, config_file, tmp_path):
        out = tmp_path / "mt"
        main(["optimize", config_file(), "--out", str(out), "--max-trials", "7"])
        doc = json.loads((out / "run_result.json").read_text())
        assert doc["n_trials"] == 7

    def test_selector_flag_beats_file(self, config_file, tmp_path):
        out = tmp_path / "sel"
        main(["optimize", config_file(), "--out", str(out), "--selector", "ger"])
        doc = json.loads((out / "run_result.json").read_text())
        assert doc["config"]["selector"] == "ger"

    def test_config_error_exit_code(self, config_file):
        path = config_file(lambda c: c["engine"].update({"selector": "nope"}))
        assert main(["optimize", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("engine, args, message", [
        ({"selector": "nope"}, ["campaign"], "unknown selector 'nope'"),
        ({"selector": "nope"}, ["optimize", "--selector", "ger"],
         "unknown selector 'nope'"),
        ({"seed": -1}, ["campaign"], "seed must be nonnegative"),
        ({"seed": -1}, ["optimize", "--seed", "3"], "seed must be nonnegative"),
    ], ids=["selector-campaign", "selector-flag", "seed-campaign", "seed-flag"])
    def test_bad_engine_value_is_an_error_when_overridden(self, tmp_path, capsys,
                                                          engine, args, message):
        # The campaign block sets its own approach and base seed.
        def mutate(cfg):
            cfg["engine"].update(engine)
            cfg["executor"]["replay"]["path"] = str(
                resources.files("apexopt.data") / "crystal_demo.jsonl")

        path = _bundled_variant(tmp_path, "crystal_replay.yaml", mutate)
        command, *flags = args
        assert main([command, path, *flags, "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG)
        assert message in capsys.readouterr().err

    def test_unsatisfiable_termination_exit_code(self, config_file):
        path = config_file(
            lambda c: c.update({"termination": {"alpha_target": 101}})
        )
        assert main(["optimize", path]) == EXIT_UNSATISFIABLE

    def test_unreachable_remote_is_executor_error(self, tmp_path):
        cfg = {
            "protocol": {"parameters": [{"name": "p", "values": [0, 1]}]},
            "requirement": {"goal": {"metric": "m", "direction": "minimize"}},
            "executor": {
                "kind": "remote",
                "remote": {"endpoint": "http://127.0.0.1:1", "poll_interval": 0.01,
                           "trial_duration": 0.05, "http_timeout": 0.3},
            },
            "engine": {"n_init": 2},
            "termination": {"max_trials": 3},
        }
        path = tmp_path / "remote.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        assert main(["optimize", str(path), "--out", str(out)]) == EXIT_EXECUTOR

    def test_bool_metric_from_remote_exits_3(self, tmp_path, capsys, mock_testbed):
        base = mock_testbed(metrics={"m": True})
        cfg = {
            "protocol": {"parameters": [{"name": "p", "values": [0, 1]}]},
            "requirement": {"goal": {"metric": "m", "direction": "minimize"}},
            "executor": {"kind": "remote",
                         "remote": {"endpoint": base, "poll_interval": 0.01,
                                    "trial_duration": 0.1}},
            "engine": {"n_init": 2},
            "termination": {"max_trials": 3},
        }
        path = tmp_path / "remote.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        assert main(["optimize", str(path), "--out", str(out)]) == EXIT_EXECUTOR
        assert "non-numeric values for ['m']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("trial_duration", math.nan), ("timeout", math.nan),
        ("http_timeout", 0.0), ("poll_interval", -1.0),
    ])
    def test_bad_remote_timing_exits_2(self, tmp_path, capsys, key, value):
        # A NaN deadline is never reached and a negative poll interval
        # crashes time.sleep: both are rejected before any request.
        cfg = {
            "protocol": {"parameters": [{"name": "p", "values": [0, 1]}]},
            "requirement": {"goal": {"metric": "m", "direction": "minimize"}},
            "executor": {"kind": "remote",
                         "remote": {"endpoint": "http://127.0.0.1:1", key: value}},
        }
        path = tmp_path / "remote.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        assert main(["optimize", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"remote {key} must be" in capsys.readouterr().err

    def test_round_trip_reanalysis(self, config_file, tmp_path):
        out = tmp_path / "rt"
        main(["optimize", config_file(), "--out", str(out)])
        doc = json.loads((out / "run_result.json").read_text())
        analyses = reanalyze_run_file(out / "run_result.json")
        assert len(analyses) == doc["n_trials"]
        for stored, fresh in zip(doc["trials"], analyses):
            assert fresh.alpha == pytest.approx(stored["alpha"], abs=1e-9)
            assert fresh.beta == pytest.approx(stored["beta"], abs=1e-12)
            assert fresh.reported_index == stored["reported_index"]
        assert analyses[-1].reported_index == doc["best"]["index"]


    def test_degenerate_fit_is_an_aborted_run(self, config_file, tmp_path,
                                               monkeypatch, capsys):
        fail_fit_on_call(monkeypatch, 8)
        out = tmp_path / "fit"
        assert main(["optimize", config_file(), "--out", str(out)]) == EXIT_EXECUTOR
        assert "forced degenerate fit" in capsys.readouterr().err
        doc = json.loads((out / "run_result.json").read_text())
        assert doc["terminated_by"] == "fit-error"
        assert doc["aborted"] is True


def _bundled_variant(tmp_path, config: str, mutate) -> str:
    """A bundled config with ``mutate`` applied, written under tmp_path."""
    cfg = yaml.safe_load((resources.files("apexopt.data") / config).read_text())
    mutate(cfg)
    path = tmp_path / f"variant-{config}"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


@pytest.mark.parametrize("mutate, field", [
    (lambda c: c["protocol"]["parameters"][0].update(values=["a", "b", "c", "d"]),
     "values must be numbers"),
    (lambda c: c["engine"].update(kernel={"length_scale": math.nan}),
     "length_scale"),
    (lambda c: c["executor"]["synthetic"]["noise_std"].update(cost=math.inf),
     "noise std for 'cost'"),
    (lambda c: c["executor"]["synthetic"]["noise_std"].update(cost=math.nan),
     "noise std for 'cost'"),
    # bool is a subclass of int, but a YAML boolean is not a count.
    (lambda c: c["engine"].update(n_init=True), "engine.n_init: expected int"),
    (lambda c: c["termination"].update(max_trials=True),
     "termination.max_trials: expected int"),
    (lambda c: c["campaign"].update(jobs=True), "campaign.jobs: expected int"),
    (lambda c: c["engine"].update(rl_epsilon=math.nan), "rl_epsilon"),
    (lambda c: c["engine"].update(rl_epsilon=-0.1), "rl_epsilon"),
    (lambda c: c["engine"].update(rl_epsilon=1.5), "rl_epsilon"),
    (lambda c: c["engine"].update(rl_learning_rate=math.nan), "rl_learning_rate"),
    (lambda c: c["engine"].update(rl_learning_rate=-5.0), "rl_learning_rate"),
    (lambda c: c["engine"].update(rl_learning_rate=0.0), "rl_learning_rate"),
    (lambda c: c["engine"].update(rl_learning_rate=1.5), "rl_learning_rate"),
    (lambda c: c["engine"].update(rl_discount=math.nan), "rl_discount"),
    (lambda c: c["engine"].update(rl_discount=-0.1), "rl_discount"),
    (lambda c: c["engine"].update(rl_discount=7.0), "rl_discount"),
], ids=["text-values", "nan-length-scale", "inf-noise", "nan-noise",
        "bool-n-init", "bool-max-trials", "bool-jobs",
        "nan-epsilon", "negative-epsilon", "epsilon-above-1",
        "nan-learning-rate", "negative-learning-rate", "zero-learning-rate",
        "learning-rate-above-1", "nan-discount", "negative-discount",
        "discount-above-1"])
def test_bad_config_number_exits_2_naming_the_field(tmp_path, capsys, mutate,
                                                      field):
    path = _bundled_variant(tmp_path, "synthetic_demo.yaml", mutate)
    assert main(["optimize", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert field in capsys.readouterr().err


# Every kernel field away from its default, to check that all of them
# survive the run file.
CUSTOM_KERNEL = {"kind": "matern52", "length_scale": 0.5, "signal_variance": 2.0,
                 "noise_variance": 0.05, "jitter": 1e-7}


# Sets every config key away from its default: sobol, suggestions, log2,
# Matern-5/2 and the RL settings.
EVERY_KEY_YAML = Path(__file__).resolve().parents[1] / "tools" / "every_key.yaml"


@pytest.mark.parametrize("selector", sorted(set(SELECTOR_ALIASES.values())))
@pytest.mark.parametrize("config", ["crystal_replay.yaml", "synthetic_demo.yaml",
                                    "synthetic_demo.yaml+matern52", "every_key.yaml"])
def test_reanalysis_reproduces_every_trial_exactly(config, selector, tmp_path):
    out = tmp_path / "rt"
    if config.endswith("+matern52"):
        cfg = _bundled_variant(tmp_path, "synthetic_demo.yaml",
                               lambda c: c["engine"].update(kernel=CUSTOM_KERNEL))
    elif config == "every_key.yaml":
        cfg = EVERY_KEY_YAML
    else:
        cfg = resources.files("apexopt.data") / config
    assert main(["optimize", str(cfg), "--selector", selector,
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "run_result.json").read_text())
    if config.endswith("+matern52"):
        assert doc["config"]["kernel"] == CUSTOM_KERNEL
    records = reanalyze_run_file(out / "run_result.json")
    assert len(records) == doc["n_trials"] == len(doc["trials"])
    for stored, fresh in zip(doc["trials"], records):
        fresh = dataclasses.asdict(fresh)
        assert fresh == {key: stored[key] for key in fresh}
        assert len(fresh) == 10


# 192 ger trials on the 256-set grid: large enough for OpenBLAS's threaded
# paths, whose last bits differ from one thread's where the machine has two
# or more CPUs (from trial 131 on, when the run was not pinned).
WIDE_YAML = (Path(__file__).resolve().parents[1] / "perfbench" / "configs"
             / "wide_synthetic.yaml")


def test_run_file_does_not_depend_on_blas_threads(caller_blas_threads, tmp_path):
    copies = len(caller_blas_threads)
    run_files = {}
    for threads in (1, 2):
        set_blas_threads([threads] * copies)
        assert blas_threads() == [threads] * copies
        out = tmp_path / f"threads-{threads}"
        assert main(["optimize", str(WIDE_YAML), "--selector", "ger",
                     "--out", str(out)]) == EXIT_OK
        run_files[threads] = out / "run_result.json"
    assert run_files[2].read_bytes() == run_files[1].read_bytes()
    doc = json.loads(run_files[1].read_text())
    records = reanalyze_run_file(run_files[1])
    assert blas_threads() == [2] * copies
    assert len(records) == len(doc["trials"]) == 192
    for stored, fresh in zip(doc["trials"], records):
        fresh = dataclasses.asdict(fresh)
        assert fresh == {key: stored[key] for key in fresh}


def test_run_file_records_every_engine_config_field(tmp_path):
    out = tmp_path / "every-key"
    assert main(["optimize", str(EVERY_KEY_YAML), "--out", str(out)]) == EXIT_OK
    recorded = json.loads((out / "run_result.json").read_text())["config"]
    expected = {
        # The space is recorded as its parameter list.
        "parameters": [
            {"name": "interval", "values": [16, 64, 256, 1024], "unit": "ms",
             "scale": "log2"},
            {"name": "power", "values": [-6, -3, 0, 3], "unit": "dBm",
             "scale": "linear"},
        ],
        "requirement": {
            "goal": {"metric": "energy", "direction": "minimize", "unit": "mJ"},
            "constraints": [{"metric": "reliability", "relation": ">=",
                             "bound": 60, "percentile": 0.4}],
        },
        "termination": {"max_trials": 40, "alpha_target": 90, "beta_target": 0.85},
        "selector": "ei",
        "n_init": 5,
        "init_strategy": "sobol",
        "suggestions": [[1024, 0], [64, 3]],
        "delta": 0.2,
        "kernel": {"kind": "matern52", "length_scale": 0.6, "signal_variance": 1.5,
                   "noise_variance": 0.05, "jitter": 1e-7},
        "seed": 7,
        "rl_epsilon": 0.2,
        "rl_learning_rate": 0.3,
        "rl_discount": 0.5,
    }
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    assert set(expected) == fields - {"space"} | {"parameters"}
    assert {key: recorded[key] for key in expected} == expected


@pytest.fixture(scope="module")
def run_file_doc(tmp_path_factory) -> dict:
    """The run file of a bundled replay run, which has a constraint."""
    out = tmp_path_factory.mktemp("run")
    config = resources.files("apexopt.data") / "crystal_replay.yaml"
    assert main(["optimize", str(config), "--out", str(out)]) == EXIT_OK
    return json.loads((out / "run_result.json").read_text())


def _rename(block: dict, old: str, new: str) -> None:
    block[new] = block.pop(old)


def _in_doc(change):
    """A damage to the run file's text: ``change`` applied to its JSON."""
    def damage(text: str) -> str:
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return damage


@pytest.mark.parametrize("damage, field", [
    (_in_doc(lambda d: d["config"]["requirement"]["goal"].pop("direction")),
     "config.requirement.goal.direction"),
    (_in_doc(lambda d: d["config"]["requirement"]["constraints"][0].update(
        bound="high")),
     "config.requirement.constraints[0].bound"),
    (_in_doc(lambda d: _rename(d["config"]["kernel"], "length_scale", "lenght_scale")),
     "config.kernel.lenght_scale"),
    (_in_doc(lambda d: _rename(d["config"]["requirement"]["constraints"][0],
                               "percentile", "pct")),
     "config.requirement.constraints[0].pct"),
    (_in_doc(lambda d: d["config"]["parameters"][0].update(values="abc")),
     "config.parameters[0].values"),
    (_in_doc(lambda d: d["trials"][2].pop("set_index")), "trials[2].set_index"),
    (_in_doc(lambda d: d["trials"][0]["metrics"].update(energy="abc")),
     "trials[0].metrics.energy"),
    (lambda text: text[: len(text) // 2], "run_result.json: invalid JSON"),
    (_in_doc(lambda d: d["trials"][0].update(set_index=99)),
     "trial 1: set_index 99 is not one of the sets 0..15"),
    (_in_doc(lambda d: d["trials"][0].update(set_index=16)),
     "trial 1: set_index 16 is not one of the sets 0..15"),
    (_in_doc(lambda d: d["trials"][0].update(set_index=-1)),
     "trial 1: set_index -1 is not one of the sets 0..15"),
    (_in_doc(lambda d: d["trials"][0].update(set_index=True)),
     "trial 1: set_index True is not one of the sets 0..15"),
    (_in_doc(lambda d: d["trials"][0]["metrics"].update(energy=math.nan)),
     "trial 1: metric 'energy' is nan"),
], ids=["goal-without-direction", "text-bound", "kernel-key-typo",
        "constraint-key-typo", "text-values", "trial-without-set-index",
        "text-metric", "not-json", "set-index-99", "set-index-16",
        "set-index-minus-1", "set-index-true", "nan-metric"])
def test_damaged_run_file_is_config_error_naming_the_field(run_file_doc, tmp_path,
                                                           damage, field):
    path = tmp_path / "run_result.json"
    path.write_text(damage(json.dumps(run_file_doc)))
    with pytest.raises(ConfigError, match=re.escape(field)):
        reanalyze_run_file(path)


class TestCampaignCommand:
    def test_writes_csv_and_json(self, config_file, tmp_path):
        out = tmp_path / "camp"
        code = main(["campaign", config_file(), "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "campaign_summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["approach"] == "ei"
        with (out / "campaign_trials.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 31  # header + one row per trial

    def test_byte_identical_reruns(self, config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["campaign", config_file(), "--out", str(out_a)])
        main(["campaign", config_file(), "--out", str(out_b)])
        assert (out_a / "campaign_summary.json").read_bytes() == (
            out_b / "campaign_summary.json"
        ).read_bytes()
        assert (out_a / "campaign_trials.csv").read_bytes() == (
            out_b / "campaign_trials.csv"
        ).read_bytes()

    def test_approach_flag_beats_file(self, config_file, tmp_path):
        out = tmp_path / "ap"
        main(["campaign", config_file(), "--out", str(out), "--approach", "ger",
              "--iterations", "2"])
        summary = json.loads((out / "campaign_summary.json").read_text())
        assert summary["approach"] == "ger"
        assert summary["iterations"] + summary["failures"] == 2

    def test_help_lists_the_approaches(self, capsys, monkeypatch):
        # Wide enough that argparse does not break "rl-any" at its hyphen.
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main(["campaign", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        listed = re.search(r"--approach APPROACH (.*?) --iterations", text).group(1)
        assert listed.split(" | ") == list(evalharness.APPROACHES)

    def test_invalid_approach_is_config_error(self, config_file):
        assert main(["campaign", config_file(), "--approach", "magic"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags, campaign", [
        (["--seed", "-1"], {}),
        ([], {"base_seed": -1}),
    ], ids=["seed-flag", "base-seed-key"])
    def test_negative_base_seed_is_config_error(self, tmp_path, capsys, flags,
                                                 campaign):
        def mutate(cfg):
            cfg["campaign"].update(campaign)
            cfg["executor"]["replay"]["path"] = str(
                resources.files("apexopt.data") / "crystal_demo.jsonl")

        path = _bundled_variant(tmp_path, "crystal_replay.yaml", mutate)
        assert main(["campaign", path, *flags, "--iterations", "1",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "base_seed must be >= 0" in capsys.readouterr().err

    def test_no_completed_iteration_reports_no_metrics(self, tmp_path, capsys):
        # The bundled dataset has 96 records, so a 97-trial run cannot finish.
        cfg = resources.files("apexopt.data") / "crystal_replay.yaml"
        out = tmp_path / "failed"
        assert main(["campaign", str(cfg), "--iterations", "2", "--max-trials", "97",
                     "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "iterations: 0 ok, 2 failed" in printed
        assert "EM2 (optimality @ 16): None" in printed
        assert "RMSD alpha vs optimality: None" in printed
        summary = json.loads((out / "campaign_summary.json").read_text())
        for key in ("em2", "em3", "rmsd_alpha", "rmsd_alpha_b1", "rmsd_alpha_b2",
                    "final_optimality"):
            assert summary[key] is None, key


class TestValidateCommand:
    def test_full_coverage_report(self, bundled_dataset_path, capsys):
        assert main(["validate-dataset", bundled_dataset_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "96 records, full coverage" in out

    @pytest.mark.parametrize("n_r", ["0", "-3"])
    def test_target_below_one_is_config_error(self, bundled_dataset_path, capsys,
                                              n_r):
        assert main(["validate-dataset", bundled_dataset_path, "--n-r", n_r]) \
            == EXIT_CONFIG
        assert "must be >= 1" in capsys.readouterr().err

    def test_unreadable_file_is_config_error(self, tmp_path):
        assert main(["validate-dataset", str(tmp_path / "missing.jsonl")]) \
            == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["true", '"7"'])
    def test_bool_or_string_metric_exits_2(self, tmp_path, capsys, value):
        header = {"header": {"parameters": [{"name": "p", "values": [0, 1]}]}}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(header) + "\n"
                        + '{"params": {"p": 0}, "metrics": {"prr": 70.5}}\n'
                        + f'{{"params": {{"p": 1}}, "metrics": {{"prr": {value}}}}}\n')
        assert main(["validate-dataset", str(path)]) == EXIT_CONFIG
        assert "bad.jsonl:3: metrics must map names to numbers" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["true", '"0"'])
    def test_bool_or_string_parameter_exits_2(self, tmp_path, capsys, value):
        header = {"header": {"parameters": [{"name": "p", "values": [0, 1]}]}}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(header) + "\n"
                        + '{"params": {"p": 1}, "metrics": {"prr": 70.5}}\n'
                        + f'{{"params": {{"p": {value}}}, "metrics": {{"prr": 1.0}}}}\n')
        assert main(["validate-dataset", str(path)]) == EXIT_CONFIG
        assert "bad.jsonl:3: value " in capsys.readouterr().err


class TestConstraintConsistency:
    def test_contradictory_bounds_rejected(self, config_file):
        def mutate(c):
            c["requirement"]["constraints"] = [
                {"metric": "prr", "relation": ">=", "bound": 80},
                {"metric": "prr", "relation": "<=", "bound": 60},
            ]

        with pytest.raises(ConfigError, match="at most one constraint per metric"):
            parse_config(config_file(mutate))

    def test_compatible_box_is_rejected_at_parse(self, config_file):
        def mutate(c):
            c["requirement"]["constraints"] = [
                {"metric": "prr", "relation": ">=", "bound": 60},
                {"metric": "prr", "relation": "<=", "bound": 95},
            ]

        with pytest.raises(ConfigError, match="metric 'prr' has more than one"):
            parse_config(config_file(mutate))


class TestBundledConfigs:
    def test_bundled_replay_config_runs(self, tmp_path):
        from importlib import resources

        cfg = resources.files("apexopt.data") / "crystal_replay.yaml"
        out = tmp_path / "bundled_replay"
        assert main(["optimize", str(cfg), "--out", str(out),
                     "--max-trials", "8"]) == EXIT_OK
        doc = json.loads((out / "run_result.json").read_text())
        assert doc["n_trials"] == 8

    def test_bundled_synthetic_config_runs(self, tmp_path):
        from importlib import resources

        cfg = resources.files("apexopt.data") / "synthetic_demo.yaml"
        out = tmp_path / "bundled_synth"
        assert main(["optimize", str(cfg), "--out", str(out),
                     "--max-trials", "12"]) == EXIT_OK
        doc = json.loads((out / "run_result.json").read_text())
        assert doc["best"] is not None


def test_cli_import_leaves_remote_and_pool_modules_unloaded():
    # requests loads in remote_trial and the process pool in a campaign
    # with jobs > 1; a fresh interpreter importing the CLI loads neither.
    # The GP calls SciPy's OpenBLAS without scipy.linalg, and expected
    # improvement needs no scipy.special: importing either loads numpy.f2py.
    import apexopt

    unloaded = {"requests", "concurrent.futures.process", "scipy.linalg",
                "scipy.special", "numpy.f2py"}
    code = f"import sys, apexopt.cli; print(sorted({unloaded!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(apexopt.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_log2_scale_parameter_parses(tmp_path):
    cfg = {
        "protocol": {
            "parameters": [
                {"name": "interval", "values": [16, 256, 4096, 65536],
                 "unit": "ms", "scale": "log2"},
                {"name": "threshold", "values": [4, 8, 12]},
            ]
        },
        "requirement": {"goal": {"metric": "m", "direction": "minimize"}},
        "executor": {
            "kind": "synthetic",
            "synthetic": {"metrics": {"m": {"expression": "z[0] + z[1]"}},
                          "noise_std": {}},
        },
        "engine": {"n_init": 4},
        "termination": {"max_trials": 6},
    }
    path = tmp_path / "log2.yaml"
    path.write_text(yaml.safe_dump(cfg))
    bundle = parse_config(path)
    d = bundle.config.space.defs[0]
    assert d.normalize(256) == pytest.approx(1 / 3)


# Every key of every block away from its default; the remote block, which
# excludes the synthetic one, is checked with a second config.
EVERY_KEY = {
    "protocol": {
        "name": "every-key",
        "parameters": [
            {"name": "interval", "values": [16, 64, 256], "unit": "ms",
             "scale": "log2"},
            {"name": "power", "values": [-3, 0], "unit": "dBm", "scale": "linear"},
        ],
    },
    "requirement": {
        "goal": {"metric": "reliability", "direction": "maximize", "unit": "%"},
        "constraints": [{"metric": "energy", "relation": "<=", "bound": 40,
                         "percentile": 0.7}],
        "confidence_target": 0.8,
    },
    "executor": {
        "kind": "synthetic",
        "synthetic": {
            "metrics": {"reliability": {"table": [50, 60, 70, 80, 90, 95]},
                        "energy": {"expression": "30 + 20*z[0]"}},
            "noise_std": {"reliability": 2.0, "energy": 1.0},
        },
    },
    "engine": {
        "selector": "rl-any", "n_init": 3, "init_strategy": "sobol",
        "suggestions": [[256, 0], [16, -3]], "delta": 0.2,
        "kernel": {"kind": "matern52", "length_scale": 0.5,
                   "signal_variance": 2.0, "noise_variance": 0.05,
                   "jitter": 1e-7},
        "seed": 11, "rl_epsilon": 0.2, "rl_learning_rate": 0.3,
        "rl_discount": 0.5,
    },
    "termination": {"max_trials": 25, "alpha_target": 90, "beta_target": 0.85},
    "campaign": {"approach": "gel", "iterations": 7, "max_trials": 30,
                 "base_seed": 4, "bins": 10, "jobs": 2},
    "output": {"dir": "every-key-results"},
}


def test_every_key_reaches_its_dataclass(tmp_path):
    path = tmp_path / "every-key.yaml"
    path.write_text(yaml.safe_dump(EVERY_KEY))
    bundle = parse_config(path)
    cfg = bundle.engine_config()
    assert cfg.space.defs == (
        ParameterDef("interval", (16.0, 64.0, 256.0), "ms", "log2"),
        ParameterDef("power", (-3.0, 0.0), "dBm", "linear"),
    )
    assert cfg.requirement == Requirement(
        MetricSpec("reliability", "maximize", "%"),
        (ConstraintSpec("energy", "<=", 40.0, 0.7),),
    )
    # termination.beta_target wins over its other spelling.
    assert cfg.termination == TerminationCriteria(25, 90.0, 0.85)
    assert (cfg.selector, cfg.n_init, cfg.init_strategy, cfg.delta, cfg.seed,
            cfg.rl_epsilon, cfg.rl_learning_rate, cfg.rl_discount) == (
        "rl-any", 3, "sobol", 0.2, 11, 0.2, 0.3, 0.5)
    assert cfg.suggestions == (ParameterSet((256.0, 0.0)),
                               ParameterSet((16.0, -3.0)))
    assert cfg.kernel == KernelConfig("matern52", 0.5, 2.0, 0.05, 1e-7)
    assert list(bundle.source.metrics["reliability"]) == [50, 60, 70, 80, 90, 95]
    assert list(bundle.source.metrics["energy"]) == [30, 30, 40, 40, 50, 50]
    assert bundle.source.noise_std == {"reliability": 2.0, "energy": 1.0}
    assert bundle.output_dir == Path("every-key-results")
    spec = bundle.campaign_spec()
    assert (spec.approach, spec.iterations, spec.max_trials, spec.base_seed,
            spec.bins, spec.jobs) == ("gel", 7, 30, 4, 10, 2)
    assert EngineConfig(cfg.space, cfg.requirement, cfg.termination,
                        **spec.engine) == bundle.config == cfg
    assert spec.engine["kernel"] == cfg.kernel

    termination = {k: v for k, v in EVERY_KEY["termination"].items()
                   if k != "beta_target"}
    path.write_text(yaml.safe_dump({**EVERY_KEY, "termination": termination}))
    assert parse_config(path).config.termination == TerminationCriteria(25, 90.0, 0.8)

    remote = {"endpoint": "http://127.0.0.1:1", "poll_interval": 0.5,
              "trial_duration": 30.0, "timeout": 45.0, "http_timeout": 2.0}
    path.write_text(yaml.safe_dump(
        {**EVERY_KEY, "executor": {"kind": "remote", "remote": remote}}
    ))
    assert parse_config(path).source == RemoteConfig(**remote)


def test_confidence_target_does_not_end_campaign_iterations(tmp_path):
    # Campaign iterations stop at their budget only: a beta target that
    # ended them early counted every one of them as failed.
    def mutate(cfg):
        cfg["requirement"]["confidence_target"] = 0.9
        cfg["executor"]["replay"]["path"] = str(
            resources.files("apexopt.data") / "crystal_demo.jsonl")

    path = _bundled_variant(tmp_path, "crystal_replay.yaml", mutate)
    bundle = parse_config(path)
    result = run_campaign(bundle.campaign_spec(approach="apex-lcb", iterations=8))
    assert (result.iterations, result.failures) == (8, 0)
