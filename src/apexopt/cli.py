"""Command-line front end.

Subcommands:

* ``optimize``: one optimization run from a YAML config; writes a JSON
  run result and a per-trial CSV log.
* ``campaign``: repeated seeded runs over a replay dataset or synthetic
  landscape; writes a JSON summary and per-trial CSV curves.
* ``validate-dataset``: coverage / record-count / metric checks on a
  trace dataset file.

Exit codes: 0 ok, 2 config error, 3 executor error, 4 unsatisfiable
termination criteria. All randomness flows from the configured seed, so
outputs are byte-identical across reruns of the same config.
"""

from __future__ import annotations

import argparse
import ast
import csv
import dataclasses
import json
import math
import sys
import types
import typing
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from apexopt import evalharness
from apexopt.domain import (
    ConfigError,
    ConstraintSpec,
    MetricSpec,
    Observation,
    ParameterDef,
    ParameterSet,
    ParameterSpace,
    Requirement,
    TerminationCriteria,
    UnsatisfiableTerminationError,
    is_metric_value,
)
from apexopt.engine import Engine, EngineConfig, RunResult, reanalyze
from apexopt.evalharness import CampaignSpec, run_campaign
from apexopt.executor import (
    ExecutorError,
    RemoteConfig,
    SyntheticSpec,
    TrialSource,
    load_dataset,
    make_executor,
    validate_dataset,
)
from apexopt.surrogate import KernelConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXECUTOR = 3
EXIT_UNSATISFIABLE = 4

# YAML spells ``MetricSpec.name`` as ``metric``.
_GOAL_KEYS = {"metric": str, "direction": str, "unit": str}
# Field types that a YAML block sets directly, by the type YAML gives them.
_YAML_KINDS = {str: str, int: int, float: float, tuple[float, ...]: list}

_EXPR_NAMES = {
    "abs": abs,
    "min": min,
    "max": max,
    "pi": math.pi,
    "e": math.e,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "log2": math.log2,
    "sqrt": math.sqrt,
}
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


# -- schema helpers ---------------------------------------------------------

def _fail(path: str, reason: str) -> None:
    raise ConfigError(f"{path}: {reason}")


def _as_mapping(obj: Any, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        _fail(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(d: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = [k for k in d if k not in allowed]
    if unknown:
        _fail(f"{path}.{unknown[0]}", f"unknown key (allowed: {sorted(allowed)})")


def _get(d: Mapping, key: str, path: str, kind, default=None, required=False):
    if key not in d or d[key] is None:
        if required:
            _fail(f"{path}.{key}", "required key is missing")
        return default
    value = d[key]
    if kind is float and type(value) is int:
        if not is_metric_value(value):  # beyond the float range
            _fail(f"{path}.{key}", "integer is too large for a float")
        value = float(value)
    # bool is a subclass of int, so a YAML true/false needs its own check.
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        _fail(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _kinds(cls) -> dict[str, type]:
    """The keys of the config block that builds the dataclass ``cls``,
    with their YAML types.

    They are its fields of type ``str``, ``int``, ``float`` or
    ``tuple[float, ...]`` (a YAML list), each also as ``X | None``. Fields
    of other types are read by their block's parser.
    """
    hints = typing.get_type_hints(cls)
    kinds = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) in (typing.Union, types.UnionType):
            hint, *rest = [a for a in typing.get_args(hint) if a is not type(None)]
            if rest:
                continue
        if hint in _YAML_KINDS:
            kinds[f.name] = _YAML_KINDS[hint]
    return kinds


def _present(block: Any, kinds: Mapping[str, type], path: str,
             required: Sequence[str] = (), also: Sequence[str] = ()) -> dict:
    """Type-checked values of the ``kinds`` keys that the mapping ``block``
    sets.

    A key outside ``kinds`` and ``also`` is an error, and so is a missing
    ``required`` key. The dataclass built from the result holds the
    defaults of the keys left out.
    """
    block = _as_mapping(block, path)
    _check_keys(block, [*kinds, *also], path)
    for key in required:
        _get(block, key, path, None, required=True)
    return {
        key: _get(block, key, path, kind)
        for key, kind in kinds.items()
        if block.get(key) is not None
    }


# -- config model -------------------------------------------------------------

def _given(**values) -> dict:
    """The keyword values that are not None."""
    return {k: v for k, v in values.items() if v is not None}


def _engine_keywords(config: EngineConfig) -> dict:
    """The EngineConfig fields besides its space, requirement and
    termination: what a campaign shares across its iterations, and the
    engine keys of a run file's config block."""
    return {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name not in ("space", "requirement", "termination")
    }


@dataclasses.dataclass
class ConfigBundle:
    """Everything parsed from one YAML file."""

    config: EngineConfig
    source: TrialSource
    campaign_block: dict
    output_dir: Path

    def engine_config(self, seed: int | None = None,
                      selector: str | None = None,
                      max_trials: int | None = None) -> EngineConfig:
        """The parsed config with each override that is not None applied."""
        termination = self.config.termination
        if max_trials is not None:
            termination = dataclasses.replace(termination, max_trials=max_trials)
        return dataclasses.replace(self.config, termination=termination,
                                   **_given(seed=seed, selector=selector))

    def campaign_spec(self, **overrides) -> CampaignSpec:
        if isinstance(self.source, RemoteConfig):
            raise ConfigError(
                "campaign: executor.kind must be 'replay' or 'synthetic'"
            )
        blk = {
            "approach": self.config.selector,
            "base_seed": self.config.seed,
            **self.campaign_block,
            **_given(**overrides),
        }
        return CampaignSpec(requirement=self.config.requirement, source=self.source,
                            engine=_engine_keywords(self.config), **blk)


def parse_config(path: str | Path) -> ConfigBundle:
    """Load and strictly validate a YAML configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from None
    root = _as_mapping(raw, str(path))
    _check_keys(
        root,
        ["protocol", "requirement", "executor", "engine", "termination",
         "campaign", "output"],
        "config",
    )

    protocol = _as_mapping(root.get("protocol"), "protocol")
    _check_keys(protocol, ["name", "parameters"], "protocol")
    _get(protocol, "name", "protocol", str)  # a label only: checked, not kept
    space = _parse_space(protocol.get("parameters"), "protocol.parameters")
    requirement_block = _as_mapping(root.get("requirement"), "requirement")
    requirement = _parse_requirement(requirement_block, "requirement")
    source = _parse_executor(
        _as_mapping(root.get("executor"), "executor"), path.parent, space
    )
    # requirement.confidence_target is another spelling of
    # termination.beta_target; the termination block wins.
    termination = TerminationCriteria(**{
        "beta_target": _get(requirement_block, "confidence_target", "requirement",
                            float),
        **_present(root.get("termination"), _kinds(TerminationCriteria),
                   "termination"),
    })
    config = EngineConfig(
        space=space, requirement=requirement, termination=termination,
        **_parse_engine(_as_mapping(root.get("engine"), "engine"), space),
    )
    campaign_block = _present(root.get("campaign"), _kinds(CampaignSpec), "campaign")

    output = _as_mapping(root.get("output"), "output")
    _check_keys(output, ["dir"], "output")
    output_dir = Path(_get(output, "dir", "output", str, "results"))

    return ConfigBundle(
        config=config,
        source=source,
        campaign_block=campaign_block,
        output_dir=output_dir,
    )


def _parse_space(params: Any, path: str) -> ParameterSpace:
    """The space of a non-empty list of parameter mappings."""
    if not isinstance(params, list) or not params:
        _fail(path, "expected a non-empty list")
    defs = []
    for i, p in enumerate(params):
        kwargs = _present(p, _kinds(ParameterDef), f"{path}[{i}]",
                          required=("name", "values"))
        try:
            defs.append(ParameterDef(**kwargs))
        except ConfigError as e:
            raise ConfigError(f"{path}[{i}]: {e}") from None
    return ParameterSpace(defs)


def _parse_requirement(block: Any, path: str) -> Requirement:
    """The goal and constraints of a requirement mapping; its
    ``confidence_target`` is read as a termination criterion."""
    block = _as_mapping(block, path)
    _check_keys(block, ["goal", "constraints", "confidence_target"], path)
    goal = _present(block.get("goal"), _GOAL_KEYS, f"{path}.goal",
                    required=("metric", "direction"))
    goal = MetricSpec(name=goal.pop("metric"), **goal)
    constraints = [
        ConstraintSpec(**_present(c, _kinds(ConstraintSpec),
                                  f"{path}.constraints[{i}]",
                                  required=("metric", "relation", "bound")))
        for i, c in enumerate(block.get("constraints") or [])
    ]
    return Requirement(goal, tuple(constraints))


def _parse_executor(
    block: Mapping, base_dir: Path, space: ParameterSpace
) -> TrialSource:
    """The trial source the block describes; a replay dataset is loaded here."""
    _check_keys(block, ["kind", "replay", "synthetic", "remote"], "executor")
    kind = _get(block, "kind", "executor", str, required=True)
    if kind == "replay":
        replay = _as_mapping(block.get("replay"), "executor.replay")
        _check_keys(replay, ["path"], "executor.replay")
        rel = _get(replay, "path", "executor.replay", str, required=True)
        dataset_path = Path(rel)
        if not dataset_path.is_absolute():
            dataset_path = base_dir / dataset_path
        return load_dataset(dataset_path, space)
    if kind == "synthetic":
        synth = _as_mapping(block.get("synthetic"), "executor.synthetic")
        _check_keys(synth, ["metrics", "noise_std"], "executor.synthetic")
        metrics_block = _as_mapping(synth.get("metrics"), "executor.synthetic.metrics")
        if not metrics_block:
            _fail("executor.synthetic.metrics", "at least one metric is required")
        tables = {}
        for name, m in metrics_block.items():
            mpath = f"executor.synthetic.metrics.{name}"
            m = _as_mapping(m, mpath)
            _check_keys(m, ["table", "expression"], mpath)
            if ("table" in m) == ("expression" in m):
                _fail(mpath, "specify exactly one of 'table' or 'expression'")
            if "table" in m:
                table = m["table"]
                if not isinstance(table, list) or not all(map(is_metric_value, table)):
                    _fail(f"{mpath}.table", "expected a list of finite numbers")
                table = np.asarray(table, dtype=float)
            else:
                table = _evaluate_expression(m["expression"], space, mpath)
            tables[name] = table
        npath = "executor.synthetic.noise_std"
        noise = _as_mapping(synth.get("noise_std"), npath)
        return SyntheticSpec(space, tables,
                             _present(noise, dict.fromkeys(noise, float), npath))
    if kind == "remote":
        return RemoteConfig(**_present(
            block.get("remote"), _kinds(RemoteConfig), "executor.remote",
            required=("endpoint",),
        ))
    _fail("executor.kind", f"must be 'replay', 'synthetic', or 'remote', got {kind!r}")


def _check_expression(node: ast.AST, path: str) -> None:
    """Reject any syntax outside the expression grammar: number constants,
    ``z[<int>]``, ``+ - * / **``, unary ``-``/``+``, and the constants and
    positional function calls of ``_EXPR_NAMES``.

    Number constants are turned into floats in place, so that ``**``
    overflows at once instead of building an enormous integer.
    """
    children: Sequence[ast.AST] = ()
    if isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_BINOPS):
        children = (node.left, node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        children = (node.operand,)
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and callable(_EXPR_NAMES.get(node.func.id))
        and not node.keywords
    ):
        children = node.args
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            node.value = float(node.value)
        except OverflowError:
            _fail(path, "a number constant is too large for a float")
    elif not (
        (isinstance(node, ast.Name) and isinstance(_EXPR_NAMES.get(node.id), float))
        or (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "z"
            and isinstance(node.slice, ast.Constant)
            and type(node.slice.value) is int
        )
    ):
        _fail(path, f"expression may not contain {ast.unparse(node)!r}")
    for child in children:
        _check_expression(child, path)


def _evaluate_expression(expr: str, space: ParameterSpace, path: str) -> np.ndarray:
    """Materialize an expression over normalized coordinates into a table.

    The expression sees ``z`` (the normalized coordinate vector) plus basic
    math names; it is evaluated once per parameter set at config time,
    after its syntax tree passes ``_check_expression``.
    """
    if not isinstance(expr, str):
        _fail(path, "expression must be a string")
    try:
        tree = ast.parse(expr, path, "eval")
    except SyntaxError as e:
        _fail(path, f"expression failed to evaluate: {e}")
    _check_expression(tree.body, path)
    try:
        code = compile(tree, path, "eval")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            values = [
                float(eval(code, {"__builtins__": {}},
                           {**_EXPR_NAMES, "z": space.normalized(i)}))
                for i in range(space.n_sets)
            ]
    except Exception as e:
        _fail(path, f"expression failed to evaluate: {e}")
    return np.asarray(values, dtype=float)


def _parse_engine(block: Mapping, space: ParameterSpace) -> dict:
    """The EngineConfig keywords the block sets; EngineConfig supplies the
    defaults for the rest."""
    out = _present(block, _kinds(EngineConfig), "engine",
                   also=("suggestions", "kernel"))
    if block.get("suggestions") is not None:
        suggestions = []
        for i, s in enumerate(block["suggestions"]):
            if not isinstance(s, list):
                _fail(f"engine.suggestions[{i}]", "expected a list of parameter values")
            try:
                space.index_of(s)
            except ConfigError as e:
                raise ConfigError(f"engine.suggestions[{i}]: {e}") from None
            suggestions.append(ParameterSet(tuple(s)))
        out["suggestions"] = tuple(suggestions)
    if block.get("kernel") is not None:
        out["kernel"] = KernelConfig(
            **_present(block["kernel"], _kinds(KernelConfig), "engine.kernel")
        )
    return out


# -- result serialization -----------------------------------------------------

def run_result_to_dict(result: RunResult, config: EngineConfig) -> dict:
    space = config.space
    req = config.requirement
    return {
        "schema_version": 1,
        "config": {
            "parameters": [dataclasses.asdict(d) for d in space.defs],
            "requirement": {
                "goal": {"metric": req.goal.name, "direction": req.goal.direction,
                         "unit": req.goal.unit},
                "constraints": [dataclasses.asdict(c) for c in req.constraints],
            },
            **_engine_keywords(config),
            "suggestions": [s.values for s in config.suggestions],
            "kernel": dataclasses.asdict(config.kernel),
            "termination": dataclasses.asdict(config.termination),
        },
        "terminated_by": result.terminated_by,
        "aborted": result.aborted,
        "error": result.error,
        "n_trials": result.n_trials,
        "best": (
            {"index": result.best_index,
             "params": result.best_set.as_dict(space)}
            if result.best_index is not None
            else None
        ),
        "alpha": result.alpha,
        "beta": result.beta,
        "trials": [dataclasses.asdict(t) for t in result.trials],
    }


def reanalyze_run_file(path: str | Path) -> list:
    """Rebuild the per-trial analysis from a persisted run-result JSON.

    Its config block is read by the parsers of the YAML config's blocks.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
    cfg = _as_mapping(_as_mapping(doc, str(path)).get("config"), "config")
    trials = doc.get("trials")
    if not isinstance(trials, list):
        _fail("trials", "expected a list")
    observations = []
    for i, t in enumerate(trials):
        tpath = f"trials[{i}]"
        t = _as_mapping(t, tpath)
        metrics = _as_mapping(t.get("metrics"), f"{tpath}.metrics")
        observations.append(Observation(
            _get(t, "n", tpath, int, required=True),
            # Checked by the engine's set-index rule, as a told index is.
            _get(t, "set_index", tpath, None, required=True),
            _present(metrics, dict.fromkeys(metrics, float), f"{tpath}.metrics"),
        ))
    return reanalyze(
        _parse_space(cfg.get("parameters"), "config.parameters"),
        _parse_requirement(cfg.get("requirement"), "config.requirement"),
        observations,
        _get(cfg, "delta", "config", float, required=True),
        KernelConfig(**_present(cfg.get("kernel"), _kinds(KernelConfig),
                                "config.kernel")),
    )


def write_trials_csv(result: RunResult, config: EngineConfig, path: Path) -> None:
    space = config.space
    param_names = [d.name for d in space.defs]
    metric_names = list(config.requirement.metric_names)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "set_index"]
            + [f"param:{p}" for p in param_names]
            + [f"metric:{m}" for m in metric_names]
            + ["selected_by", "trap", "escape_mode", "tau", "cumulative",
               "theta", "alpha", "alpha_b1", "alpha_b2", "beta",
               "best_index", "reported_index", "reported_goal_median"]
        )
        for t in result.trials:
            pset = space.set_at(t.set_index)
            writer.writerow(
                [t.n, t.set_index]
                + [v for v in pset.values]
                + [t.metrics.get(m, "") for m in metric_names]
                + [t.selected_by, int(t.trap), t.escape_mode or "",
                   f"{t.tau:.9g}", f"{t.cumulative:.9g}", f"{t.theta:.9g}",
                   f"{t.alpha:.9g}", f"{t.alpha_b1:.9g}", f"{t.alpha_b2:.9g}",
                   f"{t.beta:.12g}",
                   "" if t.best_index is None else t.best_index,
                   "" if t.reported_index is None else t.reported_index,
                   "" if t.reported_goal_median is None
                   else f"{t.reported_goal_median:.9g}"]
            )


def _write_json(path: Path, doc: Mapping[str, Any]) -> None:
    """Write an output document: sorted keys, indent 2, trailing newline."""
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands ---------------------------------------------------------------

def cmd_optimize(args: argparse.Namespace) -> int:
    bundle = parse_config(args.config)
    config = bundle.engine_config(
        seed=args.seed, selector=args.selector, max_trials=args.max_trials
    )
    executor = make_executor(
        bundle.source, config.space, config.seed, config.requirement.metric_names
    )
    result = Engine(config, executor).run()
    out_dir = Path(args.out) if args.out else bundle.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "run_result.json", run_result_to_dict(result, config))
    write_trials_csv(result, config, out_dir / "trials.csv")
    if result.best_index is not None:
        best = result.best_set.as_dict(config.space)
        print(f"best set: {best} (index {result.best_index})")
    else:
        print("best set: none found")
    print(f"alpha: {result.alpha:.2f}")
    print(f"beta: {result.beta:.4f}")
    print(f"trials: {result.n_trials} (terminated by {result.terminated_by})")
    if result.aborted:
        print(f"run aborted: {result.error}", file=sys.stderr)
        return EXIT_EXECUTOR
    return EXIT_OK


def cmd_campaign(args: argparse.Namespace) -> int:
    bundle = parse_config(args.config)
    spec = bundle.campaign_spec(
        approach=args.approach,
        iterations=args.iterations,
        base_seed=args.seed,
        max_trials=args.max_trials,
        jobs=args.jobs,
    )
    result = run_campaign(spec)
    out_dir = Path(args.out) if args.out else bundle.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "campaign_summary.json", evalharness.campaign_summary(result, spec)
    )
    evalharness.write_campaign_csv(result, out_dir / "campaign_trials.csv")
    print(f"approach: {result.approach}")
    print(f"iterations: {result.iterations} ok, {result.failures} failed")
    if result.ground_truth_index is not None:
        print(f"ground truth set index: {result.ground_truth_index}")
        print(f"EM1 (trials to 99% optimality): {result.em1}")
        print(f"EM2 (optimality @ {result.n_sets}): {result.em2}")
        print(f"EM3 (optimality @ {2 * result.n_sets}): {result.em3}")
        rmsd = "None" if result.rmsd_alpha is None else f"{result.rmsd_alpha:.3f}"
        print(f"RMSD alpha vs optimality: {rmsd}")
    else:
        print("constraint-finding mode (no set satisfies the constraints)")
    print(f"constraint discovery 99% crossing: {result.constraint_crossing}")
    return EXIT_OK


def cmd_validate_dataset(args: argparse.Namespace) -> int:
    report = validate_dataset(args.path, n_r=args.n_r)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apex-opt",
        description="Constrained Bayesian optimization of noisy black-box systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run one optimization")
    p_opt.add_argument("config", help="YAML configuration file")
    p_opt.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
    p_opt.add_argument("--selector", default=None,
                       help="override the configured selector")
    p_opt.add_argument("--max-trials", type=int, default=None,
                       help="override the configured trial budget")
    p_opt.add_argument("--out", default=None, help="output directory")
    p_opt.set_defaults(func=cmd_optimize)

    p_camp = sub.add_parser("campaign", help="run a repeated-seed evaluation")
    p_camp.add_argument("config", help="YAML configuration file")
    p_camp.add_argument("--approach", default=None,
                        help=" | ".join(evalharness.APPROACHES))
    p_camp.add_argument("--iterations", type=int, default=None)
    p_camp.add_argument("--seed", type=int, default=None,
                        help="override the campaign base seed")
    p_camp.add_argument("--max-trials", type=int, default=None)
    p_camp.add_argument("--jobs", type=int, default=None,
                        help="parallel iteration workers")
    p_camp.add_argument("--out", default=None, help="output directory")
    p_camp.set_defaults(func=cmd_campaign)

    p_val = sub.add_parser("validate-dataset", help="check a trace dataset file")
    p_val.add_argument("path", help="JSONL or CSV dataset")
    p_val.add_argument("--n-r", type=int, default=6,
                       help="target records per parameter set")
    p_val.set_defaults(func=cmd_validate_dataset)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsatisfiableTerminationError as e:
        print(f"unsatisfiable termination criteria: {e}", file=sys.stderr)
        return EXIT_UNSATISFIABLE
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ExecutorError as e:
        print(f"executor error: {e}", file=sys.stderr)
        return EXIT_EXECUTOR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
