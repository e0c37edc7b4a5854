"""Compare the outputs of two source trees, field by field.

Run ``tools/output_digests.py --keep DIR`` once per tree, then:

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Every output file of every run is read as columns: a JSON file by its
key paths (list positions folded into ``[]``, so ``trials[].tau`` holds
the tau of every trial), a CSV file by its header, and a run's stdout by
the text before each ``: ``. Two things are printed. First, whether every
decision field is equal in both trees: the set each trial tried, how it
was selected, trap and escape mode, and the best and reported sets with
the reported goal median. Second, per numeric column that changed, the
largest relative change ``|a - b| / max(|a|, |b|)`` over all runs, and
how many numeric columns are equal. A text column other than a decision
field is listed with its number of unequal values.

The exit code is 0 when every decision field and every file name is
equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

DECISION_FIELDS = ("set_index", "selected_by", "trap", "escape_mode", "best_index",
                   "reported_index", "reported_goal_median")


def _flatten(obj, path: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{path}.{key}" if path else str(key), out)
    elif isinstance(obj, list):
        for value in obj:
            _flatten(value, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(obj)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def columns(path: Path) -> dict[str, list]:
    """Column name -> values, in file order."""
    out: dict[str, list] = {}
    if path.suffix == ".json":
        _flatten(json.loads(path.read_text(encoding="utf-8")), "", out)
    elif path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                for name, text in row.items():
                    out.setdefault(name, []).append(_cell(text))
    else:
        for line in path.read_text(encoding="utf-8").splitlines():
            name, _, text = line.partition(": ")
            out.setdefault(name, []).append(_cell(text.strip()))
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def compare(parent: Path, change: Path) -> tuple[list[str], bool]:
    """The report's lines, and whether every decision field and file name
    is equal."""
    files_a = {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
    files_b = {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    lines = []
    for side, only in (("parent", files_a - files_b), ("change", files_b - files_a)):
        for rel in sorted(only):
            lines.append(f"only in {side}: {rel.as_posix()}")
    decisions = defaultdict(int)  # column -> unequal values
    compared = defaultdict(int)  # decision column -> values compared
    largest: dict[str, float] = {}
    text_diffs = defaultdict(int)
    for rel in sorted(files_a & files_b):
        a, b = columns(parent / rel), columns(change / rel)
        for name in sorted(set(a) | set(b)):
            key = f"{rel.name}:{name}"
            va, vb = a.get(name, []), b.get(name, [])
            field = name.rsplit(".", 1)[-1].removesuffix("[]")
            if field in DECISION_FIELDS:
                compared[key] += max(len(va), len(vb))
                decisions[key] += abs(len(va) - len(vb)) + sum(
                    x != y for x, y in zip(va, vb))
                continue
            if len(va) != len(vb):
                text_diffs[key] += abs(len(va) - len(vb))
            for x, y in zip(va, vb):
                if _is_number(x) and _is_number(y):
                    largest[key] = max(largest.get(key, 0.0), _relative(x, y))
                elif x != y:
                    text_diffs[key] += 1
    n_runs = len({rel.parent for rel in files_a | files_b})
    unequal = {k: v for k, v in decisions.items() if v}
    if unequal:
        lines.append(f"decision fields differ ({n_runs} runs):")
        lines += [f"  {k}: {v} of {compared[k]} values" for k, v in sorted(unequal.items())]
    else:
        lines.append(f"decision fields: all {sum(compared.values())} values equal "
                     f"({n_runs} runs)")
    changed = {k: v for k, v in largest.items() if v}
    lines.append("largest relative change per numeric column:")
    width = max((len(k) for k in changed), default=0)
    lines += [f"  {k:<{width}}  {v:.3g}" for k, v in sorted(changed.items())]
    lines.append(f"  ({len(largest) - len(changed)} other numeric columns equal)")
    if text_diffs:
        lines.append("other columns with unequal values:")
        lines += [f"  {k}: {v}" for k, v in sorted(text_diffs.items())]
    return lines, not unequal and files_a == files_b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="outputs kept from the parent tree")
    parser.add_argument("change", type=Path, help="outputs kept from the changed tree")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    lines, equal = compare(args.parent, args.change)
    print("\n".join(lines))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
