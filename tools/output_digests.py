"""Print a digest of every output of a fixed matrix of CLI runs.

The matrix is ``optimize`` and ``campaign --iterations 3 --max-trials 60``
for each of the seven selectors on the two bundled configs, the two
perfbench configs and ``tools/every_key.yaml`` (which sets the config keys
the others leave at their defaults, and runs its campaigns on two
workers), one ``campaign --max-trials 97`` of the bundled replay config
(its dataset has 96 records, so no iteration completes), one campaign of
``tools/constraint_finding.yaml`` (the bundled dataset under a PRR bound
that no set meets, so there is no ground-truth optimum), plus
``validate-dataset`` of the bundled dataset at ``--n-r 6`` and
``--n-r 7``: 74 runs. Each run is a fresh
``python -m apexopt.cli`` process with its own temporary directory, which
``optimize`` and ``campaign`` write their outputs into. One
``sha256  path`` line is printed per output file and per run's stdout
(with the exit code appended to it), sorted by path. Two source trees give
equal outputs exactly when they print the same lines:

    python tools/output_digests.py > change.txt
    python tools/output_digests.py --root /path/to/parent > parent.txt
    diff parent.txt change.txt

``--root`` names the checkout whose ``src/`` and configs are run; it
defaults to the one holding this script. A checkout older than
``tools/every_key.yaml`` or ``tools/constraint_finding.yaml`` needs a
copy of that file. ``--keep DIR`` writes the runs into ``DIR`` (which must
not exist yet) and leaves them there, for ``tools/compare_outputs.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CONFIGS = (
    "src/apexopt/data/crystal_replay.yaml",
    "src/apexopt/data/synthetic_demo.yaml",
    "perfbench/configs/planted_synthetic.yaml",
    "perfbench/configs/wide_synthetic.yaml",
    "tools/every_key.yaml",
)
SELECTORS = ("apex-lcb", "apex-ei", "gel", "ger", "guc", "rl-step", "rl-any")
JOBS = 2  # runs at a time
COMMANDS = {
    "optimize": ["optimize", "{config}", "--selector", "{selector}",
                 "--out", "{out}"],
    "campaign": ["campaign", "{config}", "--approach", "{selector}",
                 "--iterations", "3", "--max-trials", "60", "--out", "{out}"],
}
ALL_FAILED = "src/apexopt/data/crystal_replay.yaml"  # 96 records, 97 trials
CONSTRAINT_FINDING = "tools/constraint_finding.yaml"
DATASET = "src/apexopt/data/crystal_demo.jsonl"
TARGET_RECORDS = (6, 7)  # the bundled dataset has 6 per set


def runs(root: Path, out: Path):
    """(run directory, CLI arguments) of every run."""
    for config in CONFIGS:
        for command, template in COMMANDS.items():
            for selector in SELECTORS:
                run_dir = out / Path(config).stem / command / selector
                yield run_dir, [
                    a.format(config=root / config, selector=selector, out=run_dir)
                    for a in template
                ]
    run_dir = out / Path(ALL_FAILED).stem / "campaign" / "all-failed"
    yield run_dir, ["campaign", str(root / ALL_FAILED), "--iterations", "2",
                    "--max-trials", "97", "--out", str(run_dir)]
    run_dir = out / Path(CONSTRAINT_FINDING).stem / "campaign" / "apex-lcb"
    yield run_dir, ["campaign", str(root / CONSTRAINT_FINDING), "--iterations", "2",
                    "--max-trials", "40", "--out", str(run_dir)]
    for n_r in TARGET_RECORDS:
        run_dir = out / Path(DATASET).stem / "validate-dataset" / f"n-r-{n_r}"
        yield run_dir, ["validate-dataset", str(root / DATASET), "--n-r", str(n_r)]


def run_one(root: Path, run_dir: Path, args: list[str]) -> None:
    run_dir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "apexopt.cli", *args],
        env=env, capture_output=True, check=False,
    )
    # Written next to the outputs, so it is digested with them.
    (run_dir / "stdout").write_bytes(
        proc.stdout + f"exit {proc.returncode}\n".encode()
    )
    if proc.returncode != 0:
        last = (proc.stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
        print(f"{run_dir}: exit {proc.returncode}: {last}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to run (default: this one)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="new directory to write the runs into and keep")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "apexopt" / "cli.py").is_file():
        parser.error(f"no apexopt sources under {root / 'src'}")
    if args.keep is not None:
        if args.keep.exists():
            parser.error(f"{args.keep} already exists")
        args.keep.mkdir(parents=True)
        digest_runs(root, args.keep)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        digest_runs(root, Path(tmp))
    return 0


def digest_runs(root: Path, out: Path) -> None:
    """Run the matrix into ``out`` and print one digest line per file."""
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for future in [pool.submit(run_one, root, run_dir, cli_args)
                       for run_dir, cli_args in runs(root, out)]:
            future.result()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    sys.exit(main())
