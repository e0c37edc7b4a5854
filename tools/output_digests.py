"""Print a digest of every output of a fixed matrix of CLI runs.

The matrix is ``optimize`` and ``campaign --iterations 3 --max-trials 60``
for each of the seven selectors on the two bundled configs and the two
perfbench configs: 56 runs. Each run is a fresh ``python -m apexopt.cli``
process writing into a temporary directory. One ``sha256  path`` line is
printed per output file and per run's stdout (with the exit code appended
to it), sorted by path. Two source trees give equal outputs exactly when
they print the same lines:

    python tools/output_digests.py > change.txt
    python tools/output_digests.py --root /path/to/parent > parent.txt
    diff parent.txt change.txt

``--root`` names the checkout whose ``src/`` and configs are run; it
defaults to the one holding this script.
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
)
SELECTORS = ("apex-lcb", "apex-ei", "gel", "ger", "guc", "rl-step", "rl-any")
JOBS = 2  # runs at a time
COMMANDS = {
    "optimize": ["optimize", "{config}", "--selector", "{selector}"],
    "campaign": ["campaign", "{config}", "--approach", "{selector}",
                 "--iterations", "3", "--max-trials", "60"],
}


def runs(root: Path):
    """(relative output directory, CLI arguments) of every run."""
    for config in CONFIGS:
        for command, template in COMMANDS.items():
            for selector in SELECTORS:
                args = [a.format(config=root / config, selector=selector)
                        for a in template]
                yield f"{Path(config).stem}/{command}/{selector}", args


def run_one(root: Path, out: Path, name: str, args: list[str]) -> None:
    run_dir = out / name
    run_dir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "apexopt.cli", *args, "--out", str(run_dir)],
        env=env, capture_output=True, check=False,
    )
    # Written next to the outputs, so it is digested with them.
    (run_dir / "stdout").write_bytes(
        proc.stdout + f"exit {proc.returncode}\n".encode()
    )
    if proc.returncode != 0:
        last = (proc.stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
        print(f"{name}: exit {proc.returncode}: {last}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "apexopt" / "cli.py").is_file():
        parser.error(f"no apexopt sources under {root / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for future in [pool.submit(run_one, root, out, name, cli_args)
                           for name, cli_args in runs(root)]:
                future.result()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
