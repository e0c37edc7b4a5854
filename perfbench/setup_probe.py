"""Set up one workload in a fresh interpreter and report when it is ready.

Usage: python3 perfbench/setup_probe.py WORKLOAD TRACE

Imports ``apexopt``, parses the workload's config and builds its campaign
specs (loading the replay dataset where there is one), then prints one
JSON line and exits. The parent process times from launch to that line.
With TRACE=1 the config parse and dataset load are wrapped as spans.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    name, traced = argv[1], argv[2] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import apexopt.cli  # noqa: F401  (numpy, scipy and yaml load with it)

    out = {"cli.import_s": time.perf_counter() - t0}
    from workloads import WORKLOADS, build_specs

    if not traced:
        build_specs(WORKLOADS[name], ROOT)
    else:
        from layers import SETUP_TARGETS
        from spans import Patcher, Tracer

        tracer = Tracer()
        patcher = Patcher()
        patcher.install(SETUP_TARGETS, lambda fn, t: tracer.wrap(fn, t.span))
        try:
            build_specs(WORKLOADS[name], ROOT)
        finally:
            patcher.restore()
        for t in SETUP_TARGETS:
            out[t.span + "_s"] = sum(s.end - s.start for s in tracer.spans
                                     if s.name == t.span)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
