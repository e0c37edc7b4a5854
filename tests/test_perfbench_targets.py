"""Every function the campaign benchmark wraps by name still exists.

``perfbench`` installs its timers on ``apexopt`` functions and methods
looked up by dotted name, and a missing name breaks only the benchmark.
This installs identity wrappers on all of them, so a rename fails here.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from layers import CAMPAIGN_TARGETS, SETUP_TARGETS  # noqa: E402
from spans import Patcher  # noqa: E402


def test_every_wrapped_name_resolves_and_restores():
    patcher = Patcher()
    try:
        patcher.install(CAMPAIGN_TARGETS + SETUP_TARGETS, lambda fn, target: fn)
    finally:
        patcher.restore()
