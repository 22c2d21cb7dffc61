"""Set-up work of one CLI invocation: import vhfl_lab and parse a workload's configs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED. ``run.py`` times whole
processes of this script for ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vhfl_lab import harness  # noqa: E402

import workloads  # noqa: E402

for raw in workloads.configs(sys.argv[1], int(sys.argv[2])):
    harness.parse_config({**raw, "out_dir": "unused"})
