"""Time the set-up a CLI command pays before its first SGD step.

Usage: ``python perfbench/setup_probe.py <config>`` with the package's
``src`` on PYTHONPATH.  Prints the seconds from the start of this
interpreter's own code to the end of load_config, build_problem,
build_schedule and build_sf, which includes importing slrlab and numpy
and building the problem data.
"""

import sys
import time

t0 = time.perf_counter()
from slrlab import cli_io  # noqa: E402 - the import is part of what is timed

cfg = cli_io.load_config(sys.argv[1])
cli_io.build_problem(cfg)
cli_io.build_schedule(cfg)
cli_io.build_sf(cfg)
print(time.perf_counter() - t0)
