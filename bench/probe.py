"""Set-up probe: start, import the simulator, build one workload, print "ready", exit.

    python3 bench/probe.py <workload> <seed>

`run.py` times a few of these from spawn to the "ready" line and reports the
median as `setup_s`.
"""

import sys

from run import output_dir, pin_environment

pin_environment()
import workloads  # noqa: E402  (needs the pinned environment and path)

workload, seed = sys.argv[1], int(sys.argv[2])
workloads.WORKLOADS[workload](seed, output_dir(workload))
print("ready", flush=True)
