"""Set-up probe: import bipcore, build one workload's inputs, print "ready".

run.py starts this script several times and times each from process start to
the "ready" line, which gives the benchmark's set-up time.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
