"""Cold set-up of one workload: import ``xyreg.cli`` and write the inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <directory>

``run.py`` times this script from spawn to exit as ``setup_s``.
"""

import sys
from pathlib import Path

import benchenv

benchenv.prepare()

import workloads  # noqa: E402  (imports xyreg.cli)

if __name__ == "__main__":
    workdir = Path(sys.argv[3])
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.build_workload(sys.argv[1], int(sys.argv[2]), workdir)
