"""Set-up probe: a fresh interpreter imports every layer and writes the configs.

    python3 perfbench/setup_probe.py <workload> <directory>

run.py times a few of these from spawn to exit and reports the median as
setup_s, so that work moved into import or set-up shows.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.prepare(sys.argv[1], Path(sys.argv[2]))
