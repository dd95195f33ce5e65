"""Set-up of one workload in a fresh interpreter: import bolm, build inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py times this whole process for ``setup_s``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports bolm)

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    with workloads.build(name, seed, HERE / "out" / "tmp"):
        pass
