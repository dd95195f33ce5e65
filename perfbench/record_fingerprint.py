"""Record the outputs every benchmark run is checked against.

    python3 perfbench/record_fingerprint.py

Writes perfbench/fingerprint.json from one pass of each workload at its
benchmark size: the null calibration and loss benchmark replicates, on
the shipped seed and on the hold-out seed, and the CLI outputs on the
shipped configs.  The pool workload shares the null calibration entry.
The file is the reference for later changes, so record it once, at the
commit that defines the benchmark, and not again to make a run pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def _entry(name: str) -> dict:
    with workloads.build(name, 0, HERE / "out" / "tmp") as w:
        summary = json.loads(json.dumps(w.summary(w.run()), allow_nan=False))
        return {"workload": name, "params": w.params, "summary": summary}


def main() -> None:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                         capture_output=True, text=True).stdout.strip()
    out = {
        "recorded_at": sha or None,
        "tolerance": {"rel": workloads.REL_TOL, "abs": workloads.ABS_TOL},
        "entries": [],
    }
    for name in workloads.NAMES:
        if "_pool" not in name:
            out["entries"].append(_entry(name))
            print(name, flush=True)
    workloads.FINGERPRINT.write_text(json.dumps(out, indent=1, allow_nan=False) + "\n")


if __name__ == "__main__":
    main()
