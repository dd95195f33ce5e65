"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace] [--out FILE]

For every workload: one ``run.py`` process per seed (``--trace 0``),
then the median, the quartiles and the spread (distance between the
quartiles over the median) of each end-to-end metric.  With ``--trace``
one traced run per workload (first seed) adds the per-layer metrics.
The summary is written as JSON (default ``perfbench/out/sweep.json``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2].removeprefix("provenance: "))
    return result


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", type=Path, default=HERE / "out" / "sweep.json")
    args = p.parse_args()
    seeds = _seeds(args.seeds)
    summary = {"run_seconds": BENCHMARK["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_run(workload, s, 0) for s in seeds]
        metrics = {
            m["name"]: _stats([r["metrics"][m["name"]]["value"] for r in runs])
            | {"unit": m["unit"], "bound": m["bound"]}
            for m in BENCHMARK["end_to_end"]
        }
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "provenance": runs[0]["provenance"],
        }
        if args.trace:
            traced = _run(workload, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        line = ", ".join(f"{k} {v['median']:.4g} (spread {v['spread']:.3f})" for k, v in metrics.items())
        print(f"{workload}: correct={entry['correct']} {line}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
