"""Run one workload of the bolm benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs as a batch job in a closed loop with one caller: passes
of a fixed size back to back for about ``--seconds`` (at least one pass).  Every pass's outputs are checked against the fingerprint
recorded in ``perfbench/fingerprint.json``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; set-up is then timed in fresh interpreters after the passes.
With ``--trace 1`` it holds the per-layer metrics of a traced run.  A
provenance line comes before it, and the whole record, with the spans of
a traced run, is written under ``perfbench/out/``.

See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread per process: the pool workload runs one process per core.
THREAD_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
SETUP_PROBES = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _prepare_imports() -> None:
    """Pin BLAS threads and put the checkout's src/ first on the path."""
    if not (SRC / "bolm" / "__init__.py").is_file():
        raise SystemExit(f"error: no bolm sources under {SRC}")
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]


# ---------------------------------------------------------------------------
# measurement


class Passes:
    """Wall times and checked outputs of the passes of one phase."""

    def __init__(self):
        self.seconds: list[float] = []
        self.units = 0
        self.broken_units = 0
        self.mismatches: list[str] = []
        self.failed_ops = 0
        self.attempted_ops = 0

    @property
    def median(self) -> float:
        return statistics.median(self.seconds)


def measure(workload, seconds: float, expected, tracer=None) -> Passes:
    """Run passes for about ``seconds`` (at least one); check each pass."""
    import workloads
    from tracer import CLI, PASS

    passes = Passes()
    span = None
    if tracer is not None:
        span = lambda cmd: tracer.span(CLI, cmd)  # noqa: E731
    start = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            if tracer is None:
                result = workload.run()
            else:
                with tracer.span(PASS):
                    result = workload.run(span)
        except Exception:
            # a pass that raises counts as failed work; the run still reports
            traceback.print_exc(file=sys.stderr)
            passes.seconds.append(perf_counter() - t0)
            passes.units += workload.units
            passes.broken_units += workload.units
            passes.mismatches.append("pass raised")
            break
        passes.seconds.append(perf_counter() - t0)
        passes.units += workload.units
        summary = json.loads(json.dumps(workload.summary(result), allow_nan=False))
        diffs = (["no fingerprint recorded for these inputs"] if expected is None
                 else workloads.compare(expected, summary))
        if diffs:
            passes.broken_units += workload.units
            passes.mismatches.extend(diffs[:5])
        failed, attempted = workload.failures(result)
        passes.failed_ops += failed
        passes.attempted_ops += attempted
        # stop before a pass that would end past the deadline
        if perf_counter() - start + passes.seconds[-1] > seconds:
            return passes
    return passes


def setup_seconds(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import bolm and build the inputs."""
    env = dict(os.environ, **THREAD_ENV)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return times


def peak_rss_mb(with_children: bool) -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ---------------------------------------------------------------------------
# provenance


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, by library file name."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and ".so" in line})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = int(fn())
                break
    return out


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bolm").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": THREAD_ENV,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "workload_seed": seed,
        "input_seed": getattr(workload, "input_seed", None),
        "pool_workers": getattr(workload, "threads", 1),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(name: str, workload, seed: int, seconds: float, expected) -> tuple[dict, list, dict]:
    passes = measure(workload, seconds, expected)
    rss = peak_rss_mb(with_children=getattr(workload, "threads", 1) > 1)
    setup = setup_seconds(name, seed)
    metrics = {
        "wall_s": (passes.median, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (passes.units / sum(passes.seconds), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"pass_seconds": passes.seconds, "setup_seconds": setup}
    return metrics, [passes], detail


def traced(workload, seconds: float, expected, spans_path: Path) -> tuple[dict, list, dict]:
    from tracer import Tracer

    phases = []
    if getattr(workload, "threads", 1) > 1:
        # forked workers keep their own counters, so the layers are traced on
        # the same replicates in process and the pool is timed untraced
        workers = workload.threads
        pool = measure(workload, seconds / 3, expected)
        workload = workload.in_process()
        plain = measure(workload, seconds / 3, expected)
        phases += [pool, plain]
        wall_ratio = pool.median / plain.median
        share = seconds / 3
    else:
        plain = measure(workload, seconds / 2, expected)
        phases.append(plain)
        workers, wall_ratio = 1, 1.0
        share = seconds / 2
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = measure(workload, share, expected, tracer)
    finally:
        tracer.restore()
    phases.append(with_trace)
    tracer.write(spans_path)

    metrics = {k: (v, _layer_unit(k)) for k, v in tracer.layer_metrics(len(with_trace.seconds)).items()}
    metrics["simulation.pool.workers"] = (workers, "count")
    metrics["simulation.pool.wall_ratio"] = (wall_ratio, "ratio")
    metrics["trace.overhead_s"] = (with_trace.median - plain.median, "s")
    failed, attempted = with_trace.failed_ops, with_trace.attempted_ops
    metrics["failed_share"] = (failed / attempted if attempted else 0.0, "share")
    detail = {"untraced_pass_seconds": plain.seconds, "traced_pass_seconds": with_trace.seconds,
              "spans": spans_path.name, "span_count": len(tracer.spans)}
    return metrics, phases, detail


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("accept_ratio"):
        return "ratio"
    return "count"


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record, result line included."""
    import workloads

    if name not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {', '.join(workloads.NAMES)}")
    fingerprint = workloads.load_fingerprint()
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    with workloads.build(name, seed, OUT / "tmp") as workload:
        expected = workloads.expected_summary(fingerprint, workload)
        if trace:
            metrics, phases, detail = traced(workload, seconds, expected, OUT / f"{tag}-spans.jsonl")
        else:
            metrics, phases, detail = end_to_end(name, workload, seed, seconds, expected)
        prov = provenance(workload, seed)
    attempted = sum(p.units for p in phases)
    failed = sum(p.broken_units for p in phases)
    mismatches = [m for p in phases for m in p.mismatches]
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"workload": name, "provenance": prov, "detail": detail,
            "mismatches": mismatches[:20], "result": result}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _prepare_imports()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in record["mismatches"]:
        print(f"mismatch: {line}", file=sys.stderr)
    print("provenance: " + json.dumps(record["provenance"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
