"""The benchmark's workloads: inputs, one pass of work and its outputs.

Each workload builds its inputs once in ``__init__`` (the set-up that
``setup_s`` times in a fresh interpreter) and then runs passes of a fixed
size with ``run``.  ``summary`` reduces a pass's outputs to the values the
fingerprint records, and ``failures`` reads from the same outputs how many
operations failed out of how many were attempted.

Importing this module imports ``bolm``, so ``src/`` must be on the path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import tempfile
from pathlib import Path

import numpy as np

import bolm
from bolm import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
FINGERPRINT = Path(__file__).resolve().parent / "fingerprint.json"

# Relative and absolute tolerance on every recorded number; counts,
# strings and exit codes must match exactly.
REL_TOL = 1e-6
ABS_TOL = 1e-10

# Replicates per pass.  The simulation workloads run the first replicates
# of the shipped config's seed, or of the next seed for a hold-out check.
NULL_REPLICATES = 40
LOSS_REPLICATES = 1
HOLDOUT = ".holdout"

# bolm.cli.main over every shipped small config, one pass in a shuffled order
CLI_JOBS = (
    ("empirical", "liver_empirical"),
    ("fit", "os_unpenalized"),
    ("fit", "os_upom"),
    ("fit", "os_arc1"),
    ("fit", "os_ridge"),
    ("fit", "os_arc2_s2"),
    ("fit", "os_arc2_s3"),
    ("fit", "os_arc2_s4"),
    ("profile", "os_profile"),
    ("lrtest", "os_lrtest"),
)


def _config(name: str) -> dict:
    with open(CONFIGS / f"{name}.json") as fh:
        return json.load(fh)


def _num(x) -> float | str:
    """A float for the fingerprint; non-finite values as the CLI spells them."""
    f = float(x)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return f


def pool_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


class NullCalibration:
    """Criterion 4: simulate_lrp_null on the null-calibration truth.

    The inputs do not depend on the workload seed: 2 of 10 seed-drawn
    passes of 40 replicates hold a replicate whose fits need three times
    the usual trial steps, which makes such a pass 1.6 times as long.
    """

    name = "null_calibration"
    unit = "replicate"

    def __init__(self, seed: int, replicates: int = NULL_REPLICATES, threads: int = 1,
                 holdout: bool = False):
        cfg = _config("null_calibration")
        self.input_seed = int(cfg["seed"]) + holdout
        self.replicates = replicates
        self.threads = threads
        self.lambdas = tuple(float(v) for v in cfg["lambdas"])
        self.truth = bolm.default_null_calibration_truth(int(cfg["n"]))
        self.units = replicates

    @property
    def params(self) -> dict:
        return {"experiment": "null_calibration", "seed": self.input_seed,
                "replicates": self.replicates, "n": self.truth.n, "lambdas": list(self.lambdas)}

    def in_process(self) -> "NullCalibration":
        """The same inputs run without the process pool."""
        twin = NullCalibration.__new__(NullCalibration)
        twin.__dict__.update(self.__dict__, threads=1)
        return twin

    def run(self, span=None):
        return bolm.simulate_lrp_null(
            self.truth, replicates=self.replicates, lambdas=self.lambdas,
            seed=self.input_seed, threads=self.threads,
        )

    def summary(self, result) -> list:
        return [
            [s.lam, len(s.statistics), s.n_failed, _num(s.rejection_rate),
             _num(np.mean(s.statistics)) if len(s.statistics) else "nan"]
            for s in result.summaries
        ]

    def failures(self, result) -> tuple[int, int]:
        """Records with converged = false, out of all records."""
        return sum(not r.converged for r in result.records), len(result.records)


class NullCalibrationPool(NullCalibration):
    """Criterion 4 through the process pool, one worker per core (at most 2)."""

    name = "null_calibration_pool"

    def __init__(self, seed: int, replicates: int = NULL_REPLICATES, holdout: bool = False):
        super().__init__(seed, replicates, threads=pool_threads(), holdout=holdout)


class LossBenchmark:
    """Criterion 5: the first LOSS_REPLICATES replicates of
    run_table1_experiment at the shipped config's seed.

    The inputs do not depend on the workload seed: one replicate costs
    0.15 to 2.9 s depending on how many rungs fail, so seed-drawn passes of
    an affordable size would differ by more than any usable bound.  The
    first replicate fails at lambda 0 (and its retry) and at 1, then
    converges at 10, so a pass runs the failure path and the ordering
    penalty.
    """

    name = "loss_benchmark"
    unit = "replicate"

    def __init__(self, seed: int, replicates: int = LOSS_REPLICATES, holdout: bool = False):
        cfg = _config("loss_benchmark")
        self.input_seed = int(cfg["seed"]) + holdout
        self.n = int(cfg["n"])
        self.ladder = tuple(float(v) for v in cfg["lambdas"])
        self.replicates = replicates
        self.truth = bolm.default_loss_benchmark_truth(self.n)
        self.units = replicates

    @property
    def params(self) -> dict:
        return {"experiment": "loss_benchmark", "seed": self.input_seed,
                "replicates": self.replicates, "n": self.n, "ladder": list(self.ladder)}

    def run(self, span=None):
        return bolm.run_table1_experiment(
            self.input_seed, replicates=self.replicates, n=self.n,
            ladder=self.ladder, threads=1,
        )

    def summary(self, result) -> list:
        return [
            [row.model, row.lam, _num(row.msel), _num(row.mrsel), _num(row.mel),
             _num(row.aic), row.fss]
            for row in result.rows
        ]

    def failures(self, result) -> tuple[int, int]:
        """Ladder rungs that failed, out of rungs attempted."""
        rungs = len(result.ladder)
        failed = attempted = 0
        for o in result.outcomes:
            first = o.first_success_index
            failed += rungs if first is None else first
            attempted += rungs if first is None else first + 1
        return failed, attempted


class OccupationalStatus:
    """bolm.cli.main in process over every shipped small config.

    The inputs are the shipped data and configs; the workload seed sets the
    order of the invocations within a pass.
    """

    name = "occupational_status"
    unit = "invocation"
    params = {"experiment": "cli", "jobs": sorted(f"{cmd} {cfg}" for cmd, cfg in CLI_JOBS)}

    def __init__(self, seed: int, out_dir: Path):
        self.jobs = random.Random(seed).sample(CLI_JOBS, len(CLI_JOBS))
        for _, cfg in self.jobs:
            _config(cfg)  # every config is present and parses
        self.out_dir = out_dir
        self.units = len(self.jobs)

    def run(self, span=None):
        codes = {}
        sink = io.StringIO()
        for cmd, cfg in self.jobs:
            argv = [cmd, "--config", str(CONFIGS / f"{cfg}.json"), "--out", str(self.out_dir / cfg)]
            with span(cmd) if span else contextlib.nullcontext():
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes[f"{cmd} {cfg}"] = cli.main(argv)
            sink.seek(0)
            sink.truncate()
        return codes

    def summary(self, codes) -> dict:
        out = {}
        for job in sorted(codes):
            folder = self.out_dir / job.split()[1]
            files = {p.name: _read_output(p) for p in sorted(folder.iterdir())}
            out[job] = {"exit": codes[job], "files": files}
        return out

    def failures(self, codes) -> tuple[int, int]:
        """Invocations with a non-zero exit code, out of all invocations."""
        return sum(rc != 0 for rc in codes.values()), len(codes)


def _read_output(path: Path):
    if path.suffix == ".json":
        with open(path) as fh:
            payload = json.load(fh)
        if isinstance(payload.get("dataset"), dict) and "path" in payload["dataset"]:
            # absolute in the file; only the data file's name is an output
            payload["dataset"]["path"] = Path(payload["dataset"]["path"]).name
        return payload
    with open(path, newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def _cell(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


WORKLOADS = {
    w.name: w for w in (NullCalibration, LossBenchmark, OccupationalStatus, NullCalibrationPool)
}
# the simulation workloads on the next experiment seed, for hold-out checks
NAMES = list(WORKLOADS) + [w + HOLDOUT for w in WORKLOADS if w != OccupationalStatus.name]


@contextlib.contextmanager
def build(name: str, seed: int, scratch: Path, **sizes):
    """The workload ``name`` with its inputs built; CLI outputs go to a
    temporary directory under ``scratch`` that is removed afterwards."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if name == OccupationalStatus.name:
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            yield OccupationalStatus(seed, out_dir=Path(tmp))
    elif name.endswith(HOLDOUT):
        yield WORKLOADS[name.removesuffix(HOLDOUT)](seed, holdout=True, **sizes)
    else:
        yield WORKLOADS[name](seed, **sizes)


# ---------------------------------------------------------------------------
# fingerprint


def load_fingerprint() -> dict:
    with open(FINGERPRINT) as fh:
        return json.load(fh)


def expected_summary(fingerprint: dict, workload):
    """The recorded summary for this workload's inputs and sizes, or None."""
    for entry in fingerprint["entries"]:
        if entry["params"] == workload.params:
            return entry["summary"]
    return None


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between a recorded and a measured summary."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{where}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)):
        if isinstance(expected, int) and isinstance(actual, int):
            ok = expected == actual
        else:
            ok = abs(actual - expected) <= ABS_TOL + REL_TOL * abs(expected)
    else:
        ok = type(expected) is type(actual) and expected == actual
    return [] if ok else [f"{where}: recorded {expected!r}, measured {actual!r}"]
