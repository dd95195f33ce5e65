"""The benchmark's own checks, on every workload at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "null_calibration": {"replicates": 2},
    "null_calibration_pool": {"replicates": 4},
    "loss_benchmark": {"replicates": 1},
    "occupational_status": {},
}
LAYER_METRICS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.fixture(scope="module")
def scratch():
    """A directory inside the benchmark's ignored output folder."""
    path = BENCH / "out" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def traced_runs(scratch):
    """One traced pass of each workload, with its spans and last outputs."""
    out = {}
    tmp = scratch
    for name, sizes in TINY.items():
        with workloads.build(name, 1, tmp, **sizes) as w:
            metrics, phases, _ = run.traced(w, 0.0, None, tmp / f"{name}.jsonl")
            spans = [json.loads(line) for line in (tmp / f"{name}.jsonl").read_text().splitlines()]
            target = w.in_process() if getattr(w, "threads", 1) > 1 else w
            outputs = target.run()
            files = target.summary(outputs) if name == "occupational_status" else None
        out[name] = {"metrics": metrics, "spans": spans, "outputs": outputs, "files": files,
                     "phases": phases}
    return out


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_metric(traced_runs, name):
    metrics = traced_runs[name]["metrics"]
    assert {k: unit for k, (_, unit) in metrics.items()} == LAYER_METRICS
    assert all(isinstance(v, (int, float)) for v, _ in metrics.values())
    assert metrics["estimator.fit.self_s"][0] >= 0.0
    assert metrics["cli.self_s"][0] >= 0.0


@pytest.mark.parametrize("name", list(TINY))
def test_child_spans_lie_inside_their_parent(traced_runs, name):
    spans = traced_runs[name]["spans"]
    assert spans
    child_time = [0.0] * len(spans)
    for s in spans:
        parent = s[tracer.PARENT]
        if parent >= 0:
            p = spans[parent]
            assert p[tracer.START] <= s[tracer.START] <= s[tracer.END] <= p[tracer.END]
            child_time[parent] += s[tracer.END] - s[tracer.START]
    for s, covered in zip(spans, child_time):
        assert covered <= s[tracer.END] - s[tracer.START] + 1e-9


@pytest.mark.parametrize("name", list(TINY))
def test_trials_cover_iterations(traced_runs, name):
    metrics = traced_runs[name]["metrics"]
    assert metrics["estimator.trials"][0] >= metrics["estimator.iterations"][0]
    assert metrics["estimator.fit.calls"][0] > 0


def _visible_loss_failures(result) -> tuple[int, int]:
    """Failed fits the outputs show, and how many more may hide behind a
    successful retry at lambda = 0."""
    rungs = len(result.ladder)
    visible = hidden = 0
    for o in result.outcomes:
        first = o.first_success_index
        visible += not o.upom_converged
        if first is None:
            visible += rungs + 1  # every rung, and the retry at lambda = 0
        elif first > 0:
            visible += first + 1
        else:
            hidden += 1
    return visible, hidden


def test_failed_fits_match_loss_outputs(traced_runs):
    run_ = traced_runs["loss_benchmark"]
    count = run_["metrics"]["estimator.failed.count"][0]
    visible, hidden = _visible_loss_failures(run_["outputs"])
    assert visible > 0
    assert visible <= count <= visible + hidden
    m = run_["metrics"]
    classes = sum(m[f"estimator.failed.{c}"][0] for c in ("no_step", "singular", "max_iter"))
    assert classes == count


def test_failed_fits_match_cli_outputs(traced_runs):
    run_ = traced_runs["occupational_status"]
    files = run_["files"]
    profile = files["profile os_profile"]["files"]["profile_aic.csv"]
    status = profile[0].index("status")
    visible = sum(row[status] == "failed" for row in profile[1:])
    visible += sum(1 for job, v in files.items() if job.startswith("fit ") and v["exit"] == 3)
    assert run_["metrics"]["estimator.failed.count"][0] == visible


@pytest.mark.parametrize("name", ["null_calibration", "null_calibration_pool"])
def test_failed_fits_match_null_outputs(traced_runs, name):
    result = traced_runs[name]["outputs"]
    failed_records = sum(not r.converged for r in result.records)
    count = traced_runs[name]["metrics"]["estimator.failed.count"][0]
    # a record fails when either of its two fits fails
    assert failed_records <= count <= 2 * failed_records


def test_pool_gives_the_in_process_outputs(traced_runs):
    w = workloads.NullCalibrationPool(1, **TINY["null_calibration_pool"])
    assert w.summary(w.run()) == w.summary(w.in_process().run())


def _recorded(name: str):
    fp = workloads.load_fingerprint()
    return next(e["summary"] for e in fp["entries"] if e["workload"] == name)


def test_fingerprint_accepts_itself_and_rejects_perturbations():
    loss = _recorded("loss_benchmark")
    assert workloads.compare(loss, copy.deepcopy(loss)) == []

    drifted = copy.deepcopy(loss)
    drifted[2][2] *= 1.0 + 1e-4  # msel at lambda = 10
    assert workloads.compare(loss, drifted)
    within = copy.deepcopy(loss)
    within[2][2] *= 1.0 + 1e-9
    assert workloads.compare(loss, within) == []
    fss = copy.deepcopy(loss)
    fss[0][-1] += 1
    assert workloads.compare(loss, fss)

    null = _recorded("null_calibration")
    failed = copy.deepcopy(null)
    failed[0][2] += 1  # n_failed at lambda = 0
    assert workloads.compare(null, failed)

    cli = _recorded("occupational_status")
    exit_code = copy.deepcopy(cli)
    exit_code["fit os_arc1"]["exit"] = 3
    assert workloads.compare(cli, exit_code)
    estimate = copy.deepcopy(cli)
    estimate["fit os_arc1"]["files"]["fit_report.json"]["aic"] *= 1.0 + 1e-4
    assert workloads.compare(cli, estimate)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_fingerprint_holds_every_workload_at_its_benchmark_size(name, scratch):
    with workloads.build(name, 0, scratch) as w:
        assert workloads.expected_summary(workloads.load_fingerprint(), w) is not None


def test_fails_without_the_program(scratch):
    tmp_path = scratch / "bare"
    tmp_path.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "null_calibration",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
