import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from bolm import inference
from bolm.cli import ConfigError, _normal_p_value, _read_long_file, main
from bolm.inference import NULL_CHUNK
from bolm.link_map import IncompatibleEta
from bolm.model_core import OrdinalPair
from bolm.simulation import default_loss_benchmark_truth, sample_dataset

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def write_json(directory: Path, name: str, payload: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_empirical_liver_association(tmp_path):
    rc = main(
        [
            "empirical",
            "--config",
            str(CONFIGS / "liver_empirical.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "empirical_loggor.csv")
    assert header == ["r", "c", "log_gor"]
    values = {(int(r), int(c)): float(v) for r, c, v in rows}
    assert round(values[(1, 1)], 2) == 1.72
    assert math.isinf(values[(1, 2)]) and values[(1, 2)] > 0
    assert round(values[(2, 1)], 2) == 3.18
    assert round(values[(2, 2)], 2) == 3.31


def test_fit_report_and_association_surface(tmp_path):
    rc = main(
        ["fit", "--config", str(CONFIGS / "os_arc2_s3.json"), "--out", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["command"] == "fit"
    assert report["penalty"]["family"] == "arc2"
    assert report["convergence"]["converged"] is True
    assert abs(report["aic"] - 22239.95889600529) < 1e-6
    assert abs(report["deviance_g2"] - 38.357425133019426) < 1e-6
    assert abs(report["edf"] - 21.000003827641358) < 1e-6
    assert len(report["estimates"]) == 48
    for entry in report["estimates"]:
        assert set(entry) == {"label", "estimate", "se", "z", "p_value"}
        assert entry["se"] > 0
    header, rows = read_csv(tmp_path / "fit_loggor.csv")
    assert header == ["r", "c", "log_gor"]
    assert len(rows) == 36
    assert [rows[0][0], rows[0][1]] == ["1", "1"]
    assert all(math.isfinite(float(v)) for _, _, v in rows)


def _ridge_fit(tmp_path: Path, lambdas: list[float]) -> tuple[int, dict]:
    """Exit code and fit_report.json of the occupational-status table with
    one ridge term on the association intercepts per entry of ``lambdas``."""
    name = "ridge_" + "_".join(map(str, lambdas))
    cfg = write_json(
        tmp_path,
        f"{name}.json",
        {
            "dataset": {"path": str(REPO / "data" / "occupational_status.dat"), "format": "table"},
            "model": {},
            "penalty": {
                "family": "ridge",
                "terms": [{"equation": 3, "lambda": lam} for lam in lambdas],
            },
        },
    )
    out = tmp_path / name
    rc = main(["fit", "--config", cfg, "--out", str(out)])
    assert rc in (0, 3)
    return rc, json.loads((out / "fit_report.json").read_text())


def _estimates(report: dict) -> list[float]:
    return [e["estimate"] for e in report["estimates"]]


@pytest.mark.parametrize("lam", [5.0, 500.0])
def test_repeated_penalty_terms_add_up(tmp_path, lam):
    # a penalty is a sum of terms, so a repeated block keeps every term:
    # a zero term changes no bit, and two terms act as their sum
    rc, alone = _ridge_fit(tmp_path, [lam])
    assert alone["penalty_value"] > 0.0 and alone["edf"] < 48.0
    rc_zero, with_zero = _ridge_fit(tmp_path, [lam, 0.0])
    assert len(with_zero["penalty"]["terms"]) == 2
    assert rc_zero == rc
    assert _estimates(with_zero) == _estimates(alone)
    for key in ("penalty_value", "edf", "aic"):
        assert with_zero[key] == alone[key]
    rc_split, split = _ridge_fit(tmp_path, [0.4 * lam, 0.6 * lam])
    assert rc_split == rc
    np.testing.assert_allclose(_estimates(split), _estimates(alone), rtol=1e-8)
    for key in ("penalty_value", "edf", "aic"):
        assert split[key] == pytest.approx(alone[key], rel=1e-8)


def test_unknown_config_keys_rejected(tmp_path, capsys):
    base = {
        "dataset": {"path": str(REPO / "data/occupational_status.dat"), "format": "table"},
        "model": {},
    }
    cfg = write_json(tmp_path, "top.json", {**base, "bogus": 1})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    cfg = write_json(
        tmp_path,
        "pen.json",
        {
            **base,
            "penalty": {
                "family": "ridge",
                "terms": [{"equation": 3, "lambda": 1.0, "typo": 2}],
            },
        },
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_json(tmp_path, "missing.json", {"dataset": base["dataset"]})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
    bad = tmp_path / "syntax.json"
    bad.write_text("{not json")
    assert main(["fit", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["fit", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == 2


def test_table_ingestion_errors(tmp_path, capsys):
    def fit_rc(text: str, extra: dict | None = None) -> int:
        data = tmp_path / "t.dat"
        data.write_text(text)
        cfg = write_json(
            tmp_path,
            "cfg.json",
            {
                "dataset": {"path": "t.dat", "format": "table", **(extra or {})},
                "model": {},
            },
        )
        return main(["fit", "--config", cfg, "--out", str(tmp_path)])

    assert fit_rc("1 2 3\n4 5\n") == 2
    assert fit_rc("1.5 2\n3 4\n") == 2
    assert fit_rc("-1 2\n3 4\n") == 2
    assert fit_rc("1 2\n3 4\n", {"pair": [3, 3]}) == 2
    assert fit_rc("1 2 3\n") == 2  # one row is not a pair of ordinal responses
    capsys.readouterr()
    for text in ("inf 2\n3 4\n", "nan 2\n3 4\n", "1e20 2\n3 4\n"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_rc(text) == 2
        err = capsys.readouterr().err
        assert "counts must be finite" in err and "t.dat" in err


_GRID = "3 1 0\n1 4 2\n0 2 5\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("# c\n3, 1, 0\n\n1,4,2\n0 ,2, 5", None),
        ("3 x 0", "{path}:1: non-numeric entry"),
        ("# only\n# comments\n", "{path}: empty table"),
        ("# c\n1 2\n\n3", "{path}:4: row has 1 entries, expected 2"),
        (None, "data file not found: {path}"),
    ],
    ids=["comma-comments-blank", "non-numeric", "comments-only", "ragged", "missing"],
)
def test_table_reader_forms(tmp_path, capsys, text, message):
    """A comma-separated grid with # comments and blank lines reads as the
    whitespace-separated ``_GRID``; unreadable tables exit 2."""

    def empirical(directory: Path, grid: str | None) -> int:
        directory.mkdir()
        if grid is not None:
            (directory / "t.dat").write_text(grid)
        cfg = write_json(directory, "cfg.json", {"dataset": {"path": "t.dat", "format": "table"}})
        return main(["empirical", "--config", cfg, "--out", str(directory / "out")])

    rc = empirical(tmp_path / "case", text)
    err = capsys.readouterr().err
    if message is not None:
        assert rc == 2
        assert f"error: {message.format(path=tmp_path / 'case' / 't.dat')}" in err
        return
    assert rc == 0 and err == ""
    assert empirical(tmp_path / "reference", _GRID) == 0
    written = (tmp_path / "case" / "out" / "empirical_loggor.csv").read_text()
    assert written == (tmp_path / "reference" / "out" / "empirical_loggor.csv").read_text()
    assert written.count("\n") == 5  # header and the 2 x 2 grid of log GORs


def test_long_ingestion_merging_and_centering(tmp_path, capsys):
    lines = ["a1,a2,x,count"]
    for a1, a2, n in [(1, 1, 30), (1, 2, 20), (2, 1, 25), (2, 2, 25)]:
        lines.append(f"{a1},{a2},0,{n}")
    for a1, a2, n in [(1, 1, 20), (1, 2, 25), (2, 1, 25), (2, 2, 35)]:
        lines.append(f"{a1},{a2},1,{n}")
    lines.append("1,1,0,5")  # duplicate profile row, merged into the x=0 group
    (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
    cfg = write_json(
        tmp_path,
        "cfg.json",
        {
            "dataset": {
                "path": "d.csv",
                "format": "long",
                "pair": [2, 2],
                "center": True,
            },
            "model": {
                "covariates": ["x"],
                "eq1": {"include": ["x"]},
                "eq2": {"include": ["x"]},
            },
        },
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    record = report["dataset"]
    assert record["n_groups"] == 2
    assert record["total_count"] == 210
    assert record["centered"] is True
    assert record["covariate_means"] == [pytest.approx(0.5)]
    labels = [e["label"] for e in report["estimates"]]
    assert "eq1:x" in labels and "eq2:x" in labels

    bad_label = (tmp_path / "bad1.csv")
    bad_label.write_text("a1,a2,x,count\n3,1,0,5\n")
    cfg = write_json(
        tmp_path,
        "bad1.json",
        {
            "dataset": {"path": "bad1.csv", "format": "long", "pair": [2, 2]},
            "model": {"covariates": ["x"]},
        },
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2

    bad_count = (tmp_path / "bad2.csv")
    bad_count.write_text("a1,a2,x,count\n1,1,0,2.5\n")
    cfg = write_json(
        tmp_path,
        "bad2.json",
        {
            "dataset": {"path": "bad2.csv", "format": "long", "pair": [2, 2]},
            "model": {"covariates": ["x"]},
        },
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2

    bad_header = (tmp_path / "bad3.csv")
    bad_header.write_text("a2,a1,x,count\n1,1,0,5\n")
    cfg = write_json(
        tmp_path,
        "bad3.json",
        {
            "dataset": {"path": "bad3.csv", "format": "long", "pair": [2, 2]},
            "model": {"covariates": ["x"]},
        },
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2

    capsys.readouterr()
    for i, (row, message) in enumerate(
        [
            ("1,1,0,nan", "counts must be nonnegative integers"),
            ("1,1,0,inf", "counts must be nonnegative integers"),
            ("1,1,nan,5", "covariates must be finite"),
            ("1,1,inf,5", "covariates must be finite"),
            ("1,1,0,1e19", "counts must be finite and below 2**63"),
            # each count fits in int64 but the sum does not, in one cell
            # or across profiles
            (f"1,1,0,{2**62}\n1,1,0,{2**62}", "counts must sum to below 2**63"),
            (f"1,1,0,{2**62}\n2,2,1,{2**62}", "counts must sum to below 2**63"),
        ]
    ):
        (tmp_path / f"nonfinite{i}.csv").write_text(f"a1,a2,x,count\n1,2,0,5\n{row}\n")
        cfg = write_json(
            tmp_path,
            f"nonfinite{i}.json",
            {
                "dataset": {"path": f"nonfinite{i}.csv", "format": "long", "pair": [2, 2]},
                "model": {"covariates": ["x"]},
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and f"nonfinite{i}.csv" in err


def test_long_reader_memory_grows_with_profiles_not_lines(tmp_path):
    lines = ["a1,a2,x,count"] + [
        f"{i % 7 + 1},{i // 7 % 7 + 1},{i % 20},{i % 3}" for i in range(20_000)
    ]
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        names, dataset = _read_long_file(path, OrdinalPair(7, 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert names == ["x"]
    assert dataset.n_groups == 20
    assert dataset.n_total == sum(i % 3 for i in range(20_000))
    # one table per line would take tens of MB
    assert peak < 4 * 2**20


def test_profile_zero_lambda_identity_across_orders(tmp_path):
    (tmp_path / "grid.dat").write_text(
        "12 8 5 3\n7 14 9 4\n4 9 13 8\n2 5 9 15\n"
    )
    cfg = write_json(
        tmp_path,
        "profile.json",
        {
            "dataset": {"path": "grid.dat", "format": "table"},
            "model": {},
            "s_values": [1, 2],
            "lambdas": [0.0, 100.0],
        },
    )
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "profile_aic.csv")
    assert header == ["s", "log10_lambda", "aic", "edf", "status"]
    assert [(r[0], r[1]) for r in rows] == [
        ("1", "-inf"),
        ("1", "2.0"),
        ("2", "-inf"),
        ("2", "2.0"),
    ]
    assert all(r[4] == "ok" for r in rows)
    zero_rows = [r for r in rows if r[1] == "-inf"]
    assert float(zero_rows[0][2]) == pytest.approx(float(zero_rows[1][2]), abs=1e-9)
    assert float(zero_rows[0][3]) == pytest.approx(15.0, abs=1e-6)


_OS_DATASET = {"path": str(REPO / "data/occupational_status.dat"), "format": "table"}


def test_profile_maps_log_lambdas_and_reports_failed_points(tmp_path):
    cfg = write_json(
        tmp_path,
        "profile.json",
        {"dataset": _OS_DATASET, "model": {}, "s_values": [1], "log_lambdas": [-2, -1, 0]},
    )
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "profile_aic.csv")
    assert header == ["s", "log10_lambda", "aic", "edf", "status"]
    # the two lightest penalties leave Fisher scoring without a fit
    assert rows[:2] == [
        ["1", "-2.0", "nan", "nan", "failed"],
        ["1", "-1.0", "nan", "nan", "failed"],
    ]
    assert rows[2][:2] == ["1", "0.0"] and rows[2][4] == "ok"
    assert float(rows[2][2]) == pytest.approx(22253.105465418877, rel=1e-6)
    assert float(rows[2][3]) == pytest.approx(44.89588911793949, rel=1e-6)

# the 3x3 two-profile table of the mc tests: x in eq1 and eq2 globally
_MC_MARGINS = {"covariates": ["x"], "eq1": {"include": ["x"]}, "eq2": {"include": ["x"]}}


def _arc1_eq3(*variables) -> dict:
    return {
        "family": "arc1",
        "terms": [{"equation": 3, "variable": v, "lambda": 10} for v in variables],
    }


def mc_config(tmp_path: Path, **fields) -> str:
    """Writes mc.csv and an lrtest config on it; ``fields`` fill the config."""
    lines = ["a1,a2,x,count"]
    t0 = [[40, 20, 10], [20, 30, 20], [10, 20, 40]]
    t1 = [[30, 20, 15], [25, 30, 25], [15, 25, 45]]
    for x, table in ((0, t0), (1, t1)):
        for r in range(3):
            for c in range(3):
                lines.append(f"{r + 1},{c + 1},{x},{table[r][c]}")
    (tmp_path / "mc.csv").write_text("\n".join(lines) + "\n")
    dataset = {"path": "mc.csv", "format": "long", "pair": [3, 3]}
    return write_json(tmp_path, "mc.json", {"dataset": dataset, **fields})


def _refuse_fits(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a refused test must not fit")

    monkeypatch.setattr(inference, "fit", no_fit)


def test_lrtest_statistic_equals_deviance_gap(tmp_path):
    rc = main(
        ["lrtest", "--config", str(CONFIGS / "os_lrtest.json"), "--out", str(tmp_path)]
    )
    assert rc == 0
    out = json.loads((tmp_path / "lrtest.json").read_text())
    gap = out["fits"]["reduced"]["deviance_g2"] - out["fits"]["full"]["deviance_g2"]
    assert out["statistic"] == pytest.approx(gap, abs=1e-8)
    assert out["statistic"] == pytest.approx(207.2260368112693, abs=1e-6)
    assert out["df"] == 35
    assert 0.0 <= out["p_value_chi2"] <= 1.0
    assert out["method"] == "chi2_approx"


def test_lrtest_rejects_non_nested_pair(tmp_path):
    cfg = write_json(
        tmp_path,
        "swapped.json",
        {
            "dataset": {
                "path": str(REPO / "data/occupational_status.dat"),
                "format": "table",
            },
            "full": {"uniform_association": True},
            "reduced": {},
        },
    )
    assert main(["lrtest", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_lrtest_identical_models_give_null_test(tmp_path, monkeypatch):
    _refuse_fits(monkeypatch)
    same = {"uniform_association": True}
    arc1 = {"family": "arc1", "terms": [{"equation": 1, "lambda": 1.0}]}
    # with mc as well: an identical pair is the null test, not a refusal;
    # a one-part composite is the same penalty as its part
    for extra in (
        {},
        {"mc": {}},
        {"full_penalty": {"family": "composite", "parts": [arc1]}, "reduced_penalty": arc1},
    ):
        cfg = write_json(
            tmp_path,
            "same.json",
            {"dataset": _OS_DATASET, "full": same, "reduced": same, **extra},
        )
        assert main(["lrtest", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "lrtest.json").read_text())
        assert out["statistic"] == 0.0
        assert out["df"] == 0
        assert out["p_value_chi2"] == 1.0
        assert (out["p_value_mc"], "fits" in out) == (None, False)


def _pinned(out: dict) -> tuple:
    return (
        out["statistic"], out["df"], out["p_value_chi2"], out["p_value_mc"],
        out["mc_se"], out["fits"],
    )


def test_lrtest_mc_pvalue_matches_chi2_when_unpenalized(tmp_path):
    cfg = mc_config(
        tmp_path,
        full=_MC_MARGINS,
        reduced={"covariates": ["x"]},
        mc={},
        seed=7,
    )
    assert main(["lrtest", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "lrtest.json").read_text())
    assert out["df"] == 2
    assert out["method"] == "gray_weighted"
    # without smoothing all Gray weights are one, so the mixture is the
    # chi-square law itself
    assert out["p_value_mc"] == out["p_value_chi2"]
    assert _pinned(out) == (
        1.562297216720708, 2, 0.4578797846002527, 0.4578797846002527, None,
        {
            "full": {"aic": 1888.641256455272, "deviance_g2": 2.9397211129345875, "edf": 10.0},
            "reduced": {"aic": 1886.2035536719927, "deviance_g2": 4.502018329655142, "edf": 8.0},
        },
    )


def test_lrtest_penalized_mc_outputs_are_pinned(tmp_path):
    # eq3 x smoothed in the full model and excluded from the reduced one;
    # both models smooth the association intercepts alike
    cfg = mc_config(
        tmp_path,
        full={**_MC_MARGINS, "eq3": {"include": ["x"], "category_dependent": ["x"]}},
        reduced=_MC_MARGINS,
        full_penalty=_arc1_eq3("x", None),
        reduced_penalty=_arc1_eq3(None),
        mc={},
        seed=7,
    )
    assert main(["lrtest", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "lrtest.json").read_text())
    assert out["method"] == "gray_weighted"
    assert _pinned(out) == (
        2.740872675246692, 4, 0.6020816023878451, 0.25253132252551685, None,
        {
            "full": {
                "aic": 1887.9610513537998,
                "deviance_g2": 0.2441243401196641,
                "edf": 11.007695835671287,
            },
            "reduced": {
                "aic": 1886.5899084682262,
                "deviance_g2": 2.980586016183345,
                "edf": 8.953893554852689,
            },
        },
    )
    # the excluded block is a tested block, so its smoothing is reported as such
    assert out["warnings"] == [
        "tested block eq3:x is smoothed at lambda=10; "
        "the chi-squared reference is conservative there"
    ]


# config on mc.csv and message of each lrtest refused before any fit
_REFUSED = {
    "flattening": (
        {"full": {}, "reduced": {"uniform_association": True}, "mc": {}},
        "mc p-value supports variable-exclusion hypotheses only",
    ),
    "no-exclusion": (
        {"full": {}, "reduced": {}, "mc": {}, "full_penalty": _arc1_eq3(None)},
        "mc p-value needs at least one excluded variable",
    ),
    "inverted-nesting": (
        {
            "full": {},
            "reduced": {"uniform_association": True},
            "full_penalty": {"family": "ridge", "terms": [{"equation": 3, "lambda": 1e7}]},
        },
        "heavy smoothing inverted the nesting",
    ),
    "missing-target": (
        {
            "full": {},
            "reduced": {"uniform_association": True},
            "reduced_penalty": {"family": "arc1", "terms": [{"equation": 1, "variable": "z", "lambda": 1}]},
        },
        "penalty targets missing block eq1:z",
    ),
    "ordering-mc": (
        {
            "full": {"eq1": {"include": ["x"]}},
            "reduced": {},
            "full_penalty": {"family": "ordering", "lambda1": 1.0, "lambda2": 1.0},
            "mc": {},
        },
        "ordering penalty depends on beta",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_lrtest_refuses_before_fitting(tmp_path, capsys, monkeypatch, case):
    _refuse_fits(monkeypatch)
    config, message = _REFUSED[case]
    cfg = mc_config(tmp_path, **config)
    assert main(["lrtest", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "lrtest.json").exists()


@pytest.mark.parametrize(
    "error", [IncompatibleEta("no cells"), np.linalg.LinAlgError("singular")]
)
def test_lrtest_numerical_failures_exit_3(tmp_path, capsys, monkeypatch, error):
    # both are ValueErrors, yet they are not config errors
    def failing_fit(*args, **kwargs):
        raise error

    monkeypatch.setattr(inference, "fit", failing_fit)
    cfg = write_json(
        tmp_path,
        "os.json",
        {"dataset": _OS_DATASET, "full": {}, "reduced": {"uniform_association": True}},
    )
    assert main(["lrtest", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_simulate_null_calibration_deterministic(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    cfg1 = write_json(
        tmp_path,
        "null1.json",
        {
            "experiment": "null_calibration",
            "replicates": 6,
            "n": 200,
            "lambdas": [0.0, 50.0],
            "seed": 11,
        },
    )
    cfg2 = write_json(
        tmp_path,
        "null2.json",
        {
            "experiment": "null_calibration",
            "replicates": 6,
            "n": 200,
            "lambdas": [0.0, 50.0],
        },
    )
    assert main(["simulate", "--config", cfg1, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg2, "--seed", "11", "--out", str(out2)]) == 0
    for name in ("null_replicates.csv", "null_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header, rows = read_csv(out1 / "null_replicates.csv")
    assert header == ["replicate", "lambda", "statistic", "converged"]
    assert len(rows) == 12
    header, rows = read_csv(out1 / "null_summary.csv")
    assert header == [
        "lambda",
        "df",
        "n_converged",
        "n_failed",
        "rejection_rate",
        "rejection_rate_mixture",
        "ks_distance",
        "mean_statistic",
    ]
    assert [r[0] for r in rows] == ["0.0", "50.0"]
    assert all(r[1] == "3" for r in rows)


def test_simulate_loss_benchmark_rows(tmp_path):
    cfg = write_json(
        tmp_path,
        "bench.json",
        {
            "experiment": "loss_benchmark",
            "replicates": 3,
            "n": 300,
            "lambdas": [0.0, 1.0],
            "seed": 4,
        },
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "benchmark_summary.csv")
    assert header == ["model", "lambda", "msel", "mrsel", "mel", "aic", "fss"]
    assert [r[0] for r in rows] == ["NUNPOM", "NUNPOM", "UPOM"]
    assert rows[0][1] == "0.0" and rows[1][1] == "1.0" and rows[2][1] == ""
    assert int(rows[2][6]) == 3  # the uniform model always fits


def test_simulate_outputs_do_not_depend_on_threads(tmp_path):
    experiments = {
        # two chunks, so that --threads 2 runs the process pool
        "null_calibration": (
            {"replicates": NULL_CHUNK + 1, "n": 200, "lambdas": [0.0, 50.0]},
            ("null_replicates.csv", "null_summary.csv"),
        ),
        "loss_benchmark": (
            {"replicates": 2, "n": 300, "lambdas": [0.0, 1.0]},
            ("benchmark_summary.csv",),
        ),
    }
    for experiment, (sizes, files) in experiments.items():
        cfg = write_json(
            tmp_path, f"{experiment}.json", {"experiment": experiment, "seed": 4, **sizes}
        )
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{experiment}-{threads}"
            argv = ["simulate", "--config", cfg, "--threads", threads, "--out", str(out)]
            assert main(argv) == 0
            outs.append(out)
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("package", ["scipy.stats", "scipy.integrate"])
def test_importing_the_package_leaves_out(package):
    src = str(REPO / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, bolm, bolm.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[:2] == {package.split('.')!r}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_normal_p_value_is_the_bits_of_scipy_stats():
    z = np.concatenate(
        [np.random.default_rng(11).normal(scale=4.0, size=20_000),
         [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 1e300, np.nan]]
    )
    np.testing.assert_array_equal(
        [_normal_p_value(value) for value in z], 2.0 * stats.norm.sf(np.abs(z))
    )
    assert _normal_p_value(math.inf) == _normal_p_value(-math.inf) == 0.0


def test_fit_failure_writes_report_and_exits_3(tmp_path, capsys):
    truth = default_loss_benchmark_truth(n=400)
    dataset = sample_dataset(truth, seed=20260816, stream=0)
    lines = ["a1,a2,x,count"]
    for covariates, counts in zip(dataset.covariates, dataset.counts):
        x = repr(float(covariates[0]))
        for r in range(3):
            for c in range(3):
                lines.append(f"{r + 1},{c + 1},{x},{counts[r, c]}")
    (tmp_path / "hard.csv").write_text("\n".join(lines) + "\n")
    cfg = write_json(
        tmp_path,
        "hard.json",
        {
            "dataset": {"path": "hard.csv", "format": "long", "pair": [3, 3]},
            "model": {
                "covariates": ["x"],
                "eq1": {"include": ["x"], "category_dependent": ["x"]},
                "eq2": {"include": ["x"], "category_dependent": ["x"]},
                "eq3": {"include": ["x"], "category_dependent": ["x"]},
            },
            "fit_options": {"max_iter": 60},
        },
    )
    rc = main(["fit", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["convergence"]["fisher_scoring_failed"] is True
    assert "60" in report["convergence"]["failure_reason"]
    assert (tmp_path / "fit_loggor.csv").is_file()
    assert "60" in capsys.readouterr().err


def test_option_validation(tmp_path):
    cfg = write_json(
        tmp_path,
        "ok.json",
        {
            "dataset": {"path": str(REPO / "data/occupational_status.dat"), "format": "table"},
            "model": {"uniform_association": True},
        },
    )
    # refused before any side effect: no output directory is made
    fresh = tmp_path / "threads"
    assert main(["fit", "--config", cfg, "--threads", "0", "--out", str(fresh)]) == 2
    assert not fresh.exists()
    # --seed meets the schema's seed rule, as a config "seed" does
    emp = write_json(
        tmp_path,
        "emp.json",
        {"dataset": {"path": str(REPO / "data/occupational_status.dat"), "format": "table"}},
    )
    fresh = tmp_path / "seed"
    assert main(["empirical", "--config", emp, "--seed", "-1", "--out", str(fresh)]) == 2
    assert not fresh.exists()
    prof = write_json(
        tmp_path,
        "prof.json",
        {
            "dataset": {"path": str(REPO / "data/occupational_status.dat"), "format": "table"},
            "model": {},
            "s_values": [1],
            "lambdas": [0.0],
            "log_lambdas": [0],
        },
    )
    assert main(["profile", "--config", prof, "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit):
        main([])


def test_profile_grid_overflow_is_a_config_error(tmp_path, capsys):
    prof = write_json(
        tmp_path,
        "prof.json",
        {"dataset": _OS_DATASET, "model": {}, "s_values": [1], "log_lambdas": [1, 400]},
    )
    assert main(["profile", "--config", prof, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "400" in err
    # 10**-400 underflows to 0, which would be an unpenalized point
    prof = write_json(
        tmp_path,
        "prof.json",
        {"dataset": _OS_DATASET, "model": {}, "s_values": [1], "log_lambdas": [-400, 0]},
    )
    assert main(["profile", "--config", prof, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-400" in err
    assert not (tmp_path / "profile_aic.csv").exists()


@pytest.mark.parametrize(
    "model, s_values, message",
    [
        ({}, [6], "difference order 6 invalid for block length 6"),
        ({"uniform_association": True}, [2], "nothing to smooth"),
    ],
    ids=["order-too-high", "uniform-association"],
)
def test_profile_refuses_an_order_the_model_cannot_take(tmp_path, capsys, model, s_values, message):
    prof = write_json(
        tmp_path,
        "prof.json",
        {"dataset": _OS_DATASET, "model": model, "s_values": s_values, "lambdas": [1.0]},
    )
    assert main(["profile", "--config", prof, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "profile_aic.csv").exists()


def _with_penalty(penalty: dict) -> tuple[str, dict]:
    return "fit", {"dataset": {"path": "t.dat", "format": "table"}, "model": {}, "penalty": penalty}


def _overflowing(job: tuple[str, dict]) -> tuple[str, str]:
    """``job`` with its config as JSON text in which the string "1e400"
    becomes a bare number literal, which json.load rounds to inf."""
    command, config = job
    return command, json.dumps(config).replace('"1e400"', "1e400")


_HUGE_INT = 10**400  # a JSON integer with no float value


_RIDGE_TERM = {"equation": 1, "lambda": 1.0}
_ARC2_TERM = {"stream": 3, "order": 1, "lambda": 1.0}
_PROFILE = {"dataset": {"path": "t.dat", "format": "table"}, "model": {}, "s_values": [1]}

# (case, (command, config), exit code): the schema's per-family penalty,
# profile-grid and long-format rules, and no bare NaN or Infinity and no
# number that overflows to infinity
_CONFIG_RULES = [
    ("ridge-no-terms", _with_penalty({"family": "ridge"}), 2),
    ("ridge-empty-terms", _with_penalty({"family": "ridge", "terms": []}), 2),
    ("ridge-term-no-equation", _with_penalty({"family": "ridge", "terms": [{"lambda": 1.0}]}), 2),
    (
        "ridge-term-with-stream",
        _with_penalty({"family": "ridge", "terms": [{**_RIDGE_TERM, "stream": 3}]}),
        2,
    ),
    (
        "arc1-term-with-order",
        _with_penalty({"family": "arc1", "terms": [{**_RIDGE_TERM, "order": 2}]}),
        2,
    ),
    (
        "arc2-term-no-order",
        _with_penalty({"family": "arc2", "terms": [{"stream": 3, "lambda": 1.0}]}),
        2,
    ),
    (
        "arc2-term-with-equation",
        _with_penalty({"family": "arc2", "terms": [{**_ARC2_TERM, "equation": 3}]}),
        2,
    ),
    ("ordering-no-lambda2", _with_penalty({"family": "ordering", "lambda1": 1.0}), 2),
    ("composite-no-parts", _with_penalty({"family": "composite"}), 2),
    ("composite-empty-parts", _with_penalty({"family": "composite", "parts": []}), 2),
    (
        "composite-invalid-part",
        _with_penalty({"family": "composite", "parts": [{"family": "ridge"}]}),
        2,
    ),
    (
        "lrtest-arc2-term-with-equation",
        (
            "lrtest",
            {
                "dataset": {"path": "t.dat", "format": "table"},
                "full": {},
                "reduced": {},
                "full_penalty": {"family": "arc2", "terms": [_RIDGE_TERM]},
            },
        ),
        2,
    ),
    ("profile-both-grids", ("profile", {**_PROFILE, "lambdas": [0.0], "log_lambdas": [0]}), 2),
    ("profile-no-grid", ("profile", _PROFILE), 2),
    ("long-no-pair", ("fit", {"dataset": {"path": "d.csv", "format": "long"}, "model": {}}), 2),
    (
        "ridge-lambda-nan",
        _with_penalty({"family": "ridge", "terms": [{**_RIDGE_TERM, "lambda": float("nan")}]}),
        2,
    ),
    (
        "arc1-lambda-infinity",
        _with_penalty({"family": "arc1", "terms": [{**_RIDGE_TERM, "lambda": float("inf")}]}),
        2,
    ),
    (
        "ridge-lambda-overflows",
        _overflowing(_with_penalty({"family": "ridge", "terms": [{**_RIDGE_TERM, "lambda": "1e400"}]})),
        2,
    ),
    (
        "ridge-lambda-integer-overflows",
        _with_penalty({"family": "ridge", "terms": [{**_RIDGE_TERM, "lambda": _HUGE_INT}]}),
        2,
    ),
    (
        "lrtest-mc-draws",
        (
            "lrtest",
            {
                "dataset": {"path": "t.dat", "format": "table"},
                "full": {},
                "reduced": {},
                "mc": {"draws": 1000},
            },
        ),
        2,
    ),
    (
        "fit-options-grad-tol",
        (
            "fit",
            {
                "dataset": {"path": "t.dat", "format": "table"},
                "model": {},
                "fit_options": {"grad_tol": 1e-8},
            },
        ),
        2,
    ),
    (
        "null-calibration-repeated-lambdas",
        ("simulate", {"experiment": "null_calibration", "lambdas": [0.0, 1.0, 1]}),
        2,
    ),
    (
        "null-calibration-lambda-overflows",
        _overflowing(("simulate", {"experiment": "null_calibration", "lambdas": [0.0, "1e400"]})),
        2,
    ),
    ("none-with-terms", _with_penalty({"family": "none", "terms": [_RIDGE_TERM]}), 0),
    (
        "ridge-stray-lambda1",
        _with_penalty({"family": "ridge", "terms": [_RIDGE_TERM], "lambda1": 2.0}),
        0,
    ),
]


@pytest.mark.parametrize(
    "job, rc", [pytest.param(job, rc, id=case) for case, job, rc in _CONFIG_RULES]
)
def test_config_rules(tmp_path, capsys, job, rc):
    command, config = job
    (tmp_path / "t.dat").write_text("12 8 5\n7 14 9\n4 9 13\n")
    (tmp_path / "d.csv").write_text("a1,a2,count\n1,1,3\n2,2,4\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == rc
    if rc == 2:
        assert capsys.readouterr().err.startswith("error:")


def test_singular_fit_reports_nan_p_values(tmp_path, capsys):
    lines = ["a1,a2,x,count"]
    for a1, a2, n in [(1, 1, 30), (1, 2, 20), (2, 1, 25), (2, 2, 25)]:
        lines.append(f"{a1},{a2},1,{n}")  # x is constant, so it aliases the intercept
    (tmp_path / "flat.csv").write_text("\n".join(lines) + "\n")
    cfg = write_json(
        tmp_path,
        "flat.json",
        {
            "dataset": {"path": "flat.csv", "format": "long", "pair": [2, 2]},
            "model": {"covariates": ["x"], "eq1": {"include": ["x"]}},
        },
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "rank deficient" in capsys.readouterr().err
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["estimates"]
    for entry in report["estimates"]:
        assert (entry["se"], entry["z"], entry["p_value"]) == ("nan", "nan", "nan")


@pytest.mark.parametrize(
    "command, config, rc, message",
    [
        pytest.param(
            "fit",
            {
                "dataset": _OS_DATASET,
                "model": {},
                "penalty": {
                    "family": "ridge",
                    "terms": [{"equation": 1, "variable": "z", "lambda": 1.0}],
                },
            },
            2,
            "error: penalty targets missing block eq1:z",
            id="fit-missing-target",
        ),
        pytest.param(
            "fit",
            {"dataset": _OS_DATASET, "model": {"eq1": {"include": ["z"]}}},
            2,
            "error: equation 1 uses unknown covariates ['z']",
            id="unknown-covariate",
        ),
        pytest.param(
            "simulate",
            {"experiment": "loss_benchmark", "lambdas": [10, 1]},
            2,
            "error: ladder must be ascending",
            id="descending-ladder",
        ),
        pytest.param(
            "lrtest",
            {
                "dataset": _OS_DATASET,
                "full": {},
                "reduced": {"uniform_association": True},
                "fit_options": {"max_iter": 1},
            },
            3,
            "full fit failed: gradient tolerance not reached within 1 iterations",
            id="lrtest-fit-fails",
        ),
    ],
)
def test_library_errors_map_to_exit_codes(tmp_path, capsys, command, config, rc, message):
    # invalid input the library finds exits 2 and a fit that fails exits
    # 3, before any output file is written
    cfg = write_json(tmp_path, "cfg.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == rc
    assert capsys.readouterr().err.startswith(message)
    assert list(out.iterdir()) == []


def _unit_counts_file(tmp_path: Path) -> Path:
    """A 2x2 long file, one observation per cell and profile: x1 takes 0
    and 1, and x2 is always 0, so its design column is zero."""
    lines = ["a1,a2,x1,x2"] + [
        f"{a1},{a2},{x1},0" for x1 in (0, 1) for a1 in (1, 2) for a2 in (1, 2)
    ]
    path = tmp_path / "aliased.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fit_singular_at_convergence_exits_3(tmp_path, capsys):
    _unit_counts_file(tmp_path)
    cfg = write_json(
        tmp_path,
        "aliased.json",
        {
            "dataset": {"path": "aliased.csv", "format": "long", "pair": [2, 2]},
            "model": {"covariates": ["x1", "x2"], "eq1": {"include": ["x1", "x2"]}},
        },
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "rank deficient" in capsys.readouterr().err
    convergence = json.loads((tmp_path / "fit_report.json").read_text())["convergence"]
    assert convergence["converged"] is False
    assert convergence["fisher_scoring_failed"] is True


def test_long_reader_reports_file_line_numbers(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a1,a2,x\n\n1,9,0\n")
    with pytest.raises(ConfigError, match=r"blank\.csv:3: labels \(1, 9\) outside 1\.\.2 x 1\.\.2"):
        _read_long_file(path, OrdinalPair(2, 2))
