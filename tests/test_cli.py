import csv
import json
import math
import warnings
from pathlib import Path

import pytest

from bolm.cli import main
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


def test_lrtest_identical_models_give_null_test(tmp_path):
    cfg = write_json(
        tmp_path,
        "same.json",
        {
            "dataset": {
                "path": str(REPO / "data/occupational_status.dat"),
                "format": "table",
            },
            "full": {"uniform_association": True},
            "reduced": {"uniform_association": True},
        },
    )
    assert main(["lrtest", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "lrtest.json").read_text())
    assert out["statistic"] == 0.0
    assert out["df"] == 0
    assert out["p_value_chi2"] == 1.0


def test_lrtest_mc_pvalue_matches_chi2_when_unpenalized(tmp_path):
    lines = ["a1,a2,x,count"]
    t0 = [[40, 20, 10], [20, 30, 20], [10, 20, 40]]
    t1 = [[30, 20, 15], [25, 30, 25], [15, 25, 45]]
    for x, table in ((0, t0), (1, t1)):
        for r in range(3):
            for c in range(3):
                lines.append(f"{r + 1},{c + 1},{x},{table[r][c]}")
    (tmp_path / "mc.csv").write_text("\n".join(lines) + "\n")
    cfg = write_json(
        tmp_path,
        "mc.json",
        {
            "dataset": {"path": "mc.csv", "format": "long", "pair": [3, 3]},
            "full": {
                "covariates": ["x"],
                "eq1": {"include": ["x"]},
                "eq2": {"include": ["x"]},
            },
            "reduced": {"covariates": ["x"]},
            "mc": {"draws": 50000},
            "seed": 7,
        },
    )
    assert main(["lrtest", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "lrtest.json").read_text())
    assert out["df"] == 2
    assert out["method"] == "gray_weighted"
    assert out["mc_se"] > 0.0
    # without smoothing all Gray weights are one, so both p-values target
    # the same chi-square tail
    assert abs(out["p_value_mc"] - out["p_value_chi2"]) <= max(
        4.0 * out["mc_se"], 5e-3
    )


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
        "null_calibration": (
            {"replicates": 4, "n": 200, "lambdas": [0.0, 50.0]},
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


def test_fit_failure_writes_report_and_exits_3(tmp_path, capsys):
    truth = default_loss_benchmark_truth(n=400)
    dataset = sample_dataset(truth, seed=20260816, stream=0)
    lines = ["a1,a2,x,count"]
    for group in dataset.groups:
        x = repr(float(group.covariates[0]))
        for r in range(3):
            for c in range(3):
                lines.append(f"{r + 1},{c + 1},{x},{group.counts[r, c]}")
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
    assert main(["fit", "--config", cfg, "--threads", "0", "--out", str(tmp_path)]) == 2
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


def _with_penalty(penalty: dict) -> tuple[str, dict]:
    return "fit", {"dataset": {"path": "t.dat", "format": "table"}, "model": {}, "penalty": penalty}


_RIDGE_TERM = {"equation": 1, "lambda": 1.0}
_ARC2_TERM = {"stream": 3, "order": 1, "lambda": 1.0}
_PROFILE = {"dataset": {"path": "t.dat", "format": "table"}, "model": {}, "s_values": [1]}

# (case, (command, config), exit code): the schema's per-family penalty,
# profile-grid and long-format rules, and no bare NaN or Infinity
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
    cfg = write_json(tmp_path, "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == rc
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
