"""Command line interface.

Five subcommands: ``fit`` (one penalized fit, JSON report plus fitted
log-GOR surface), ``profile`` (AIC over a smoothing grid), ``lrtest``
(penalized likelihood-ratio test of nested models), ``simulate``
(loss benchmark or null-distribution study), ``empirical`` (observed
log-GOR grid).  Every command reads a JSON config validated against a
schema that rejects unknown keys, writes fixed-name files under
``--out``, and is deterministic given the config and ``--seed``.

Exit codes, which ``main`` alone assigns: 0 success, 2 invalid config or
data (a ``ConfigError`` or any other ``ValueError``), 3 numerical failure
(``IncompatibleEta`` and ``LinAlgError`` too, though they are ValueErrors).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
from jsonschema import Draft202012Validator
from scipy.special import ndtr

from .estimator import (
    FitOptions,
    FitResult,
    fit,
)
from .inference import (
    aic_profile,
    default_null_calibration_truth,
    lr_test,
    simulate_lrp_null,
)
from .link_map import IncompatibleEta, empirical_log_gors
from .model_core import (
    INTERCEPT,
    Dataset,
    EquationTerms,
    ModelSpec,
    OrdinalPair,
    build_design_matrix,
)
from .penalties import PenaltyConfig
from .simulation import run_table1_experiment


class ConfigError(Exception):
    """Invalid config or data file; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config schemas

_TERM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "equation": {"enum": [1, 2, 3]},
        "stream": {"enum": [1, 2, 3, 4]},
        "variable": {"type": ["string", "null"]},
        "lambda": {"type": "number", "minimum": 0},
        "order": {"type": "integer", "minimum": 1},
    },
    "required": ["lambda"],
}


def _when(key: str, values: list, then: dict) -> dict:
    """``then`` applies to objects whose ``key`` is one of ``values``."""
    return {
        "if": {"required": [key], "properties": {key: {"enum": values}}},
        "then": then,
    }


def _needs_terms(*keys: str) -> dict:
    """A non-empty terms list whose terms carry exactly ``keys`` (plus
    variable and lambda) of the term fields."""
    props = _TERM_SCHEMA["properties"]
    term = {
        **_TERM_SCHEMA,
        "properties": {k: props[k] for k in (*keys, "variable", "lambda")},
        "required": [*keys, "lambda"],
    }
    return {
        "required": ["terms"],
        "properties": {"terms": {"minItems": 1, "items": term}},
    }


_PENALTY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["family"],
    "properties": {
        "family": {
            "enum": ["none", "ridge", "arc1", "arc2", "ordering", "composite"]
        },
        "terms": {"type": "array", "items": _TERM_SCHEMA},
        "lambda1": {"type": "number", "minimum": 0},
        "lambda2": {"type": "number", "minimum": 0},
        "margin": {"type": "number", "minimum": 0},
        "parts": {"type": "array", "items": {"$ref": "#/$defs/penalty"}},
    },
    "allOf": [
        _when("family", ["ridge", "arc1"], _needs_terms("equation")),
        _when("family", ["arc2"], _needs_terms("stream", "order")),
        _when("family", ["ordering"], {"required": ["lambda1", "lambda2"]}),
        _when(
            "family",
            ["composite"],
            {"required": ["parts"], "properties": {"parts": {"minItems": 1}}},
        ),
    ],
}

_DATASET_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["path", "format"],
    "properties": {
        "path": {"type": "string"},
        "format": {"enum": ["table", "long"]},
        "pair": {
            "type": "array",
            "items": {"type": "integer", "minimum": 2},
            "minItems": 2,
            "maxItems": 2,
        },
        "center": {"type": "boolean"},
    },
    "allOf": [_when("format", ["long"], {"required": ["pair"]})],
}

_EQUATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "include": {"type": "array", "items": {"type": "string"}},
        "category_dependent": {"type": "array", "items": {"type": "string"}},
    },
}

_MODEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "covariates": {"type": "array", "items": {"type": "string"}},
        "eq1": _EQUATION_SCHEMA,
        "eq2": _EQUATION_SCHEMA,
        "eq3": _EQUATION_SCHEMA,
        "uniform_association": {"type": "boolean"},
    },
}

_FIT_OPTIONS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "max_iter": {"type": "integer", "minimum": 1},
        "grad_tol": {"type": "number", "exclusiveMinimum": 0},
        "step_length": {"type": "number", "exclusiveMinimum": 0},
        "step_halvings": {"type": "integer", "minimum": 0},
    },
}

_SEED_SCHEMA = {"type": "integer", "minimum": 0}

_SCHEMAS = {
    "fit": {
        "$defs": {"penalty": _PENALTY_SCHEMA},
        "type": "object",
        "additionalProperties": False,
        "required": ["dataset", "model"],
        "properties": {
            "dataset": _DATASET_SCHEMA,
            "model": _MODEL_SCHEMA,
            "penalty": {"$ref": "#/$defs/penalty"},
            "fit_options": _FIT_OPTIONS_SCHEMA,
            "seed": _SEED_SCHEMA,
        },
    },
    "profile": {
        "type": "object",
        "additionalProperties": False,
        "required": ["dataset", "model", "s_values"],
        "properties": {
            "dataset": _DATASET_SCHEMA,
            "model": _MODEL_SCHEMA,
            "s_values": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
                "minItems": 1,
            },
            "log_lambdas": {
                "type": "array",
                "items": {"type": "number", "minimum": -308, "maximum": 308},
                "minItems": 1,
            },
            "lambdas": {
                "type": "array",
                "items": {"type": "number", "minimum": 0},
                "minItems": 1,
            },
            "fit_options": _FIT_OPTIONS_SCHEMA,
            "seed": _SEED_SCHEMA,
        },
        "oneOf": [{"required": ["log_lambdas"]}, {"required": ["lambdas"]}],
    },
    "lrtest": {
        "$defs": {"penalty": _PENALTY_SCHEMA},
        "type": "object",
        "additionalProperties": False,
        "required": ["dataset", "full", "reduced"],
        "properties": {
            "dataset": _DATASET_SCHEMA,
            "full": _MODEL_SCHEMA,
            "reduced": _MODEL_SCHEMA,
            "full_penalty": {"$ref": "#/$defs/penalty"},
            "reduced_penalty": {"$ref": "#/$defs/penalty"},
            "mc": {"type": "object", "additionalProperties": False},
            "fit_options": _FIT_OPTIONS_SCHEMA,
            "seed": _SEED_SCHEMA,
        },
    },
    "simulate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["experiment"],
        "properties": {
            "experiment": {"enum": ["loss_benchmark", "null_calibration"]},
            "replicates": {"type": "integer", "minimum": 1},
            "n": {"type": "integer", "minimum": 1},
            "lambdas": {
                "type": "array",
                "items": {"type": "number", "minimum": 0},
                "minItems": 1,
                "uniqueItems": True,
            },
            "seed": _SEED_SCHEMA,
        },
    },
    "empirical": {
        "type": "object",
        "additionalProperties": False,
        "required": ["dataset"],
        "properties": {
            "dataset": _DATASET_SCHEMA,
            "seed": _SEED_SCHEMA,
        },
    },
}


def _reject_constant(name: str):
    # json.load accepts the bare NaN, Infinity and -Infinity that JSON
    # itself does not allow; no config value may be one of them
    raise ConfigError(f"config is not valid JSON: bare {name} is not a number")


def _finite(parse):
    """A json.load hook: ``parse`` of a number literal within the float
    range, which 1e400 (read as inf) and 10**400 (no float) are not."""

    def hook(text: str):
        if not math.isfinite(float(text)):
            raise ConfigError(f"config number {text} is outside the float range")
        return parse(text)

    return hook


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            config = json.load(
                fh,
                parse_float=_finite(float),
                parse_int=_finite(int),
                parse_constant=_reject_constant,
            )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _validate_config(config: dict, schema: dict) -> None:
    errors = sorted(
        Draft202012Validator(schema).iter_errors(config),
        key=lambda e: e.json_path,
    )
    if errors:
        e = errors[0]
        message = e.message
        if e.validator == "oneOf":  # name the alternatives, not the config
            keys = [alt["required"][0] for alt in e.validator_value]
            message = f"give exactly one of {' and '.join(keys)}"
        raise ConfigError(f"config {e.json_path}: {message}")


# ---------------------------------------------------------------------------
# data ingestion

def _split_row(line: str) -> list[str]:
    if "," in line:
        return [p.strip() for p in line.split(",")]
    return line.split()


def _read_table_file(path: Path) -> np.ndarray:
    """Whitespace- or comma-separated count grid, one table row per line."""
    rows: list[list[float]] = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = _split_row(line)
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ConfigError(f"{path}:{ln}: non-numeric entry")
            if rows and len(vals) != len(rows[0]):
                raise ConfigError(
                    f"{path}:{ln}: row has {len(vals)} entries, expected {len(rows[0])}"
                )
            rows.append(vals)
    if not rows:
        raise ConfigError(f"{path}: empty table")
    return np.array(rows)


def _read_long_file(path: Path, pair: OrdinalPair) -> tuple[list[str], Dataset]:
    """CSV with header a1,a2,<covariate...>[,count]; one observation row
    per line (weighted by count when present).  Rows sharing a covariate
    profile (equal by value) are summed into one group as they are read,
    so memory grows with the profiles, not the lines; groups are ordered
    by first appearance."""
    tables: dict[tuple[float, ...], list[int]] = {}
    largest = 0.0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = (row for row in reader if any(c.strip() for c in row))
        header = [c.strip() for c in next(rows, [])]
        if not header:
            raise ConfigError(f"{path}: empty file")
        if header[:2] != ["a1", "a2"]:
            raise ConfigError(f"{path}: header must start with a1,a2")
        has_count = len(header) > 2 and header[-1] == "count"
        cov_names = header[2:-1] if has_count else header[2:]
        for row in rows:
            ln = reader.line_num
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}:{ln}: {len(row)} fields, header has {len(header)}"
                )
            try:
                a1 = int(row[0])
                a2 = int(row[1])
            except ValueError:
                raise ConfigError(f"{path}:{ln}: category labels must be integers")
            if not (1 <= a1 <= pair.d1) or not (1 <= a2 <= pair.d2):
                raise ConfigError(
                    f"{path}:{ln}: labels ({a1}, {a2}) outside "
                    f"1..{pair.d1} x 1..{pair.d2}"
                )
            count = 1.0
            if has_count:
                try:
                    count = float(row[-1])
                except ValueError:
                    raise ConfigError(f"{path}:{ln}: non-numeric count")
                if not (count.is_integer() and count >= 0):
                    raise ConfigError(f"{path}:{ln}: counts must be nonnegative integers")
            try:
                covs = tuple(float(c) for c in row[2 : 2 + len(cov_names)])
            except ValueError:
                raise ConfigError(f"{path}:{ln}: non-numeric covariate")
            largest = max(largest, count)
            table = tables.setdefault(covs, [0] * (pair.d1 * pair.d2))
            table[(a1 - 1) * pair.d2 + a2 - 1] += int(count)
    # Dataset's int64 checks, with its messages, on the exact integer sums
    if largest >= 2.0**63:
        raise ValueError("counts must be finite and below 2**63")
    if sum(map(sum, tables.values())) >= 2**63:
        raise ValueError("counts must sum to below 2**63")
    covariates = np.array(list(tables), dtype=float).reshape(len(tables), len(cov_names))
    counts = np.array(list(tables.values()), dtype=np.int64)
    return cov_names, Dataset(pair, covariates, counts.reshape(-1, pair.d1, pair.d2))


def _build_dataset(dscfg: dict, base_dir: Path) -> tuple[Dataset, list[str], dict]:
    """Returns (dataset, covariate names, ingestion record for reports)."""
    path = Path(dscfg["path"])
    if not path.is_absolute():
        path = base_dir / path
    if not path.is_file():
        raise ConfigError(f"data file not found: {path}")
    fmt = dscfg["format"]
    center = bool(dscfg.get("center", False))
    declared = dscfg.get("pair")
    means = None
    try:
        if fmt == "table":
            counts = _read_table_file(path)
            pair = OrdinalPair(counts.shape[0], counts.shape[1])
            if declared is not None and tuple(declared) != (pair.d1, pair.d2):
                raise ConfigError(
                    f"declared pair {tuple(declared)} does not match "
                    f"table shape {counts.shape}"
                )
            cov_names: list[str] = []
            dataset = Dataset.merged(pair, [((), counts)])
        else:
            pair = OrdinalPair(int(declared[0]), int(declared[1]))
            cov_names, dataset = _read_long_file(path, pair)
        if center:
            if not cov_names:
                raise ConfigError("centering needs covariates")
            totals = dataset.count_matrix().sum(axis=1)
            covs = dataset.covariates
            means = (totals[:, None] * covs).sum(axis=0) / totals.sum()
            dataset = Dataset(pair, covs - means, dataset.counts)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")
    record = {
        "path": str(path),
        "format": fmt,
        "pair": [pair.d1, pair.d2],
        "n_groups": dataset.n_groups,
        "total_count": dataset.n_total,
        "centered": center,
        "covariate_means": None if means is None else [float(m) for m in means],
    }
    return dataset, cov_names, record


# ---------------------------------------------------------------------------
# model and penalty parsing

def _parse_model(mcfg: dict, pair: OrdinalPair, cov_names: list[str]) -> ModelSpec:
    declared = mcfg.get("covariates")
    if declared is not None and list(declared) != list(cov_names):
        raise ConfigError(
            f"model covariates {list(declared)} must match the dataset "
            f"columns {list(cov_names)} in order"
        )

    def equation(key: str) -> EquationTerms:
        e = mcfg.get(key, {})
        return EquationTerms(
            tuple(e.get("include", ())),
            tuple(e.get("category_dependent", ())),
        )

    return ModelSpec(
        pair,
        tuple(cov_names),
        equation("eq1"),
        equation("eq2"),
        equation("eq3"),
        uniform_association=bool(mcfg.get("uniform_association", False)),
    )


def _term_key(term: dict, key: str) -> tuple:
    var = term.get("variable")
    return (term[key], INTERCEPT if var is None else var)


def _block_term(family: str, term: dict, key: str) -> PenaltyConfig:
    target = _term_key(term, key)
    if family == "arc2":
        return PenaltyConfig.arc2({target: float(term["lambda"])}, {target: int(term["order"])})
    return getattr(PenaltyConfig, family)({target: float(term["lambda"])})


def _parse_penalty(pcfg: dict | None) -> PenaltyConfig:
    """Map a schema-valid penalty config onto a PenaltyConfig."""
    family = "none" if pcfg is None else pcfg["family"]
    if family == "none":
        return PenaltyConfig.none()
    if family in ("ridge", "arc1", "arc2"):
        # one block term per config term, repeats included: a penalty is
        # a sum of terms, so a repeat adds to the block's smoothing
        key = "stream" if family == "arc2" else "equation"
        terms = sorted(pcfg["terms"], key=lambda t: _term_key(t, key))
        return PenaltyConfig.composite(*(_block_term(family, t, key) for t in terms))
    if family == "ordering":
        return PenaltyConfig.ordering(
            float(pcfg["lambda1"]),
            float(pcfg["lambda2"]),
            float(pcfg.get("margin", 0.0)),
        )
    return PenaltyConfig.composite(*(_parse_penalty(p) for p in pcfg["parts"]))


def _parse_fit_options(cfg: dict) -> FitOptions:
    return FitOptions(**cfg.get("fit_options", {}))


# ---------------------------------------------------------------------------
# output helpers

def _finite_or_word(x) -> float | str:
    """x as a float, or as the word nan, inf or -inf when not finite."""
    f = float(x)
    if math.isfinite(f):
        return f
    return "nan" if math.isnan(f) else "inf" if f > 0 else "-inf"


def _fmt(x) -> str:
    """Full-precision CSV field; inf and nan as bare words, None empty."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = _finite_or_word(x)
    return f if isinstance(f, str) else repr(f)


def _jsonable(obj):
    """Floats stay floats when finite (full repr precision); non-finite
    values become the strings inf/-inf/nan so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _finite_or_word(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")
    print(f"wrote {path}")


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    print(f"wrote {path}")


def _loggor_surface(result: FitResult):
    """Fitted association predictor at the zero covariate profile."""
    spec = result.spec
    pair = spec.pair
    X = build_design_matrix(spec, np.zeros(len(spec.covariate_names)))
    eta = X @ result.beta_hat
    m1, m2 = pair.d1 - 1, pair.d2 - 1
    eta3 = eta[1 + m1 + m2 :]
    return [
        (r, c, eta3[(r - 1) * m2 + (c - 1)])
        for r in range(1, m1 + 1)
        for c in range(1, m2 + 1)
    ]


def _normal_p_value(z: float) -> float:
    """Two-sided normal p-value of a Wald z: 2 P(Z > |z|), by the ndtr
    kernel that scipy.stats.norm.sf calls; 0 at infinite z."""
    return 0.0 if math.isinf(z) else 2.0 * float(ndtr(-abs(z)))


# ---------------------------------------------------------------------------
# commands

def cmd_fit(config: dict, seed: int, out: Path, threads: int) -> int:
    base = config["_base_dir"]
    dataset, cov_names, record = _build_dataset(config["dataset"], base)
    spec = _parse_model(config["model"], dataset.pair, cov_names)
    penalty = _parse_penalty(config.get("penalty"))
    options = _parse_fit_options(config)

    result = fit(dataset, spec, penalty, options)

    estimates = []
    se = result.se
    for label, b, s in zip(result.layout.labels(), result.beta_hat, se):
        if s > 0 or math.isnan(s):  # a singular fit's NaN se leaves z and p NaN
            z = b / s
        else:
            z = float("inf") * np.sign(b) if b else 0.0
        p = _normal_p_value(z)
        estimates.append(
            {
                "label": label,
                "estimate": float(b),
                "se": float(s),
                "z": float(z),
                "p_value": p,
            }
        )
    report = {
        "command": "fit",
        "seed": seed,
        "dataset": record,
        "model": config["model"],
        "penalty": config.get("penalty", {"family": "none"}),
        "estimates": estimates,
        "loglik": result.loglik,
        "penalty_value": result.penalty_value,
        "aic": result.aic,
        "deviance_g2": result.deviance_g2,
        "edf": result.edf,
        "df_nominal": result.df_nominal,
        "convergence": {
            "converged": result.converged,
            "fisher_scoring_failed": result.fisher_scoring_failed,
            "iterations": result.iterations,
            "failure_reason": result.failure_reason,
        },
    }
    _write_json(out / "fit_report.json", report)
    _write_csv(out / "fit_loggor.csv", ["r", "c", "log_gor"], _loggor_surface(result))
    if result.fisher_scoring_failed:
        print(f"fit failed: {result.failure_reason}", file=sys.stderr)
        return 3
    return 0


def cmd_profile(config: dict, seed: int, out: Path, threads: int) -> int:
    base = config["_base_dir"]
    dataset, cov_names, _ = _build_dataset(config["dataset"], base)
    spec = _parse_model(config["model"], dataset.pair, cov_names)
    if "log_lambdas" in config:
        lambdas = [10.0 ** float(g) for g in config["log_lambdas"]]
    else:
        lambdas = [float(v) for v in config["lambdas"]]

    points, _ = aic_profile(
        dataset, spec, config["s_values"], lambdas, _parse_fit_options(config)
    )
    rows = [
        (p.order, math.log10(p.lam) if p.lam > 0 else float("-inf"), p.aic, p.edf,
         "ok" if p.converged else "failed")
        for p in points
    ]
    _write_csv(out / "profile_aic.csv", ["s", "log10_lambda", "aic", "edf", "status"], rows)
    return 0


def cmd_lrtest(config: dict, seed: int, out: Path, threads: int) -> int:
    base = config["_base_dir"]
    dataset, cov_names, record = _build_dataset(config["dataset"], base)
    full_spec = _parse_model(config["full"], dataset.pair, cov_names)
    reduced_spec = _parse_model(config["reduced"], dataset.pair, cov_names)

    result, full_fit, reduced_fit = lr_test(
        dataset,
        full_spec,
        _parse_penalty(config.get("full_penalty")),
        reduced_spec,
        _parse_penalty(config.get("reduced_penalty")),
        _parse_fit_options(config),
        mixture="mc" in config,
    )
    if result is None:
        for name, f in (("full", full_fit), ("reduced", reduced_fit)):
            if f.fisher_scoring_failed:
                print(f"{name} fit failed: {f.failure_reason}", file=sys.stderr)
                return 3

    payload = {
        "command": "lrtest",
        "seed": seed,
        "dataset": record,
        **dataclasses.asdict(result),
    }
    if full_fit is not None:
        payload["fits"] = {
            name: {"aic": f.aic, "deviance_g2": f.deviance_g2, "edf": f.edf}
            for name, f in (("full", full_fit), ("reduced", reduced_fit))
        }
    _write_json(out / "lrtest.json", payload)
    return 0


def cmd_simulate(config: dict, seed: int, out: Path, threads: int) -> int:
    experiment = config["experiment"]
    if experiment == "loss_benchmark":
        replicates = int(config.get("replicates", 100))
        n = int(config.get("n", 400))
        ladder = tuple(float(v) for v in config.get("lambdas", (0.0, 1.0, 10.0, 100.0)))
        result = run_table1_experiment(
            seed, replicates=replicates, n=n, ladder=ladder, threads=threads
        )
        rows = [
            (row.model, row.lam, row.msel, row.mrsel, row.mel, row.aic, row.fss)
            for row in result.rows
        ]
        _write_csv(
            out / "benchmark_summary.csv",
            ["model", "lambda", "msel", "mrsel", "mel", "aic", "fss"],
            rows,
        )
        return 0

    replicates = int(config.get("replicates", 1500))
    n = int(config.get("n", 400))
    lambdas = tuple(float(v) for v in config.get("lambdas", (0.0, 1.0, 10.0, 50.0)))
    result = simulate_lrp_null(
        truth=default_null_calibration_truth(n),
        replicates=replicates,
        lambdas=lambdas,
        seed=seed,
        threads=threads,
    )
    _write_csv(
        out / "null_replicates.csv",
        ["replicate", "lambda", "statistic", "converged"],
        result.rows(),
    )
    summary_rows = [
        (
            s.lam,
            result.df,
            len(s.statistics),
            s.n_failed,
            s.rejection_rate,
            s.rejection_rate_mixture,
            s.ks_distance,
            float(np.mean(s.statistics)) if len(s.statistics) else float("nan"),
        )
        for s in result.summaries
    ]
    _write_csv(
        out / "null_summary.csv",
        [
            "lambda",
            "df",
            "n_converged",
            "n_failed",
            "rejection_rate",
            "rejection_rate_mixture",
            "ks_distance",
            "mean_statistic",
        ],
        summary_rows,
    )
    return 0


def cmd_empirical(config: dict, seed: int, out: Path, threads: int) -> int:
    base = config["_base_dir"]
    dataset, _, _ = _build_dataset(config["dataset"], base)
    grid = empirical_log_gors(dataset.pooled_counts())
    rows = [
        (r + 1, c + 1, grid[r, c])
        for r in range(grid.shape[0])
        for c in range(grid.shape[1])
    ]
    _write_csv(out / "empirical_loggor.csv", ["r", "c", "log_gor"], rows)
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bolm",
        description="Bivariate ordered logistic models by penalized maximum likelihood.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fit", "fit one model; writes fit_report.json and fit_loggor.csv"),
        ("profile", "AIC over a smoothing grid; writes profile_aic.csv"),
        ("lrtest", "penalized likelihood-ratio test; writes lrtest.json"),
        ("simulate", "simulation study; writes summary CSVs"),
        ("empirical", "observed log-GOR grid; writes empirical_loggor.csv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="worker processes (outputs do not depend on it)")
    return parser


_HANDLERS = {
    "fit": cmd_fit,
    "profile": cmd_profile,
    "lrtest": cmd_lrtest,
    "simulate": cmd_simulate,
    "empirical": cmd_empirical,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        _validate_config(config, _SCHEMAS[args.command])
        config["_base_dir"] = Path(args.config).resolve().parent
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        return _HANDLERS[args.command](config, seed, out, args.threads)
    except (IncompatibleEta, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
