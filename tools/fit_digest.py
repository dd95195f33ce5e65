"""Digests of the fits and CLI outputs that a refactor must leave unchanged.

    python tools/fit_digest.py [--loss N] [--null N]

Prints one JSON line: the number of fits hashed, ``fits``, the SHA-256 of
every ``FitResult`` field of

- the loss benchmark's UPOM fit, every rung of its smoothing ladder and
  the lambda = 0 retry with half steps, for loss replicates 0 .. N-1 of
  seed 20260816;
- ``fit_batch`` on null-calibration replicates 0 .. N-1 of that seed at
  lambda 0, 1, 10 and 50, for the full and the reduced model, with each
  model's four levels in one stacked call, as the null simulation makes
  them;

``cli``, the SHA-256 of the exit code, stdout, stderr and output files
of ``bolm.cli.main`` on each shipped config, with the repository path
replaced by a placeholder.  The two ``simulate`` configs run from copies
whose ``replicates`` is N, ``--loss`` for the loss benchmark and
``--null`` for the null calibration.  ``helpers``, the SHA-256 of the
public helpers that a fit does not call:

- ``build_penalty_matrix`` and ``penalty_value`` at a fixed beta for the
  shipped penalized ``fit`` configs, and ``build_penalty_matrix`` for the
  block terms of the loss benchmark's smoothing ladder;
- ``build_ordering_penalty`` on loss replicate 0 at ``beta_true`` and at
  a beta with the first margin's cut points reversed;
- ``penalized_score`` and ``unpenalized_fisher`` at ``beta_true`` on that
  replicate, and ``unpenalized_fisher_batch`` on the null replicates;
- ``gray_law``: the flattening laws of the null calibration at lambda 0,
  1, 10 and 50, with the mean information of those null replicates, and
  the exclusion law that ``lr_test`` computes for the penalized ``mc``
  test pinned in ``tests/test_cli.py``;
- ``aic_profile`` on the shipped ``os_profile`` config: its points and
  every ``FitResult`` field of its best fit.

Arrays are hashed as bytes, everything else by ``repr``.

The script imports the package from the ``src`` beside it, so a copy of
this file in another checkout digests that checkout's code: two checkouts
that print the same line fit and write the same bits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from bolm import cli  # noqa: E402
from bolm.estimator import (  # noqa: E402
    FitOptions,
    fit,
    fit_batch,
    penalized_score,
    unpenalized_fisher,
    unpenalized_fisher_batch,
)
from bolm.inference import (  # noqa: E402
    _constrained_blocks,
    _excluded_indices,
    _exclusion_law,
    _null_penalty,
    aic_profile,
    default_null_calibration_truth,
    gray_law,
    with_global_effect,
)
from bolm.model_core import Dataset, OrdinalPair  # noqa: E402
from bolm.penalties import (  # noqa: E402
    PenaltyConfig,
    build_ordering_penalty,
    build_penalty_matrix,
    penalty_value,
)
from bolm.simulation import (  # noqa: E402
    default_loss_benchmark_truth,
    sample_dataset,
    smoothing_config,
    uniform_proportional_spec,
)

SEED = 20260816
LADDER = (0.0, 1.0, 10.0, 100.0)
NULL_LAMBDAS = (0.0, 1.0, 10.0, 50.0)

# read by attribute, so that a field turned into a property hashes alike
FIELDS = (
    "beta_hat", "spec", "penalty", "cov", "loglik", "penalty_value", "edf", "aic",
    "df_nominal", "iterations", "converged", "failure_reason", "fitted_probs", "lp_trace",
)

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
    ("simulate", "loss_benchmark"),
    ("simulate", "null_calibration"),
)


PENALIZED_FITS = ("os_arc1", "os_ridge", "os_arc2_s2", "os_arc2_s3", "os_arc2_s4")

# the input of the pinned penalized mc test of tests/test_cli.py, held
# here so that the digest's input stays fixed: eq3 x smoothed in the full
# model and excluded from the reduced one, on two 3 x 3 tables
MC_TABLES = (
    (0.0, [[40, 20, 10], [20, 30, 20], [10, 20, 40]]),
    (1.0, [[30, 20, 15], [25, 30, 25], [15, 25, 45]]),
)
MC_MARGINS = {"covariates": ["x"], "eq1": {"include": ["x"]}, "eq2": {"include": ["x"]}}


def _update(h, name: str, value) -> None:
    h.update(name.encode() + b"=")
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode() + value.tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b"\n")


def _hash_fit(h, res) -> None:
    for name in FIELDS:
        _update(h, name, getattr(res, name))
    _update(h, "covariates", res.dataset.covariates)
    _update(h, "counts", res.dataset.counts)


def loss_fits(replicates: int):
    """The fits the loss benchmark makes, and more: every ladder rung."""
    truth = default_loss_benchmark_truth()
    upom = uniform_proportional_spec(truth.spec.pair, truth.spec.covariate_names)
    for r in range(replicates):
        dataset = sample_dataset(truth, SEED, stream=r)
        yield fit(dataset, upom)
        for lam in LADDER:
            penalty = smoothing_config(truth.spec, lam)
            res = fit(dataset, truth.spec, penalty)
            yield res
            if lam == 0.0 and res.fisher_scoring_failed:
                yield fit(dataset, truth.spec, penalty, FitOptions(step_length=0.5))


def null_fits(replicates: int):
    truth = default_null_calibration_truth()
    reduced = with_global_effect(truth.spec, 3, "x")
    datasets = [sample_dataset(truth, SEED, stream=r) for r in range(replicates)]
    # each model's levels in one stack, as the null simulation fits them:
    # level j of replicate i is fit j * replicates + i
    full, reduced_fits = (
        fit_batch(datasets * len(NULL_LAMBDAS), spec, [
            config for lam in NULL_LAMBDAS for config in [_null_penalty(lam, spec)] * replicates
        ])
        for spec in (truth.spec, reduced)
    )
    for j in range(len(NULL_LAMBDAS)):
        level = slice(j * replicates, (j + 1) * replicates)
        yield from full[level]
        yield from reduced_fits[level]


def cli_digest(loss: int, null: int) -> str:
    replicates = {"loss_benchmark": loss, "null_calibration": null}
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for command, name in CLI_JOBS:
            out = Path(tmp) / name
            config = REPO / "configs" / f"{name}.json"
            if name in replicates:
                payload = json.loads(config.read_text())
                payload["replicates"] = replicates[name]
                config = Path(tmp) / f"{name}.json"
                config.write_text(json.dumps(payload))
            argv = [command, "--config", str(config), "--out", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
            texts = {"exit": str(rc), "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
            texts.update((p.name, p.read_text()) for p in sorted(out.iterdir()))
            for key, text in texts.items():
                text = text.replace(str(out), "<out>").replace(str(REPO), "<repo>")
                _update(h, f"{name}/{key}", text)
    return h.hexdigest()


def _arc1_eq3(*variables) -> dict:
    return {
        "family": "arc1",
        "terms": [{"equation": 3, "variable": v, "lambda": 10} for v in variables],
    }


def exclusion_law():
    """``lr_test``'s exclusion law, by its own helper, on the mc input."""
    pair = OrdinalPair(3, 3)
    dataset = Dataset.merged(pair, [((x,), np.array(t, dtype=float)) for x, t in MC_TABLES])
    eq3 = {"include": ["x"], "category_dependent": ["x"]}
    full = cli._parse_model({**MC_MARGINS, "eq3": eq3}, pair, ["x"])
    reduced = cli._parse_model(MC_MARGINS, pair, ["x"])
    reduced_fit = fit(dataset, reduced, cli._parse_penalty(_arc1_eq3(None)))
    P = build_penalty_matrix(cli._parse_penalty(_arc1_eq3("x", None)), full)
    excluded = _excluded_indices(full, _constrained_blocks(full, reduced))
    return _exclusion_law(dataset, full, reduced_fit, P, excluded)


def profile():
    """``aic_profile`` on the shipped profile config, as ``bolm profile``
    calls it."""
    config = REPO / "configs" / "os_profile.json"
    return aic_profile(*cli._profile_grid(json.loads(config.read_text()), config.parent))


def helpers_digest(null: int) -> str:
    h = hashlib.sha256()
    for name in PENALIZED_FITS:
        config = REPO / "configs" / f"{name}.json"
        payload = json.loads(config.read_text())
        dataset, cov_names, _ = cli._build_dataset(payload["dataset"], config.parent)
        spec = cli._parse_model(payload["model"], dataset.pair, cov_names)
        penalty = cli._parse_penalty(payload["penalty"])
        beta = np.random.default_rng(SEED).standard_normal(spec.layout.size)
        _update(h, f"{name}/matrix", build_penalty_matrix(penalty, spec))
        _update(h, f"{name}/value", penalty_value(penalty, spec, beta))

    truth = default_loss_benchmark_truth()
    ladder = {
        lam: build_penalty_matrix(PenaltyConfig(smoothing_config(truth.spec, lam).blocks), truth.spec)
        for lam in LADDER[1:]
    }
    for lam, P in ladder.items():
        _update(h, f"ladder/{lam}", P)
    dataset = sample_dataset(truth, SEED, stream=0)
    reversed_margin = truth.beta_true.copy()
    cuts = truth.spec.layout.block(1).slice
    reversed_margin[cuts] = reversed_margin[cuts][::-1]
    for label, beta in (("true", truth.beta_true), ("reversed", reversed_margin)):
        P = build_ordering_penalty(truth.spec, dataset, beta, 1.0, 2.0)
        _update(h, f"ordering/{label}", P)
    _update(h, "score", penalized_score(truth.beta_true, dataset, truth.spec, ladder[10.0]))
    _update(h, "fisher", unpenalized_fisher(truth.beta_true, dataset, truth.spec))

    truth = default_null_calibration_truth()
    datasets = [sample_dataset(truth, SEED, stream=r) for r in range(null)]
    batch = unpenalized_fisher_batch(truth.beta_true, datasets, truth.spec)
    _update(h, "fisher_batch", batch)
    # the null calibration's laws: the mean information summed in replicate
    # order, as simulate_lrp_null sums it
    F = np.zeros(batch.shape[1:])
    for F_r in batch:
        F += F_r
    F /= null
    tested = truth.spec.layout.block(3, "x")
    block = np.arange(tested.start, tested.start + tested.length)
    for lam in NULL_LAMBDAS:
        P = build_penalty_matrix(_null_penalty(lam, truth.spec), truth.spec)
        weights, shifts = gray_law(F, P, truth.beta_true, flattened=[block])
        _update(h, f"null_law/{lam}/weights", weights)
        _update(h, f"null_law/{lam}/shifts", shifts)
    weights, shifts = exclusion_law()
    _update(h, "exclusion_law/weights", weights)
    _update(h, "exclusion_law/shifts", shifts)
    points, best = profile()
    _update(h, "profile/points", points)
    _hash_fit(h, best)
    return h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loss", type=int, default=12, help="loss benchmark replicates")
    parser.add_argument("--null", type=int, default=80, help="null calibration replicates")
    args = parser.parse_args(argv)
    h = hashlib.sha256()
    count = 0
    for res in itertools.chain(loss_fits(args.loss), null_fits(args.null)):
        _hash_fit(h, res)
        count += 1
    print(json.dumps({
        "n_fits": count,
        "fits": h.hexdigest(),
        "cli": cli_digest(args.loss, args.null),
        "helpers": helpers_digest(args.null),
    }))


if __name__ == "__main__":
    main()
