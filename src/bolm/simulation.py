"""Data generation and the loss benchmarking experiment.

Datasets are drawn from a known model: covariates by a declared law
conditioned on predictor compatibility, responses by one
``Generator.multinomial`` call over the groups (sequential binomial
conditioning, cell by cell and group by group).  Randomness comes from
counter-based Philox streams keyed (seed, stream), so replicate r is
reproducible in isolation.

The benchmark experiment compares an unpenalized uniform-association
proportional-odds fit against the category-dependent model smoothed by
first-difference penalties combined with the ordering penalty, on a
ladder of smoothing values escalated per replicate until Fisher scoring
succeeds.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimator import FitOptions, FitResult, fit
from .link_map import IncompatibleEta, compatible_eta_mask, eta_to_pi_batch
from .model_core import (
    INTERCEPT,
    Dataset,
    EquationTerms,
    ModelSpec,
    OrdinalPair,
    group_profiles,
)
from .penalties import PenaltyConfig


@dataclass(frozen=True)
class CovariateLaw:
    """Law of the single covariate: bernoulli(p) or open-interval
    uniform(low, high)."""

    kind: str
    p: float = 0.5
    low: float = -1.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("bernoulli", "uniform"):
            raise ValueError(f"unknown covariate law {self.kind!r}")
        if self.kind == "bernoulli" and not 0.0 <= self.p <= 1.0:
            raise ValueError("bernoulli p outside [0, 1]")
        if self.kind == "uniform" and not self.low < self.high:
            raise ValueError("uniform law needs low < high")

    @classmethod
    def bernoulli(cls, p: float) -> "CovariateLaw":
        return cls("bernoulli", p=p)

    @classmethod
    def uniform(cls, low: float, high: float) -> "CovariateLaw":
        return cls("uniform", low=low, high=high)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "bernoulli":
            return rng.binomial(1, self.p, size=(n, 1)).astype(float)
        # open interval: the closed endpoints may sit on the boundary of
        # the compatible predictor region
        out = rng.uniform(self.low, self.high, size=(n, 1))
        while (out == self.low).any():
            redo = out == self.low
            out[redo] = rng.uniform(self.low, self.high, size=int(redo.sum()))
        return out

    def probe_values(self) -> np.ndarray:
        """Covariate rows covering the law's range, for feasibility checks."""
        if self.kind == "bernoulli":
            return np.array([[0.0], [1.0]])
        shave = 1e-9 * (self.high - self.low)
        return np.linspace(self.low + shave, self.high - shave, 129).reshape(-1, 1)


@dataclass(frozen=True)
class GeneratingModel:
    """A one-covariate model spec, its true coefficients and covariate law.

    The model family is not variation independent, so a covariate law can
    overlap a region where the true predictor has no compatible probability
    table.  Draws are therefore conditioned on compatibility: incompatible
    draws are rejected and redrawn, so sampling never yields an
    incompatible predictor.  Construction sweeps the law's range and
    refuses a law that is compatible on less than 5% of it.
    """

    spec: ModelSpec
    beta_true: np.ndarray
    law: CovariateLaw
    n: int

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta_true, dtype=float).reshape(-1)
        layout = self.spec.layout
        if beta.size != layout.size:
            raise ValueError(
                f"beta_true has {beta.size} entries, layout needs {layout.size}"
            )
        object.__setattr__(self, "beta_true", beta)
        if len(self.spec.covariate_names) != 1:
            raise ValueError("covariate law width does not match the spec")
        if self.n < 1:
            raise ValueError("sample size must be positive")
        # predictors are affine in the covariate, so an intercept vector and
        # a slope reproduce any row.  The slope is the unit-covariate
        # predictor minus eta0: S @ beta rounds differently, and the sampled
        # datasets depend on these bits
        X0, S = self.spec.affine_design
        eta0 = X0 @ beta
        slopes = (X0 + S) @ beta - eta0
        object.__setattr__(self, "_eta0", eta0)
        object.__setattr__(self, "_eta_slopes", slopes)

        fraction = float(self.compatible_rows(self.law.probe_values()).mean())
        if fraction < 0.05:
            raise IncompatibleEta(
                "covariate law is essentially incompatible with the model "
                f"(compatible fraction {fraction:.3f} over the probed range)"
            )

    def predictor_rows(self, covariates: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(covariates, dtype=float))
        return self._eta0 + rows @ self._eta_slopes

    def compatible_rows(self, covariates: np.ndarray) -> np.ndarray:
        """Per-row flag: the true predictor admits a probability table."""
        return compatible_eta_mask(self.predictor_rows(covariates), self.spec.pair)

    def probs_for(self, covariates: np.ndarray) -> np.ndarray:
        """True cell probabilities for covariate rows, shape (m, cells)."""
        return eta_to_pi_batch(self.predictor_rows(covariates), self.spec.pair)

    def draw_covariates(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Law draws conditioned on predictor compatibility."""
        rows = self.law.draw(n, rng)
        pending = np.arange(n)
        for _ in range(200):
            ok = self.compatible_rows(rows[pending])
            pending = pending[~ok]
            if pending.size == 0:
                return rows
            rows[pending] = self.law.draw(pending.size, rng)
        raise IncompatibleEta(
            "covariate redraw budget exhausted; the law barely overlaps "
            "the compatible region"
        )


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)))


def sample_dataset(gm: GeneratingModel, seed: int, stream: int = 0) -> Dataset:
    """Draw covariates and n multinomial responses, grouped by profile."""
    rng = _stream_rng(seed, stream)
    rows = gm.draw_covariates(gm.n, rng)
    first, inverse = group_profiles(rows)
    sizes = np.bincount(inverse, minlength=first.size)
    pair = gm.spec.pair
    unique_rows = rows[first]
    counts = rng.multinomial(sizes, gm.probs_for(unique_rows))
    return Dataset(pair, unique_rows, counts.reshape(-1, pair.d1, pair.d2))


# ---------------------------------------------------------------------------
# loss functions


def _paired(pi_true: np.ndarray, pi_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two (N, cells) probability arrays as floats."""
    t = np.asarray(pi_true, dtype=float)
    h = np.asarray(pi_hat, dtype=float)
    if t.ndim != 2 or t.shape != h.shape:
        raise ValueError(f"probability arrays are not 2-d alike: {t.shape} vs {h.shape}")
    return t, h


def loss_msel(pi_true: np.ndarray, pi_hat: np.ndarray) -> float:
    """Mean squared error loss (1/n) sum_i sum_cells (pi - pi_hat)^2."""
    t, h = _paired(pi_true, pi_hat)
    return float(((t - h) ** 2).sum() / t.shape[0])


def loss_mrsel(pi_true: np.ndarray, pi_hat: np.ndarray) -> float:
    """Mean relative squared error loss, squared errors scaled by 1/pi."""
    t, h = _paired(pi_true, pi_hat)
    if (t <= 0.0).any():
        raise ValueError("true probabilities must be positive")
    return float((((t - h) ** 2) / t).sum() / t.shape[0])


def loss_mel(pi_true: np.ndarray, pi_hat: np.ndarray) -> float:
    """Mean entropy (Kullback-Leibler) loss (1/n) sum pi log(pi/pi_hat)."""
    t, h = _paired(pi_true, pi_hat)
    if (h <= 0.0).any():
        raise ValueError("fitted probabilities must be positive")
    terms = np.where(t > 0.0, t * np.log(np.where(t > 0.0, t / h, 1.0)), 0.0)
    return float(terms.sum() / t.shape[0])


# ---------------------------------------------------------------------------
# loss benchmark experiment


def default_loss_benchmark_truth(n: int = 400) -> GeneratingModel:
    """Reference generating model for the loss benchmark.

    A 3x3 response pair with one uniform(-1, 1) covariate that is
    category dependent in every equation.
    """
    pair = OrdinalPair(3, 3)
    spec = ModelSpec(
        pair,
        ("x",),
        EquationTerms(("x",), ("x",)),
        EquationTerms(("x",), ("x",)),
        EquationTerms(("x",), ("x",)),
    )
    beta = np.concatenate([
        [-0.6, 0.6], [0.3, -0.3],
        [-0.6, 0.6], [-0.6, 0.6],
        [2.6, 2.4, 2.0, 1.7], [-0.4, 0.2, -0.5, 0.5],
    ])
    return GeneratingModel(spec, beta, CovariateLaw.uniform(-1.0, 1.0), n)


def uniform_proportional_spec(pair: OrdinalPair, covariates: tuple[str, ...]) -> ModelSpec:
    """Uniform association, one global coefficient per covariate everywhere."""
    terms = EquationTerms(covariates, ())
    return ModelSpec(pair, covariates, terms, terms, terms, uniform_association=True)


def smoothing_config(spec: ModelSpec, lam: float) -> PenaltyConfig:
    """First-difference penalty at lam on every covariate block and the
    association intercepts, combined with the ordering penalty at the
    same value.  lam = 0 leaves the fit unpenalized."""
    if lam == 0.0:
        return PenaltyConfig.none()
    lambdas: dict = {(3, INTERCEPT): lam}
    for k in (1, 2, 3):
        for var in spec.equation(k).dependent_terms:
            lambdas[(k, var)] = lam
    return PenaltyConfig.composite(
        PenaltyConfig.arc1(lambdas),
        PenaltyConfig.ordering(lam, lam),
    )


class Score(NamedTuple):
    """The three losses and the AIC of one successful fit."""

    msel: float
    mrsel: float
    mel: float
    aic: float


@dataclass
class ReplicateOutcome:
    replicate: int
    upom: Score | None                # None when the UPOM fit failed
    first_success_index: int | None   # ladder index of the first NUNPOM success
    nunpom: Score | None

    @property
    def upom_converged(self) -> bool:
        return self.upom is not None


@dataclass(frozen=True)
class TableRow:
    model: str
    lam: float | None
    msel: float
    mrsel: float
    mel: float
    aic: float
    fss: int


@dataclass
class BenchmarkResult:
    rows: list[TableRow]
    outcomes: list[ReplicateOutcome]
    ladder: tuple[float, ...]


def _expand_per_observation(dataset: Dataset, probs: np.ndarray) -> np.ndarray:
    reps = dataset.counts.sum(axis=(1, 2))
    return np.repeat(probs.reshape(dataset.n_groups, -1), reps, axis=0)


def _fit_with_retry(dataset, spec, cfg, lam) -> FitResult:
    res = fit(dataset, spec, cfg)
    if res.fisher_scoring_failed and lam == 0.0:
        # a single retry with halved step length before escalating
        res = fit(dataset, spec, cfg, FitOptions(step_length=0.5))
    return res


def _score(res: FitResult, dataset: Dataset, pi_true: np.ndarray) -> Score | None:
    """The losses of a fit against the per-observation true probabilities,
    and its AIC, or None when Fisher scoring failed."""
    if res.fisher_scoring_failed:
        return None
    pi_hat = _expand_per_observation(dataset, res.fitted_probs)
    return Score(loss_msel(pi_true, pi_hat), loss_mrsel(pi_true, pi_hat),
                 loss_mel(pi_true, pi_hat), res.aic)


def _benchmark_replicate(args) -> ReplicateOutcome:
    seed, r, n, ladder = args
    gm = default_loss_benchmark_truth(n)
    ds = sample_dataset(gm, seed, stream=r)
    pi_true = _expand_per_observation(ds, gm.probs_for(ds.covariates))
    upom = uniform_proportional_spec(gm.spec.pair, gm.spec.covariate_names)
    upom_score = _score(fit(ds, upom), ds, pi_true)
    for idx, lam in enumerate(ladder):
        res = _fit_with_retry(ds, gm.spec, smoothing_config(gm.spec, lam), lam)
        score = _score(res, ds, pi_true)
        if score is not None:
            return ReplicateOutcome(r, upom_score, idx, score)
    return ReplicateOutcome(r, upom_score, None, None)


def _table_row(model: str, lam: float | None, scores: list[Score], fss: int) -> TableRow:
    """The mean losses and AIC of ``scores``, NaN when there are none."""
    if scores:
        m1, m2, m3 = np.array([(s.msel, s.mrsel, s.mel) for s in scores]).mean(axis=0)
        aic = float(np.mean([s.aic for s in scores]))
    else:
        m1 = m2 = m3 = aic = float("nan")
    return TableRow(model, lam, float(m1), float(m2), float(m3), aic, fss)


def run_table1_experiment(
    seed: int,
    replicates: int = 100,
    n: int = 400,
    ladder: tuple[float, ...] = (0.0, 1.0, 10.0, 100.0),
    threads: int = 1,
) -> BenchmarkResult:
    """Loss benchmark: per replicate, escalate the smoothing value up the
    ladder until Fisher scoring succeeds; report per-rung means over the
    replicates that first succeed there, with cumulative success counts.
    """
    ladder = tuple(float(v) for v in ladder)
    if sorted(ladder) != list(ladder):
        raise ValueError("ladder must be ascending")
    jobs = [(seed, r, n, ladder) for r in range(replicates)]
    outcomes = list(_pool_map(_benchmark_replicate, jobs, threads))

    rows: list[TableRow] = []
    cumulative = 0
    for idx, lam in enumerate(ladder):
        fresh = [o.nunpom for o in outcomes if o.first_success_index == idx]
        cumulative += len(fresh)
        rows.append(_table_row("NUNPOM", lam, fresh, cumulative))
    upom = [o.upom for o in outcomes if o.upom is not None]
    rows.append(_table_row("UPOM", None, upom, len(upom)))
    return BenchmarkResult(rows, outcomes, ladder)


def _pool_map(fn, jobs: list, threads: int):
    """``[fn(job) for job in jobs]`` over at most ``threads`` worker
    processes, and in process when there is at most one job, where a pool
    adds only its start-up."""
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))
