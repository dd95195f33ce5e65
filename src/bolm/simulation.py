"""Data generation and the loss benchmarking experiment.

Datasets are drawn from a known model: covariates by a declared law
conditioned on predictor compatibility, responses by exact multinomial
sampling via sequential binomial conditioning.  Randomness comes from
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
    """Law of the covariate rows: bernoulli(p), open-interval uniform(a, b)
    or a fixed design matrix."""

    kind: str
    p: float = 0.5
    low: float = -1.0
    high: float = 1.0
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("bernoulli", "uniform", "fixed"):
            raise ValueError(f"unknown covariate law {self.kind!r}")
        if self.kind == "bernoulli" and not 0.0 <= self.p <= 1.0:
            raise ValueError("bernoulli p outside [0, 1]")
        if self.kind == "uniform" and not self.low < self.high:
            raise ValueError("uniform law needs low < high")
        if self.kind == "fixed":
            if self.values is None:
                raise ValueError("fixed law needs a design matrix")
            vals = np.asarray(self.values, dtype=float)
            if vals.ndim != 2:
                raise ValueError("fixed design must be 2-d (rows, covariates)")
            object.__setattr__(self, "values", vals)

    @classmethod
    def bernoulli(cls, p: float) -> "CovariateLaw":
        return cls("bernoulli", p=p)

    @classmethod
    def uniform(cls, low: float, high: float) -> "CovariateLaw":
        return cls("uniform", low=low, high=high)

    @classmethod
    def fixed(cls, values: np.ndarray) -> "CovariateLaw":
        return cls("fixed", values=values)

    @property
    def n_covariates(self) -> int:
        return 1 if self.kind in ("bernoulli", "uniform") else self.values.shape[1]

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "bernoulli":
            return rng.binomial(1, self.p, size=(n, 1)).astype(float)
        if self.kind == "uniform":
            # open interval: the closed endpoints may sit on the boundary
            # of the compatible predictor region
            out = rng.uniform(self.low, self.high, size=(n, 1))
            while (out == self.low).any():
                redo = out == self.low
                out[redo] = rng.uniform(self.low, self.high, size=int(redo.sum()))
            return out
        vals = self.values
        if n != vals.shape[0]:
            raise ValueError(f"fixed design has {vals.shape[0]} rows, asked for {n}")
        return vals.copy()

    def probe_values(self) -> np.ndarray:
        """Covariate rows covering the law's range, for feasibility checks."""
        if self.kind == "bernoulli":
            return np.array([[0.0], [1.0]])
        if self.kind == "uniform":
            shave = 1e-9 * (self.high - self.low)
            return np.linspace(
                self.low + shave, self.high - shave, 129
            ).reshape(-1, 1)
        return self.values


@dataclass(frozen=True)
class GeneratingModel:
    """A model spec, true coefficients and a covariate law to sample from.

    The model family is not variation independent, so a covariate law can
    overlap a region where the true predictor has no compatible probability
    table.  Construction sweeps the law's range and records the compatible
    fraction: a fixed design must be compatible in every row, while a
    stochastic law only needs a workable fraction because draws are then
    conditioned on compatibility (incompatible draws are rejected and
    redrawn).  Sampling therefore never yields an incompatible predictor.
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
        if self.law.n_covariates != len(self.spec.covariate_names):
            raise ValueError("covariate law width does not match the spec")
        if self.n < 1:
            raise ValueError("sample size must be positive")
        # predictors are affine in the covariates, so one intercept vector
        # and one slope per covariate reproduce any design row.  A slope is
        # the unit-covariate predictor minus eta0: S_j @ beta rounds
        # differently, and the sampled datasets depend on these bits
        X0, S = self.spec.affine_design
        eta0 = X0 @ beta
        slopes = (X0 + S) @ beta - eta0
        object.__setattr__(self, "_eta0", eta0)
        object.__setattr__(self, "_eta_slopes", slopes)

        ok = self.compatible_rows(self.law.probe_values())
        fraction = float(ok.mean())
        object.__setattr__(self, "feasible_fraction", fraction)
        if self.law.kind == "fixed" and not ok.all():
            bad = int(np.where(~ok)[0][0])
            raise IncompatibleEta(
                f"fixed design row {bad} yields an incompatible predictor"
            )
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
        if self.law.kind == "fixed":
            return rows  # construction verified every row
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


def true_probs(gm: GeneratingModel, dataset: Dataset) -> np.ndarray:
    """True cell probabilities for each group of a sampled dataset."""
    return gm.probs_for(dataset.covariates)


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)))


def _multinomial_counts(
    rng: np.random.Generator, total: int, probs: np.ndarray
) -> np.ndarray:
    """Exact multinomial draw via sequential binomial conditioning."""
    counts = np.zeros(probs.size, dtype=np.int64)
    remaining = int(total)
    tail = 1.0
    for j in range(probs.size - 1):
        if remaining == 0:
            break
        p = probs[j] / tail if tail > 0.0 else 1.0
        counts[j] = rng.binomial(remaining, min(max(p, 0.0), 1.0))
        remaining -= int(counts[j])
        tail -= probs[j]
    counts[-1] = remaining
    return counts


def sample_dataset(gm: GeneratingModel, seed: int, stream: int = 0) -> Dataset:
    """Draw covariates and n multinomial responses, grouped by profile."""
    rng = _stream_rng(seed, stream)
    rows = gm.draw_covariates(gm.n, rng)
    first, inverse = group_profiles(rows)
    sizes = np.bincount(inverse, minlength=first.size)
    pair = gm.spec.pair
    unique_rows = rows[first]
    probs = gm.probs_for(unique_rows)
    counts = [_multinomial_counts(rng, n, p) for n, p in zip(sizes, probs)]
    return Dataset(pair, unique_rows, np.reshape(counts, (-1, pair.d1, pair.d2)))


# ---------------------------------------------------------------------------
# loss functions


def _paired(pi_true: np.ndarray, pi_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(pi_true, dtype=float)
    h = np.asarray(pi_hat, dtype=float)
    if t.ndim == 1:
        t = t.reshape(1, -1)
    if h.ndim == 1:
        h = h.reshape(1, -1)
    t = t.reshape(t.shape[0], -1)
    h = h.reshape(h.shape[0], -1)
    if t.shape != h.shape:
        raise ValueError(f"probability arrays differ in shape: {t.shape} vs {h.shape}")
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


@dataclass
class ReplicateOutcome:
    replicate: int
    upom_converged: bool
    upom_losses: tuple[float, float, float] | None
    upom_aic: float | None
    first_success_index: int | None   # ladder index of the first NUNPOM success
    nunpom_losses: tuple[float, float, float] | None
    nunpom_aic: float | None


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


def _benchmark_replicate(args) -> ReplicateOutcome:
    seed, r, n, ladder = args
    gm = default_loss_benchmark_truth(n)
    ds = sample_dataset(gm, seed, stream=r)
    pi_true = _expand_per_observation(ds, true_probs(gm, ds))

    upom = uniform_proportional_spec(gm.spec.pair, gm.spec.covariate_names)
    res_u = fit(ds, upom)
    u_ok = not res_u.fisher_scoring_failed
    u_losses = None
    u_aic = None
    if u_ok:
        pi_hat = _expand_per_observation(ds, res_u.fitted_probs)
        u_losses = (
            loss_msel(pi_true, pi_hat),
            loss_mrsel(pi_true, pi_hat),
            loss_mel(pi_true, pi_hat),
        )
        u_aic = res_u.aic

    first = None
    n_losses = None
    n_aic = None
    for idx, lam in enumerate(ladder):
        res = _fit_with_retry(ds, gm.spec, smoothing_config(gm.spec, lam), lam)
        if not res.fisher_scoring_failed:
            first = idx
            pi_hat = _expand_per_observation(ds, res.fitted_probs)
            n_losses = (
                loss_msel(pi_true, pi_hat),
                loss_mrsel(pi_true, pi_hat),
                loss_mel(pi_true, pi_hat),
            )
            n_aic = res.aic
            break
    return ReplicateOutcome(r, u_ok, u_losses, u_aic, first, n_losses, n_aic)


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
        fresh = [o for o in outcomes if o.first_success_index == idx]
        cumulative += len(fresh)
        if fresh:
            losses = np.array([o.nunpom_losses for o in fresh])
            aic = float(np.mean([o.nunpom_aic for o in fresh]))
            m1, m2, m3 = losses.mean(axis=0)
        else:
            m1 = m2 = m3 = aic = float("nan")
        rows.append(TableRow("NUNPOM", lam, float(m1), float(m2), float(m3),
                             aic, cumulative))
    good = [o for o in outcomes if o.upom_converged]
    if good:
        losses = np.array([o.upom_losses for o in good])
        aic = float(np.mean([o.upom_aic for o in good]))
        m1, m2, m3 = losses.mean(axis=0)
    else:
        m1 = m2 = m3 = aic = float("nan")
    rows.append(TableRow("UPOM", None, float(m1), float(m2), float(m3),
                         aic, len(good)))
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
