"""Penalized maximum likelihood by Fisher scoring.

The penalized log-likelihood for grouped multinomial data is

    l_P(beta) = sum_i y_i' log pi_i(beta) - tau(beta) / 2

with tau a quadratic penalty.  Writing J_i = d pi_i / d eta_i, the score
and expected information are

    s_P = sum_i (J_i X_i)' diag(pi_i)^-1 y_i - P beta
    F_P = sum_i n_i (J_i X_i)' diag(pi_i)^-1 (J_i X_i) + P

and scoring iterates beta + step * F_P^-1 s_P with step halving.  A
trial step is rejected when some group's predictor is incompatible
(a nonpositive fitted cell) or the penalized log-likelihood decreases.

Beta-dependent penalties (the ordering family) are re-expanded around
the current iterate once per scoring step and held fixed within it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.special import logit

from .link_map import IncompatibleEta, d_pi_d_eta_batch, eta_to_pi_batch
from .model_core import Dataset, ModelSpec, ParamLayout, design_matrices
from .penalties import OrderingState, PenaltyConfig, PenaltyOperator, ordering_state

# Heavy difference penalties make the exact score cancel catastrophically:
# (P beta)_j carries rounding noise of order eps * (|P| |beta|)_j, which for
# lambda >= ~1e8 exceeds any fixed tolerance.  Convergence therefore tests
# each score component against max(grad_tol, noise floor of that component).
_NOISE_SAFETY = 32.0


class SingularFisher(RuntimeError):
    """Penalized Fisher matrix is numerically rank deficient."""


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 200
    grad_tol: float = 1e-7
    step_length: float = 1.0
    step_halvings: int = 30
    start: np.ndarray | None = None


@dataclass
class FitResult:
    beta_hat: np.ndarray
    layout: ParamLayout
    spec: ModelSpec
    penalty: PenaltyConfig
    dataset: Dataset
    cov: np.ndarray
    loglik: float
    penalty_value: float
    edf: float
    aic: float
    df_nominal: int
    iterations: int
    converged: bool
    fisher_scoring_failed: bool
    failure_reason: str | None
    fitted_probs: np.ndarray
    lp_trace: tuple[float, ...]

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    @property
    def deviance_g2(self) -> float:
        return deviance_g2(self)


class _Arrays:
    """Design, counts and weights in stacked form."""

    def __init__(self, dataset: Dataset, spec: ModelSpec):
        self.pair = spec.pair
        self.X = design_matrices(spec, dataset)
        self.Y = dataset.count_matrix()
        self.n = self.Y.sum(axis=1)

    def probs(self, beta: np.ndarray) -> tuple[np.ndarray, float]:
        pi = eta_to_pi_batch(self.X @ beta, self.pair)
        loglik = float(np.sum(self.Y * np.log(pi)))
        return pi, loglik

    def derivatives(self, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unpenalized score vector and expected information at pi."""
        J = d_pi_d_eta_batch(pi, self.pair)
        # groups and cells stacked into one (G*q, p) operand, so score and
        # information are plain matmuls: on these small arrays a per-call
        # einsum path search costs more than the arithmetic
        Bf = (J @ self.X).reshape(-1, self.X.shape[-1])
        score = Bf.T @ (self.Y / pi).ravel()
        w = (self.n[:, None] / pi).ravel()
        info = Bf.T @ (Bf * w[:, None])
        return score, info


def _solve_spd(A: np.ndarray, rhs: np.ndarray, layout: ParamLayout | None = None):
    try:
        cf = sla.cho_factor(A, check_finite=False)
        return sla.cho_solve(cf, rhs, check_finite=False)
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError):
        w, V = np.linalg.eigh(A)
        j = int(np.argmin(w))
        direction = V[:, j]
        loaded = int(np.argmax(np.abs(direction)))
        name = layout.labels()[loaded] if layout is not None else f"index {loaded}"
        raise SingularFisher(
            f"penalized Fisher matrix rank deficient (eigenvalue {w[j]:.3e}); "
            f"null-space direction loaded on {name}"
        ) from None


def default_start(dataset: Dataset, spec: ModelSpec) -> np.ndarray:
    """Independence start: pooled-margin logits, everything else zero.

    A margin containing an empty category gets add-0.5 smoothing so the
    cumulative fractions stay strictly increasing.
    """
    layout = spec.layout
    beta = np.zeros(layout.size)
    pooled = dataset.pooled_counts().astype(float)
    for k, counts in ((1, pooled.sum(axis=1)), (2, pooled.sum(axis=0))):
        if (counts == 0.0).any():
            counts = counts + 0.5
        frac = counts.cumsum()[:-1] / counts.sum()
        beta[layout.block(k).slice] = logit(frac)
    return beta


class _FrozenPenalty:
    """Static penalty plus ordering states frozen at one iterate.

    All evaluations run through the factored operators; the assembled
    matrix is only used inside the Fisher solve, where no cancellation
    occurs.
    """

    def __init__(
        self,
        static: PenaltyOperator,
        static_P: np.ndarray,
        states: list[OrderingState],
    ):
        self.static = static
        self.states = states
        self.P = static_P + sum(st.matrix() for st in states)

    def tau(self, beta: np.ndarray) -> float:
        return self.static.tau(beta) + sum(st.tau(beta) for st in self.states)

    def grad(self, beta: np.ndarray) -> np.ndarray:
        """Gradient of tau / 2, that is P beta - q."""
        out = self.static.grad(beta)
        for st in self.states:
            out = out + st.grad(beta)
        return out

    def score_tolerance(self, beta: np.ndarray, grad_tol: float) -> np.ndarray:
        q_abs = sum(st.q_bound() for st in self.states) if self.states else 0.0
        floor = _NOISE_SAFETY * np.finfo(float).eps * (
            np.abs(self.P) @ np.abs(beta) + q_abs
        )
        return np.maximum(grad_tol, floor)


def _freeze_penalty(
    arrays: _Arrays,
    static: PenaltyOperator,
    static_P: np.ndarray,
    ordering: list[PenaltyConfig],
    beta: np.ndarray,
) -> _FrozenPenalty:
    states = [
        ordering_state(
            arrays.X, arrays.n, arrays.pair, beta,
            part.lambda1, part.lambda2, part.margin,
        )
        for part in ordering
    ]
    return _FrozenPenalty(static, static_P, states)


def _feasible_start(
    arrays: _Arrays, start: np.ndarray, fallback: np.ndarray, allow_blend: bool
) -> tuple[np.ndarray, np.ndarray, float]:
    try:
        pi, ll = arrays.probs(start)
        return start, pi, ll
    except IncompatibleEta:
        if not allow_blend:
            raise
    # with an ordering penalty an infeasible start is repaired by blending
    # toward the (always feasible) default start
    for t in np.linspace(1.0 / 32.0, 1.0, 32):
        beta = (1.0 - t) * start + t * fallback
        try:
            pi, ll = arrays.probs(beta)
            return beta, pi, ll
        except IncompatibleEta:
            continue
    pi, ll = arrays.probs(fallback)
    return fallback, pi, ll


def fit(
    dataset: Dataset,
    spec: ModelSpec,
    penalty: PenaltyConfig | None = None,
    options: FitOptions | None = None,
) -> FitResult:
    penalty = penalty if penalty is not None else PenaltyConfig.none()
    options = options if options is not None else FitOptions()
    arrays = _Arrays(dataset, spec)
    layout = spec.layout

    static = PenaltyOperator(
        PenaltyConfig.composite(*penalty.static_parts()), spec
    )
    static_P = static.matrix()
    ordering = penalty.ordering_parts()

    base = default_start(dataset, spec)
    if options.start is not None:
        start = np.asarray(options.start, dtype=float).reshape(-1)
        if start.size != layout.size:
            raise ValueError(f"start length {start.size}, expected {layout.size}")
        beta, pi, loglik = _feasible_start(arrays, start, base, bool(ordering))
    else:
        beta, pi, loglik = base, *arrays.probs(base)

    converged = False
    failure_reason: str | None = None
    iterations = 0
    trace: list[float] = []

    for _ in range(options.max_iter):
        frozen = _freeze_penalty(arrays, static, static_P, ordering, beta)
        lp = loglik - 0.5 * frozen.tau(beta)
        trace.append(lp)
        score, info = arrays.derivatives(pi)
        s_pen = score - frozen.grad(beta)
        if np.all(
            np.abs(s_pen) < frozen.score_tolerance(beta, options.grad_tol)
        ):
            converged = True
            break
        try:
            direction = _solve_spd(info + frozen.P, s_pen, layout)
        except SingularFisher as exc:
            failure_reason = str(exc)
            break

        step = options.step_length
        accepted = False
        for _ in range(options.step_halvings + 1):
            candidate = beta + step * direction
            try:
                pi_new, loglik_new = arrays.probs(candidate)
            except IncompatibleEta:
                step *= 0.5
                continue
            lp_new = loglik_new - 0.5 * frozen.tau(candidate)
            if lp_new >= lp - 1e-10 * (1.0 + abs(lp)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            failure_reason = (
                "no acceptable step within "
                f"{options.step_halvings} halvings at iteration {iterations + 1}"
            )
            break
        beta, pi, loglik = candidate, pi_new, loglik_new
        iterations += 1
    else:
        failure_reason = (
            f"gradient tolerance not reached within {options.max_iter} iterations"
        )

    frozen = _freeze_penalty(arrays, static, static_P, ordering, beta)
    tau_hat = frozen.tau(beta)
    P = frozen.P
    _, info = arrays.derivatives(pi)
    nan_mat = np.full((layout.size, layout.size), np.nan)
    try:
        cov = _solve_spd(info + P, np.eye(layout.size), layout)
        edf = _edf(info, P, layout)
    except SingularFisher as exc:
        cov = nan_mat
        edf = float("nan")
        if failure_reason is None:
            failure_reason = str(exc)
    aic = -2.0 * (loglik - edf)
    free_cells = dataset.n_groups * (arrays.pair.n_cells - 1)
    df_nominal = int(free_cells - round(edf)) if np.isfinite(edf) else -1

    return FitResult(
        beta_hat=beta,
        layout=layout,
        spec=spec,
        penalty=penalty,
        dataset=dataset,
        cov=cov,
        loglik=loglik,
        penalty_value=tau_hat,
        edf=edf,
        aic=aic,
        df_nominal=df_nominal,
        iterations=iterations,
        converged=converged,
        fisher_scoring_failed=not converged,
        failure_reason=failure_reason,
        fitted_probs=pi.reshape(dataset.n_groups, arrays.pair.d1, arrays.pair.d2),
        lp_trace=tuple(trace),
    )


def _edf(info: np.ndarray, P: np.ndarray, layout: ParamLayout) -> float:
    """tr(H) = tr((X'WX + P)^-1 X'WX); exactly p when P = 0."""
    if not P.any():
        return float(info.shape[0])
    return float(np.trace(_solve_spd(info + P, info, layout)))


# ---------------------------------------------------------------------------
# public single-shot operations


def penalized_score(
    beta: np.ndarray, dataset: Dataset, spec: ModelSpec, P: np.ndarray
) -> np.ndarray:
    arrays = _Arrays(dataset, spec)
    pi, _ = arrays.probs(np.asarray(beta, dtype=float))
    score, _ = arrays.derivatives(pi)
    return score - P @ np.asarray(beta, dtype=float)


def penalized_fisher(
    beta: np.ndarray, dataset: Dataset, spec: ModelSpec, P: np.ndarray
) -> np.ndarray:
    return unpenalized_fisher(beta, dataset, spec) + P


def unpenalized_fisher(
    beta: np.ndarray, dataset: Dataset, spec: ModelSpec
) -> np.ndarray:
    arrays = _Arrays(dataset, spec)
    pi, _ = arrays.probs(np.asarray(beta, dtype=float))
    _, info = arrays.derivatives(pi)
    return info


def deviance_g2(fit_result: FitResult, dataset: Dataset | None = None) -> float:
    """G^2 = 2 sum y log(y / (n pi_hat)), zero-count cells contribute 0."""
    dataset = dataset if dataset is not None else fit_result.dataset
    y = dataset.count_matrix()
    n = y.sum(axis=1)
    pi = fit_result.fitted_probs.reshape(dataset.n_groups, -1)
    expected = n[:, None] * pi
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(y > 0, y * np.log(np.where(y > 0, y / expected, 1.0)), 0.0)
    return float(2.0 * terms.sum())
