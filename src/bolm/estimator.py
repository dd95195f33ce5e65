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

``fit_batch`` runs the iteration for several datasets in lockstep on a
leading replicate axis; ``fit`` is a batch of one.  Every replicate gets
exactly the arithmetic it would get alone, so batching changes no bit of
any result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.special import logit

from .link_map import IncompatibleEta, _cells_unchecked, d_pi_d_eta_batch
from .model_core import Dataset, ModelSpec, ParamLayout, design_matrices
from .penalties import OrderingState, PenaltyConfig, PenaltyOperator, ordering_state

# Heavy difference penalties make the exact score cancel catastrophically:
# (P beta)_j carries rounding noise of order eps * (|P| |beta|)_j, which for
# lambda >= ~1e8 exceeds any fixed tolerance.  Convergence therefore tests
# each score component against max(grad_tol, noise floor of that component).
_NOISE_SAFETY = 32.0


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
    """Design, counts and weights in stacked form.

    Built from one dataset the arrays are X (G, n_eta, p), Y (G, cells)
    and n (G,).  ``stacked`` builds them for datasets with one group
    count, with a leading replicate axis.  Every method takes either and
    gives each replicate the arithmetic it would get alone.
    """

    def __init__(self, dataset: Dataset, spec: ModelSpec):
        self.pair = spec.pair
        self.X = design_matrices(spec, dataset)
        self.Y = dataset.count_matrix()
        self.n = self.Y.sum(axis=-1)

    @classmethod
    def stacked(cls, datasets: list[Dataset], spec: ModelSpec) -> "_Arrays":
        parts = [cls(ds, spec) for ds in datasets]
        out = cls.__new__(cls)
        out.pair = spec.pair
        out.X = np.stack([a.X for a in parts])
        out.Y = np.stack([a.Y for a in parts])
        out.n = np.stack([a.n for a in parts])
        return out

    def __getitem__(self, rows) -> "_Arrays":
        """The replicates ``rows`` of a stack; an integer gives one dataset."""
        out = _Arrays.__new__(_Arrays)
        out.pair = self.pair
        out.X, out.Y, out.n = self.X[rows], self.Y[rows], self.n[rows]
        return out

    def cells(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell probabilities, compatibility flags and log-likelihoods.

        ``beta`` is (p,) or one row per replicate.  Nothing raises: a
        replicate with a nonpositive cell in some group is flagged False,
        and its log-likelihood is meaningless.
        """
        eta = self.X @ beta[..., None, :, None]
        pi = _cells_unchecked(eta.reshape(-1, self.pair.n_eta), self.pair)
        pi = pi.reshape(*eta.shape[:-2], self.pair.n_cells)
        ok = (pi > 0).all(axis=(-2, -1))  # NaN marks a non-finite predictor
        if ok.all():
            loglik = np.sum(self.Y * np.log(pi), axis=(-2, -1))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                loglik = np.sum(self.Y * np.log(pi), axis=(-2, -1))
        return pi, ok, loglik

    def probs(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cells and log-likelihoods; raises IncompatibleEta unless every
        group of every replicate has strictly positive cells."""
        pi, ok, loglik = self.cells(beta)
        if not ok.all():
            raise IncompatibleEta("predictor maps to a nonpositive cell probability")
        return pi, loglik

    def derivatives(self, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unpenalized score vectors and expected information at pi."""
        J = d_pi_d_eta_batch(pi, self.pair)
        lead = pi.shape[:-2]
        # groups and cells stacked into one (G*q, p) operand per replicate,
        # so score and information are plain matmuls: on these small
        # arrays a per-call einsum path search costs more than the arithmetic
        Bf = (J @ self.X).reshape(*lead, -1, self.X.shape[-1])
        score = (Bf.mT @ (self.Y / pi).reshape(*lead, -1, 1))[..., 0]
        w = (self.n[..., None] / pi).reshape(*lead, -1, 1)
        info = Bf.mT @ (Bf * w)
        return score, info


# LAPACK's Cholesky factor and solve, as scipy's cho_factor and cho_solve
# call them; see _solve_spd
_POTRF, _POTRS = sla.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _solve_spd(
    H: np.ndarray, rhs: np.ndarray, layout: ParamLayout, rows: np.ndarray | None = None
) -> tuple[np.ndarray, dict[int, str]]:
    """Solve H[r] x = rhs[r] by Cholesky for each replicate r (of ``rows``).

    LAPACK's potrf and potrs run once per matrix with the arguments that
    scipy's cho_factor and cho_solve pass, so the bits are theirs.  Their
    wrappers, which scipy's batched form calls once per matrix too, took
    about 20 us a matrix at p = 16 against 6 us for the two calls (one
    BLAS thread, 2-vCPU host).
    A numerically singular H[r] leaves NaN in its solution and a
    rank-deficiency text in ``failures[r]``; the others are unaffected.
    """
    x = np.full(rhs.shape, np.nan)
    failures: dict[int, str] = {}
    for r in range(len(H)) if rows is None else np.flatnonzero(rows):
        c, info = _POTRF(H[r], lower=False, clean=False)
        if info == 0:
            x_r, info = _POTRS(c, rhs[r], lower=False)
        if info == 0:
            x[r] = x_r
        else:
            failures[int(r)] = _singular_text(H[r], layout)
    return x, failures


def _singular_text(A: np.ndarray, layout: ParamLayout) -> str:
    w, V = np.linalg.eigh(A)
    j = int(np.argmin(w))
    loaded = int(np.argmax(np.abs(V[:, j])))
    return (
        f"penalized Fisher matrix rank deficient (eigenvalue {w[j]:.3e}); "
        f"null-space direction loaded on {layout.labels()[loaded]}"
    )


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

    Evaluations take one coefficient row per replicate and run through
    the factored operators; the assembled matrix is only used inside the
    Fisher solve, where no cancellation occurs.  Without ordering parts
    nothing depends on the iterate and every replicate shares the static
    matrix; otherwise ``states`` holds each replicate's ordering states
    and P is (R, p, p).
    """

    def __init__(
        self,
        static: PenaltyOperator,
        static_P: np.ndarray,
        states: list[list[OrderingState]] | None = None,
    ):
        self.static = static
        self.states = states
        if states is None:
            self.P = static_P
        else:
            self.P = np.stack([static_P + sum(st.matrix() for st in sts) for sts in states])
        self.abs_P = np.abs(self.P)

    def __getitem__(self, keep: np.ndarray) -> "_FrozenPenalty":
        """The replicates flagged in the boolean mask ``keep``."""
        if self.states is None:
            return self
        out = _FrozenPenalty.__new__(_FrozenPenalty)
        out.static = self.static
        out.states = [sts for sts, k in zip(self.states, keep) if k]
        out.P, out.abs_P = self.P[keep], self.abs_P[keep]
        return out

    def tau(self, beta: np.ndarray) -> np.ndarray:
        out = self.static.tau(beta)
        if self.states is not None:
            out = out + np.array(
                [sum(st.tau(b) for st in sts) for sts, b in zip(self.states, beta)]
            )
        return out

    def grad(self, beta: np.ndarray) -> np.ndarray:
        """Gradient of tau / 2, that is P beta - q."""
        out = self.static.grad(beta)
        for r, sts in enumerate(self.states or ()):
            for st in sts:
                out[r] = out[r] + st.grad(beta[r])
        return out

    def score_tolerance(self, beta: np.ndarray, grad_tol: float) -> np.ndarray:
        bound = (self.abs_P @ np.abs(beta)[..., None])[..., 0]
        if self.states is not None:
            bound = bound + np.array([sum(st.q_bound() for st in sts) for sts in self.states])
        floor = _NOISE_SAFETY * np.finfo(float).eps * bound
        return np.maximum(grad_tol, floor)


def _freeze_penalty(
    arrays: _Arrays,
    static: PenaltyOperator,
    static_P: np.ndarray,
    ordering: list[PenaltyConfig],
    beta: np.ndarray,
) -> _FrozenPenalty:
    """The penalty of one scoring step, with ordering states at ``beta``."""
    states = [
        [
            ordering_state(X, n, arrays.pair, b, part.lambda1, part.lambda2, part.margin)
            for part in ordering
        ]
        for X, n, b in zip(arrays.X, arrays.n, beta)
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


def _step_halving(
    arrays: _Arrays,
    frozen: _FrozenPenalty,
    beta: np.ndarray,
    direction: np.ndarray,
    lp: np.ndarray,
    options: FitOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One damped Fisher step per replicate.

    Each replicate halves its own step until the trial predictor is
    compatible and the penalized log-likelihood does not drop; the set
    still waiting shrinks trial by trial.  Returns the new coefficients,
    cells and log-likelihoods, valid where the returned flag says a
    step was accepted.
    """
    R = len(beta)
    floor = lp - 1e-10 * (1.0 + np.abs(lp))
    # the replicates still waiting all stand at the same trial, so they
    # share one step length
    step = options.step_length
    waiting = None  # every replicate, until a trial splits them
    for _ in range(options.step_halvings + 1):
        candidate = beta + step * direction
        pi, ok, loglik = arrays.cells(candidate)
        if ok.all():
            lp_new = loglik - 0.5 * frozen.tau(candidate)
        else:
            lp_new = np.full(ok.shape, -np.inf)
            lp_new[ok] = loglik[ok] - 0.5 * frozen[ok].tau(candidate[ok])
        good = lp_new >= floor
        if waiting is None:
            if good.all():
                return candidate, pi, loglik, good  # all accepted at once: no copies
            waiting, accepted = np.arange(R), np.zeros(R, dtype=bool)
            new = (np.empty_like(beta), np.empty(arrays.Y.shape), np.empty(R))
        if good.any():
            rows = waiting[good]
            new[0][rows], new[1][rows], new[2][rows] = candidate[good], pi[good], loglik[good]
            accepted[rows] = True
            keep = ~good
            waiting, beta, direction, floor = waiting[keep], beta[keep], direction[keep], floor[keep]
            arrays, frozen = arrays[keep], frozen[keep]
            if not waiting.size:
                break
        step *= 0.5
    return (*new, accepted)


def _by_group_count(datasets: list[Dataset]) -> list[list[int]]:
    """Dataset indices grouped by group count, in order of first sight."""
    members: dict[int, list[int]] = {}
    for r, dataset in enumerate(datasets):
        members.setdefault(dataset.n_groups, []).append(r)
    return list(members.values())


def fit_batch(
    datasets: list[Dataset],
    spec: ModelSpec,
    penalty: PenaltyConfig | None = None,
    options: FitOptions | None = None,
) -> list[FitResult]:
    """Fit one model to several datasets by Fisher scoring in lockstep.

    Datasets with the same group count run together on a leading
    replicate axis: each scoring step forms the predictors, cells,
    Jacobians, score and information of all of them at once, while each
    replicate keeps its own convergence test, step length, iteration
    count and stopping reason.  Result r equals ``fit(datasets[r], ...)``
    bit for bit; ``fit`` is this function on a batch of one.
    """
    penalty = penalty if penalty is not None else PenaltyConfig.none()
    options = options if options is not None else FitOptions()
    datasets = list(datasets)
    static = PenaltyOperator(PenaltyConfig.composite(*penalty.static_parts()), spec)
    results: list[FitResult] = [None] * len(datasets)  # type: ignore[list-item]
    for members in _by_group_count(datasets):
        stack = [datasets[r] for r in members]
        for r, res in zip(members, _fit_stack(stack, spec, penalty, static, options)):
            results[r] = res
    return results


def fit(
    dataset: Dataset,
    spec: ModelSpec,
    penalty: PenaltyConfig | None = None,
    options: FitOptions | None = None,
) -> FitResult:
    return fit_batch([dataset], spec, penalty, options)[0]


def _fit_stack(
    datasets: list[Dataset],
    spec: ModelSpec,
    penalty: PenaltyConfig,
    static: PenaltyOperator,
    options: FitOptions,
) -> list[FitResult]:
    """Fisher scoring on datasets that share a group count."""
    arrays = _Arrays.stacked(datasets, spec)
    layout = spec.layout
    R = len(datasets)
    static_P = static.matrix()
    ordering = penalty.ordering_parts()
    # without ordering parts the penalty never changes
    fixed = None if ordering else _FrozenPenalty(static, static_P)

    beta = np.stack([default_start(ds, spec) for ds in datasets])
    if options.start is None:
        pi, loglik = arrays.probs(beta)
    else:
        start = np.asarray(options.start, dtype=float).reshape(-1)
        if start.size != layout.size:
            raise ValueError(f"start length {start.size}, expected {layout.size}")
        pi, loglik = np.empty(arrays.Y.shape), np.empty(R)
        for r in range(R):
            beta[r], pi[r], loglik[r] = _feasible_start(
                arrays[r], start, beta[r], bool(ordering)
            )

    converged = np.zeros(R, dtype=bool)
    iterations = np.zeros(R, dtype=int)
    reasons: list[str | None] = [None] * R
    traces: list[list[float]] = [[] for _ in range(R)]

    # the replicates still iterating and their state; a replicate's final
    # state goes to beta, pi and loglik when it stops
    live = np.arange(R)
    work, b, pi_w, ll_w = arrays, beta.copy(), pi.copy(), loglik.copy()

    def retire(stopped: np.ndarray) -> np.ndarray:
        nonlocal live, work, b, pi_w, ll_w
        rows = live[stopped]
        beta[rows], pi[rows], loglik[rows] = b[stopped], pi_w[stopped], ll_w[stopped]
        keep = ~stopped
        live, work, b, pi_w, ll_w = live[keep], work[keep], b[keep], pi_w[keep], ll_w[keep]
        return keep

    for _ in range(options.max_iter):
        frozen = fixed if fixed is not None else _freeze_penalty(
            work, static, static_P, ordering, b
        )
        lp = ll_w - 0.5 * frozen.tau(b)
        for r, value in zip(live.tolist(), lp.tolist()):
            traces[r].append(value)
        score, info = work.derivatives(pi_w)
        s_pen = score - frozen.grad(b)
        stop = np.all(np.abs(s_pen) < frozen.score_tolerance(b, options.grad_tol), axis=-1)
        direction, singular = _solve_spd(info + frozen.P, s_pen[..., None], layout, ~stop)
        if stop.any() or singular:
            converged[live[stop]] = True
            for i, text in singular.items():
                reasons[live[i]] = text
                stop[i] = True
            keep = retire(stop)
            if not live.size:
                break
            frozen, direction, lp = frozen[keep], direction[keep], lp[keep]

        new_b, new_pi, new_ll, accepted = _step_halving(
            work, frozen, b, direction[..., 0], lp, options
        )
        if not accepted.all():
            for i in np.flatnonzero(~accepted):
                reasons[live[i]] = (
                    "no acceptable step within "
                    f"{options.step_halvings} halvings at iteration {iterations[live[i]] + 1}"
                )
            retire(~accepted)
            if not live.size:
                break
            new_b, new_pi, new_ll = new_b[accepted], new_pi[accepted], new_ll[accepted]
        b, pi_w, ll_w = new_b, new_pi, new_ll
        iterations[live] += 1
    else:
        for r in live:
            reasons[r] = (
                f"gradient tolerance not reached within {options.max_iter} iterations"
            )
        retire(np.ones(live.size, dtype=bool))

    frozen = fixed if fixed is not None else _freeze_penalty(
        arrays, static, static_P, ordering, beta
    )
    tau_hat = frozen.tau(beta)
    _, info = arrays.derivatives(pi)
    H = info + frozen.P
    p = layout.size
    cov, singular = _solve_spd(H, np.broadcast_to(np.eye(p), H.shape), layout)
    edf = np.full(R, float(p))
    # tr(H) = tr((X'WX + P)^-1 X'WX); exactly p when P = 0
    smoothed = np.broadcast_to(frozen.P.any(axis=(-2, -1)), (R,)).copy()
    smoothed[list(singular)] = False
    if smoothed.any():
        hat, _ = _solve_spd(H, info, layout, smoothed)
        edf[smoothed] = np.trace(hat[smoothed], axis1=-2, axis2=-1)
    for r, text in singular.items():
        edf[r] = float("nan")
        if reasons[r] is None:
            reasons[r] = text

    results = []
    for r, dataset in enumerate(datasets):
        e = float(edf[r])
        free_cells = dataset.n_groups * (arrays.pair.n_cells - 1)
        results.append(
            FitResult(
                beta_hat=beta[r],
                layout=layout,
                spec=spec,
                penalty=penalty,
                dataset=dataset,
                cov=cov[r],
                loglik=float(loglik[r]),
                penalty_value=float(tau_hat[r]),
                edf=e,
                aic=-2.0 * (float(loglik[r]) - e),
                df_nominal=int(free_cells - round(e)) if np.isfinite(e) else -1,
                iterations=int(iterations[r]),
                converged=bool(converged[r]),
                fisher_scoring_failed=not converged[r],
                failure_reason=reasons[r],
                fitted_probs=pi[r].reshape(dataset.n_groups, arrays.pair.d1, arrays.pair.d2),
                lp_trace=tuple(traces[r]),
            )
        )
    return results


# ---------------------------------------------------------------------------
# public single-shot operations


def penalized_score(
    beta: np.ndarray, dataset: Dataset, spec: ModelSpec, P: np.ndarray
) -> np.ndarray:
    arrays = _Arrays(dataset, spec)
    pi, _ = arrays.probs(np.asarray(beta, dtype=float))
    score, _ = arrays.derivatives(pi)
    return score - P @ np.asarray(beta, dtype=float)


def unpenalized_fisher(
    beta: np.ndarray, dataset: Dataset, spec: ModelSpec
) -> np.ndarray:
    return unpenalized_fisher_batch(beta, [dataset], spec)[0]


def unpenalized_fisher_batch(
    beta: np.ndarray, datasets: list[Dataset], spec: ModelSpec
) -> np.ndarray:
    """Expected information at one coefficient vector for each dataset,
    stacked (R, p, p); datasets with one group count share stacked arrays."""
    beta = np.asarray(beta, dtype=float)
    size = spec.layout.size
    out = np.empty((len(datasets), size, size))
    for members in _by_group_count(datasets):
        arrays = _Arrays.stacked([datasets[r] for r in members], spec)
        pi, _ = arrays.probs(beta)
        out[members] = arrays.derivatives(pi)[1]
    return out


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
