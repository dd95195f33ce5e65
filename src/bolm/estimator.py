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

Near the compatibility boundary most trials are rejected, and one or
two groups out of hundreds show it.  So a trial that finds nonpositive
cells records the groups where it found them, in any replicate still
waiting: the suspects, kept until the next incompatible trial, across
scoring steps.  While the suspects are a proper subset of the groups,
each trial first evaluates them alone, and a trial that leaves no
waiting replicate compatible there is rejected without the full link
map, log-likelihood or penalty.  The predictor product and the link map
work group by group, so the screened cells are the full evaluation's
bit for bit: the screen rejects only trials the full evaluation would
reject, and changes no result.  A one-group fit never screens.

A screen that rejects a trial changes nothing, so the screens of the
next trials are those of beta + (step 2^-j) direction for consecutive j,
and step * 0.5**j is exact.  One screen call covers a ladder of up to
``_LADDER`` rungs: the trials before the first rung that some waiting
replicate passes are rejected, that trial runs in full with no second
screen, and the next trial screens again.  So the full trials, the
accepted steps and the suspects are those of one screen per trial.

Beta-dependent penalties (the ordering terms) are re-expanded around
the current iterate once per scoring step and held fixed within it.
``penalties.PenaltyOperator`` holds the penalty of a step, and the noise
floor that the score is tested against.  A trial is scored one way: a
replicate with an incompatible predictor scores -inf, every other its
penalized log-likelihood.

``fit_batch`` runs the iteration for several datasets in lockstep on a
leading replicate axis; ``fit`` is a batch of one.  Every replicate gets
exactly the arithmetic it would get alone, so batching changes no bit of
any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.special import logit

from .link_map import IncompatibleEta, _cells_unchecked, d_pi_d_eta_batch
from .model_core import Dataset, ModelSpec, ParamLayout, design_matrices
from .penalties import PenaltyConfig, PenaltyOperator, ordering_state


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 200
    grad_tol: float = 1e-7
    step_length: float = 1.0
    step_halvings: int = 30
    start: np.ndarray | None = None


@dataclass
class FitResult:
    """One fit; ``failure_reason`` is None exactly when scoring converged.
    A singular final penalized information fails the fit, NaN edf and AIC."""

    beta_hat: np.ndarray
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
    failure_reason: str | None
    fitted_probs: np.ndarray
    lp_trace: tuple[float, ...]

    @property
    def layout(self) -> ParamLayout:
        return self.spec.layout

    @property
    def converged(self) -> bool:
        return self.failure_reason is None

    @property
    def fisher_scoring_failed(self) -> bool:
        return not self.converged

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    @property
    def deviance_g2(self) -> float:
        return deviance_g2(self)


class _Arrays:
    """Design, counts and weights of datasets with one group count,
    stacked on a leading replicate axis: X (R, G, n_eta, p), Y (R, G,
    cells) and n (R, G).  Indexing with an integer gives one dataset's
    arrays without that axis.  Every method takes either and gives each
    replicate the arithmetic it would get alone.

    ``derivatives`` writes its two (..., G*q, p) products into one
    float64 work array, which grows on demand and is shared with the
    replicates taken by indexing.  Fresh products of that size (460,800
    bytes each at G = 400, q = 9, p = 16) go back to the kernel when
    freed, so every call faulted their pages in again: about 256 minor
    faults a call and 70,000 per loss-benchmark pass, 0.1 s of system
    time.  Nothing the methods return is a view of the work array.
    """

    def __init__(self, datasets: list[Dataset], spec: ModelSpec):
        self.pair = spec.pair
        self.X = design_matrices(spec, datasets)
        self.Y = np.stack([ds.count_matrix() for ds in datasets])
        self.n = self.Y.sum(axis=-1)
        self._work = np.empty(0)

    def __getitem__(self, rows) -> "_Arrays":
        """The replicates ``rows`` of a stack; an integer gives one dataset."""
        out = _Arrays.__new__(_Arrays)
        out.pair, out._work = self.pair, self._work
        out.X, out.Y, out.n = self.X[rows], self.Y[rows], self.n[rows]
        return out

    def _cells_of(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Cells of the design rows X at ``beta``, (..., groups, cells).

        Both the matmul and the link map work group by group, so a
        subset of the groups gets the bits it gets in the full stack.
        """
        eta = X @ beta[..., None, :, None]
        pi = _cells_unchecked(eta.reshape(-1, self.pair.n_eta), self.pair)
        return pi.reshape(*eta.shape[:-2], self.pair.n_cells)

    def cells(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell probabilities, compatibility flags and log-likelihoods.

        ``beta`` is (p,) or one row per replicate.  Nothing raises: a
        replicate with a nonpositive cell in some group is flagged False,
        and its log-likelihood is meaningless.
        """
        pi = self._cells_of(self.X, beta)
        ok = (pi > 0).all(axis=(-2, -1))  # NaN marks a non-finite predictor
        with np.errstate(divide="ignore", invalid="ignore"):
            loglik = np.sum(self.Y * np.log(pi), axis=(-2, -1))
        return pi, ok, loglik

    def screen(self, ladder: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """The flags ``cells`` would give if the stack held ``groups``
        only, at each rung of ``ladder``: (..., L, p) gives (..., L)."""
        X = self.X[..., None, groups, :, :]
        return (self._cells_of(X, ladder) > 0).all(axis=(-2, -1))

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
        shape = (*J.shape[:-1], self.X.shape[-1])
        size = math.prod(shape)
        if self._work.size < 2 * size:
            self._work = np.empty(2 * size)
        JX = np.matmul(J, self.X, out=self._work[:size].reshape(shape))
        Bf = JX.reshape(*lead, -1, shape[-1])
        score = (Bf.mT @ (self.Y / pi).reshape(*lead, -1, 1))[..., 0]
        w = (self.n[..., None] / pi).reshape(*lead, -1, 1)
        Bw = np.multiply(Bf, w, out=self._work[size : 2 * size].reshape(Bf.shape))
        info = Bf.mT @ Bw
        return score, info


# rungs one screen call covers; 31 cost more than 8, as the rows grow
_LADDER = 8

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
    """Independence start: pooled-margin logits, everything else zero."""
    return _independence_starts(dataset.pooled_counts(), spec)


def _independence_starts(pooled: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """``default_start`` of pooled tables (..., d1, d2), one row of
    coefficients per table; a stack of tables gets the bits of one
    call per table.

    A margin containing an empty category gets add-0.5 smoothing so the
    cumulative fractions stay strictly increasing.
    """
    layout = spec.layout
    pooled = pooled.astype(float)
    beta = np.zeros(pooled.shape[:-2] + (layout.size,))
    for k, counts in ((1, pooled.sum(-1)), (2, pooled.sum(-2))):
        if (counts == 0.0).any():
            counts[(counts == 0.0).any(-1)] += 0.5
        # the last cumulative count is the margin's total: sums of whole
        # or half counts below 2**53 are exact in any order
        cum = counts.cumsum(-1)
        beta[..., layout.block(k).slice] = logit(cum[..., :-1] / cum[..., -1:])
    return beta


def _step_halving(
    arrays: _Arrays,
    frozen: PenaltyOperator,
    beta: np.ndarray,
    direction: np.ndarray,
    lp: np.ndarray,
    options: FitOptions,
    suspects: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One damped Fisher step per replicate.

    Each replicate halves its own step until the trial predictor is
    compatible and the penalized log-likelihood does not drop; the set
    still waiting shrinks trial by trial.  Returns the new coefficients,
    cells and log-likelihoods, valid where the returned flag says a
    step was accepted, and the suspects (see the module docstring) that
    screen the next step's trials.
    """
    R = len(beta)
    n_groups = arrays.X.shape[-3]
    floor = lp - 1e-10 * (1.0 + np.abs(lp))
    # the replicates still waiting all stand at the same trial, so they
    # share one step length
    step, trial, trials = options.step_length, 0, options.step_halvings + 1
    waiting = None  # every replicate, until a full trial splits them
    while trial < trials:
        if 0 < suspects.size < n_groups:
            # the trials before the first rung that passes are rejected
            rungs = min(_LADDER, trials - trial)
            ladder = step * 0.5 ** np.arange(rungs)
            flags = arrays.screen(beta[:, None] + ladder[:, None] * direction[:, None], suspects)
            passed = flags.any(axis=0)  # by some waiting replicate
            skip = int(passed.argmax()) if passed.any() else rungs
            trial, step = trial + skip, step * 0.5**skip
            if skip == rungs:
                continue
        candidate = beta + step * direction
        pi, ok, loglik = arrays.cells(candidate)
        if not ok.all():
            suspects = np.flatnonzero(~(pi > 0).all(axis=(0, 2)))
        good = np.where(ok, loglik - 0.5 * frozen.tau(candidate), -np.inf) >= floor
        if waiting is None:
            if good.all():  # all accepted at once: no copies
                return candidate, pi, loglik, good, suspects
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
        trial, step = trial + 1, step * 0.5
    if waiting is None:  # every trial failed its screen
        none = np.zeros(R, dtype=bool)
        return np.empty_like(beta), np.empty(arrays.Y.shape), np.empty(R), none, suspects
    return (*new, accepted, suspects)


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
    results: list[FitResult] = [None] * len(datasets)  # type: ignore[list-item]
    for members in _by_group_count(datasets):
        stack = [datasets[r] for r in members]
        for r, res in zip(members, _fit_stack(stack, spec, penalty, options)):
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
    options: FitOptions,
) -> list[FitResult]:
    """Fisher scoring on datasets that share a group count."""
    arrays = _Arrays(datasets, spec)
    layout = spec.layout
    R = len(datasets)
    ordering = penalty.orderings
    step = PenaltyOperator(penalty, spec)

    def freeze(arrays: _Arrays, beta: np.ndarray) -> PenaltyOperator:
        # without ordering terms the penalty never changes
        return ordering_state(step, arrays.X, arrays.n, beta) if ordering else step

    if options.start is None:
        pooled = arrays.Y.sum(axis=1).reshape(R, spec.pair.d1, spec.pair.d2)
        beta = _independence_starts(pooled, spec)
    else:
        start = np.asarray(options.start, dtype=float).reshape(-1)
        if start.size != layout.size:
            raise ValueError(f"start length {start.size}, expected {layout.size}")
        beta = np.tile(start, (R, 1))
    pi, loglik = arrays.probs(beta)

    iterations = np.zeros(R, dtype=int)
    reasons: list[str | None] = [None] * R  # None: converged
    traces: list[list[float]] = [[] for _ in range(R)]

    # the replicates still iterating and their state; a replicate's final
    # state goes to beta, pi and loglik when it stops
    live = np.arange(R)
    work, b, pi_w, ll_w = arrays, beta.copy(), pi.copy(), loglik.copy()
    suspects = np.empty(0, dtype=int)  # groups that broke the last trial

    def retire(stopped: np.ndarray, why) -> np.ndarray:
        # why(i): the reason live replicate i stopped, None if it converged
        nonlocal live, work, b, pi_w, ll_w
        for i in np.flatnonzero(stopped).tolist():
            reasons[live[i]] = why(i)
        rows = live[stopped]
        beta[rows], pi[rows], loglik[rows] = b[stopped], pi_w[stopped], ll_w[stopped]
        keep = ~stopped
        live, work, b, pi_w, ll_w = live[keep], work[keep], b[keep], pi_w[keep], ll_w[keep]
        return keep

    for _ in range(options.max_iter):
        frozen = freeze(work, b)
        lp = ll_w - 0.5 * frozen.tau(b)
        for r, value in zip(live.tolist(), lp.tolist()):
            traces[r].append(value)
        score, info = work.derivatives(pi_w)
        s_pen = score - frozen.grad(b)
        stop = np.all(np.abs(s_pen) < frozen.score_tolerance(b, options.grad_tol), axis=-1)
        direction, singular = _solve_spd(info + frozen.P, s_pen[..., None], layout, ~stop)
        if stop.any() or singular:
            stop[list(singular)] = True
            keep = retire(stop, singular.get)
            if not live.size:
                break
            frozen, direction, lp = frozen[keep], direction[keep], lp[keep]

        new_b, new_pi, new_ll, accepted, suspects = _step_halving(
            work, frozen, b, direction[..., 0], lp, options, suspects
        )
        if not accepted.all():
            retire(~accepted, lambda i: (
                "no acceptable step within "
                f"{options.step_halvings} halvings at iteration {iterations[live[i]] + 1}"
            ))
            if not live.size:
                break
            new_b, new_pi, new_ll = new_b[accepted], new_pi[accepted], new_ll[accepted]
        b, pi_w, ll_w = new_b, new_pi, new_ll
        iterations[live] += 1
    else:
        capped = f"gradient tolerance not reached within {options.max_iter} iterations"
        retire(np.ones(live.size, dtype=bool), lambda i: capped)

    frozen = freeze(arrays, beta)
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
        reasons[r] = reasons[r] or text  # the reason it stopped comes first

    results = []
    for r, dataset in enumerate(datasets):
        e = float(edf[r])
        free_cells = dataset.n_groups * (arrays.pair.n_cells - 1)
        results.append(
            FitResult(
                beta_hat=beta[r],
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
    arrays = _Arrays([dataset], spec)[0]
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
        arrays = _Arrays([datasets[r] for r in members], spec)
        pi, _ = arrays.probs(beta)
        out[members] = arrays.derivatives(pi)[1]
    return out


def deviance_g2(fit_result: FitResult) -> float:
    """G^2 = 2 sum y log(y / (n pi_hat)), zero-count cells contribute 0."""
    y = fit_result.dataset.count_matrix()
    n = y.sum(axis=1)
    pi = fit_result.fitted_probs.reshape(y.shape)
    expected = n[:, None] * pi
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(y > 0, y * np.log(np.where(y > 0, y / expected, 1.0)), 0.0)
    return float(2.0 * terms.sum())
