"""Penalized likelihood-ratio inference for nested model pairs, and model
selection by AIC over a grid of smoothing orders and values (``aic_profile``).

The test statistic is LR_P = -2 {l_P(reduced) - l_P(full)} where
l_P = l - tau/2 is the penalized log-likelihood both fits maximized.
``lr_test`` is the entry point: it checks the hypothesis, fits both
models and refers the statistic to its reference distributions, which
come in two flavours:

* a chi-squared approximation on a structural degree-of-freedom count,
  where any block smoothed beyond ``HEAVY_LAMBDA`` is frozen to the
  null space of its penalty operators, so a model flattened by heavy
  smoothing is counted at its limiting dimension;
* under smoothing, Gray's (1994) weighted mixture of one-degree
  chi-squared variables (``gray_law``), with tail mass and quantiles
  computed by numerical inversion of its Laplace transform.  Every
  hypothesis, exclusion of entries or flattening of blocks, is a
  zero-effect test in a basis whose columns for a flattened block are
  its constant and its contrasts; the weights are eigenvalues of the
  profile information damped by the penalty, and near a known point of
  the hypothesis the variables are shifted by the bias that smoothing
  causes.

A small simulation driver draws data under a null generating model and
re-fits both models across a smoothing grid, which is how the mixture
approximation and the plain chi-squared reference are compared in
practice.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.special import chdtr, chdtrc, gammaincinv

from .estimator import (
    FitOptions,
    FitResult,
    default_start,
    fit,
    fit_batch,
    unpenalized_fisher,
    unpenalized_fisher_batch,
)
from .model_core import (
    INTERCEPT,
    Dataset,
    EquationTerms,
    ModelSpec,
    OrdinalPair,
)
from .penalties import PenaltyConfig, build_penalty_matrix
from .simulation import CovariateLaw, GeneratingModel, _pool_map, sample_dataset

# Smoothing at or above this level is treated as a hard constraint when
# counting degrees of freedom.
HEAVY_LAMBDA = 1e6

# Replicates per job of the null simulation, fitted in lockstep.  A
# constant, so the jobs do not depend on the worker count.  Median cost
# per replicate (eight fits of the criterion-4 design, 320 replicates,
# one process with one BLAS thread on a 2-vCPU host): 33 ms for chunks
# of 1, 11 ms for 10, 8 ms for 20 and 32, 7.3 ms for 40 to 80 and 7.1 ms
# for 160.
NULL_CHUNK = 40


# The chi-squared law through the scipy.special kernels that
# scipy.stats.chi2 calls, so the numbers are its bits; importing
# scipy.stats for these three calls alone doubled the package's import
# time.  Below zero, where a statistic lands by rounding, chdtr and
# chdtrc give NaN, so x is clamped to the support as scipy.stats does.


def _chi2_sf(x, df):
    """Upper tail P(X > x) of chi-squared on ``df`` degrees of freedom."""
    return chdtrc(df, np.maximum(x, 0.0))


def _chi2_ppf(q, df):
    """Quantile of chi-squared on ``df`` degrees of freedom at ``q``."""
    return 2 * gammaincinv(df / 2, q)


def _chi2_ks_distance(sample: np.ndarray, df: int) -> float:
    """Two-sided Kolmogorov-Smirnov distance of ``sample`` from
    chi-squared on ``df`` degrees, as scipy.stats.ks_1samp computes it."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    cdf = chdtr(df, np.maximum(x, 0.0))
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(np.maximum(d_plus, d_minus))


@dataclass(frozen=True)
class LrpResult:
    """Outcome of one penalized likelihood-ratio test.

    ``p_value_mc`` is the statistic's tail under Gray's mixture, when the
    test asked for it.  ``mc_se`` is always None: that tail is computed,
    not estimated by Monte Carlo, so it has no standard error.  The field
    stays because the benchmark's fingerprint (``perfbench/fingerprint.json``)
    records the keys of ``lrtest.json``, and a changed key reads there as
    a wrong output.
    """

    statistic: float
    df: int
    p_value_chi2: float
    p_value_mc: float | None = None
    mc_se: float | None = None
    method: str = "chi2_approx"
    warnings: tuple[str, ...] = ()


def is_nested(reduced: ModelSpec, full: ModelSpec) -> bool:
    """True when every fit of ``reduced`` is also a fit of ``full``.

    Requires the same table shape and covariate set, term inclusion and
    category dependence that only grow from reduced to full, and an
    association intercept that is not more flexible in the reduced
    model.  A uniform association nests inside a category-dependent
    one, not the other way around.
    """
    if reduced.pair != full.pair:
        return False
    if tuple(reduced.covariate_names) != tuple(full.covariate_names):
        return False
    if full.uniform_association and not reduced.uniform_association:
        return False
    for k in (1, 2, 3):
        r = reduced.equation(k)
        f = full.equation(k)
        if not set(r.included) <= set(f.included):
            return False
        if not set(r.dependent_terms) <= set(f.dependent_terms):
            return False
    return True


def lrp_statistic(full_fit: FitResult, reduced_fit: FitResult) -> float:
    """-2 times the penalized log-likelihood drop from full to reduced.

    Evaluated directly from the two maximized objectives and checked
    against the expanded form 2 sum y log(pi_full / pi_reduced) plus
    the penalty difference; the two must agree to numerical noise, so a
    disagreement signals an inconsistent pair of fits rather than data.
    """
    if full_fit.dataset != reduced_fit.dataset:
        raise ValueError("fits come from different datasets")
    if not is_nested(reduced_fit.spec, full_fit.spec):
        raise ValueError("reduced model is not nested in the full model")

    lp_full = full_fit.loglik - 0.5 * full_fit.penalty_value
    lp_reduced = reduced_fit.loglik - 0.5 * reduced_fit.penalty_value
    direct = -2.0 * (lp_reduced - lp_full)

    y = full_fit.dataset.counts
    mask = y > 0
    log_ratio = np.log(full_fit.fitted_probs[mask]) - np.log(reduced_fit.fitted_probs[mask])
    crossed = float(y[mask] @ log_ratio)
    expanded = 2.0 * crossed + reduced_fit.penalty_value - full_fit.penalty_value

    tol = 1e-8 * max(1.0, abs(expanded)) + 1e-12 * (
        abs(full_fit.loglik) + abs(reduced_fit.loglik)
    )
    if abs(direct - expanded) > tol:
        raise RuntimeError(
            "penalized likelihood-ratio forms disagree "
            f"({direct:.10g} vs {expanded:.10g}); the fits are inconsistent"
        )
    return direct


def effective_dimension(spec: ModelSpec, penalty: PenaltyConfig | None = None) -> int:
    """Parameter count after freezing heavily smoothed blocks.

    Each block whose smoothing level reaches ``HEAVY_LAMBDA`` loses the
    row rank of its stacked penalty operators, which leaves exactly the
    dimension of the operator null space (one shared value under a
    first-difference penalty, a low-order surface under higher-order
    ones).  Ordering penalties never constrain dimension: they vanish
    on an open set.
    """
    dim = spec.layout.size
    if penalty is None:
        return dim
    heavy: dict[tuple[int, str], list[np.ndarray]] = {}
    for (key, var), lam, op in penalty.block_operators(spec):
        if lam >= HEAVY_LAMBDA:
            heavy.setdefault((key, var), []).append(op)
    for stacked in heavy.values():
        dim -= int(np.linalg.matrix_rank(np.vstack(stacked)))
    return dim


def structural_df(
    full_spec: ModelSpec,
    full_penalty: PenaltyConfig | None,
    reduced_spec: ModelSpec,
    reduced_penalty: PenaltyConfig | None,
) -> int:
    """Degrees of freedom between two effectively constrained models."""
    if not is_nested(reduced_spec, full_spec):
        raise ValueError("reduced model is not nested in the full model")
    df = effective_dimension(full_spec, full_penalty) - effective_dimension(
        reduced_spec, reduced_penalty
    )
    if df < 0:
        raise ValueError(
            "full model has lower effective dimension than the reduced model; "
            "heavy smoothing inverted the nesting"
        )
    return df


def _block_lambdas(config: PenaltyConfig, spec: ModelSpec) -> dict[tuple[int, str], float]:
    """Largest smoothing level applied to each (equation, variable) block."""
    out: dict[tuple[int, str], float] = {}
    for (key, var), lam, _ in config.block_operators(spec):
        prev = out.get((key, var), 0.0)
        if lam > prev:
            out[(key, var)] = lam
    return out


EXCLUDED, FLATTENED = "excluded", "flattened"


def _constrained_blocks(
    full_spec: ModelSpec, reduced_spec: ModelSpec
) -> list[tuple[tuple[int, str], str]]:
    """Blocks of the full model that the reduced model constrains.

    Each block is marked ``EXCLUDED`` (its variable leaves the equation)
    or ``FLATTENED`` (its category-specific coefficients share one
    value).  The order is equations 1, 2 and 3, each in its ``included``
    order, then a flattened association intercept.
    """
    blocks: list[tuple[tuple[int, str], str]] = []
    for k in (1, 2, 3):
        f = full_spec.equation(k)
        r = reduced_spec.equation(k)
        for var in f.included:
            if var not in r.included:
                blocks.append(((k, var), EXCLUDED))
            elif var in f.category_dependent and var not in r.category_dependent:
                blocks.append(((k, var), FLATTENED))
    if reduced_spec.uniform_association and not full_spec.uniform_association:
        blocks.append(((3, INTERCEPT), FLATTENED))
    return blocks


def ppom_chi2_test(full_fit: FitResult, reduced_fit: FitResult) -> LrpResult:
    """Chi-squared approximate test of a nested hypothesis.

    The statistic is referred to chi-squared on the structural degrees
    of freedom.  The approximation assumes unsmoothed tested blocks and
    matched smoothing elsewhere; violations are reported as warnings
    rather than errors because the statistic itself is still well
    defined.  Smoothing a tested block can only lower the statistic,
    since the extra penalty vanishes on the reduced model's constrained
    block, so there the reference is conservative; ``gray_law`` gives
    the statistic's law.
    """
    statistic = lrp_statistic(full_fit, reduced_fit)
    df = structural_df(
        full_fit.spec, full_fit.penalty, reduced_fit.spec, reduced_fit.penalty
    )

    warnings: list[str] = []
    full_lams = _block_lambdas(full_fit.penalty, full_fit.spec)
    red_lams = _block_lambdas(reduced_fit.penalty, reduced_fit.spec)
    tested = [key for key, _ in _constrained_blocks(full_fit.spec, reduced_fit.spec)]
    for key in tested:
        if key in full_lams:
            warnings.append(
                f"tested block eq{key[0]}:{key[1]} is smoothed at "
                f"lambda={full_lams[key]:g}; the chi-squared reference is conservative there"
            )
    shared = set(full_lams) | set(red_lams)
    for key in sorted(shared - set(tested)):
        lf = full_lams.get(key, 0.0)
        lr = red_lams.get(key, 0.0)
        if not math.isclose(lf, lr, rel_tol=1e-12, abs_tol=0.0):
            warnings.append(
                f"block eq{key[0]}:{key[1]} is smoothed differently in the two fits "
                f"(lambda {lf:g} vs {lr:g}); the statistic mixes fit and penalty changes"
            )

    if df == 0:
        p = 1.0 if statistic < 1e-8 else 0.0
    else:
        p = float(_chi2_sf(statistic, df))
    return LrpResult(
        statistic=float(statistic),
        df=df,
        p_value_chi2=p,
        method="chi2_approx",
        warnings=tuple(warnings),
    )


def _local_law(
    F: np.ndarray, delta: np.ndarray, P: np.ndarray, score_mean: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and shifts of the local law of the statistic for delta = 0.

    Near the null the penalized log-likelihood is quadratic, with
    curvature H = F + P and a score s ~ N(score_mean, F).  Both fits
    maximize it, so the statistic is r' S^{-1} r, where S is the Schur
    complement of H_gg in H and r = s_d - H_dg H_gg^{-1} s_g.  Whitening
    r by its covariance V = R'R gives sum alpha_j (Z_j + b_j)^2, with
    (alpha, Q) the eigenpairs of R S^{-1} R' and b = Q' R'^{-1} E[r].
    Without a penalty every weight is exactly one and nothing shifts.
    """
    if not P.any():
        return np.ones(delta.size), np.zeros(delta.size)
    n = F.shape[0]
    H = F + P
    gamma = np.setdiff1d(np.arange(n), delta)
    L = np.zeros((delta.size, n))
    L[:, delta] = np.eye(delta.size)
    if gamma.size:
        L[:, gamma] = -scipy.linalg.solve(
            H[np.ix_(gamma, gamma)], H[np.ix_(gamma, delta)], assume_a="pos"
        ).T
    S = L @ H[:, delta]
    V = L @ F @ L.T
    R = scipy.linalg.cholesky(0.5 * (V + V.T))
    C = R @ scipy.linalg.solve(0.5 * (S + S.T), R.T, assume_a="pos")
    alpha, Q = np.linalg.eigh(0.5 * (C + C.T))
    if alpha.min() < -1e-8 or alpha.max() > 1.0 + 1e-8:
        raise FloatingPointError(
            f"mixture weights escaped [0, 1]: range [{alpha.min():g}, {alpha.max():g}]"
        )
    shifts = Q.T @ scipy.linalg.solve_triangular(R, L @ score_mean, trans="T")
    return np.clip(alpha, 0.0, 1.0)[::-1], shifts[::-1]


def gray_law(
    F: np.ndarray,
    P: np.ndarray,
    beta: np.ndarray,
    excluded=(),
    flattened=(),
) -> tuple[np.ndarray, np.ndarray]:
    """Null law of the statistic for a hypothesis, near ``beta``.

    The hypothesis is that the entries ``excluded`` are zero and that the
    entries of each block in ``flattened`` share one value.  Writing each
    flattened block as c 1 + B delta, with B its normalized Helmert
    contrasts, turns the whole hypothesis into a zero-effect test of the
    excluded entries and the contrasts.  ``F`` is the unpenalized
    information and ``P`` the full model's (n, n) penalty matrix, of
    which only the symmetric part counts; it must vanish on a constant
    flattened block, as difference penalties do, so that the reduced
    model carries the same penalty.  ``beta`` is a point of the
    hypothesis, the true coefficients in a simulation.  Its penalized
    score has mean -P beta: smoothing biases both fits, and the part of
    that bias the tested entries can absorb shifts the statistic.
    The law is sum alpha_j (Z_j + b_j)^2; the function returns the weights
    alpha and the shifts b.  Without a penalty every weight is one and
    nothing shifts.  The law depends neither on the order of the entries
    nor on the choice of B.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    if F.shape != (n, n):
        raise ValueError("information matrix must be square")
    P = np.asarray(P, dtype=float)
    if P.shape != (n, n):
        raise ValueError(f"penalty matrix shape {P.shape} does not match ({n}, {n})")
    P = 0.5 * (P + P.T)
    excluded = np.asarray(excluded, dtype=int).reshape(-1)
    blocks = [np.asarray(block, dtype=int).reshape(-1) for block in flattened]
    tested = np.concatenate([excluded, *blocks])
    if tested.size == 0:
        raise ValueError("no tested indices given")
    if np.unique(tested).size != tested.size:
        raise ValueError("tested indices repeat")
    if tested.min() < 0 or tested.max() >= n:
        raise ValueError("tested indices fall outside the parameter vector")
    beta = np.asarray(beta, dtype=float)
    if not np.allclose(beta[excluded], 0.0, rtol=0.0, atol=1e-12):
        raise ValueError("beta violates the hypothesis: an excluded entry is not zero")
    T = np.eye(n)
    for block in blocks:
        k = block.size
        if k < 2:
            raise ValueError("a flattening hypothesis needs a block of two or more entries")
        ones = np.ones(k)
        if not np.allclose(P[:, block] @ ones, 0.0, atol=1e-10 * max(1.0, np.abs(P).max())):
            raise ValueError("the penalty does not vanish on a constant block")
        if not np.allclose(beta[block], beta[block[0]], rtol=0.0, atol=1e-12):
            raise ValueError("beta violates the hypothesis: block entries differ")
        # normalized Helmert contrasts: column j averages the first j
        # entries against entry j
        i, j = np.arange(k)[:, None], np.arange(1, k)
        B = ((i < j) - j * (i == j)) / np.sqrt(j * (j + 1))
        T[np.ix_(block, block)] = np.column_stack([ones, B])
    tested = np.concatenate([excluded, *(block[1:] for block in blocks)])
    return _local_law(T.T @ F @ T, tested, T.T @ P @ T, T.T @ (-P @ beta))


# The fixed Talbot contour of Abate and Whitt (2006, "A unified framework
# for numerically inverting Laplace transforms", INFORMS J. Computing 18):
# a function on x > 0 is Re sum_k g_k F(z_k / x) / x, for a transform F
# whose singularities lie on the negative real axis.  The contour points
# z_k / x scale with 1 / x, so the factor exp(x s) of each point s is the
# same for every x and is folded into g_k.  With M = 32 points the mixture
# tails agree with Imhof's (1961) integral to about 2e-11; at M = 64
# rounding costs digits.


def _talbot_contour(m: int) -> tuple[np.ndarray, np.ndarray]:
    theta = np.arange(1, m) * np.pi / m
    cot = 1.0 / np.tan(theta)
    r = 0.4 * m  # the radius 2M / (5x) at x = 1
    z = r * np.concatenate([[1.0], theta * (cot + 1j)])
    g = np.concatenate([[0.5], 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)])
    return z, g * np.exp(z) * r / m


_TALBOT_Z, _TALBOT_G = _talbot_contour(32)


def _mixture_law(weights, shifts=None) -> tuple[np.ndarray, np.ndarray]:
    """The positive weights w of sum w_j (Z_j + b_j)^2 and their squared
    shifts b_j^2; a zero weight drops out with its shift."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size == 0:
        raise ValueError("no mixture weights given")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ValueError("mixture weights must be finite and nonnegative")
    b = np.zeros(w.size) if shifts is None else np.asarray(shifts, dtype=float).reshape(-1)
    if b.shape != w.shape:
        raise ValueError("one shift per mixture weight is needed")
    if not np.isfinite(b).all():
        raise ValueError("mixture shifts must be finite")
    kept = w > 0.0
    return w[kept], b[kept] ** 2


def _mixture_tail_density(x: float, w: np.ndarray, b2: np.ndarray) -> tuple[float, float]:
    """P(X > x) and the density at x > 0 of X = sum w_j (Z_j + b_j)^2.

    Both invert the Laplace transform of X, L(s) = prod (1 + 2 w_j s)^(-1/2)
    exp(-sum w_j b_j^2 s / (1 + 2 w_j s)): the density as it is, and the
    tail as (1 - L(s)) / s, the transform of the tail itself, so that a
    small tail is not the difference of two numbers near one.
    """
    s = _TALBOT_Z / x
    u = 1.0 + 2.0 * np.multiply.outer(s, w)
    log_l = -0.5 * np.log(u).sum(axis=1) - (s[:, None] * (w * b2) / u).sum(axis=1)
    tail = float((_TALBOT_G * (-np.expm1(log_l) / s)).real.sum()) / x
    density = float((_TALBOT_G * np.exp(log_l)).real.sum()) / x
    return min(max(tail, 0.0), 1.0), density


def weighted_chisq_pvalue(statistic: float, weights) -> float:
    """Upper tail P(X > statistic) of X = sum w_j Z_j^2.

    Equal weights make X a scaled chi-squared, whose tail is exact.
    Otherwise the tail inverts the Laplace transform of X on the fixed
    Talbot contour; its absolute error is about 2e-11, so smaller tails
    are not resolved.  Weights that are all zero make X the point mass at 0.
    """
    w, b2 = _mixture_law(weights)
    if not w.size:
        return 1.0 if statistic < 0.0 else 0.0
    if (w == w[0]).all():
        return float(_chi2_sf(statistic / w[0], w.size))
    if statistic <= 0.0:
        return 1.0
    return _mixture_tail_density(statistic, w, b2)[0]


def weighted_chisq_quantile(level: float, weights, shifts=None) -> float:
    """Quantile of X = sum w_j (Z_j + b_j)^2 at ``level``; ``shifts`` are the b.

    Equal weights and no shifts make X a scaled chi-squared, whose
    quantile is exact.  Otherwise Newton's method solves for the tail of
    ``weighted_chisq_pvalue``'s inversion, started from the scaled
    chi-squared with the mean and variance of X; a step that leaves the
    bracket of the root bisects it instead, or doubles x while the
    bracket is open above.
    """
    w, b2 = _mixture_law(weights, shifts)
    if not 0.0 < level < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    if not w.size:
        return 0.0
    if not b2.any() and (w == w[0]).all():
        return float(w[0] * _chi2_ppf(level, w.size))
    alpha = 1.0 - level
    mean, var = w @ (1.0 + b2), 2.0 * (w * w) @ (1.0 + 2.0 * b2)
    x = float(var / (2.0 * mean) * _chi2_ppf(level, 2.0 * mean**2 / var))
    lo, hi = 0.0, math.inf
    for _ in range(60):
        tail, density = _mixture_tail_density(x, w, b2)
        if tail > alpha:
            lo = x
        else:
            hi = x
        new = x + (tail - alpha) / density if density > 0.0 else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        if abs(new - x) <= 1e-10 * x:
            return new
        x = new
    return x


def _excluded_indices(spec: ModelSpec, blocks) -> np.ndarray:
    """Entries of ``spec``'s parameter vector in the excluded ``blocks``,
    in their order; a flattened block has no zero-effect form here."""
    if any(kind == FLATTENED for _, kind in blocks):
        raise ValueError("mc p-value supports variable-exclusion hypotheses only")
    if not blocks:
        raise ValueError("mc p-value needs at least one excluded variable")
    spans = [spec.layout.block(*key) for key, _ in blocks]
    return np.concatenate([np.arange(b.start, b.start + b.length) for b in spans])


def _exclusion_law(
    dataset: Dataset,
    full_spec: ModelSpec,
    reduced_fit: FitResult,
    P: np.ndarray,
    excluded: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The Gray law of ``lr_test``'s exclusion hypothesis, as it describes."""
    beta = np.zeros(full_spec.layout.size)
    for block in reduced_fit.layout.blocks:
        target = full_spec.layout.block(block.equation, block.variable)
        beta[target.slice] = reduced_fit.beta_hat[block.slice]
    F = unpenalized_fisher(beta, dataset, full_spec)
    return gray_law(F, P, np.zeros_like(beta), excluded=excluded)


def lr_test(
    dataset: Dataset,
    full_spec: ModelSpec,
    full_penalty: PenaltyConfig,
    reduced_spec: ModelSpec,
    reduced_penalty: PenaltyConfig,
    options: FitOptions | None,
    mixture: bool = False,
) -> tuple[LrpResult | None, FitResult | None, FitResult | None]:
    """Penalized likelihood-ratio test of ``reduced_spec`` within ``full_spec``.

    The hypothesis is checked before anything is fitted: a pair that is
    not nested or whose nesting heavy smoothing inverts raises
    ValueError, and so does ``mixture`` when the hypothesis is not
    whole-variable exclusion or when the full penalty has an ordering
    term.  An identical pair is the null test, statistic 0 on 0 df with
    p = 1, and fits nothing.  Otherwise both models are fitted and the
    statistic is referred to chi-squared on the structural degrees of
    freedom (``ppom_chi2_test``).  With ``mixture`` it is also referred
    to Gray's mixture by ``weighted_chisq_pvalue``: ``gray_law`` at
    beta = 0, unshifted, with the unpenalized information at the reduced
    estimate, embedded in the full layout with the excluded entries zero,
    and the full model's penalty.  A flattening hypothesis stays refused:
    its law needs the shift at a point of the hypothesis, which a test on
    data does not know, and without that shift the mixture over-rejects
    (0.139 and 0.626 at lambda = 10 and 50 in the null calibration).

    Returns the result and the full and reduced fits; the result is None
    when either fit failed, which that fit reports.
    """
    structural_df(full_spec, full_penalty, reduced_spec, reduced_penalty)
    if full_spec == reduced_spec and full_penalty == reduced_penalty:
        return LrpResult(0.0, 0, 1.0), None, None
    if mixture:
        delta = _excluded_indices(full_spec, _constrained_blocks(full_spec, reduced_spec))
        P = build_penalty_matrix(full_penalty, full_spec)

    full_fit = fit(dataset, full_spec, full_penalty, options)
    reduced_fit = fit(dataset, reduced_spec, reduced_penalty, options)
    if full_fit.fisher_scoring_failed or reduced_fit.fisher_scoring_failed:
        return None, full_fit, reduced_fit
    result = ppom_chi2_test(full_fit, reduced_fit)
    if mixture:
        weights = _exclusion_law(dataset, full_spec, reduced_fit, P, delta)[0]
        result = dataclasses.replace(
            result,
            p_value_mc=weighted_chisq_pvalue(result.statistic, weights),
            method="gray_weighted",
        )
    return result, full_fit, reduced_fit


@dataclass(frozen=True)
class ProfilePoint:
    """One fit of an AIC profile; a failed fit has NaN ``aic`` and ``edf``."""

    order: int
    lam: float
    aic: float
    edf: float
    converged: bool


def _profile_penalty(order: int, lam: float) -> PenaltyConfig:
    if lam == 0.0:
        return PenaltyConfig.none()
    keys = {(3, INTERCEPT): lam, (4, INTERCEPT): lam}
    return PenaltyConfig.arc2(keys, {k: order for k in keys})


def aic_profile(
    dataset: Dataset,
    spec: ModelSpec,
    orders: Sequence[int],
    lambdas: Sequence[float],
    options: FitOptions | None = None,
) -> tuple[list[ProfilePoint], FitResult | None]:
    """AIC of arc2 smoothing of the association intercepts along both
    streams of cut points, over difference ``orders`` and ``lambdas``
    (0: no penalty).

    An order the intercepts cannot take, nothing to smooth or a given
    ``options.start`` raises ValueError before any fit.  Per order the
    fits walk the lambdas upwards, each warm started from the last
    converged fit of its order, or from ``default_start`` before one.
    The walk takes each lambda once, with one ``fit_batch`` call across
    the orders; each fit has the bits of that order's chain of solo
    fits.  A fit that stops without converging is a failed point.  An
    exception from ``fit_batch`` propagates; the starts, ``default_start``
    and converged fits, have positive cells, so none is expected.
    Returns the points in (order, lambda) order and the converged fit
    with the least AIC, taken in the order of ``orders`` and then of the
    lambdas, None when no fit converged.
    """
    options = options if options is not None else FitOptions()
    if options.start is not None:
        raise ValueError("aic_profile warm starts its own fits; give no options.start")
    for order in orders:
        if not _profile_penalty(order, 1.0).block_operators(spec):
            raise ValueError("the model's association intercepts have nothing to smooth")
    lambdas = sorted(float(v) for v in lambdas)
    starts = np.tile(default_start(dataset, spec), (len(orders), 1))
    # fits[i][j]: order i at lambda j, None when it failed
    fits: list[list[FitResult | None]] = [[] for _ in orders]
    for lam in lambdas:
        configs = [_profile_penalty(order, lam) for order in orders]
        results = fit_batch(
            [dataset] * len(orders), spec, configs, dataclasses.replace(options, start=starts)
        )
        for i, res in enumerate(results):
            ok = not res.fisher_scoring_failed
            fits[i].append(res if ok else None)
            if ok:
                starts[i] = res.beta_hat
    points: list[ProfilePoint] = []
    best, best_aic = None, math.inf
    for order, row in zip(orders, fits):
        for lam, res in zip(lambdas, row):
            if res is None:
                points.append(ProfilePoint(order, lam, math.nan, math.nan, False))
                continue
            points.append(ProfilePoint(order, lam, res.aic, res.edf, True))
            if res.aic < best_aic:
                best, best_aic = res, res.aic
    points.sort(key=lambda p: (p.order, p.lam))
    return points, best


def default_null_calibration_truth(n: int = 400) -> GeneratingModel:
    """Generating model whose association effect is global.

    A 3x3 response pair with one balanced binary covariate that enters
    every equation with category-dependent coefficients, yet the
    association block coefficients are all equal, so the hypothesis
    that the covariate acts globally on the association holds exactly.
    """
    spec = ModelSpec(
        pair=OrdinalPair(3, 3),
        covariate_names=("x",),
        eq1=EquationTerms(included=("x",), category_dependent=("x",)),
        eq2=EquationTerms(included=("x",), category_dependent=("x",)),
        eq3=EquationTerms(included=("x",), category_dependent=("x",)),
    )
    beta = np.concatenate(
        [
            [-0.5, 0.5],
            [-0.3, 0.3],
            [-0.1, 0.6],
            [-0.2, 0.4],
            [1.5, 2.0, 2.5, 3.0],
            [-0.5, -0.5, -0.5, -0.5],
        ]
    )
    law = CovariateLaw.bernoulli(0.5)
    return GeneratingModel(spec=spec, beta_true=beta, law=law, n=n)


def with_global_effect(spec: ModelSpec, equation: int, variable: str) -> ModelSpec:
    """Copy of ``spec`` with one term demoted to a global coefficient."""
    terms = spec.equation(equation)
    if variable not in terms.included:
        raise ValueError(f"variable {variable!r} is not in equation {equation}")
    if variable not in terms.category_dependent:
        return spec
    demoted = EquationTerms(
        included=terms.included,
        category_dependent=tuple(v for v in terms.category_dependent if v != variable),
    )
    fields = {1: "eq1", 2: "eq2", 3: "eq3"}
    return dataclasses.replace(spec, **{fields[equation]: demoted})


@dataclass(frozen=True)
class NullReplicateRecord:
    """One fitted replicate at one smoothing level."""

    replicate: int
    lam: float
    statistic: float
    converged: bool


@dataclass(frozen=True)
class LambdaNullSummary:
    """Distributional summary of the converged statistics at one level.

    ``rejection_rate`` refers the statistics to chi-squared on the
    structural degrees of freedom, ``rejection_rate_mixture`` to the
    mixture sum w_j (Z_j + b_j)^2 with w ``mixture_weights`` and b
    ``mixture_shifts``; both at the 5% level.
    """

    lam: float
    statistics: np.ndarray
    n_failed: int
    rejection_rate: float
    ks_distance: float
    mixture_weights: np.ndarray
    mixture_shifts: np.ndarray
    rejection_rate_mixture: float


@dataclass(frozen=True)
class LrpNullResult:
    df: int
    seed: int
    replicates: int
    lambdas: tuple[float, ...]
    records: tuple[NullReplicateRecord, ...]
    summaries: tuple[LambdaNullSummary, ...]

    def rows(self) -> list[tuple[int, float, float, bool]]:
        """Flat records for serialization."""
        return [(r.replicate, r.lam, r.statistic, r.converged) for r in self.records]


def _null_penalty(lam: float, spec: ModelSpec) -> PenaltyConfig:
    """One smoothing level for the association equation's penalizable blocks.

    The level applies to the association intercepts and to every
    category-dependent covariate block of equation 3 the spec has, so
    the full model's tested block is smoothed while the reduced model,
    whose corresponding coefficient is global, carries only the shared
    intercept smoothing.  The statistic stays nonnegative because the
    extra penalty vanishes on constant blocks.
    """
    if lam == 0.0:
        return PenaltyConfig.none()
    lambdas: dict[tuple[int, str], float] = {(3, INTERCEPT): lam}
    for var in spec.eq3.category_dependent:
        lambdas[(3, var)] = lam
    return PenaltyConfig.arc1(lambdas)


def _null_chunk(args) -> tuple[list[NullReplicateRecord], np.ndarray]:
    """Records and the unpenalized information at ``beta_true`` of the
    replicates first .. stop - 1.

    Replicate r draws its data from stream r of the seed.  Each model
    fits every (replicate, level) pair of the chunk in one ``fit_batch``
    call, one penalty per pair, and each fit has the bits it would get
    alone, so the outputs do not depend on where the chunks start.
    """
    truth, reduced_spec, lambdas, seed, first, stop = args
    replicates = range(first, stop)
    datasets = [sample_dataset(truth, seed=seed, stream=r) for r in replicates]
    n = len(datasets)
    # level j of replicate i is pair j * n + i
    full, reduced = (
        fit_batch(datasets * len(lambdas), spec, [
            config for lam in lambdas for config in [_null_penalty(lam, spec)] * n
        ])
        for spec in (truth.spec, reduced_spec)
    )
    records = []
    for i, r in enumerate(replicates):
        for j, lam in enumerate(lambdas):
            full_fit, reduced_fit = full[j * n + i], reduced[j * n + i]
            ok = not (full_fit.fisher_scoring_failed or reduced_fit.fisher_scoring_failed)
            statistic = lrp_statistic(full_fit, reduced_fit) if ok else float("nan")
            records.append(NullReplicateRecord(r, lam, float(statistic), ok))
    return records, unpenalized_fisher_batch(truth.beta_true, datasets, truth.spec)


def simulate_lrp_null(
    truth: GeneratingModel | None = None,
    replicates: int = 1500,
    lambdas: tuple[float, ...] = (0.0, 1.0, 10.0, 50.0),
    seed: int = 0,
    threads: int = 1,
) -> LrpNullResult:
    """Null distribution of the statistic under smoothing of the association.

    Draws datasets from a truth in which the covariate's association
    effect is global, then tests exactly that hypothesis: the full
    model keeps the effect category dependent, the reduced model
    flattens it.  At each level of ``lambdas`` both models carry
    first-difference smoothing of the association equation's
    penalizable blocks, so the shared intercept smoothing matches
    while the tested block is smoothed in the full model only; heavy
    levels shrink the full fit onto the reduced one and the statistic
    collapses toward zero.  Replicate r uses stream r of the seed, so
    any subset of replicates can be reproduced independently.  Jobs of
    ``NULL_CHUNK`` replicates are fitted in lockstep by ``fit_batch``,
    one stack per model over every (replicate, level) pair of the job,
    which gives each fit the bits of a fit on its own, so the outputs
    depend neither on the chunk size nor on ``threads``.
    Replicates where either fit fails are excluded from the summaries
    and counted.

    Each level also gets the statistic's own reference: ``gray_law``
    of the flattening at the true coefficients, with the mean
    unpenalized information over the simulated designs and the full
    model's penalty, and its 5% critical value by
    ``weighted_chisq_quantile``.  The levels must not repeat.
    """
    if truth is None:
        truth = default_null_calibration_truth()
    variable = truth.spec.covariate_names[0]
    terms = truth.spec.eq3
    if variable not in terms.category_dependent:
        raise ValueError(
            "the full model must keep the covariate category dependent in the "
            "association equation"
        )
    layout = truth.spec.layout
    block = layout.block(3, variable)
    values = truth.beta_true[block.slice]
    if not np.allclose(values, values[0], rtol=0.0, atol=1e-12):
        raise ValueError(
            "truth violates the hypothesis: association block coefficients differ"
        )
    if replicates <= 0:
        raise ValueError("replicate count must be positive")
    if len(set(lambdas)) != len(lambdas):
        raise ValueError("smoothing levels repeat")

    reduced_spec = with_global_effect(truth.spec, 3, variable)
    df = structural_df(truth.spec, None, reduced_spec, None)

    jobs = [
        (truth, reduced_spec, tuple(lambdas), seed, first, min(first + NULL_CHUNK, replicates))
        for first in range(0, replicates, NULL_CHUNK)
    ]
    records: list[NullReplicateRecord] = []
    F = np.zeros((layout.size, layout.size))
    for chunk_records, chunk_F in _pool_map(_null_chunk, jobs, threads):
        records.extend(chunk_records)
        for F_r in chunk_F:
            F += F_r
    F /= replicates

    cutoff = float(_chi2_ppf(0.95, df))
    tested = np.arange(block.start, block.start + block.length)
    summaries: list[LambdaNullSummary] = []
    for lam in lambdas:
        P = build_penalty_matrix(_null_penalty(lam, truth.spec), truth.spec)
        weights, shifts = gray_law(F, P, truth.beta_true, flattened=[tested])
        mixture_cutoff = weighted_chisq_quantile(0.95, weights, shifts)
        stats_lam = np.array(
            [r.statistic for r in records if r.lam == lam and r.converged]
        )
        n_failed = sum(1 for r in records if r.lam == lam and not r.converged)
        if stats_lam.size:
            rejection = float(np.mean(stats_lam > cutoff))
            rejection_mixture = float(np.mean(stats_lam > mixture_cutoff))
            ks = _chi2_ks_distance(stats_lam, df)
        else:
            rejection = rejection_mixture = float("nan")
            ks = float("nan")
        summaries.append(
            LambdaNullSummary(
                lam=float(lam),
                statistics=stats_lam,
                n_failed=n_failed,
                rejection_rate=rejection,
                ks_distance=ks,
                mixture_weights=weights,
                mixture_shifts=shifts,
                rejection_rate_mixture=rejection_mixture,
            )
        )

    return LrpNullResult(
        df=df,
        seed=seed,
        replicates=replicates,
        lambdas=tuple(float(l) for l in lambdas),
        records=tuple(records),
        summaries=tuple(summaries),
    )
