"""Bijection between cell probabilities and the marginal/association predictor.

For cut points r, c the predictor collects global logits of the two
margins and log global odds ratios

    log psi_rc = log[ mu_rc (1 - mu_r - mu_c + mu_rc) ]
               - log[ (mu_r - mu_rc) (mu_c - mu_rc) ]

where mu_rc is the joint cumulative probability P(A1 <= r, A2 <= c).
Both directions are smooth; the inverse solves a quadratic per cut point
(Plackett) and recovers cells by double differencing the cumulative grid.

The Jacobian d pi / d eta follows that inverse by the chain rule (Dale
1986): d mu_r / d eta_r = mu_r (1 - mu_r) for the expit margins; the
implicit derivative of the Plackett equation gives, with q1..q4 the
quadrant probabilities at (r, c) (both low, A1 low, A2 low, both high)
and S = sum_k 1/q_k,

    d mu_rc / d log psi_rc = 1/S
    d mu_rc / d mu_r       = (1/q2 + 1/q4) / S
    d mu_rc / d mu_c       = (1/q3 + 1/q4) / S

and double differencing carries the grid derivatives to the cells.  The
null contrast eta_0 = log sum(pi) scales every cell, so its column is pi.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import expit, logit

from .model_core import OrdinalPair


class IncompatibleEta(ValueError):
    """Predictor maps to a table with a nonpositive cell.

    Recoverable: the estimator treats it as a rejected trial step.
    """


def pi_to_eta(pi: np.ndarray, pair: OrdinalPair | None = None) -> np.ndarray:
    """Predictor vector of a strictly positive probability table."""
    pi = np.asarray(pi, dtype=float)
    if pair is None:
        pair = OrdinalPair(*pi.shape)
    pi = pi.reshape(pair.d1, pair.d2)
    if (pi <= 0).any():
        raise ValueError("cell probabilities must be strictly positive")
    if abs(pi.sum() - 1.0) > 1e-8:
        raise ValueError("cell probabilities must sum to 1")

    # cumulative grid, mu[r, c] = P(A1 <= r, A2 <= c), 1-based cuts
    mu = pi.cumsum(axis=0).cumsum(axis=1)
    mu_r = mu[:-1, -1]
    mu_c = mu[-1, :-1]

    eta = np.empty(pair.n_eta)
    eta[0] = 0.0
    eta[1 : 1 + pair.m1] = logit(mu_r)
    eta[1 + pair.m1 : 1 + pair.m1 + pair.m2] = logit(mu_c)
    joint = mu[:-1, :-1]
    num = joint * (1.0 - mu_r[:, None] - mu_c[None, :] + joint)
    den = (mu_r[:, None] - joint) * (mu_c[None, :] - joint)
    eta[1 + pair.m1 + pair.m2 :] = (np.log(num) - np.log(den)).reshape(-1)
    return eta


def _plackett_inverse(mu_r: np.ndarray, mu_c: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Joint cumulative probability with given margins and odds ratios psi > 0.

    Root of psi = mu(1-mu_r-mu_c+mu) / ((mu_r-mu)(mu_c-mu)), equal to
    (a - sqrt(a^2 + b)) / (2 (psi-1)) with a = 1 + (mu_r+mu_c)(psi-1)
    and b = -4 psi (psi-1) mu_r mu_c, and to mu_r*mu_c at psi = 1.

    Evaluated in equivalent cancellation-free forms so the function is
    smooth through psi = 1 and stable for extreme odds ratios.
    """
    psi, prod, s = np.broadcast_arrays(psi, mu_r * mu_c, mu_r + mu_c)

    near_one = np.abs(psi - 1.0) < 1e-8
    hi = (psi >= 1.0) & ~near_one
    lo = (psi < 1.0) & ~near_one
    out = np.empty(psi.shape)
    for part, form in ((near_one, _plackett_at_one), (hi, _plackett_above_one),
                       (lo, _plackett_below_one)):
        if part.all():  # one form covers everything: no masked copies
            out = form(prod, s, psi)
            break
        if part.any():
            out[part] = form(prod[part], s[part], psi[part])
    return out


def _plackett_at_one(prod, s, psi):
    return prod.copy()


def _plackett_above_one(prod, s, psi):
    # scaled by 1/psi so a^2 never overflows for huge odds ratios
    t = 1.0 / psi
    a_t = t + s * (1.0 - t)
    b_t = -4.0 * (1.0 - t) * prod
    disc = _clamped_sqrt(a_t * a_t + b_t)
    return 2.0 * prod / (a_t + disc)


def _plackett_below_one(prod, s, psi):
    a = 1.0 + s * (psi - 1.0)
    b = -4.0 * psi * (psi - 1.0) * prod
    disc = _clamped_sqrt(a * a + b)
    # np.where evaluates both branches; the discarded conjugate form
    # divides by a + disc = 0 when a < 0 and psi underflows
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            a > 0,
            2.0 * psi * prod / (a + disc),  # conjugate, no cancellation
            (a - disc) / (2.0 * (psi - 1.0)),
        )


def _clamped_sqrt(x: np.ndarray) -> np.ndarray:
    if (x < -1e-12).any():
        raise FloatingPointError("negative discriminant in Plackett inversion")
    return np.sqrt(np.maximum(x, 0.0))


def _cells_unchecked(eta: np.ndarray, pair: OrdinalPair) -> np.ndarray:
    """Double-differenced cell table, (m, d1, d2); entries may be <= 0."""
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    m = eta.shape[0]
    if eta.shape[1] != pair.n_eta:
        raise ValueError(f"predictor length {eta.shape[1]}, expected {pair.n_eta}")

    bad = ~np.isfinite(eta).all(axis=1)
    safe = np.where(bad[:, None], 0.0, eta) if bad.any() else eta
    mu_r = expit(safe[:, 1 : 1 + pair.m1])
    mu_c = expit(safe[:, 1 + pair.m1 : 1 + pair.m1 + pair.m2])
    # cap so exp never overflows; beyond this the cells underflow anyway
    log_psi = np.minimum(np.maximum(safe[:, 1 + pair.m1 + pair.m2 :], -690.0), 690.0)
    psi = np.exp(log_psi).reshape(m, pair.m1, pair.m2)

    mu = np.zeros((m, pair.d1 + 1, pair.d2 + 1))
    mu[:, 1:-1, 1:-1] = _plackett_inverse(
        mu_r[:, :, None], mu_c[:, None, :], psi
    ).reshape(m, pair.m1, pair.m2)
    mu[:, 1:-1, -1] = mu_r
    mu[:, -1, 1:-1] = mu_c
    mu[:, -1, -1] = 1.0

    rows = mu[:, 1:] - mu[:, :-1]
    pi = rows[:, :, 1:] - rows[:, :, :-1]
    pi[bad] = np.nan
    return pi


def compatible_eta_mask(eta: np.ndarray, pair: OrdinalPair) -> np.ndarray:
    """Per-row flag: True when the predictor maps to strictly positive cells.

    The model family is not variation independent, so a predictor with
    in-range margins can still demand an impossible association; this is
    the non-raising counterpart of eta_to_pi_batch.
    """
    pi = _cells_unchecked(eta, pair)
    return np.all(np.isfinite(pi) & (pi > 0), axis=(1, 2))


def eta_to_pi_batch(eta: np.ndarray, pair: OrdinalPair) -> np.ndarray:
    """Cell probabilities for stacked predictors, shape (m, n_eta).

    Raises IncompatibleEta if any resulting cell is not strictly
    positive (margins out of order, or an incompatible association).
    """
    pi = _cells_unchecked(eta, pair)
    ok = np.all(np.isfinite(pi) & (pi > 0), axis=(1, 2))
    if not ok.all():
        bad = np.where(~ok)[0]
        raise IncompatibleEta(
            f"nonpositive cell probability for group index {bad[0]}"
        )
    m = pi.shape[0]
    return pi.reshape(m, pair.n_cells)


def eta_to_pi(eta: np.ndarray, pair: OrdinalPair) -> np.ndarray:
    """Cell probability table (d1 x d2) of a single predictor vector."""
    return eta_to_pi_batch(eta, pair)[0].reshape(pair.d1, pair.d2)


def d_pi_d_eta(pi: np.ndarray, pair: OrdinalPair | None = None) -> np.ndarray:
    """Jacobian d pi / d eta (n_cells, n_eta) at a positive table."""
    pi = np.asarray(pi, dtype=float)
    if pair is None:
        pair = OrdinalPair(*pi.shape)
    return d_pi_d_eta_batch(pi.reshape(pair.n_cells), pair)


@lru_cache(maxsize=None)
def _chain_rule_operands(d1: int, d2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant operands of the closed-form Jacobian.

    ``sums`` (4 m3, n_cells) is 0/1: it sums the cells of each quadrant
    (both low, A1 low, A2 low, both high) at every cut point, row-major
    over (r, c).

    The derivative values v = [pi, d mu_r/d eta_r, d mu_c/d eta_c,
    d mu_rc/d eta_r, d mu_rc/d eta_c, d mu_rc/d log psi_rc] enter the
    Jacobian by double differencing, so every Jacobian entry is one fixed
    0/+-1 combination of them.  ``combine`` holds the distinct
    combinations as columns and ``entry`` names the combination of each
    entry of the flattened (n_cells, n_eta) Jacobian: J = (v @ combine)[entry].
    """
    pair = OrdinalPair(d1, d2)
    m1, cells = pair.m1, pair.n_cells
    i, j = np.divmod(np.arange(cells), d2)
    low1 = (i < np.arange(1, d1)[:, None])[:, None, :]  # (m1, 1, cells)
    low2 = (j < np.arange(1, d2)[:, None])[None, :, :]  # (1, m2, cells)
    quads = [low1 & low2, low1 & ~low2, ~low1 & low2, ~low1 & ~low2]
    sums = np.stack(quads).reshape(-1, cells).astype(float)

    def bump(r: int, c: int) -> np.ndarray:
        """Cells' response to a unit change of grid point mu[r, c]."""
        mu = np.zeros((d1 + 1, d2 + 1))
        mu[r, c] = 1.0
        return np.diff(np.diff(mu, axis=0), axis=1).reshape(-1)

    # grid point and predictor column of each derivative value after pi
    cuts = [(r, c) for r in range(1, d1) for c in range(1, d2)]
    entries = (
        [(r, d2, r) for r in range(1, d1)]
        + [(d1, c, m1 + c) for c in range(1, d2)]
        + [(r, c, r) for r, c in cuts]
        + [(r, c, m1 + c) for r, c in cuts]
        + [(r, c, m1 + pair.m2 + k + 1) for k, (r, c) in enumerate(cuts)]
    )
    # int8, as a float placement of a 7x7 table and its sort take 12 MB
    place = np.zeros((cells + len(entries), cells, pair.n_eta), dtype=np.int8)
    place[np.arange(cells), np.arange(cells), 0] = 1
    for row, (r, c, col) in enumerate(entries, start=cells):
        place[row, :, col] = bump(r, c)
    combos, entry = np.unique(place.reshape(len(place), -1).T, axis=0, return_inverse=True)
    combine = combos.T.astype(float)
    entry = entry.reshape(-1)
    for a in (sums, combine, entry):
        a.setflags(write=False)
    return sums, combine, entry


def d_pi_d_eta_batch(pi: np.ndarray, pair: OrdinalPair) -> np.ndarray:
    """Stacked Jacobians for (..., n_cells) positive probability rows.

    Any leading axes are kept.  The matrix products run once per entry of
    the axes before the last two, so a replicate's Jacobians take the same
    arithmetic whatever the replicates stacked around it.
    """
    sums, combine, entry = _chain_rule_operands(pair.d1, pair.d2)
    # rows on the last axis, so each elementwise step runs along them
    x = np.atleast_2d(pi).mT
    q = sums @ x  # sums of positive cells only: no cancellation
    lead, rows = q.shape[:-2], q.shape[-1]
    q1, q2, q3, q4 = (
        q[..., k * pair.m3 : (k + 1) * pair.m3, :].reshape(*lead, pair.m1, pair.m2, rows)
        for k in range(4)
    )
    d_mu1 = (q1 + q2)[..., :, :1, :] * (q3 + q4)[..., :, :1, :]  # mu_r (1 - mu_r)
    d_mu2 = (q1 + q3)[..., :1, :, :] * (q2 + q4)[..., :1, :, :]
    # 1/q_k scaled by the smallest quadrant: every term is at most 1, so
    # nothing overflows when a quadrant is near zero
    least = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
    r2, r3, r4 = least / q2, least / q3, least / q4
    total = least / q1 + r2 + r3 + r4
    parts = [d_mu1, d_mu2, (r2 + r4) / total * d_mu1, (r3 + r4) / total * d_mu2, least / total]
    v = np.concatenate([x] + [a.reshape(*lead, -1, rows) for a in parts], axis=-2)
    J = (v.mT @ combine)[..., entry]
    return J.reshape(*np.shape(pi)[:-1], pair.n_cells, pair.n_eta)


def empirical_log_gors(counts: np.ndarray) -> np.ndarray:
    """Observed log global odds ratios of a count table.

    Returns an (d1-1) x (d2-1) grid; cut points with an empty quadrant
    give +/-inf (nan when opposing quadrants are both empty).
    """
    cum = np.asarray(counts, dtype=float).cumsum(axis=0).cumsum(axis=1)
    both_low = cum[:-1, :-1]
    a1_low = cum[:-1, -1:] - both_low
    a2_low = cum[-1:, :-1] - both_low
    both_high = cum[-1, -1] - both_low - a1_low - a2_low
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(both_low * both_high) - np.log(a1_low * a2_low)
