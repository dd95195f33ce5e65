"""Quadratic penalties as sums of terms.

A penalty is a sum of terms of two kinds.  A block term puts a
quadratic difference penalty, in the sense of Eilers & Marx (1996), on
one parameter block, tau = lam * ||K beta_block||^2:

    ridge   K the identity                    (whole block to zero)
    arc1    K the first differences           (whole block to a constant)
    arc2    K the s-fold differences; on the association block two
            streams, one differencing across the first response's cuts
            and one across the second's

An ordering term is an asymmetric penalty on the fitted marginal
predictors,

    tau(beta) = sum_i n_i sum_{k=1,2} lambda_k
                sum_r 1[d_eta <= margin] (d_eta - margin)^2,

with d_eta the consecutive predictor differences of margin k at profile
i.  Its indicator depends on beta, so it is rebuilt each scoring step.

``PenaltyOperator`` evaluates a config within one scoring step: block
terms in factored form, ordering terms as ``ordering_state`` froze them.
``build_penalty_matrix`` and ``penalty_value`` take block terms only.

Only category-dependent blocks (and intercept blocks of length > 1) are
penalizable; a single collapsed association intercept silently receives
no penalty columns.

>>> difference_matrix(4, 1)
array([[-1.,  1.,  0.,  0.],
       [ 0., -1.,  1.,  0.],
       [ 0.,  0., -1.,  1.]])
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model_core import INTERCEPT, Dataset, ModelSpec, OrdinalPair, ParamLayout, design_matrices

_BLOCK_FAMILIES = ("ridge", "arc1", "arc2")


def difference_matrix(length: int, order: int) -> np.ndarray:
    """Order-th difference operator, shape (length - order, length)."""
    if order < 1 or order >= length:
        raise ValueError(f"difference order {order} invalid for block length {length}")
    D = np.eye(length)
    for _ in range(order):
        D = D[1:] - D[:-1]
    return D


@dataclass(frozen=True)
class PenaltyConfig:
    """A penalty as a sum of block terms and ordering terms.

    ``blocks`` holds terms ``(family, (key, variable), lam, order)`` with
    family ``ridge``, ``arc1`` or ``arc2`` and variable INTERCEPT or a
    covariate name.  ridge and arc1 key equations 1..3 and carry their
    difference order 0 and 1; arc2 keys streams 1..4 and carries its
    order: streams 1 and 2 act on the two marginal equations, streams 3
    and 4 on the association block (differences across the first and
    second response's cut points respectively).  ``orderings`` holds
    ordering terms ``(lambda1, lambda2, margin)``.

    The constructors build one family's terms; ``composite`` concatenates
    the terms of its parts in order, so equal sums compare equal.
    """

    blocks: tuple = ()
    orderings: tuple = ()

    def __post_init__(self) -> None:
        # NaN fails every comparison, so the checks ask for 0 <= v < inf
        smoothing = [lam for _, _, lam, _ in self.blocks]
        smoothing += [lam for lam1, lam2, _ in self.orderings for lam in (lam1, lam2)]
        if not all(0 <= lam < math.inf for lam in smoothing):
            raise ValueError("smoothing values must be finite and nonnegative")
        for family, _, _, order in self.blocks:
            if family not in _BLOCK_FAMILIES:
                raise ValueError(f"unknown penalty family {family!r}")
            if family == "arc2" and int(order) < 1:
                raise ValueError("difference order must be >= 1")
        if not all(0 <= margin < math.inf for _, _, margin in self.orderings):
            raise ValueError("ordering margin must be finite and nonnegative")

    @classmethod
    def none(cls) -> "PenaltyConfig":
        return cls()

    @classmethod
    def ridge(cls, lambdas: dict) -> "PenaltyConfig":
        return cls(tuple(("ridge", key, lam, 0) for key, lam in sorted(lambdas.items())))

    @classmethod
    def arc1(cls, lambdas: dict) -> "PenaltyConfig":
        return cls(tuple(("arc1", key, lam, 1) for key, lam in sorted(lambdas.items())))

    @classmethod
    def arc2(cls, lambdas: dict, orders: dict) -> "PenaltyConfig":
        return cls(
            tuple(
                ("arc2", key, float(lam), int(orders.get(key, 1)))
                for key, lam in sorted(lambdas.items())
            )
        )

    @classmethod
    def ordering(
        cls, lambda1: float, lambda2: float, margin: float = 0.0
    ) -> "PenaltyConfig":
        return cls(orderings=((lambda1, lambda2, margin),))

    @classmethod
    def composite(cls, *parts: "PenaltyConfig") -> "PenaltyConfig":
        return cls(
            tuple(term for p in parts for term in p.blocks),
            tuple(term for p in parts for term in p.orderings),
        )

    @property
    def is_null(self) -> bool:
        return not (self.blocks or self.orderings)

    def block_operators(
        self, spec: ModelSpec
    ) -> list[tuple[tuple[int, str], float, np.ndarray]]:
        """Per-block operators of the block terms, in term order:
        tau = sum lam * ||K beta_block||^2.

        Ordering terms are excluded (their operator depends on beta).
        """
        layout = spec.layout
        pair = spec.pair
        out: list[tuple[tuple[int, str], float, np.ndarray]] = []
        for family, (h, var), lam, order in self.blocks:
            if family == "arc2" and h not in (1, 2, 3, 4):
                raise ValueError(f"arc2 stream must be 1..4, got {h}")
            k = min(h, 3) if family == "arc2" else h
            b = _penalizable_block(layout, k, var)
            if b is None:
                continue
            if family == "ridge":
                K = np.eye(b.length)
            elif family == "arc1":
                if b.length == 1:
                    continue  # no differences on a singleton block
                K = difference_matrix(b.length, 1)
            elif k <= 2:
                K = difference_matrix(b.length, order)
            elif h == 3:
                # differences across the first response's cuts
                K = np.kron(difference_matrix(pair.m1, order), np.eye(pair.m2))
            else:
                K = np.kron(np.eye(pair.m1), difference_matrix(pair.m2, order))
            out.append(((k, var), lam, K))
        return out


def _penalizable_block(layout: ParamLayout, k: int, var: str):
    if not layout.has_block(k, var):
        raise ValueError(f"penalty targets missing block eq{k}:{var}")
    b = layout.block(k, var)
    if var == INTERCEPT:
        # a collapsed association intercept gets no penalty columns
        return None if b.length == 1 else b
    if not b.per_category:
        raise ValueError(
            f"penalty targets global coefficient eq{k}:{var}; only "
            "category-dependent blocks and intercepts are penalizable"
        )
    return b


# Heavy difference penalties make the exact score cancel catastrophically:
# (P beta)_j carries rounding noise of order eps * (|P| |beta|)_j, which for
# lambda >= ~1e8 exceeds any fixed tolerance.  Convergence therefore tests
# each score component against max(grad_tol, noise floor of that component).
_NOISE_SAFETY = 32.0


class PenaltyOperator:
    """The penalty of one Fisher-scoring step for a stack of replicates.

    It is built from a sequence of configs, one per replicate.  Each
    block term holds its smoothing value as an (R,) column, 0 for a
    replicate whose config lacks the term, and P is (R, p, p); every
    config's terms keep their order, and a term listed twice stays two
    terms.  A term at 0 adds a zero to a replicate's tau, P beta and P,
    which changes no value, so each replicate gets the bits of its own
    config alone.  The ordering terms are shared: the configs of one
    stack must agree on them.

    Evaluating tau and P beta through the block operators K avoids the
    catastrophic cancellation of the assembled quadratic form: near an
    optimum K beta is tiny while beta is not, so beta' P beta computed
    directly loses ~lambda * eps * |beta|^2 of absolute accuracy, which
    at lambda >= 1e8 dwarfs the quantities themselves.

    ``ordering_state`` freezes the ordering terms at one coefficient row
    per replicate: G = M X, (R, groups, rows, p), and one violation
    weight array (R, groups, rows) per term, zero off the violations.
    Frozen, tau(b) adds sum coef * (G b - margin)^2 per term and P is
    (R, p, p).  tau and grad run through the rows of G, so heavy
    smoothing values do not wash out the small residuals G b - margin;
    the assembled P is only used inside the Fisher solve, where no
    cancellation occurs.  Evaluations take one coefficient row per
    replicate and give each the bits it would get alone.
    """

    def __init__(self, configs: Sequence[PenaltyConfig], spec: ModelSpec):
        configs = list(configs)
        orderings = {c.orderings for c in configs}
        if len(orderings) > 1:
            raise ValueError("the penalties of one stack differ in their ordering terms")
        self.terms = _stacked_terms(configs, spec)
        self.orderings = orderings.pop() if orderings else ()
        self.pair = spec.pair
        # P of the block terms, one (p, p) per replicate
        self.P = np.zeros((len(configs), spec.layout.size, spec.layout.size))
        for sl, lam, K in self.terms:
            self.P[:, sl, sl] += lam[:, None, None] * (K.T @ K)
        self.G = None  # until ordering_state freezes the ordering terms
        self.coefs: tuple[np.ndarray, ...] = ()

    def _frozen(self, G, coefs) -> "PenaltyOperator":
        """A copy with ordering terms G and coefs, and their P added."""
        out = copy.copy(self)
        out.G, out.coefs = G, coefs
        rows, weights = out._rows()
        out.P = self.P + sum(rows.mT @ (rows * w.mT) for w in weights)
        return out

    def __getitem__(self, keep: np.ndarray) -> "PenaltyOperator":
        """The replicates flagged in the boolean mask ``keep``.

        The slice drops every block term whose smoothing value is 0 for
        all kept replicates: such a term only adds zeros, so no kept
        replicate's bits move, and a lone replicate left iterating pays
        for its own terms only.
        """
        out = copy.copy(self)
        out.P = self.P[keep]
        kept = ((sl, lam[keep], K) for sl, lam, K in self.terms)
        out.terms = [term for term in kept if term[1].any()]
        if self.G is not None:
            out.G, out.coefs = self.G[keep], tuple(c[keep] for c in self.coefs)
        return out

    def _rows(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """G and each term's weights with groups and rows stacked:
        (R, groups * rows, p) and (R, 1, groups * rows)."""
        R = len(self.G)
        return self.G.reshape(R, -1, self.G.shape[-1]), [c.reshape(R, 1, -1) for c in self.coefs]

    def tau(self, beta: np.ndarray) -> np.ndarray:
        """tau(beta) of coefficient rows (R, p), one value per row,
        computed as for that row alone."""
        total = np.zeros(beta.shape[:-1])
        for sl, lam, K in self.terms:
            w = (K @ beta[..., sl, None])[..., 0]
            total = total + lam * np.vecdot(w, w)
        if self.G is None:
            return total
        ordering = 0
        for (_, _, margin), coef in zip(self.orderings, self.coefs):
            v = (self.G @ beta[:, None, :, None])[..., 0] - margin
            ordering = ordering + (coef * v * v).sum(axis=(-2, -1))
        return total + ordering

    def grad(self, beta: np.ndarray) -> np.ndarray:
        """Gradient of tau / 2, that is P beta - q, row by row for (R, p);
        the block terms give sum lam K'(K beta)."""
        out = np.zeros(beta.shape)
        for sl, lam, K in self.terms:
            out[..., sl] += lam[..., None] * (K.T @ (K @ beta[..., sl, None]))[..., 0]
        if self.G is None:
            return out
        G, weights = self._rows()
        for (_, _, margin), w in zip(self.orderings, weights):
            out = out + ((w * ((G @ beta[..., None]).mT - margin)) @ G)[:, 0]
        return out

    def score_tolerance(self, beta: np.ndarray, grad_tol: float) -> np.ndarray:
        """Per-component tolerance of the penalized score: grad_tol or the
        rounding noise of P beta - q, whichever is larger."""
        bound = (np.abs(self.P) @ np.abs(beta)[..., None])[..., 0]
        if self.G is not None:
            G, weights = self._rows()
            G = np.abs(G)
            # |q| for each term, q = margin * G' coef
            bound = bound + sum(
                abs(margin) * (w @ G)[:, 0] for (_, _, margin), w in zip(self.orderings, weights)
            )
        floor = _NOISE_SAFETY * np.finfo(float).eps * bound
        return np.maximum(grad_tol, floor)


def _stacked_terms(
    configs: list[PenaltyConfig], spec: ModelSpec
) -> list[tuple[slice, np.ndarray, np.ndarray]]:
    """The block terms of ``configs`` as (slice, lam, K), lam one value
    per config.

    A config's terms go to slots in increasing order: each to the next
    slot after its previous term's that has the same block and operator,
    or to a new slot at the end.  Equal configs share one pass.
    """
    layout = spec.layout
    slots: list[tuple[tuple[int, str], np.ndarray]] = []
    columns: list[np.ndarray] = []
    members: dict[PenaltyConfig, list[int]] = {}
    for r, config in enumerate(configs):
        members.setdefault(config, []).append(r)
    for config, rows in members.items():
        j = 0
        for key, lam, K in config.block_operators(spec):
            if lam == 0.0:
                continue
            while j < len(slots) and not (slots[j][0] == key and np.array_equal(slots[j][1], K)):
                j += 1
            if j == len(slots):
                slots.append((key, K))
                columns.append(np.zeros(len(configs)))
            columns[j][rows] = lam
            j += 1
    return [(layout.block(*key).slice, lam, K) for (key, K), lam in zip(slots, columns)]


def _block_terms_only(config: PenaltyConfig, spec: ModelSpec) -> PenaltyOperator:
    if config.orderings:
        raise ValueError("ordering penalty depends on beta")
    return PenaltyOperator([config], spec)


def build_penalty_matrix(config: PenaltyConfig, spec: ModelSpec) -> np.ndarray:
    """Assemble P with beta' P beta equal to the summed penalty.

    Rejects ordering terms: their matrix depends on beta and the data,
    see build_ordering_penalty.
    """
    return _block_terms_only(config, spec).P[0]


def penalty_value(config: PenaltyConfig, spec: ModelSpec, beta: np.ndarray) -> float:
    """tau(beta) for a penalty of block terms."""
    return float(_block_terms_only(config, spec).tau(np.asarray(beta, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# ordering penalty


def marginal_difference_selector(pair: OrdinalPair) -> np.ndarray:
    """Rows extracting consecutive marginal-predictor differences from eta."""
    m1, m2 = pair.m1, pair.m2
    out = np.zeros((m1 + m2 - 2, pair.n_eta))
    out[: m1 - 1, 1 : m1 + 1] = np.diff(np.eye(m1), axis=0)
    out[m1 - 1 :, m1 + 1 : m1 + m2 + 1] = np.diff(np.eye(m2), axis=0)
    return out


def ordering_state(
    penalty: PenaltyOperator, X: np.ndarray, weights: np.ndarray, beta: np.ndarray
) -> PenaltyOperator:
    """``penalty`` with its ordering terms frozen at ``beta``.

    X (R, groups, n_eta, p), weights (R, groups) and beta (R, p) hold one
    replicate per row; the violation set of each term is the rows with
    G beta <= margin.
    """
    pair = penalty.pair
    G = marginal_difference_selector(pair) @ X
    v = (G @ beta[:, None, :, None])[..., 0]
    cuts = [pair.m1 - 1, pair.m2 - 1]
    return penalty._frozen(G, tuple(
        weights[..., None] * np.repeat([lambda1, lambda2], cuts) * (v <= margin)
        for lambda1, lambda2, margin in penalty.orderings
    ))


def build_ordering_penalty(
    spec: ModelSpec,
    dataset: Dataset,
    beta: np.ndarray,
    lambda1: float,
    lambda2: float,
) -> np.ndarray:
    """Ordering-penalty matrix P(beta), indicator evaluated at beta.

    Penalizes marginal-predictor differences with d_eta <= 0 at every
    observed profile, weighted by group counts.  Held fixed within one
    Fisher-scoring step by the estimator.
    """
    step = PenaltyOperator([PenaltyConfig.ordering(lambda1, lambda2)], spec)
    X = design_matrices(spec, [dataset])
    weights = dataset.counts.sum(axis=(1, 2)).astype(float)[None]
    return ordering_state(step, X, weights, np.asarray(beta, dtype=float)[None]).P[0]
