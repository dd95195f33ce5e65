"""Core model objects for bivariate ordered logistic models.

A model couples two ordinal responses A1 (d1 categories) and A2 (d2
categories).  The linear predictor for one covariate profile stacks, in
order: a structural zero (the null contrast), d1-1 global logits for A1,
d2-1 global logits for A2 and (d1-1)(d2-1) log global odds ratios laid
out row-major over the cut points (r, c).

Each of the three equations may carry covariates with a single global
coefficient (set S_k) or one coefficient per category (set Sbar_k).
Marginal intercepts are always category dependent; the association
intercept block can be collapsed to a single parameter with
``uniform_association``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

INTERCEPT = "(intercept)"


@dataclass(frozen=True)
class OrdinalPair:
    """Category counts of the two ordinal responses."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if self.d1 < 2 or self.d2 < 2:
            raise ValueError("both responses need at least 2 categories")

    @property
    def m1(self) -> int:
        """Number of A1 cut points (global logits)."""
        return self.d1 - 1

    @property
    def m2(self) -> int:
        return self.d2 - 1

    @property
    def m3(self) -> int:
        """Number of log global odds ratios."""
        return self.m1 * self.m2

    @property
    def n_cells(self) -> int:
        return self.d1 * self.d2

    @property
    def n_eta(self) -> int:
        """Length of the predictor vector, null contrast included."""
        return 1 + self.m1 + self.m2 + self.m3


def flatten_index(r: int, c: int, pair: OrdinalPair) -> int:
    """1-based position of cut point (r, c) in the association block.

    Cut points run row-major: (r-1)*(d2-1) + c.
    """
    if not (1 <= r <= pair.m1 and 1 <= c <= pair.m2):
        raise ValueError(f"cut point ({r}, {c}) out of range for {pair}")
    return (r - 1) * pair.m2 + c


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def group_profiles(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of an (n, k) covariate array by profile.

    Rows are one profile when they are equal by value, so 0.0 and -0.0
    agree.  Returns ``first``, the index of each profile's first row, and
    ``inverse``, the profile of each row; profiles are numbered in the
    order they are first seen.
    """
    _, first, inverse = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


def _checked_counts(counts: np.ndarray) -> np.ndarray:
    """Counts as int64, once they are nonnegative integers that fit."""
    cnt = np.asarray(counts)
    if not np.issubdtype(cnt.dtype, np.integer):
        cnt = cnt.astype(float)
        if not (np.abs(cnt) < 2.0**63).all():  # NaN fails the test too
            raise ValueError("counts must be finite and below 2**63")
        if not np.all(cnt == np.floor(cnt)):
            raise ValueError("counts must be integers")
    if (cnt < 0).any():
        raise ValueError("counts must be nonnegative")
    return cnt.astype(np.int64)


@dataclass(frozen=True)
class Group:
    """Observations sharing one covariate profile.

    counts is the full d1 x d2 contingency table for the profile; zero
    cells are allowed but the group total must be positive.  Covariates
    must be finite.
    """

    covariates: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariates, dtype=float).reshape(-1)
        if np.ndim(self.counts) != 2:
            raise ValueError("counts must be a 2-d table")
        cnt = _checked_counts(self.counts)
        if cnt.sum() < 1:
            raise ValueError("each group needs a positive total count")
        if not np.isfinite(cov).all():
            raise ValueError("covariates must be finite")
        object.__setattr__(self, "covariates", _freeze(cov))
        object.__setattr__(self, "counts", _freeze(cnt))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class Dataset:
    """Grouped data: one Group per distinct covariate profile."""

    pair: OrdinalPair
    groups: tuple[Group, ...]

    def __post_init__(self) -> None:
        groups = tuple(self.groups)
        if not groups:
            raise ValueError("dataset needs at least one group")
        p = groups[0].covariates.size
        for g in groups:
            if g.counts.shape != (self.pair.d1, self.pair.d2):
                raise ValueError(
                    f"count table shape {g.counts.shape} does not match "
                    f"({self.pair.d1}, {self.pair.d2})"
                )
            if g.covariates.size != p:
                raise ValueError("covariate vectors must share one length")
        first, _ = group_profiles(np.array([g.covariates for g in groups]))
        if first.size != len(groups):
            raise ValueError(
                "duplicate covariate profile; merge groups on ingestion"
            )
        object.__setattr__(self, "groups", groups)

    @classmethod
    def merged(
        cls,
        pair: OrdinalPair,
        profiles: list[tuple[np.ndarray, np.ndarray]],
    ) -> "Dataset":
        """Build a dataset, summing count tables of identical profiles.

        Groups keep the order in which their profiles first appear.  Each
        table is checked before the sum, so that 0.5 + 0.5 or -1 + 2
        cannot pass as a count.
        """
        if not profiles:
            return cls(pair, ())
        covs = np.array([np.ravel(c) for c, _ in profiles], dtype=float)
        tables = _checked_counts(np.stack([t for _, t in profiles]))
        first, inverse = group_profiles(covs)
        sums = np.zeros((first.size,) + tables.shape[1:], dtype=np.int64)
        np.add.at(sums, inverse, tables)
        return cls(pair, tuple(Group(covs[i], t) for i, t in zip(first, sums)))

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_total(self) -> int:
        return sum(g.total for g in self.groups)

    @property
    def n_covariates(self) -> int:
        return self.groups[0].covariates.size

    def count_matrix(self) -> np.ndarray:
        """Counts stacked as an (n_groups, d1*d2) array, row-major cells."""
        return np.array([g.counts.reshape(-1) for g in self.groups], dtype=float)

    def covariate_matrix(self) -> np.ndarray:
        return np.array([g.covariates for g in self.groups], dtype=float)

    def pooled_counts(self) -> np.ndarray:
        out = np.zeros((self.pair.d1, self.pair.d2), dtype=np.int64)
        for g in self.groups:
            out = out + g.counts
        return out


@dataclass(frozen=True)
class EquationTerms:
    """Covariates of one equation.

    included lists every covariate entering the equation; the subset
    category_dependent gets one coefficient per category, the rest a
    single global coefficient.
    """

    included: tuple[str, ...] = ()
    category_dependent: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "included", tuple(self.included))
        object.__setattr__(self, "category_dependent", tuple(self.category_dependent))
        if len(set(self.included)) != len(self.included):
            raise ValueError("duplicate covariate in equation")
        extra = set(self.category_dependent) - set(self.included)
        if extra:
            raise ValueError(
                f"category-dependent covariates not included: {sorted(extra)}"
            )

    @property
    def global_terms(self) -> tuple[str, ...]:
        return tuple(v for v in self.included if v not in self.category_dependent)

    @property
    def dependent_terms(self) -> tuple[str, ...]:
        return tuple(v for v in self.included if v in self.category_dependent)


@dataclass(frozen=True)
class ModelSpec:
    """Full model specification for a response pair."""

    pair: OrdinalPair
    covariate_names: tuple[str, ...] = ()
    eq1: EquationTerms = field(default_factory=EquationTerms)
    eq2: EquationTerms = field(default_factory=EquationTerms)
    eq3: EquationTerms = field(default_factory=EquationTerms)
    uniform_association: bool = False

    def __post_init__(self) -> None:
        names = tuple(self.covariate_names)
        object.__setattr__(self, "covariate_names", names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate covariate names")
        for k, eq in ((1, self.eq1), (2, self.eq2), (3, self.eq3)):
            unknown = set(eq.included) - set(names)
            if unknown:
                raise ValueError(
                    f"equation {k} uses unknown covariates {sorted(unknown)}"
                )

    def equation(self, k: int) -> EquationTerms:
        return {1: self.eq1, 2: self.eq2, 3: self.eq3}[k]

    def block_length(self, k: int) -> int:
        """Coefficients per category-dependent variable of equation k."""
        return {1: self.pair.m1, 2: self.pair.m2, 3: self.pair.m3}[k]

    def intercept_length(self, k: int) -> int:
        if k == 3 and self.uniform_association:
            return 1
        return self.block_length(k)

    @cached_property
    def layout(self) -> "ParamLayout":
        """The spec's parameter layout, built once.  The cache lives in the
        instance dict, outside the fields, so equality, hashing and
        dataclasses.replace are unaffected."""
        return ParamLayout(self)

    @cached_property
    def affine_design(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-covariate design X0 and one slope S_j per covariate.

        A profile's design matrix is affine in its covariates, X0 + sum_j
        x_j S_j.  Every entry of S_j is 0 or 1 and each entry is reached
        by at most one covariate, so the sum reproduces
        ``build_design_matrix`` exactly.  Cached like ``layout``.
        """
        k = len(self.covariate_names)
        X0 = build_design_matrix(self, np.zeros(k))
        units = [build_design_matrix(self, unit) for unit in np.eye(k)]
        S = np.array(units).reshape(k, *X0.shape) - X0
        return _freeze(X0), _freeze(S)


@dataclass(frozen=True)
class Block:
    """One contiguous slice of the parameter vector."""

    equation: int
    variable: str  # INTERCEPT or a covariate name
    start: int
    length: int
    per_category: bool

    @property
    def slice(self) -> slice:
        return slice(self.start, self.start + self.length)


class ParamLayout:
    """Parameter ordering for a ModelSpec.

    Per equation: intercepts first, then global coefficients in included
    order, then one block per category-dependent variable.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        blocks: list[Block] = []
        pos = 0
        for k in (1, 2, 3):
            eq = spec.equation(k)
            n_int = spec.intercept_length(k)
            blocks.append(Block(k, INTERCEPT, pos, n_int, n_int > 1))
            pos += n_int
            for v in eq.global_terms:
                blocks.append(Block(k, v, pos, 1, False))
                pos += 1
            d = spec.block_length(k)
            for v in eq.dependent_terms:
                blocks.append(Block(k, v, pos, d, True))
                pos += d
        self.blocks = tuple(blocks)
        self.size = pos
        self._index = {(b.equation, b.variable): b for b in self.blocks}

    def block(self, equation: int, variable: str = INTERCEPT) -> Block:
        try:
            return self._index[(equation, variable)]
        except KeyError:
            raise KeyError(
                f"no parameter block for equation {equation}, variable {variable!r}"
            ) from None

    def has_block(self, equation: int, variable: str) -> bool:
        return (equation, variable) in self._index

    def labels(self) -> list[str]:
        """One human-readable label per coefficient."""
        pair = self.spec.pair
        out: list[str] = []
        for b in self.blocks:
            if b.length == 1:
                out.append(f"eq{b.equation}:{b.variable}")
                continue
            for j in range(b.length):
                if b.equation == 3:
                    r = j // pair.m2 + 1
                    c = j % pair.m2 + 1
                    out.append(f"eq3:{b.variable}:r{r}c{c}")
                else:
                    out.append(f"eq{b.equation}:{b.variable}:{j + 1}")
        return out


def build_design_matrix(spec: ModelSpec, covariates: np.ndarray) -> np.ndarray:
    """Design matrix mapping the parameter vector to one profile's predictor.

    The first row is identically zero (null contrast).  Rows then follow
    the predictor layout; columns follow ParamLayout.
    """
    x = np.asarray(covariates, dtype=float).reshape(-1)
    if x.size != len(spec.covariate_names):
        raise ValueError(
            f"expected {len(spec.covariate_names)} covariates, got {x.size}"
        )
    layout = spec.layout
    pair = spec.pair
    X = np.zeros((pair.n_eta, layout.size))
    values = dict(zip(spec.covariate_names, x))
    row = 1
    for k in (1, 2, 3):
        d = spec.block_length(k)
        rows = slice(row, row + d)
        b = layout.block(k, INTERCEPT)
        if b.length == 1:
            X[rows, b.start] = 1.0
        else:
            X[rows, b.slice] = np.eye(d)
        for v in spec.equation(k).global_terms:
            X[rows, layout.block(k, v).start] = values[v]
        for v in spec.equation(k).dependent_terms:
            X[rows, layout.block(k, v).slice] = values[v] * np.eye(d)
        row += d
    return X


def design_matrices(spec: ModelSpec, dataset: Dataset) -> np.ndarray:
    """Stacked design matrices, shape (n_groups, n_eta, n_params)."""
    if dataset.pair != spec.pair:
        raise ValueError("dataset and spec disagree on category counts")
    if dataset.n_covariates != len(spec.covariate_names):
        raise ValueError("dataset and spec disagree on covariate count")
    X0, S = spec.affine_design
    x = dataset.covariate_matrix()
    return X0 + (x @ S.reshape(len(S), X0.size)).reshape(len(x), *X0.shape)
