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
    n, k = rows.shape
    if not k:
        # rows without covariates are all one profile
        return np.zeros(min(n, 1), dtype=np.intp), np.zeros(n, dtype=np.intp)
    # a stable sort keeps equal rows in their order, so the first row of
    # each run of equal rows is its profile's first
    order = np.lexsort(rows.T)
    ordered = rows[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = order[starts]
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    by_sight = np.argsort(first)
    return first[by_sight], np.argsort(by_sight)[inverse]


def _checked_counts(counts: np.ndarray) -> np.ndarray:
    """Counts as int64, once they are nonnegative integers whose sum fits."""
    cnt = np.asarray(counts)
    if not np.issubdtype(cnt.dtype, np.integer):
        cnt = cnt.astype(float)
        if not (np.abs(cnt) < 2.0**63).all():  # NaN fails the test too
            raise ValueError("counts must be finite and below 2**63")
        if not np.all(cnt == np.floor(cnt)):
            raise ValueError("counts must be integers")
    if (cnt < 0).any():
        raise ValueError("counts must be nonnegative")
    # summed as Python integers, which do not wrap as int64 and uint64 do,
    # once a float sum, off by far less than a factor 2, comes near 2**63
    if cnt.sum(dtype=np.float64) >= 2.0**62 and cnt.astype(object).sum() >= 2**63:
        raise ValueError("counts must sum to below 2**63")
    return cnt.astype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """Grouped data: one d1 x d2 count table per distinct covariate profile.

    ``covariates`` is (G, k) and ``counts`` (G, d1, d2); row g of the
    one is the profile of table g of the other.  Both are stored
    read-only, as float and int64.  Zero cells are allowed, but each
    group total must be positive; covariates must be finite and the
    profiles distinct by value (0.0 and -0.0 agree).  Two datasets are
    equal when their pairs and arrays are.
    """

    pair: OrdinalPair
    covariates: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.pair.d1, self.pair.d2)
        cov = np.array(self.covariates, dtype=float)
        if np.ndim(self.counts) != 3 or np.shape(self.counts)[1:] != shape:
            raise ValueError(
                f"counts of shape {np.shape(self.counts)} are not "
                f"(groups, {shape[0]}, {shape[1]}) tables"
            )
        if cov.ndim != 2 or len(cov) != len(self.counts):
            raise ValueError(
                f"covariates of shape {cov.shape} need one row for each of "
                f"{len(self.counts)} count tables"
            )
        if not len(cov):
            raise ValueError("dataset needs at least one group")
        cnt = _checked_counts(self.counts)
        if (cnt.sum(axis=(1, 2)) < 1).any():
            raise ValueError("each group needs a positive total count")
        if not np.isfinite(cov).all():
            raise ValueError("covariates must be finite")
        if len(set(map(tuple, cov.tolist()))) != len(cov):
            raise ValueError("duplicate covariate profile; merge groups on ingestion")
        object.__setattr__(self, "covariates", _freeze(cov))
        object.__setattr__(self, "counts", _freeze(cnt))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self is other or (
            self.pair == other.pair
            and np.array_equal(self.covariates, other.covariates)
            and np.array_equal(self.counts, other.counts)
        )

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
            return cls(pair, np.zeros((0, 0)), np.zeros((0, pair.d1, pair.d2)))
        covs = np.array([np.ravel(c) for c, _ in profiles], dtype=float)
        tables = _checked_counts(np.stack([t for _, t in profiles]))
        first, inverse = group_profiles(covs)
        sums = np.zeros((first.size,) + tables.shape[1:], dtype=np.int64)
        np.add.at(sums, inverse, tables)
        return cls(pair, covs[first], sums)

    @property
    def n_groups(self) -> int:
        return len(self.counts)

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    def count_matrix(self) -> np.ndarray:
        """Counts stacked as an (n_groups, d1*d2) array, row-major cells."""
        return self.counts.reshape(self.n_groups, -1).astype(float)

    def pooled_counts(self) -> np.ndarray:
        return self.counts.sum(axis=0)


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


def design_matrices(spec: ModelSpec, data: Dataset | list[Dataset]) -> np.ndarray:
    """Stacked design matrices of a dataset, (n_groups, n_eta, n_params).

    A list of datasets with one group count gives theirs on a leading
    replicate axis, (R, n_groups, n_eta, n_params), from one affine
    product.  Every entry is one covariate value or a constant, so a
    dataset's matrices do not depend on the rest of the stack.
    """
    datasets = [data] if isinstance(data, Dataset) else data
    for dataset in datasets:
        if dataset.pair != spec.pair:
            raise ValueError("dataset and spec disagree on category counts")
        if dataset.n_covariates != len(spec.covariate_names):
            raise ValueError("dataset and spec disagree on covariate count")
    X0, S = spec.affine_design
    x = np.stack([dataset.covariates for dataset in datasets])
    X = X0 + (x @ S.reshape(len(S), X0.size)).reshape(*x.shape[:2], *X0.shape)
    return X[0] if isinstance(data, Dataset) else X
