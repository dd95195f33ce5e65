import dataclasses
import pickle

import numpy as np
import pytest

from bolm.model_core import (
    INTERCEPT,
    Dataset,
    EquationTerms,
    ModelSpec,
    OrdinalPair,
    ParamLayout,
    build_design_matrix,
    design_matrices,
    group_profiles,
)


def spec_33(uniform: bool = False, cat_dep: bool = True) -> ModelSpec:
    dep = ("x",) if cat_dep else ()
    terms = EquationTerms(("x",), dep)
    eq3 = EquationTerms(("x",), () if uniform else dep)
    return ModelSpec(
        OrdinalPair(3, 3), ("x",), terms, terms, eq3,
        uniform_association=uniform,
    )


def test_ordinal_pair_dimensions():
    pair = OrdinalPair(3, 4)
    assert pair.m1 == 2
    assert pair.m2 == 3
    assert pair.m3 == 6
    assert pair.n_eta == 1 + 2 + 3 + 6


def test_ordinal_pair_rejects_degenerate_sides():
    with pytest.raises(ValueError):
        OrdinalPair(1, 3)


def test_dataset_validates_counts():
    pair = OrdinalPair(2, 2)

    def one_group(table):
        return Dataset(pair, np.array([[0.0]]), np.asarray(table)[None])

    with pytest.raises(ValueError, match="tables"):
        one_group([1, 2, 3])
    with pytest.raises(ValueError, match="integers"):
        one_group([[1.5, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        one_group([[-1, 2], [3, 4]])
    with pytest.raises(ValueError, match="positive total"):
        one_group(np.zeros((2, 2)))
    table = np.array([[1.0, 2.0], [3.0, 4.0]])
    ds = one_group(table)
    assert ds.counts.dtype == np.int64
    assert ds.n_total == 10
    # the stored arrays are read-only copies; the caller's stay writeable
    assert not (ds.counts.flags.writeable or ds.covariates.flags.writeable)
    covariates = np.array([[0.0]])
    Dataset(pair, covariates, table[None])
    assert covariates.flags.writeable and table.flags.writeable
    # totals that int64 cannot hold are range errors, not wrapped counts
    for big in (
        np.array([[2**63, 1], [1, 1]], dtype=np.uint64),
        np.array([[2**62, 2**62], [1, 0]], dtype=np.int64),
        np.array([[2.0**62, 2.0**62], [0.0, 0.0]]),
        np.full((2, 2), 2**62, dtype=np.int64),  # its int64 sum wraps to 0
    ):
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            one_group(big)
    ds = one_group(np.array([[2**62, 2**62 - 1], [0, 0]], dtype=np.uint64))
    assert ds.n_total == 2**63 - 1


def test_dataset_rejects_duplicate_profiles_and_shape_mismatch():
    pair = OrdinalPair(2, 2)
    table = np.array([[3, 4], [5, 6]])
    tables = np.array([table, table])
    with pytest.raises(ValueError):
        Dataset(pair, np.array([[1.0], [1.0]]), tables)
    with pytest.raises(ValueError):
        Dataset(pair, np.array([[1.0]]), np.array([[[1, 2, 3], [4, 5, 6]]]))
    # profiles are equal by value: 0.0 and -0.0 are one profile
    with pytest.raises(ValueError, match="duplicate"):
        Dataset(pair, np.array([[0.0], [-0.0]]), tables)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="covariates must be finite"):
            Dataset(pair, np.array([[bad]]), tables[:1])
    # the two arrays must pair up: one 2-d covariate row per (d1, d2) table
    with pytest.raises(ValueError, match=r"\(groups, 2, 2\) tables"):
        Dataset(pair, np.array([[1.0]]), table)
    with pytest.raises(ValueError, match="one row for each of 2 count tables"):
        Dataset(pair, np.array([1.0, 2.0]), tables)
    # four rows for two tables: reshaping them to (2, 2) would re-pair rows
    with pytest.raises(ValueError, match="one row for each of 2 count tables"):
        Dataset(pair, np.arange(4.0).reshape(4, 1), tables)
    with pytest.raises(ValueError, match="at least one group"):
        Dataset.merged(pair, [])


def test_dataset_rejects_a_total_count_beyond_int64():
    # each table passes its own range check; the pooled table would wrap
    pair = OrdinalPair(2, 2)
    table = np.array([[2**62, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"counts must sum to below 2\*\*63"):
        Dataset(pair, np.array([[0.0], [1.0]]), np.array([table, table]))


def test_layout_size_nunpom_vs_upom():
    # category-dependent x everywhere: (2+2)*2 marginal + (4+4) association
    assert ParamLayout(spec_33()).size == 16
    # uniform association with global effects: 2+1 + 2+1 + 1+1
    assert ParamLayout(spec_33(uniform=True, cat_dep=False)).size == 8
    # the spec builds its layout once and caches it outside the fields
    spec = spec_33()
    assert spec.layout is spec.layout
    assert spec.layout.size == 16
    restored = pickle.loads(pickle.dumps(spec))
    assert restored == spec and hash(restored) == hash(spec)
    assert restored.layout.size == spec.layout.size
    assert dataclasses.replace(spec, uniform_association=True).layout.size == 13


def test_layout_blocks_cover_parameters_once():
    layout = ParamLayout(spec_33())
    covered = np.zeros(layout.size, dtype=int)
    for block in layout.blocks:
        covered[block.slice] += 1
    assert (covered == 1).all()
    labels = layout.labels()
    assert len(labels) == layout.size
    assert len(set(labels)) == layout.size


def test_intercept_blocks_match_equation_lengths():
    layout = ParamLayout(spec_33())
    assert layout.block(1, INTERCEPT).length == 2
    assert layout.block(2, INTERCEPT).length == 2
    assert layout.block(3, INTERCEPT).length == 4
    assert layout.block(3, "x").length == 4


def test_design_matrix_first_row_zero_and_intercept_columns():
    spec = spec_33()
    X = build_design_matrix(spec, np.array([0.7]))
    pair = spec.pair
    assert X.shape == (pair.n_eta, ParamLayout(spec).size)
    assert np.all(X[0] == 0.0)
    beta = np.arange(1.0, X.shape[1] + 1)
    eta = X @ beta
    layout = ParamLayout(spec)
    b3 = layout.block(3, INTERCEPT)
    b3x = layout.block(3, "x")
    expected_eta3 = beta[b3.slice] + 0.7 * beta[b3x.slice]
    np.testing.assert_allclose(eta[1 + 2 + 2 :], expected_eta3)


def test_design_matrix_global_term_shares_one_column():
    spec = spec_33(cat_dep=False)
    layout = ParamLayout(spec)
    X = build_design_matrix(spec, np.array([2.0]))
    col = layout.block(1, "x").start
    np.testing.assert_allclose(X[1:3, col], [2.0, 2.0])


def test_uniform_association_broadcasts_single_intercept():
    spec = spec_33(uniform=True, cat_dep=False)
    layout = ParamLayout(spec)
    assert layout.block(3, INTERCEPT).length == 1
    X = build_design_matrix(spec, np.array([0.0]))
    col = layout.block(3, INTERCEPT).start
    np.testing.assert_allclose(X[5:, col], np.ones(4))


def test_design_matrices_equal_the_per_group_build():
    rng = np.random.default_rng(4)
    pair = OrdinalPair(3, 4)
    mixed = ModelSpec(
        pair, ("x", "z"),
        EquationTerms(("x", "z"), ("x",)), EquationTerms(("z",)), EquationTerms(("x", "z"), ("z",)),
    )
    plain = ModelSpec(pair, (), EquationTerms(), EquationTerms(), EquationTerms())
    for spec in (spec_33(), spec_33(uniform=True, cat_dep=False), mixed, plain):
        k = len(spec.covariate_names)
        groups = [(rng.normal(scale=3.0, size=k) if k else np.array([]),
                   rng.integers(1, 9, (spec.pair.d1, spec.pair.d2)))
                  for _ in range(6 if k else 1)]
        dataset = Dataset.merged(spec.pair, groups)
        per_group = np.stack([build_design_matrix(spec, x) for x, _ in groups])
        assert np.array_equal(design_matrices(spec, dataset), per_group)
        # a stack of datasets with one group count, one affine product
        others = [
            Dataset(spec.pair, rng.normal(scale=3.0, size=dataset.covariates.shape),
                    dataset.counts)
            for _ in range(2)
        ]
        stack = design_matrices(spec, [dataset, *others])
        assert np.array_equal(stack[0], per_group)
        for X, other in zip(stack[1:], others):
            assert np.array_equal(X, [build_design_matrix(spec, x) for x in other.covariates])


def _unique_profiles(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grouping by np.unique(axis=0), the reference for group_profiles."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


def test_group_profiles_equal_the_unique_grouping():
    rng = np.random.default_rng(25)
    for k in (0, 1, 3):
        for n in (0, 1, 7, 60):
            # few distinct values, so rows tie; random signs mix 0.0 and -0.0
            rows = rng.integers(0, 3, (n, k)) * rng.choice([-1.0, 1.0], (n, k))
            first, inverse = group_profiles(rows)
            want_first, want_inverse = _unique_profiles(rows)
            assert np.array_equal(first, want_first) and first.dtype == want_first.dtype
            assert np.array_equal(inverse, want_inverse) and inverse.dtype == want_inverse.dtype
    zeros = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, 2.0]])
    first, inverse = group_profiles(zeros)
    assert first.tolist() == [0, 2] and inverse.tolist() == [0, 0, 1]


def test_spec_rejects_unknown_and_inconsistent_terms():
    pair = OrdinalPair(3, 3)
    terms = EquationTerms(("x",), ("x",))
    with pytest.raises(ValueError):
        ModelSpec(pair, (), terms, terms, terms)
    with pytest.raises(ValueError):
        # category-dependent without being included
        ModelSpec(
            pair, ("x",),
            EquationTerms((), ("x",)),
            EquationTerms(("x",), ()),
            EquationTerms(("x",), ()),
        )


def test_merged_accumulates_counts_by_profile():
    pair = OrdinalPair(2, 2)
    ds = Dataset.merged(
        pair,
        [
            (np.array([1.0]), np.array([[1, 0], [0, 1]])),
            (np.array([0.0]), np.array([[1, 1], [1, 1]])),
            (np.array([1.0]), np.array([[0, 2], [3, 0]])),
        ],
    )
    assert ds.n_groups == 2
    np.testing.assert_array_equal(ds.counts[0], [[1, 2], [3, 1]])
    # -0.0 joins the 0.0 profile, which keeps its first-seen covariates
    ds = Dataset.merged(
        pair,
        [
            (np.array([0.0]), np.array([[1, 0], [0, 1]])),
            (np.array([1.0]), np.array([[1, 1], [1, 1]])),
            (np.array([-0.0]), np.array([[0, 2], [3, 0]])),
        ],
    )
    assert ds.n_groups == 2
    assert not np.signbit(ds.covariates[0, 0])
    np.testing.assert_array_equal(ds.counts[0], [[1, 2], [3, 1]])
    # tables without covariates are one profile
    ds = Dataset.merged(pair, [((), np.eye(2)), ((), np.ones((2, 2)))])
    assert ds.n_groups == 1
    np.testing.assert_array_equal(ds.counts[0], [[2, 1], [1, 2]])
    # non-integer, negative or non-finite tables are refused, not truncated,
    # also where the sum would be a valid count
    for bad in (
        [[1.5, 0.0], [0.0, 1.0]],
        [[-0.5, 1.0], [0.0, 1.0]],
        [[np.inf, 1.0], [0.0, 1.0]],
        [[np.nan, 1.0], [0.0, 1.0]],
    ):
        with pytest.raises(ValueError):
            Dataset.merged(pair, [(np.array([1.0]), np.array(bad))])
    with pytest.raises(ValueError):
        Dataset.merged(
            pair,
            [
                (np.array([1.0]), np.array([[0.5, 0.0], [0.0, 1.0]])),
                (np.array([1.0]), np.array([[0.5, 0.0], [0.0, 1.0]])),
            ],
        )
    # nor may two tables of one profile sum past int64
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        Dataset.merged(
            pair,
            [
                (np.array([1.0]), np.array([[2**62, 0], [0, 0]])),
                (np.array([1.0]), np.array([[2**62, 0], [0, 0]])),
            ],
        )

