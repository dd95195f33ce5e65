import numpy as np
import pytest

from bolm.model_core import (
    INTERCEPT,
    Dataset,
    EquationTerms,
    ModelSpec,
    OrdinalPair,
    ParamLayout,
    design_matrices,
)
from bolm.penalties import (
    PenaltyConfig,
    PenaltyOperator,
    build_ordering_penalty,
    build_penalty_matrix,
    difference_matrix,
    ordering_state,
    penalty_value,
)


def intercept_spec(d1: int, d2: int, uniform: bool = False) -> ModelSpec:
    t = EquationTerms()
    return ModelSpec(OrdinalPair(d1, d2), (), t, t, t, uniform_association=uniform)


def covariate_spec() -> ModelSpec:
    dep = EquationTerms(("x",), ("x",))
    glob = EquationTerms(("x",), ())
    return ModelSpec(OrdinalPair(3, 3), ("x",), dep, glob, dep)


def test_difference_matrix_forms():
    D1 = difference_matrix(4, 1)
    assert D1.shape == (3, 4)
    np.testing.assert_array_equal(D1 @ np.ones(4), np.zeros(3))
    np.testing.assert_array_equal(D1 @ np.arange(4.0), np.ones(3))
    D2 = difference_matrix(5, 2)
    assert D2.shape == (3, 5)
    x = np.arange(5.0)
    np.testing.assert_array_equal(D2 @ x, np.zeros(3))
    np.testing.assert_array_equal(D2 @ (x * x), np.full(3, 2.0))


def test_arc1_first_difference_quadratic_form_matrix():
    # length-3 association intercept block: m1 * m2 = 1 * 3
    spec = intercept_spec(2, 4)
    cfg = PenaltyConfig.arc1({(3, INTERCEPT): 1.0})
    P = build_penalty_matrix(cfg, spec)
    blk = ParamLayout(spec).block(3, INTERCEPT)
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    np.testing.assert_allclose(P[blk.slice, blk.slice], expected)


def test_arc1_association_block_chains_flattened_grid():
    # the 36-entry association block is treated as one chain: the
    # first-difference operator has a single constant null vector
    spec = intercept_spec(7, 7)
    cfg = PenaltyConfig.arc1({(3, INTERCEPT): 1.0})
    P = build_penalty_matrix(cfg, spec)
    blk = ParamLayout(spec).block(3, INTERCEPT)
    sub = P[blk.slice, blk.slice]
    assert np.linalg.matrix_rank(sub) == 35
    np.testing.assert_allclose(sub @ np.ones(36), np.zeros(36), atol=1e-12)


def test_matrix_and_factored_sum_agree_across_families():
    spec = covariate_spec()
    layout = ParamLayout(spec)
    rng = np.random.default_rng(314)
    configs = [
        PenaltyConfig.ridge({(3, INTERCEPT): 2.5, (1, "x"): 0.7}),
        PenaltyConfig.arc1({(3, INTERCEPT): 1.2, (3, "x"): 4.0}),
        PenaltyConfig.arc2(
            {(3, INTERCEPT): 3.0, (4, INTERCEPT): 0.5, (1, INTERCEPT): 1.5},
            {(3, INTERCEPT): 1, (4, INTERCEPT): 1, (1, INTERCEPT): 1},
        ),
        PenaltyConfig.composite(
            PenaltyConfig.ridge({(1, INTERCEPT): 0.3}),
            PenaltyConfig.arc1({(3, INTERCEPT): 9.0}),
        ),
    ]
    for cfg in configs:
        P = build_penalty_matrix(cfg, spec)
        op = PenaltyOperator([cfg], spec)
        np.testing.assert_allclose(P, op.P[0], atol=1e-12)
        for _ in range(30):
            beta = rng.standard_normal(layout.size)
            direct = float(beta @ P @ beta)
            factored = op.tau(beta[None])[0]
            assert abs(direct - factored) <= 1e-12 * max(1.0, abs(direct))
            np.testing.assert_allclose(op.grad(beta[None])[0], P @ beta, atol=1e-10)


def test_penalty_value_matches_quadratic_form():
    spec = intercept_spec(4, 4)
    cfg = PenaltyConfig.arc1({(3, INTERCEPT): 7.0})
    layout = ParamLayout(spec)
    rng = np.random.default_rng(1)
    beta = rng.standard_normal(layout.size)
    P = build_penalty_matrix(cfg, spec)
    assert penalty_value(cfg, spec, beta) == pytest.approx(beta @ P @ beta, rel=1e-12)


def test_global_coefficients_cannot_be_penalized():
    spec = covariate_spec()
    cfg = PenaltyConfig.ridge({(2, "x"): 1.0})
    with pytest.raises(ValueError, match="global coefficient"):
        cfg.block_operators(spec)
    # marginal and association intercepts are fair targets
    ok = PenaltyConfig.ridge({(1, INTERCEPT): 1.0, (3, INTERCEPT): 1.0})
    assert len(ok.block_operators(spec)) == 2


def test_uniform_association_intercept_is_a_silent_singleton():
    spec = intercept_spec(3, 3, uniform=True)
    cfg = PenaltyConfig.arc1({(3, INTERCEPT): 5.0})
    assert cfg.block_operators(spec) == []
    beta = np.ones(ParamLayout(spec).size)
    assert penalty_value(cfg, spec, beta) == 0.0


def test_arc2_rank_drops_by_s_squared():
    spec = intercept_spec(7, 7)
    layout = ParamLayout(spec)
    blk = layout.block(3, INTERCEPT)
    for s in (1, 2, 3, 4):
        cfg = PenaltyConfig.arc2(
            {(3, INTERCEPT): 1.0, (4, INTERCEPT): 1.0},
            {(3, INTERCEPT): s, (4, INTERCEPT): s},
        )
        P = build_penalty_matrix(cfg, spec)
        sub = P[blk.slice, blk.slice]
        assert np.linalg.matrix_rank(sub) == 36 - s * s


def test_arc2_annihilates_low_degree_polynomial_surfaces():
    spec = intercept_spec(7, 7)
    layout = ParamLayout(spec)
    blk = layout.block(3, INTERCEPT)
    s = 3
    cfg = PenaltyConfig.arc2(
        {(3, INTERCEPT): 1.0, (4, INTERCEPT): 1.0},
        {(3, INTERCEPT): s, (4, INTERCEPT): s},
    )
    r = np.arange(1.0, 7.0)
    c = np.arange(1.0, 7.0)
    beta = np.zeros(layout.size)
    beta[blk.slice] = (np.outer(r**2, c**2) + 2 * np.outer(r, c**2) + 3.0).reshape(-1)
    assert penalty_value(cfg, spec, beta) == 0.0
    beta[blk.slice] = np.outer(r**3, np.ones(6)).reshape(-1)
    assert penalty_value(cfg, spec, beta) > 1.0


def test_arc2_streams_act_along_their_own_direction():
    spec = intercept_spec(5, 4)
    layout = ParamLayout(spec)
    blk = layout.block(3, INTERCEPT)
    # stream 3 differences the surface down the rows (first margin),
    # stream 4 along the columns, so each ignores the other's variation
    row_only = np.outer(np.array([0.0, 1.0, 4.0, 9.0]), np.ones(3))
    col_only = np.outer(np.ones(4), np.array([0.0, 1.0, 4.0]))
    stream3 = PenaltyConfig.arc2({(3, INTERCEPT): 1.0}, {(3, INTERCEPT): 1})
    stream4 = PenaltyConfig.arc2({(4, INTERCEPT): 1.0}, {(4, INTERCEPT): 1})
    beta = np.zeros(layout.size)
    beta[blk.slice] = row_only.reshape(-1)
    assert penalty_value(stream3, spec, beta) > 0.0
    assert penalty_value(stream4, spec, beta) == 0.0
    beta[blk.slice] = col_only.reshape(-1)
    assert penalty_value(stream3, spec, beta) == 0.0
    assert penalty_value(stream4, spec, beta) > 0.0


def test_is_null_tracks_family_not_values():
    assert PenaltyConfig.none().is_null
    assert not PenaltyConfig.ridge({(3, INTERCEPT): 0.0}).is_null
    assert not PenaltyConfig.ordering(0.0, 0.0).is_null
    assert PenaltyConfig.composite(PenaltyConfig.none()).is_null


def test_composite_concatenates_terms_in_part_order():
    ridge = PenaltyConfig.ridge({(1, INTERCEPT): 0.3})
    arc1 = PenaltyConfig.arc1({(3, INTERCEPT): 9.0})
    order = PenaltyConfig.ordering(2.0, 3.0)
    nested = PenaltyConfig.composite(PenaltyConfig.composite(ridge, order), arc1)
    assert nested == PenaltyConfig.composite(ridge, order, arc1)
    for cfg in (ridge, order, nested, PenaltyConfig.none()):
        assert PenaltyConfig.composite(cfg) == cfg


def test_block_operators_follow_part_order():
    spec = covariate_spec()
    ridge = PenaltyConfig.ridge({(1, INTERCEPT): 0.3})
    arc1 = PenaltyConfig.arc1({(3, INTERCEPT): 9.0, (3, "x"): 4.0})
    for parts in ((ridge, arc1), (arc1, ridge)):
        ops = PenaltyConfig.composite(*parts).block_operators(spec)
        expected = [op for part in parts for op in part.block_operators(spec)]
        assert [(key, lam) for key, lam, _ in ops] == [(key, lam) for key, lam, _ in expected]
        for (_, _, K), (_, _, K_part) in zip(ops, expected):
            np.testing.assert_array_equal(K, K_part)


def test_penalty_config_rejects_non_finite_values():
    nan, inf = float("nan"), float("inf")
    bad = [
        lambda: PenaltyConfig.ridge({(3, INTERCEPT): nan}),
        lambda: PenaltyConfig.arc1({(3, INTERCEPT): inf}),
        lambda: PenaltyConfig.arc1({(3, INTERCEPT): -1.0}),
        lambda: PenaltyConfig.arc2({(3, INTERCEPT): nan}, {(3, INTERCEPT): 1}),
        lambda: PenaltyConfig.ordering(nan, 1.0),
        lambda: PenaltyConfig.ordering(1.0, inf),
        lambda: PenaltyConfig.ordering(1.0, 1.0, margin=nan),
        lambda: PenaltyConfig.ordering(1.0, 1.0, margin=inf),
    ]
    for make in bad:
        with pytest.raises(ValueError, match="finite and nonnegative"):
            make()
    assert PenaltyConfig.arc1({(3, INTERCEPT): 1e300}).blocks[0][2] == 1e300


def test_penalty_config_rejects_unknown_family_order_and_stream():
    with pytest.raises(ValueError, match="unknown penalty family 'lasso'"):
        PenaltyConfig(blocks=(("lasso", (3, INTERCEPT), 1.0, 0),))
    with pytest.raises(ValueError, match="difference order must be >= 1"):
        PenaltyConfig.arc2({(3, INTERCEPT): 1.0}, {(3, INTERCEPT): 0})
    stream5 = PenaltyConfig.arc2({(5, INTERCEPT): 1.0}, {(5, INTERCEPT): 1})
    with pytest.raises(ValueError, match=r"arc2 stream must be 1\.\.4, got 5"):
        stream5.block_operators(intercept_spec(3, 3))


def test_build_penalty_matrix_rejects_ordering_family():
    spec = intercept_spec(3, 3)
    with pytest.raises(ValueError, match="ordering"):
        build_penalty_matrix(PenaltyConfig.ordering(1.0, 1.0), spec)
    with pytest.raises(ValueError, match="ordering"):
        penalty_value(PenaltyConfig.ordering(1.0, 1.0), spec, np.zeros(spec.layout.size))


def frozen_ordering(spec, dataset, beta, lambda1, lambda2, margin=0.0):
    """The ordering penalty of one replicate, frozen at ``beta``."""
    step = PenaltyOperator([PenaltyConfig.ordering(lambda1, lambda2, margin)], spec)
    X = design_matrices(spec, dataset)
    weights = dataset.counts.sum(axis=(1, 2))
    return ordering_state(step, X[None], weights[None], beta[None])


def test_ordering_state_counts_only_violations():
    spec = intercept_spec(3, 3)
    layout = ParamLayout(spec)
    counts = np.array([[5, 3, 2], [2, 4, 3], [1, 2, 5]])
    dataset = Dataset.merged(spec.pair, [((), counts)])
    weight = float(counts.sum())

    beta = np.zeros(layout.size)
    b1 = layout.block(1, INTERCEPT)
    b2 = layout.block(2, INTERCEPT)
    beta[b1.slice] = [-1.0, 1.0]
    beta[b2.slice] = [-0.5, 0.5]
    state = frozen_ordering(spec, dataset, beta, 2.0, 3.0)
    assert state.tau(beta[None])[0] == 0.0
    np.testing.assert_allclose(state.grad(beta[None])[0], np.zeros(layout.size))

    # reverse the first margin: one violated difference of size 2
    beta[b1.slice] = [1.0, -1.0]
    state = frozen_ordering(spec, dataset, beta, 2.0, 3.0)
    assert state.tau(beta[None])[0] == pytest.approx(weight * 2.0 * 4.0)
    P = build_ordering_penalty(spec, dataset, beta, 2.0, 3.0)
    assert state.tau(beta[None])[0] == pytest.approx(beta @ P @ beta)


def test_ordering_margin_shifts_the_violation_boundary():
    spec = intercept_spec(3, 3)
    layout = ParamLayout(spec)
    counts = np.full((3, 3), 2)
    dataset = Dataset.merged(spec.pair, [((), counts)])
    beta = np.zeros(layout.size)
    beta[layout.block(1, INTERCEPT).slice] = [0.0, 0.1]
    beta[layout.block(2, INTERCEPT).slice] = [0.0, 5.0]
    tight = frozen_ordering(spec, dataset, beta, 1.0, 1.0, margin=0.0)
    assert tight.tau(beta[None])[0] == 0.0
    wide = frozen_ordering(spec, dataset, beta, 1.0, 1.0, margin=0.5)
    assert wide.tau(beta[None])[0] > 0.0


def test_step_penalty_stack_equals_each_replicate_alone():
    spec = covariate_spec()
    rng = np.random.default_rng(7)
    datasets = [
        Dataset(spec.pair, rng.uniform(-1.0, 1.0, (5, 1)), rng.integers(1, 9, (5, 3, 3)))
        for _ in range(2)
    ]
    X = np.stack([design_matrices(spec, ds) for ds in datasets])
    weights = np.stack([ds.counts.sum(axis=(1, 2)) for ds in datasets])
    beta = rng.normal(0.0, 1.0, (2, ParamLayout(spec).size))
    config = PenaltyConfig.composite(
        PenaltyConfig.arc1({(1, "x"): 2.0, (3, INTERCEPT): 1.0}),
        PenaltyConfig.ordering(1.0, 3.0),
        PenaltyConfig.ordering(0.5, 2.0, margin=0.1),
    )
    stack = ordering_state(PenaltyOperator([config] * 2, spec), X, weights, beta)
    assert stack.P.shape == (2, beta.shape[1], beta.shape[1])
    assert all(c.any() and not c.all() for c in stack.coefs)  # some rows violate
    for r in range(2):
        alone = ordering_state(
            PenaltyOperator([config], spec), X[r : r + 1], weights[r : r + 1], beta[r : r + 1]
        )
        sub = stack[np.arange(2) == r]
        for frozen in (alone, sub):
            assert np.array_equal(frozen.tau(beta[r : r + 1]), stack.tau(beta)[r : r + 1])
            assert np.array_equal(frozen.grad(beta[r : r + 1]), stack.grad(beta)[r : r + 1])
            assert np.array_equal(
                frozen.score_tolerance(beta[r : r + 1], 1e-7),
                stack.score_tolerance(beta, 1e-7)[r : r + 1],
            )
            assert np.array_equal(frozen.P, stack.P[r : r + 1])


def _arc1(lam: float) -> PenaltyConfig:
    return PenaltyConfig.arc1({(1, "x"): lam, (3, INTERCEPT): 2.0 * lam})


# one config per replicate: no terms, arc1 at two values, arc2 on the
# association streams, a composite that lists each arc1 term twice and
# one whose terms run in the other order
STACKED_CONFIGS = (
    PenaltyConfig.none(),
    _arc1(0.5),
    _arc1(40.0),
    PenaltyConfig.arc2({(3, INTERCEPT): 3.0, (4, INTERCEPT): 0.7}, {}),
    PenaltyConfig.composite(_arc1(1.5), PenaltyConfig.ridge({(3, "x"): 0.3}), _arc1(2.5)),
    PenaltyConfig.composite(PenaltyConfig.ridge({(3, "x"): 0.3}), _arc1(0.5)),
)


def assert_replicates_alone(stack, alone, beta, rows):
    """Replicate i of ``stack`` at beta[i] has the bits of ``alone(rows[i])``
    at that row."""
    tau, grad = stack.tau(beta), stack.grad(beta)
    tolerance = stack.score_tolerance(beta, 1e-7)
    assert stack.P.shape == (len(rows), beta.shape[1], beta.shape[1])
    for i, r in enumerate(rows):
        op, b = alone(r), beta[i : i + 1]
        assert np.array_equal(op.tau(b), tau[i : i + 1])
        assert np.array_equal(op.grad(b), grad[i : i + 1])
        assert np.array_equal(op.score_tolerance(b, 1e-7), tolerance[i : i + 1])
        assert np.array_equal(op.P, stack.P[i : i + 1])


def test_operator_over_configs_gives_each_replicate_its_own_bits():
    spec = covariate_spec()
    size = ParamLayout(spec).size
    R = len(STACKED_CONFIGS)
    rng = np.random.default_rng(23)
    beta = rng.normal(0.0, 3.0, (R, size))
    keep = np.array([True, False, True, True, False, True])

    stack = PenaltyOperator(list(STACKED_CONFIGS), spec)
    # the repeated terms stay two terms each
    repeated = PenaltyOperator([STACKED_CONFIGS[4]], spec)
    assert sum(bool(lam[4]) for _, lam, _ in stack.terms) == len(repeated.terms) == 5

    def solo(r):
        return PenaltyOperator([STACKED_CONFIGS[r]], spec)

    assert_replicates_alone(stack, solo, beta, range(R))
    # a slice drops the slots at zero for every kept replicate: alone, the
    # arc2 replicate keeps its own two terms only
    lone = np.arange(R) == 3
    assert len(stack[lone].terms) == len(solo(3).terms) == 2
    for mask in (keep, lone):
        assert all(lam.any() for _, lam, _ in stack[mask].terms)
        assert_replicates_alone(stack[mask], solo, beta[mask], np.flatnonzero(mask))

    # a shared ordering term, frozen at beta
    configs = [PenaltyConfig.composite(c, PenaltyConfig.ordering(1.0, 3.0, 0.1)) for c in STACKED_CONFIGS]
    datasets = [
        Dataset(spec.pair, rng.uniform(-1.0, 1.0, (5, 1)), rng.integers(1, 9, (5, 3, 3)))
        for _ in range(R)
    ]
    X = np.stack([design_matrices(spec, ds) for ds in datasets])
    weights = np.stack([ds.counts.sum(axis=(1, 2)) for ds in datasets])
    frozen = ordering_state(PenaltyOperator(configs, spec), X, weights, beta)
    assert all(c.any() and not c.all() for c in frozen.coefs)  # some rows violate

    def frozen_solo(r):
        return ordering_state(
            PenaltyOperator([configs[r]], spec), X[r : r + 1], weights[r : r + 1], beta[r : r + 1]
        )

    assert_replicates_alone(frozen, frozen_solo, beta, range(R))
    for mask in (keep, lone):
        assert_replicates_alone(frozen[mask], frozen_solo, beta[mask], np.flatnonzero(mask))

