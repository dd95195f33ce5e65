import math
import warnings

import numpy as np
import pytest

from bolm.link_map import (
    IncompatibleEta,
    compatible_eta_mask,
    d_pi_d_eta,
    d_pi_d_eta_batch,
    empirical_log_gors,
    eta_to_pi,
    eta_to_pi_batch,
    pi_to_eta,
)
from bolm.model_core import OrdinalPair


def random_pi(rng: np.random.Generator, d1: int, d2: int) -> np.ndarray:
    cells = rng.dirichlet(np.full(d1 * d2, 2.0))
    return cells


def quadrant_log_gor(pi: np.ndarray, d1: int, d2: int, r: int, c: int) -> float:
    """Log global odds ratio at cut (r, c) straight from quadrant sums."""
    table = pi.reshape(d1, d2)
    both_low = table[:r, :c].sum()
    row_low = table[:r, c:].sum()
    col_low = table[r:, :c].sum()
    both_high = table[r:, c:].sum()
    return math.log(both_low * both_high) - math.log(row_low * col_low)


def test_pi_to_eta_matches_hand_formulas_2x2():
    pi = np.array([0.3, 0.2, 0.1, 0.4])
    eta = pi_to_eta(pi, OrdinalPair(2, 2))
    assert eta[0] == 0.0
    assert math.isclose(eta[1], math.log(0.5 / 0.5))
    assert math.isclose(eta[2], math.log(0.4 / 0.6))
    assert math.isclose(eta[3], math.log((0.3 * 0.4) / (0.2 * 0.1)))


def test_pi_to_eta_matches_quadrant_sums_3x4():
    rng = np.random.default_rng(42)
    pair = OrdinalPair(3, 4)
    pi = random_pi(rng, 3, 4)
    eta = pi_to_eta(pi, pair)
    table = pi.reshape(3, 4)
    for r in (1, 2):
        p = table[:r].sum()
        assert math.isclose(eta[r], math.log(p / (1 - p)), rel_tol=1e-12)
    for c in (1, 2, 3):
        p = table[:, :c].sum()
        assert math.isclose(eta[2 + c], math.log(p / (1 - p)), rel_tol=1e-12)
    k = 1 + 2 + 3
    for r in (1, 2):
        for c in (1, 2, 3):
            expected = quadrant_log_gor(pi, 3, 4, r, c)
            got = eta[k + (r - 1) * 3 + (c - 1)]
            assert math.isclose(got, expected, rel_tol=1e-10)


def test_round_trip_random_tables():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        d1 = int(rng.integers(2, 6))
        d2 = int(rng.integers(2, 6))
        pair = OrdinalPair(d1, d2)
        pi = random_pi(rng, d1, d2)
        eta = pi_to_eta(pi, pair)
        back = eta_to_pi(eta, pair).reshape(-1)
        np.testing.assert_allclose(back, pi, atol=1e-11)
        again = pi_to_eta(back, pair)
        np.testing.assert_allclose(again, eta, atol=1e-9)


def test_eta_to_pi_independence_when_association_zero():
    pair = OrdinalPair(3, 3)
    eta = np.zeros(pair.n_eta)
    eta[1:3] = [-1.0, 0.5]
    eta[3:5] = [0.2, 1.3]
    pi = eta_to_pi(eta, pair).reshape(3, 3)
    rows = pi.sum(axis=1)
    cols = pi.sum(axis=0)
    np.testing.assert_allclose(pi, np.outer(rows, cols), atol=1e-12)


def test_incompatible_eta_raises_and_mask_agrees():
    pair = OrdinalPair(3, 3)
    # decreasing marginal logits give a negative band probability
    eta = np.zeros(pair.n_eta)
    eta[1], eta[2] = 2.0, -2.0
    with pytest.raises(IncompatibleEta):
        eta_to_pi(eta, pair)
    mask = compatible_eta_mask(eta[None, :], pair)
    assert mask.shape == (1,)
    assert not mask[0]


def test_link_map_rejects_wrong_predictor_length():
    pair = OrdinalPair(3, 3)
    short = np.zeros((2, pair.n_eta - 1))
    for link in (compatible_eta_mask, eta_to_pi_batch):
        with pytest.raises(ValueError, match="predictor length 8, expected 9"):
            link(short, pair)


def test_compatible_eta_mask_matches_pointwise_raises():
    rng = np.random.default_rng(9)
    pair = OrdinalPair(3, 3)
    etas = np.zeros((40, pair.n_eta))
    etas[:, 1:] = rng.normal(scale=8.0, size=(40, pair.n_eta - 1))
    mask = compatible_eta_mask(etas, pair)
    for i in range(etas.shape[0]):
        try:
            eta_to_pi(etas[i], pair)
            ok = True
        except IncompatibleEta:
            ok = False
        assert ok == bool(mask[i])


def test_eta_to_pi_batch_matches_single():
    rng = np.random.default_rng(3)
    pair = OrdinalPair(3, 2)
    pis = np.array([random_pi(rng, 3, 2) for _ in range(8)])
    etas = np.array([pi_to_eta(p, pair) for p in pis])
    batch = eta_to_pi_batch(etas, pair)
    assert batch.shape == (8, 6)
    np.testing.assert_allclose(batch, pis, atol=1e-11)


TABLE_SIZES = [(2, 2), (3, 3), (3, 5), (7, 7)]


def test_d_pi_d_eta_matches_finite_differences():
    rng = np.random.default_rng(11)
    for d1, d2 in TABLE_SIZES:
        pair = OrdinalPair(d1, d2)
        pi = random_pi(rng, d1, d2)
        eta = pi_to_eta(pi, pair)
        J = d_pi_d_eta(pi, pair)
        h = 1e-6
        num = np.zeros_like(J)
        for j in range(1, pair.n_eta):
            up = eta.copy()
            dn = eta.copy()
            up[j] += h
            dn[j] -= h
            diff = eta_to_pi(up, pair) - eta_to_pi(dn, pair)
            num[:, j] = diff.reshape(-1) / (2 * h)
        np.testing.assert_allclose(J[:, 1:], num[:, 1:], atol=5e-6)
        batch = d_pi_d_eta_batch(pi[None, :], pair)
        np.testing.assert_allclose(batch[0], J, atol=1e-12)
        # without a pair the table's shape gives it
        assert np.array_equal(d_pi_d_eta(pi.reshape(d1, d2)), J)


def d_eta_d_pi(pi: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Gradient of eta = C' log(L pi) in pi, row by row from quadrant masks.

    Row 0 is the null contrast log sum(pi); the margin rows are
    log(low) - log(high); the association rows are the four quadrant
    logs with signs +, -, -, +.
    """
    i, j = np.divmod(np.arange(d1 * d2), d2)
    rows = [np.ones(d1 * d2) / pi.sum()]
    for low in [i < r for r in range(1, d1)] + [j < c for c in range(1, d2)]:
        rows.append(low / pi[low].sum() - ~low / pi[~low].sum())
    for r in range(1, d1):
        for c in range(1, d2):
            grad = np.zeros(d1 * d2)
            for a1_low, a2_low, sign in ((1, 1, 1), (1, 0, -1), (0, 1, -1), (0, 0, 1)):
                mask = ((i < r) == a1_low) & ((j < c) == a2_low)
                grad += sign * mask / pi[mask].sum()
            rows.append(grad)
    return np.array(rows)


@pytest.mark.parametrize("d1, d2", TABLE_SIZES)
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_d_pi_d_eta_batch_inverts_the_link_gradient(d1, d2, lead):
    rng = np.random.default_rng(d1 * 10 + d2)
    pair = OrdinalPair(d1, d2)
    pi = rng.dirichlet(np.full(d1 * d2, 2.0), size=lead)
    J = d_pi_d_eta_batch(pi, pair)
    assert J.shape == (*lead, pair.n_cells, pair.n_eta)
    for idx in np.ndindex(*lead):
        D = d_eta_d_pi(pi[idx], d1, d2)
        np.testing.assert_allclose(J[idx] @ D, np.eye(pair.n_cells), atol=1e-10)
        np.testing.assert_allclose(D @ J[idx], np.eye(pair.n_eta), atol=1e-10)


def test_empirical_log_gors_quadrants_and_infinities():
    counts = np.array([[10, 0], [5, 20]])
    grid = empirical_log_gors(counts)
    assert np.isposinf(grid[0, 0])
    counts = np.array([[0, 10], [20, 5]])
    assert np.isneginf(empirical_log_gors(counts)[0, 0])
    counts = np.array([[4, 6], [8, 12]])
    expected = math.log((4 * 12) / (6 * 8))
    assert math.isclose(empirical_log_gors(counts)[0, 0], expected)
    # both quadrant products zero: no odds ratio, and no warning
    counts = np.array([[0, 0], [5, 20]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = empirical_log_gors(counts)
    assert np.isnan(grid[0, 0])


def _extreme_rows(pair: OrdinalPair) -> np.ndarray:
    """Predictors at the edges of the link map on a 3x3 table.

    Every association entry takes one log odds ratio from +/-30 to
    +/-1000; both margins sit at logit 0, 5, 20, 35 or 40 (either sign)
    with cuts that are ordered, tied or disordered, on one margin at a
    time.
    """
    log_psis = [0.0] + [s * v for v in (30.0, 300.0, 690.0, 700.0, 1000.0) for s in (1, -1)]
    centres = [0.0] + [s * v for v in (5.0, 20.0, 35.0, 40.0) for s in (1, -1)]
    cuts = {"ordered": (-0.5, 0.5), "tied": (0.0, 0.0), "disordered": (0.5, -0.5)}
    patterns = [("ordered", "ordered"), ("tied", "ordered"), ("disordered", "ordered"),
                ("ordered", "tied"), ("ordered", "disordered")]
    rows = []
    for log_psi in log_psis:
        for centre in centres:
            for first, second in patterns:
                eta = np.zeros(pair.n_eta)
                eta[1:3] = centre + np.array(cuts[first])
                eta[3:5] = centre + np.array(cuts[second])
                eta[5:] = log_psi
                rows.append(eta)
    return np.array(rows)


def test_link_map_extremes_raise_or_sum_to_one_without_warnings():
    pair = OrdinalPair(3, 3)
    rows = _extreme_rows(pair)
    assert rows.shape == (495, pair.n_eta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mask = compatible_eta_mask(rows, pair)
        for eta, compatible in zip(rows, mask):
            try:
                pi = eta_to_pi_batch(eta[None, :], pair)
            except IncompatibleEta:
                assert not compatible
                continue
            assert compatible
            assert abs(pi.sum() - 1.0) <= 1e-12
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # the probe reaches both outcomes
    assert mask.any() and not mask.all()


def test_jacobian_at_link_map_extremes_is_finite_without_warnings():
    pair = OrdinalPair(3, 3)
    rows = _extreme_rows(pair)
    pi = eta_to_pi_batch(rows[compatible_eta_mask(rows, pair)], pair)
    assert len(pi) == 27 and pi.min() < 1e-300  # cells deep in the subnormals
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        J = d_pi_d_eta_batch(pi, pair)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.isfinite(J).all()
    np.testing.assert_array_equal(J[..., 0], pi)
    # cells sum to 1 whatever eta_1.., so those columns sum to 0
    col_sums = J[..., 1:].sum(axis=-2)
    assert (np.abs(col_sums) <= 1e-14 * np.abs(J[..., 1:]).sum(axis=-2)).all()
