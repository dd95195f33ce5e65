import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from bolm import estimator, inference
from bolm.estimator import FitOptions, fit, unpenalized_fisher
from bolm.link_map import IncompatibleEta
from bolm.inference import (
    HEAVY_LAMBDA,
    aic_profile,
    default_null_calibration_truth,
    effective_dimension,
    gray_law,
    is_nested,
    lr_test,
    lrp_statistic,
    ppom_chi2_test,
    simulate_lrp_null,
    structural_df,
    weighted_chisq_pvalue,
    weighted_chisq_quantile,
    with_global_effect,
)
from bolm.model_core import (
    INTERCEPT,
    Dataset,
    EquationTerms,
    ModelSpec,
    OrdinalPair,
    ParamLayout,
)
from bolm.penalties import PenaltyConfig, PenaltyOperator
from bolm.simulation import sample_dataset


def nunpom_33() -> ModelSpec:
    t = EquationTerms(("x",), ("x",))
    return ModelSpec(OrdinalPair(3, 3), ("x",), t, t, t)


def upom_33() -> ModelSpec:
    t = EquationTerms(("x",), ())
    return ModelSpec(
        OrdinalPair(3, 3), ("x",), t, t, t, uniform_association=True
    )


def intercept_77() -> ModelSpec:
    t = EquationTerms()
    return ModelSpec(OrdinalPair(7, 7), (), t, t, t)


def test_is_nested_orderings():
    full = nunpom_33()
    reduced = with_global_effect(full, 3, "x")
    assert is_nested(reduced, full)
    assert is_nested(upom_33(), full)
    assert not is_nested(full, upom_33())
    assert not is_nested(full, reduced)
    assert is_nested(full, full)
    z = EquationTerms(("z",), ("z",))
    assert not is_nested(full, ModelSpec(OrdinalPair(3, 3), ("z",), z, z, z))
    assert not is_nested(full, dataclasses.replace(full, pair=OrdinalPair(3, 4)))
    # equal terms: only the association intercepts decide
    uniform = dataclasses.replace(full, uniform_association=True)
    assert not is_nested(full, uniform)
    assert is_nested(uniform, full)


def test_with_global_effect_demotes_one_variable():
    full = nunpom_33()
    reduced = with_global_effect(full, 3, "x")
    assert reduced.eq3.dependent_terms == ()
    assert reduced.eq3.included == ("x",)
    assert reduced.eq1 == full.eq1
    with pytest.raises(ValueError):
        with_global_effect(full, 1, "z")


def test_structural_df_counts_free_directions():
    full = nunpom_33()
    assert structural_df(full, None, with_global_effect(full, 3, "x"), None) == 3
    assert structural_df(full, None, upom_33(), None) == 8

    spec = intercept_77()
    assert ParamLayout(spec).size == 48
    heavy = PenaltyConfig.arc2(
        {(3, INTERCEPT): HEAVY_LAMBDA, (4, INTERCEPT): HEAVY_LAMBDA},
        {(3, INTERCEPT): 4, (4, INTERCEPT): 4},
    )
    assert effective_dimension(spec, heavy) == 28
    assert structural_df(spec, None, spec, heavy) == 20


def test_structural_df_rejects_negative_direction():
    full = nunpom_33()
    with pytest.raises(ValueError):
        structural_df(upom_33(), None, full, None)


def test_gray_weights_identity_without_penalty():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6))
    F = A @ A.T + 6 * np.eye(6)
    w, b = gray_law(F, np.zeros((6, 6)), np.zeros(6), excluded=[1, 4, 5])
    np.testing.assert_allclose(w, np.ones(3), atol=1e-12)
    np.testing.assert_array_equal(b, np.zeros(3))


def test_gray_weights_full_matrix_and_block_slice_agree():
    # a penalty on the tested entries alone gives the eigenvalues of
    # F_dd|g (F_dd|g + P_dd)^-1: the profile information damped by the
    # penalty block
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6))
    F = A @ A.T + 6 * np.eye(6)
    delta = [1, 4, 5]
    gamma = [0, 2, 3]
    B = rng.standard_normal((3, 3))
    P_dd = B @ B.T + 0.5 * np.eye(3)
    P_full = np.zeros((6, 6))
    P_full[np.ix_(delta, delta)] = P_dd
    w_full = gray_law(F, P_full, np.zeros(6), excluded=delta)[0]
    F_dg = F[np.ix_(delta, gamma)]
    profile = F[np.ix_(delta, delta)] - F_dg @ np.linalg.solve(F[np.ix_(gamma, gamma)], F_dg.T)
    brute = np.linalg.eigvals(profile @ np.linalg.inv(profile + P_dd)).real
    np.testing.assert_allclose(np.sort(w_full), np.sort(brute), atol=1e-12)
    assert (w_full <= 1.0).all() and (w_full > 0.0).all()
    heavy = gray_law(F, 1e12 * P_full, np.zeros(6), excluded=delta)[0]
    assert (heavy < 1e-9).all()


def test_gray_weights_match_conditional_eigenvalues_2x2():
    F = np.array([[4.0, 1.0], [1.0, 3.0]])
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    w = gray_law(F, P, np.zeros(2), excluded=[0, 1])[0]
    brute = np.linalg.eigvals(F @ np.linalg.inv(F + P)).real
    np.testing.assert_allclose(np.sort(w), np.sort(brute), atol=1e-12)


def test_gray_weights_invariant_under_delta_reordering():
    F = np.zeros((4, 4))
    F[np.ix_([1, 3], [1, 3])] = [[4.0, 1.0], [1.0, 3.0]]
    F[0, 0] = F[2, 2] = 5.0
    F[0, 1] = F[1, 0] = 0.3
    # the penalty also smooths an untested entry and couples it to a tested one
    P = np.zeros((4, 4))
    P[np.ix_([1, 3], [1, 3])] = [[2.0, 0.5], [0.5, 1.0]]
    P[0, 0] = 1.5
    P[0, 1] = P[1, 0] = -0.4
    wA = gray_law(F, P, np.zeros(4), excluded=[1, 3])[0]
    wB = gray_law(F, P, np.zeros(4), excluded=[3, 1])[0]
    np.testing.assert_allclose(np.sort(wA), np.sort(wB), atol=1e-12)


def test_gray_weights_validate_indices():
    F, P, beta = np.eye(3), np.zeros((3, 3)), np.zeros(3)
    refusals = [
        (dict(F=np.ones((3, 2)), excluded=[0]), "information matrix must be square"),
        # a k x k penalty of the tested entries alone
        (dict(P=np.eye(2), excluded=[0, 1]), r"shape \(2, 2\) does not match \(3, 3\)"),
        (dict(excluded=[0, 0]), "tested indices repeat"),
        (dict(excluded=[0], flattened=[[0, 1]]), "tested indices repeat"),
        (dict(excluded=[5]), "outside the parameter vector"),
        (dict(flattened=[[-1, 0]]), "outside the parameter vector"),
        (dict(), "no tested indices given"),
        (dict(flattened=[[1]]), "two or more entries"),
        (dict(P=np.eye(3), flattened=[[1, 2]]), "does not vanish on a constant block"),
        (dict(beta=np.array([0.5, 0.0, 0.0]), excluded=[0]), "an excluded entry is not zero"),
        (dict(beta=np.array([0.0, 1.0, 2.0]), flattened=[[1, 2]]), "block entries differ"),
    ]
    for case, message in refusals:
        args = {"F": F, "P": P, "beta": beta, **case}
        with pytest.raises(ValueError, match=message):
            gray_law(**args)


def test_weighted_chisq_matches_closed_forms():
    assert weighted_chisq_pvalue(6.25, np.ones(3)) == stats.chi2.sf(6.25, 3)
    # zero weights drop their component entirely, with its shift
    assert weighted_chisq_pvalue(2.7, [1.0, 0.0]) == stats.chi2.sf(2.7, 1)
    assert weighted_chisq_quantile(0.95, [0.0, 2.0], [5.0, 0.0]) == 2.0 * stats.chi2.ppf(0.95, 1)
    # no positive weight: the point mass at 0
    assert weighted_chisq_pvalue(0.0, [0.0, 0.0]) == 0.0
    assert weighted_chisq_pvalue(-1e-9, [0.0]) == 1.0
    assert weighted_chisq_quantile(0.95, [0.0], [1.0]) == 0.0
    # two pairs of equal weights: the sum of exponentials of means 1 and
    # 1/2, whose tail is 2 exp(-x) - exp(-2x)
    w = [0.5, 0.25, 0.5, 0.25]
    for x in (0.01, 0.3, 1.9, 8.0, 20.0):
        assert abs(weighted_chisq_pvalue(x, w) - (2.0 * math.exp(-x) - math.exp(-2.0 * x))) < 1e-10
    q = weighted_chisq_quantile(0.95, w)
    assert abs(2.0 * math.exp(-q) - math.exp(-2.0 * q) - 0.05) < 1e-10
    # equal weights with shifts b: a scaled noncentral chi-squared with
    # noncentrality sum b^2
    b = np.array([1.2, -0.5, 0.3])
    q = weighted_chisq_quantile(0.95, np.full(3, 0.5), b)
    assert abs(stats.ncx2.sf(q / 0.5, 3, b @ b) - 0.05) < 1e-10
    # zero shifts are no shifts
    assert weighted_chisq_quantile(0.95, [0.9, 0.5, 0.2], np.zeros(3)) == (
        weighted_chisq_quantile(0.95, [0.9, 0.5, 0.2])
    )


def _imhof_tail(x, w, b):
    """P(sum w_j (Z_j + b_j)^2 > x) by Imhof's (1961) integral, the
    reference for the Laplace inversion.

    The integrand is sin(phi(u) - x u / 2) / (u rho(u)) with phi and rho
    smooth and slowly varying, so [0, c] is integrated in pieces and the
    oscillating tail beyond c by quad's Fourier weights.
    """

    def phase_amplitude(u):
        wu = w * u
        phase = 0.5 * np.sum(np.arctan(wu) + b * b * wu / (1.0 + wu * wu))
        log_rho = 0.25 * np.sum(np.log1p(wu * wu)) + 0.5 * np.sum((b * wu) ** 2 / (1.0 + wu * wu))
        return phase, math.exp(-log_rho) / u

    def head(u):
        phase, amplitude = phase_amplitude(u)
        return math.sin(phase - 0.5 * x * u) * amplitude

    c = 40.0 / x
    edges = np.linspace(0.0, c, 9)
    total = sum(
        integrate.quad(head, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    for part, weight, sign in ((math.sin, "cos", 1.0), (math.cos, "sin", -1.0)):
        tail = integrate.quad(
            lambda u: part(phase_amplitude(u)[0]) * phase_amplitude(u)[1],
            c, np.inf, weight=weight, wvar=0.5 * x, epsabs=1e-14, limlst=100,
        )[0]
        total += sign * tail
    return 0.5 + total / math.pi


def test_weighted_chisq_quantile_against_imhof():
    # the reference itself, on closed forms
    assert abs(_imhof_tail(6.25, np.ones(3), np.zeros(3)) - stats.chi2.sf(6.25, 3)) < 1e-12
    b = np.array([1.2, -0.5, 0.3])
    assert abs(_imhof_tail(3.0, np.full(3, 0.5), b) - stats.ncx2.sf(6.0, 3, b @ b)) < 1e-12
    rng = np.random.default_rng(26)
    for i in range(12):
        k = 1 + i * 29 // 11  # 1 .. 30
        w = rng.uniform(0.01, 1.0, k)
        b = rng.normal(size=k) if i % 2 else np.zeros(k)
        q = weighted_chisq_quantile(0.95, w, b)
        assert abs(_imhof_tail(q, w, b) - 0.05) < 1e-8, (k, q)
        if i % 2 == 0 and k > 1:
            assert abs(weighted_chisq_pvalue(q, w) - 0.05) < 1e-10
    # equal weights without shifts: the chi-squared law's own bits
    for k in (1, 3, 7):
        assert weighted_chisq_quantile(0.95, np.full(k, 0.5)).hex() == (
            float(0.5 * inference._chi2_ppf(0.95, k)).hex()
        )
        assert weighted_chisq_pvalue(2.5, np.full(k, 0.5)).hex() == (
            float(inference._chi2_sf(5.0, k)).hex()
        )


def test_weighted_chisq_rejects_bad_inputs():
    with pytest.raises(ValueError):
        weighted_chisq_pvalue(1.0, [])
    with pytest.raises(ValueError):
        weighted_chisq_pvalue(1.0, [-0.1, 0.5])
    with pytest.raises(ValueError):
        weighted_chisq_quantile(1.0, [1.0, 0.5])
    with pytest.raises(ValueError):
        weighted_chisq_quantile(0.95, [-0.1, 0.5])
    with pytest.raises(ValueError):
        weighted_chisq_quantile(0.95, [1.0, 0.5], [0.1, 0.2, 0.3])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            weighted_chisq_quantile(0.95, [bad, 0.5])
        with pytest.raises(ValueError, match="finite"):
            weighted_chisq_pvalue(1.0, [bad, 0.5])
        with pytest.raises(ValueError, match="finite"):
            weighted_chisq_quantile(0.95, [1.0, 0.5], [bad, 0.2])


def test_lrp_dual_forms_agree_on_real_fits():
    truth = default_null_calibration_truth(n=400)
    dataset = sample_dataset(truth, seed=314, stream=0)
    full = nunpom_33()
    reduced = with_global_effect(full, 3, "x")
    cfg = PenaltyConfig.arc1({(3, INTERCEPT): 10.0})
    full_fit = fit(dataset, full, cfg)
    reduced_fit = fit(dataset, reduced, cfg)
    assert full_fit.converged and reduced_fit.converged
    # lrp_statistic cross-checks the deviance expansion against the
    # penalized-loglik difference and raises if they disagree
    stat = lrp_statistic(full_fit, reduced_fit)
    direct = -2.0 * (
        (reduced_fit.loglik - 0.5 * reduced_fit.penalty_value)
        - (full_fit.loglik - 0.5 * full_fit.penalty_value)
    )
    assert stat == pytest.approx(direct, abs=1e-10)
    assert stat >= -1e-8
    other_fit = fit(sample_dataset(truth, seed=314, stream=1), reduced, cfg)
    with pytest.raises(ValueError, match="fits come from different datasets"):
        lrp_statistic(full_fit, other_fit)
    with pytest.raises(ValueError, match="reduced model is not nested in the full model"):
        lrp_statistic(reduced_fit, full_fit)


def test_lrp_nonnegative_under_matched_smoothing():
    truth = default_null_calibration_truth(n=400)
    full = nunpom_33()
    reduced = with_global_effect(full, 3, "x")
    for stream in range(5):
        dataset = sample_dataset(truth, seed=88, stream=stream)
        for lam in (0.0, 7.0):
            cfg = (
                PenaltyConfig.none()
                if lam == 0.0
                else PenaltyConfig.arc1({(3, INTERCEPT): lam})
            )
            full_fit = fit(dataset, full, cfg)
            reduced_fit = fit(dataset, reduced, cfg)
            if full_fit.fisher_scoring_failed or reduced_fit.fisher_scoring_failed:
                continue
            assert lrp_statistic(full_fit, reduced_fit) >= -1e-8


def test_ppom_chi2_test_reports_df_and_warnings():
    truth = default_null_calibration_truth(n=400)
    dataset = sample_dataset(truth, seed=314, stream=0)
    full = nunpom_33()
    reduced = with_global_effect(full, 3, "x")
    res = ppom_chi2_test(fit(dataset, full), fit(dataset, reduced))
    assert res.df == 3
    assert res.method == "chi2_approx"
    assert res.p_value_chi2 == pytest.approx(
        stats.chi2.sf(res.statistic, 3), rel=1e-12
    )
    assert res.warnings == ()
    # any smoothing of the tested block earns a warning, lambda = 1 included
    for lam in (1.0, 50.0):
        cfg = PenaltyConfig.arc1({(3, "x"): lam})
        res_pen = ppom_chi2_test(fit(dataset, full, cfg), fit(dataset, reduced))
        assert any("reference is conservative" in w for w in res_pen.warnings)
        assert not any("anti-conservative" in w for w in res_pen.warnings)
    # a model against its smoothed self tests nothing, and the smoothing
    # costs the full fit penalized likelihood
    smoothed = fit(dataset, full, PenaltyConfig.arc1({(3, "x"): 1.0}))
    res_self = ppom_chi2_test(smoothed, fit(dataset, full))
    assert res_self.df == 0 and res_self.statistic < 0.0
    assert res_self.p_value_chi2 == 1.0
    assert len(res_self.warnings) == 1
    assert "eq3:x is smoothed differently in the two fits" in res_self.warnings[0]


# every degree count 1-33, at chi-squared draws and at the edges of the
# support, the values a rounding-level negative statistic takes included
EDGES = np.array([0.0, 1e-300, -1e-300, -1e-9, -1.0, 1e300, np.inf, -np.inf, np.nan])


def chi2_grid():
    rng = np.random.default_rng(20261018)
    for df in range(1, 34):
        yield df, np.concatenate([rng.gamma(df / 2, 2.0, size=20_000), EDGES])


def test_chi2_tail_and_quantile_are_the_bits_of_scipy_stats():
    levels = np.concatenate(
        [np.random.default_rng(7).uniform(size=2_000),
         [0.0, 1.0, 0.95, 1e-300, 1 - 1e-16, -0.1, 1.5, np.nan]]
    )
    for df, x in chi2_grid():
        np.testing.assert_array_equal(inference._chi2_sf(x, df), stats.chi2.sf(x, df))
        np.testing.assert_array_equal(
            inference._chi2_ppf(levels, df), stats.chi2.ppf(levels, df)
        )
    assert inference._chi2_sf(-1e-9, 3) == 1.0


def test_chi2_ks_distance_is_the_bits_of_scipy_stats():
    for df, x in chi2_grid():
        sample = x[~np.isnan(x)][-300:]  # the edges and the last draws
        expected = stats.ks_1samp(sample, stats.chi2(df).cdf).statistic
        assert inference._chi2_ks_distance(sample, df) == expected
        assert inference._chi2_ks_distance(x[:25], df) == (
            stats.ks_1samp(x[:25], stats.chi2(df).cdf).statistic
        )
    assert math.isnan(inference._chi2_ks_distance(np.array([1.0, np.nan]), 2))


def test_ppom_chi2_test_at_a_rounding_level_negative_statistic(monkeypatch):
    truth = default_null_calibration_truth(n=400)
    dataset = sample_dataset(truth, seed=314, stream=0)
    full = nunpom_33()
    reduced = with_global_effect(full, 3, "x")
    monkeypatch.setattr(inference, "lrp_statistic", lambda full_fit, reduced_fit: -1e-9)
    res = ppom_chi2_test(fit(dataset, full), fit(dataset, reduced))
    assert (res.statistic, res.df, res.p_value_chi2) == (-1e-9, 3, 1.0)


def test_gray_null_weights_at_fit():
    truth = default_null_calibration_truth(n=400)
    dataset = sample_dataset(truth, seed=314, stream=0)
    full = nunpom_33()
    full_fit = fit(dataset, full)
    layout = ParamLayout(full)
    blk = layout.block(3, "x")
    idx = list(range(blk.start, blk.start + blk.length))
    beta = full_fit.beta_hat.copy()
    beta[idx] = 0.0  # the information under the hypothesis being tested
    F = unpenalized_fisher(beta, dataset, full)
    w = gray_law(F, np.zeros_like(F), beta, excluded=idx)[0]
    np.testing.assert_allclose(w, np.ones(4), atol=1e-8)
    # first-difference smoothing on the tested block: singular penalty
    # keeps exactly one weight at one, the others strictly below
    P = PenaltyOperator([PenaltyConfig.arc1({(3, "x"): 25.0})], full).P[0]
    w_pen = np.sort(gray_law(F, P, beta, excluded=idx)[0])
    assert w_pen[-1] == pytest.approx(1.0, abs=1e-8)
    assert w_pen[0] < 0.9
    assert (w_pen > 0.0).all()


def test_lr_test_runs_the_chi2_test_on_its_own_fits(monkeypatch):
    truth = default_null_calibration_truth(n=400)
    dataset = sample_dataset(truth, seed=314, stream=0)
    full = nunpom_33()
    reduced = with_global_effect(full, 3, "x")
    cfg = PenaltyConfig.arc1({(3, "x"): 10.0})
    none = PenaltyConfig.none()
    res, full_fit, reduced_fit = lr_test(dataset, full, cfg, reduced, none, None)
    assert res == ppom_chi2_test(fit(dataset, full, cfg), fit(dataset, reduced))
    assert (full_fit.spec, reduced_fit.spec) == (full, reduced)
    # refused before fitting: a flattening hypothesis has no Gray mixture here
    monkeypatch.setattr(inference, "fit", None)
    with pytest.raises(ValueError, match="variable-exclusion"):
        lr_test(dataset, full, cfg, reduced, none, None, mixture=True)


def test_aic_profile_walks_the_grid_and_keeps_the_best_fit(monkeypatch):
    counts = np.array([[12, 8, 5, 3], [7, 14, 9, 4], [4, 9, 13, 8], [2, 5, 9, 15]])
    pair = OrdinalPair(4, 4)
    dataset = Dataset.merged(pair, [((), counts)])
    spec = ModelSpec(pair, ())
    points, best = aic_profile(dataset, spec, (2, 1), (100.0, 0.0))
    assert [(p.order, p.lam) for p in points] == [(1, 0.0), (1, 100.0), (2, 0.0), (2, 100.0)]
    assert all(p.converged for p in points)
    least = min(points, key=lambda p: p.aic)
    assert best.converged and best.aic == least.aic
    keys = {(3, INTERCEPT): least.lam, (4, INTERCEPT): least.lam}
    expected = PenaltyConfig.arc2(keys, {k: least.order for k in keys})
    assert least.lam > 0 and best.penalty == expected
    # an order the association intercepts cannot take, or a model with no
    # association surface to smooth, is refused before any fit
    monkeypatch.setattr(inference, "fit", None)
    monkeypatch.setattr(inference, "fit_batch", None)
    with pytest.raises(ValueError, match="difference order 3"):
        aic_profile(dataset, spec, (1, 3), (0.0,))
    uniform = ModelSpec(pair, (), uniform_association=True)
    with pytest.raises(ValueError, match="nothing to smooth"):
        aic_profile(dataset, uniform, (1,), (1.0,))
    # the walk chooses every start, so a start of the caller's is refused
    with pytest.raises(ValueError, match="options.start"):
        aic_profile(dataset, spec, (1,), (0.0,), FitOptions(start=best.beta_hat))


@pytest.mark.parametrize("error", [IncompatibleEta, FloatingPointError])
def test_aic_profile_propagates_a_raise_from_fit_batch(monkeypatch, error):
    counts = np.array([[12, 8, 5, 3], [7, 14, 9, 4], [4, 9, 13, 8], [2, 5, 9, 15]])
    pair = OrdinalPair(4, 4)
    dataset = Dataset.merged(pair, [((), counts)])
    spec = ModelSpec(pair, ())
    poisoned = inference._profile_penalty(2, 1.0)
    fit_stack = estimator._fit_stack

    def raising(datasets, spec, configs, *rest):
        if poisoned in configs:
            raise error("poisoned")
        return fit_stack(datasets, spec, configs, *rest)

    monkeypatch.setattr(estimator, "_fit_stack", raising)
    with pytest.raises(error, match="poisoned"):
        aic_profile(dataset, spec, (1, 2), (0.0, 1.0, 100.0))


def test_exclusion_tests_warn_about_the_tested_block():
    truth = default_null_calibration_truth(n=400)
    dataset = sample_dataset(truth, seed=314, stream=0)
    full = nunpom_33()
    reduced = dataclasses.replace(full, eq3=EquationTerms())
    cfg = PenaltyConfig.arc1({(3, "x"): 10.0})
    res, _, _ = lr_test(dataset, full, cfg, reduced, PenaltyConfig.none(), None, mixture=True)
    assert res.df == 4
    assert res.warnings == (
        "tested block eq3:x is smoothed at lambda=10; "
        "the chi-squared reference is conservative there",
    )
    assert res.method == "gray_weighted"
    # weights in [0, 1] make the mixture's tail the lighter: chi-squared is conservative
    assert res.p_value_mc <= res.p_value_chi2
    assert res.mc_se is None


def test_simulate_lrp_null_deterministic_and_damped():
    sim = simulate_lrp_null(replicates=30, lambdas=(0.0, 50.0), seed=2026)
    assert sim.df == 3
    assert {s.lam for s in sim.summaries} == {0.0, 50.0}
    again = simulate_lrp_null(replicates=30, lambdas=(0.0, 50.0), seed=2026)
    assert sim.rows() == again.rows()
    stats0 = sim.summaries[0].statistics
    stats50 = sim.summaries[1].statistics
    assert np.mean(stats50) < np.mean(stats0)
    assert (stats50 >= -1e-8).all() and (stats0 >= -1e-8).all()


def test_simulate_lrp_null_does_not_depend_on_chunk_size(monkeypatch):
    # chunks of 1 fit every replicate alone; 7 leaves a ragged last chunk
    runs = []
    for chunk in (1, 7, inference.NULL_CHUNK):
        monkeypatch.setattr(inference, "NULL_CHUNK", chunk)
        runs.append(simulate_lrp_null(replicates=12, lambdas=(0.0, 1.0, 50.0), seed=2026))
    first = runs[0]
    for other in runs[1:]:
        assert other.rows() == first.rows()
        for a, b in zip(first.summaries, other.summaries):
            assert (a.lam, a.n_failed) == (b.lam, b.n_failed)
            for name in ("statistics", "rejection_rate", "ks_distance", "mixture_weights",
                         "mixture_shifts", "rejection_rate_mixture"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_simulate_lrp_null_rejects_noncalibration_truth():
    truth = default_null_calibration_truth(n=200)
    beta = truth.beta_true.copy()
    beta[-1] += 1.0  # association effect no longer constant: not a null
    bad = type(truth)(truth.spec, beta, truth.law, truth.n)
    with pytest.raises(ValueError):
        simulate_lrp_null(truth=bad, replicates=4, lambdas=(0.0,), seed=1)


def test_simulate_lrp_null_refuses_repeated_levels(monkeypatch):
    # a repeated level would pool its records twice into one summary
    monkeypatch.setattr(inference, "fit_batch", None)
    with pytest.raises(ValueError, match="smoothing levels repeat"):
        simulate_lrp_null(
            truth=default_null_calibration_truth(n=200), replicates=5,
            lambdas=(0.0, 1.0, 1.0), seed=1,
        )


def test_gray_flattening_law_two_entry_closed_form():
    # block information diag(a, b), penalty lam (x1 - x2)^2: the contrast
    # has profile information 2ab/(a+b) and penalty 2 lam
    a, b, lam = 2.0, 5.0, 3.0
    F = np.diag([7.0, a, b])
    P = np.zeros((3, 3))
    P[1:, 1:] = lam * np.array([[1.0, -1.0], [-1.0, 1.0]])
    w, shift = gray_law(F, P, np.array([0.4, 1.0, 1.0]), flattened=[[1, 2]])
    np.testing.assert_allclose(w, [a * b / (a * b + lam * (a + b))], rtol=1e-12)
    np.testing.assert_array_equal(shift, [0.0])


def test_gray_flattening_law_matches_quadratic_form_moments():
    # the statistic's local form s' M s, with s ~ N(-P beta, F) and
    # M = (F + P)^-1 - T (T'(F + P) T)^-1 T' for the reduced model's
    # embedding T, has mean tr(MF) + m'Mm and variance
    # 2 tr((MF)^2) + 4 m'MFMm; the shifted mixture must match both
    rng = np.random.default_rng(5)
    A = rng.standard_normal((7, 7))
    F = A @ A.T + 7 * np.eye(7)
    D = np.diff(np.eye(3), axis=0)
    P = np.zeros((7, 7))
    P[:3, :3] = 2.0 * D.T @ D  # shared block, smoothed in both fits
    P[3:6, 3:6] = 1.5 * D.T @ D  # tested block
    beta = np.array([1.0, 1.5, 2.5, -0.4, -0.4, -0.4, 0.3])
    H = F + P

    def check_moments(w, b, T, beta):
        M = np.linalg.inv(H) - T @ np.linalg.inv(T.T @ H @ T) @ T.T
        m = -P @ beta
        MF = M @ F
        np.testing.assert_allclose(
            np.sum(w * (1 + b * b)), np.trace(MF) + m @ M @ m, rtol=1e-10
        )
        np.testing.assert_allclose(
            np.sum(2 * w * w * (1 + 2 * b * b)),
            2 * np.trace(MF @ MF) + 4 * m @ MF @ M @ m,
            rtol=1e-10,
        )

    w, b = gray_law(F, P, beta, flattened=[[3, 4, 5]])
    assert w.shape == b.shape == (2,) and ((w > 0.0) & (w < 1.0)).all()
    T = np.zeros((7, 5))
    T[[0, 1, 2, 6], [0, 1, 2, 4]] = 1.0
    T[3:6, 3] = 1.0
    check_moments(w, b, T, beta)

    # a mixed hypothesis: entry 6 is zero and the block is flat, so the
    # reduced model drops entry 6's column as well
    mixed = beta.copy()
    mixed[6] = 0.0
    w, b = gray_law(F, P, mixed, excluded=[6], flattened=[[3, 4, 5]])
    assert w.shape == b.shape == (3,) and ((w > 0.0) & (w <= 1.0 + 1e-12)).all()
    check_moments(w, b, T[:, :4], mixed)
    # only the symmetric part of the penalty counts, on every hypothesis
    skew = np.triu(np.ones((7, 7)), 1)
    skew -= skew.T
    for args in ({"excluded": [6]}, {"excluded": [6], "flattened": [[3, 4, 5]]}):
        np.testing.assert_allclose(
            np.concatenate(gray_law(F, P + skew, mixed, **args)),
            np.concatenate(gray_law(F, P, mixed, **args)),
            rtol=1e-10, atol=1e-12,
        )

    # the shared smoothing enters the weights: profiling the nuisance
    # with the unpenalized information gives other weights
    w = gray_law(F, P, beta, flattened=[[3, 4, 5]])[0]
    Q = np.eye(7)
    Q[3:6, 3:6] = np.column_stack([np.ones(3), np.eye(3)[:, 1:] - np.eye(3)[:, :1]])
    tested_only = np.zeros((7, 7))
    tested_only[4:6, 4:6] = (Q.T @ P @ Q)[4:6, 4:6]
    assert not np.allclose(
        gray_law(Q.T @ F @ Q, tested_only, np.zeros(7), excluded=[4, 5])[0], w
    )
    with pytest.raises(ValueError, match="does not vanish on a constant block"):
        gray_law(F, P + np.eye(7), beta, flattened=[[3, 4, 5]])
    with pytest.raises(ValueError, match="block entries differ"):
        gray_law(F, P, beta + np.arange(7.0), flattened=[[3, 4, 5]])


def test_simulate_lrp_null_mixture_weights():
    sim = simulate_lrp_null(replicates=6, lambdas=(0.0, 1.0), seed=2026)
    at0, at1 = sim.summaries
    # unsmoothed: every weight is one, nothing shifts, and the mixture is
    # chi-squared on 3 df
    np.testing.assert_array_equal(at0.mixture_weights, np.ones(3))
    np.testing.assert_array_equal(at0.mixture_shifts, np.zeros(3))
    assert at0.rejection_rate_mixture == at0.rejection_rate
    w = at1.mixture_weights
    assert w.shape == at1.mixture_shifts.shape == (3,) and ((w > 0.0) & (w < 1.0)).all()
    assert 0.0 <= at1.rejection_rate_mixture <= 1.0

    # the same weights as a zero-effect test under other contrasts:
    # successive differences and treatment contrasts, neither orthonormal
    truth = default_null_calibration_truth()
    F = sum(
        unpenalized_fisher(truth.beta_true, sample_dataset(truth, seed=2026, stream=r), truth.spec)
        for r in range(6)
    ) / 6
    blk = ParamLayout(truth.spec).block(3, "x")
    idx = np.arange(blk.start, blk.start + blk.length)
    P = PenaltyOperator(
        [PenaltyConfig.arc1({(3, INTERCEPT): 1.0, (3, "x"): 1.0})], truth.spec
    ).P[0]
    np.testing.assert_allclose(
        gray_law(F, P, truth.beta_true, flattened=[idx])[0], w, rtol=1e-12
    )
    for contrasts in (np.eye(4)[:, :3] - np.eye(4)[:, 1:], np.eye(4)[:, 1:]):
        T = np.eye(F.shape[0])
        T[np.ix_(idx, idx)] = np.column_stack([np.ones(4), contrasts])
        np.testing.assert_allclose(
            gray_law(T.T @ F @ T, T.T @ P @ T, np.zeros(len(F)), excluded=idx[1:])[0],
            w,
            rtol=1e-10,
        )
