import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bolm.estimator import (
    FitOptions,
    FitResult,
    _Arrays,
    _independence_starts,
    default_start,
    deviance_g2,
    fit,
    fit_batch,
    penalized_score,
    unpenalized_fisher,
)
from bolm.link_map import IncompatibleEta, d_pi_d_eta, eta_to_pi, pi_to_eta
from bolm.model_core import (
    INTERCEPT,
    Dataset,
    EquationTerms,
    ModelSpec,
    OrdinalPair,
    ParamLayout,
    build_design_matrix,
)
from bolm.penalties import PenaltyConfig, build_penalty_matrix
from bolm.inference import (
    _null_penalty,
    default_null_calibration_truth,
    with_global_effect,
)
from bolm.simulation import (
    default_loss_benchmark_truth,
    sample_dataset,
    smoothing_config,
)

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = DATA.parent / "src"


def os_dataset() -> Dataset:
    counts = np.loadtxt(DATA / "occupational_status.dat", dtype=np.int64)
    return Dataset(OrdinalPair(7, 7), np.zeros((1, 0)), counts[None])


def nupom_spec(pair: OrdinalPair) -> ModelSpec:
    t = EquationTerms()
    return ModelSpec(pair, (), t, t, t)


def upom_spec(pair: OrdinalPair) -> ModelSpec:
    t = EquationTerms()
    return ModelSpec(pair, (), t, t, t, uniform_association=True)


def loglik_from_cells(beta, dataset, spec) -> float:
    """Multinomial log likelihood straight from the model map."""
    total = 0.0
    for x, y in zip(dataset.covariates, dataset.counts):
        X = build_design_matrix(spec, x)
        pi = eta_to_pi(X @ beta, spec.pair).reshape(-1)
        total += float(y.reshape(-1) @ np.log(pi))
    return total


def test_penalized_score_matches_finite_differences():
    truth = default_loss_benchmark_truth(n=300)
    spec = truth.spec
    layout = ParamLayout(spec)
    penalties = [
        PenaltyConfig.ridge({(3, INTERCEPT): 2.0}),
        PenaltyConfig.arc1({(3, INTERCEPT): 5.0, (3, "x"): 1.5}),
        PenaltyConfig.arc2(
            {(3, INTERCEPT): 4.0, (4, INTERCEPT): 4.0},
            {(3, INTERCEPT): 1, (4, INTERCEPT): 1},
        ),
    ]
    h = 1e-6
    for trial, cfg in enumerate(penalties):
        dataset = sample_dataset(truth, seed=50, stream=trial)
        P = build_penalty_matrix(cfg, spec)

        def lp(b):
            return loglik_from_cells(b, dataset, spec) - 0.5 * float(b @ P @ b)

        # evaluate away from the optimum but inside the compatible
        # region: blend the fit toward the independence start, backing
        # off when a group's predictor leaves the feasible set
        center = fit(dataset, spec, cfg).beta_hat
        start = default_start(dataset, spec)
        for t in (0.3, 0.15, 0.08, 0.04, 0.02, 0.01):
            beta = (1.0 - t) * center + t * start
            try:
                lp(beta)
                break
            except IncompatibleEta:
                continue
        score = penalized_score(beta, dataset, spec, P)

        for j in range(layout.size):
            up = beta.copy()
            dn = beta.copy()
            up[j] += h
            dn[j] -= h
            num = (lp(up) - lp(dn)) / (2 * h)
            denom = max(1.0, abs(num))
            assert abs(score[j] - num) / denom < 1e-5


def test_upom_fit_reproduces_occupational_status_summary():
    dataset = os_dataset()
    res = fit(dataset, upom_spec(dataset.pair))
    assert res.converged and not res.fisher_scoring_failed
    assert res.edf == pytest.approx(13.0, abs=1e-9)
    assert res.deviance_g2 == pytest.approx(207.22, abs=0.5)
    assert res.aic == pytest.approx(22392.83, abs=1.0)


def test_unpenalized_saturated_association_fits_exactly():
    dataset = os_dataset()
    res = fit(dataset, nupom_spec(dataset.pair))
    assert res.converged
    assert res.edf == pytest.approx(48.0, abs=1e-9)
    assert res.deviance_g2 == pytest.approx(0.0, abs=1e-6)
    assert res.aic == pytest.approx(22255.60, abs=1.0)
    # fitted cells equal observed fractions at the saturated optimum
    observed = dataset.counts[0].reshape(-1)
    np.testing.assert_allclose(
        res.fitted_probs.reshape(-1), observed / observed.sum(), atol=1e-8
    )


def test_heavy_arc1_matches_upom_fit():
    dataset = os_dataset()
    heavy = fit(
        dataset,
        nupom_spec(dataset.pair),
        PenaltyConfig.arc1({(3, INTERCEPT): 1e10}),
    )
    upom = fit(dataset, upom_spec(dataset.pair))
    assert abs(heavy.loglik - upom.loglik) < 1e-3
    layout = ParamLayout(nupom_spec(dataset.pair))
    blk = layout.block(3, INTERCEPT)
    association = heavy.beta_hat[blk.slice]
    upom_value = upom.beta_hat[ParamLayout(upom_spec(dataset.pair)).block(3, INTERCEPT).start]
    np.testing.assert_allclose(association, np.full(36, upom_value), atol=1e-4)


def test_fit_result_penalty_field_never_none():
    dataset = os_dataset()
    res = fit(dataset, upom_spec(dataset.pair), penalty=None)
    assert isinstance(res.penalty, PenaltyConfig)
    assert res.penalty.is_null
    assert res.penalty_value == 0.0


def test_fit_recovers_generating_coefficients_roughly():
    truth = default_loss_benchmark_truth(n=4000)
    dataset = sample_dataset(truth, seed=11, stream=0)
    res = fit(dataset, truth.spec)
    assert res.converged
    np.testing.assert_allclose(res.beta_hat, truth.beta_true, atol=0.45)
    assert res.se.min() > 0.0


def test_warm_start_reconverges_in_few_iterations():
    dataset = os_dataset()
    spec = nupom_spec(dataset.pair)
    cfg = PenaltyConfig.arc2(
        {(3, INTERCEPT): 1e8, (4, INTERCEPT): 1e8},
        {(3, INTERCEPT): 3, (4, INTERCEPT): 3},
    )
    first = fit(dataset, spec, cfg)
    again = fit(dataset, spec, cfg, FitOptions(start=first.beta_hat))
    assert again.iterations <= 2
    np.testing.assert_allclose(again.beta_hat, first.beta_hat, atol=1e-6)
    repeat = fit(dataset, spec, cfg)
    np.testing.assert_array_equal(repeat.beta_hat, first.beta_hat)


def test_fit_rejects_wrong_start_length():
    dataset = os_dataset()
    with pytest.raises(ValueError, match="start length"):
        fit(
            dataset,
            upom_spec(dataset.pair),
            options=FitOptions(start=np.zeros(3)),
        )


def test_infeasible_start_raises_under_an_ordering_penalty():
    dataset = os_dataset()
    spec = nupom_spec(dataset.pair)
    start = np.zeros(spec.layout.size)  # equal cut points: empty middle cells
    with pytest.raises(IncompatibleEta):
        fit(dataset, spec, PenaltyConfig.ordering(1.0, 1.0), FitOptions(start=start))


def test_penalized_lp_trace_is_nondecreasing():
    dataset = os_dataset()
    res = fit(
        dataset,
        nupom_spec(dataset.pair),
        PenaltyConfig.arc1({(3, INTERCEPT): 100.0}),
    )
    trace = np.array(res.lp_trace)
    assert trace.size >= 2
    assert np.all(np.diff(trace) >= -1e-9)
    # the recorded optimum matches loglik - tau / 2 at beta_hat
    lp_last = res.loglik - 0.5 * res.penalty_value
    assert trace[-1] == pytest.approx(lp_last, abs=1e-9)


def test_failure_is_reported_not_raised():
    # a replicate whose saturated-association fit stalls under the
    # iteration cap: failure comes back as a result, not an exception
    truth = default_loss_benchmark_truth(n=400)
    dataset = sample_dataset(truth, seed=20260816, stream=0)
    res = fit(dataset, truth.spec, options=FitOptions(max_iter=60))
    assert res.fisher_scoring_failed
    assert not res.converged
    assert res.failure_reason


def test_fisher_matrices_are_consistent():
    truth = default_loss_benchmark_truth(n=500)
    dataset = sample_dataset(truth, seed=4, stream=0)
    spec = truth.spec
    F = unpenalized_fisher(truth.beta_true, dataset, spec)
    eig = np.linalg.eigvalsh(F)
    assert eig.min() > 0.0


def _information_cases():
    """(dataset, spec, beta0): a 3x3 table with G = 400, a 7x7 with G = 1."""
    truth = default_loss_benchmark_truth(n=400)
    wide = sample_dataset(truth, seed=11, stream=0)
    assert wide.n_groups == 400
    table = os_dataset()
    smoothed = table.counts[0] + 0.5
    # the saturated spec maps beta straight onto eta without the null row
    beta_os = pi_to_eta(smoothed / smoothed.sum())[1:]
    return [
        (wide, truth.spec, truth.beta_true),
        (table, nupom_spec(table.pair), beta_os),
    ]


def test_information_matches_score_finite_differences():
    # with the counts fixed at their expectation n pi(beta0), the score's
    # Jacobian at beta0 is exactly minus the expected information
    for dataset, spec, beta0 in _information_cases():
        arrays = _Arrays([dataset], spec)[0]
        pi0, _ = arrays.probs(beta0)
        arrays.Y = arrays.n[:, None] * pi0

        def score(b):
            return arrays.derivatives(arrays.probs(b)[0])[0]

        h = 1e-5
        jac = np.empty((beta0.size, beta0.size))
        for j in range(beta0.size):
            step = np.zeros(beta0.size)
            step[j] = h
            jac[:, j] = (score(beta0 + step) - score(beta0 - step)) / (2 * h)
        F = unpenalized_fisher(beta0, dataset, spec)
        assert np.max(np.abs(-jac - F)) <= 1e-5 * np.max(np.abs(F))


def test_derivatives_match_per_group_loop():
    for dataset, spec, beta0 in _information_cases():
        arrays = _Arrays([dataset], spec)[0]
        pi, _ = arrays.probs(beta0)
        score, info = arrays.derivatives(pi)
        ref_score = np.zeros(beta0.size)
        ref_info = np.zeros((beta0.size, beta0.size))
        for x, counts, pi_g in zip(dataset.covariates, dataset.counts, pi):
            B = d_pi_d_eta(pi_g, spec.pair) @ build_design_matrix(spec, x)
            y = counts.reshape(-1)
            ref_score += B.T @ (y / pi_g)
            ref_info += y.sum() * B.T @ np.diag(1.0 / pi_g) @ B
        np.testing.assert_allclose(
            score, ref_score, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref_score))
        )
        np.testing.assert_allclose(
            info, ref_info, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref_info))
        )


def test_deviance_matches_direct_formula():
    dataset = os_dataset()
    res = fit(dataset, upom_spec(dataset.pair))
    y = dataset.counts[0].reshape(-1).astype(float)
    expected = y.sum() * res.fitted_probs.reshape(-1)
    direct = 2.0 * float(np.sum(y[y > 0] * np.log(y[y > 0] / expected[y > 0])))
    assert deviance_g2(res) == pytest.approx(direct, rel=1e-12)


def assert_same_fit(got: FitResult, want: FitResult) -> None:
    """Every field of two fits equal bit for bit (NaN equal to NaN)."""
    for field in dataclasses.fields(FitResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, (np.ndarray, tuple, float)):
            assert np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert a is b or a == b, field.name


def assert_batch_equals_solo(datasets, spec, penalty=None):
    batch = fit_batch(datasets, spec, penalty)
    assert len(batch) == len(datasets)
    for dataset, got in zip(datasets, batch):
        assert got.dataset is dataset
        assert_same_fit(got, fit(dataset, spec, penalty))
    return batch


def test_fit_batch_matches_solo_fits_on_null_replicates():
    truth = default_null_calibration_truth()
    reduced = with_global_effect(truth.spec, 3, "x")
    datasets = [sample_dataset(truth, seed=20260816, stream=r) for r in range(12)]
    for lam in (0.0, 1.0, 50.0):
        for spec in (truth.spec, reduced):
            batch = assert_batch_equals_solo(datasets, spec, _null_penalty(lam, spec))
            assert all(res.converged for res in batch)
            # lockstep: replicates stop after different iteration counts
            assert len({res.iterations for res in batch}) > 1


def test_fit_batch_matches_solo_fits_through_failures_and_ordering():
    truth = default_loss_benchmark_truth(n=400)
    datasets = [sample_dataset(truth, seed=20260816, stream=r) for r in (0, 22)]
    stalled, converged = assert_batch_equals_solo(datasets, truth.spec)
    assert stalled.failure_reason.startswith("no acceptable step")
    assert stalled.iterations == 75
    assert converged.converged and converged.iterations == 17
    smooth = smoothing_config(truth.spec, 1.0)
    assert_batch_equals_solo(datasets, truth.spec, smooth)
    # two ordering terms, one with a margin
    second = PenaltyConfig.ordering(0.5, 2.0, 0.1)
    assert_batch_equals_solo(datasets, truth.spec, PenaltyConfig.composite(smooth, second))


def _count_trials(monkeypatch) -> dict[str, int]:
    """Count full cell evaluations (the start's included), the incompatible
    ones, the screen calls, and the trials a screen rejected: the rungs of
    its ladder before the first one that some replicate passes."""
    counts = {"full": 0, "incompatible": 0, "screens": 0, "rejected": 0}
    cells, screen = _Arrays.cells, _Arrays.screen

    def counted_cells(self, beta):
        out = cells(self, beta)
        counts["full"] += 1
        counts["incompatible"] += int(not out[1].all())
        return out

    def counted_screen(self, ladder, groups):
        out = screen(self, ladder, groups)
        passed = out.any(axis=0)
        counts["screens"] += 1
        counts["rejected"] += int(passed.argmax()) if passed.any() else passed.size
        return out

    monkeypatch.setattr(_Arrays, "cells", counted_cells)
    monkeypatch.setattr(_Arrays, "screen", counted_screen)
    return counts


def _loss_datasets(replicates: int) -> tuple:
    truth = default_loss_benchmark_truth(n=400)
    return truth, [sample_dataset(truth, seed=20260816, stream=r) for r in range(replicates)]


def test_screen_flags_equal_the_full_cells_of_the_screened_groups():
    truth, datasets = _loss_datasets(3)
    inside = truth.beta_true
    # a few groups of replicates 0 and 2 break, none of replicate 1
    across = inside + np.eye(inside.size)[-1]
    seen = set()
    for rows in ([0], [0, 1, 2]):
        arrays = _Arrays([datasets[r] for r in rows], truth.spec)
        for beta in (inside, across):
            betas = np.tile(beta, (len(rows), 1))
            pi, ok, _ = arrays.cells(betas)
            broken = np.flatnonzero(~(pi > 0).all(axis=(0, 2)))
            for groups in (broken, np.union1d(broken, [5, 200]), np.arange(0, 400, 7)):
                if not groups.size:
                    continue
                screened = arrays._cells_of(arrays.X[..., groups, :, :], betas)
                assert np.array_equal(screened, pi[..., groups, :], equal_nan=True)
                flags = arrays.screen(betas[:, None], groups)
                want = (pi[..., groups, :] > 0).all(axis=(-2, -1))
                assert flags.shape == (len(rows), 1)
                assert np.array_equal(flags[:, 0], want)
                # a screen never rejects a replicate the full evaluation keeps
                assert not (ok & ~flags[:, 0]).any()
                seen.update(flags.ravel().tolist())
        # a ladder of halved steps from inside towards across: each rung's
        # flags are the full evaluation's at that rung
        betas = np.tile(inside, (len(rows), 1))
        rungs = 0.5 ** np.arange(6)
        ladder = betas[:, None] + rungs[:, None] * (across - inside)
        flags = arrays.screen(ladder, np.arange(0, 400, 3))
        assert flags.shape == (len(rows), rungs.size)
        for j, t in enumerate(rungs):
            pi, _, _ = arrays.cells(betas + t * (across - inside))
            assert np.array_equal(flags[:, j], (pi[:, ::3] > 0).all(axis=(-2, -1)))
    assert seen == {True, False}


def test_one_group_fit_never_screens(monkeypatch):
    counts = _count_trials(monkeypatch)

    def refuse(self, ladder, groups):
        raise AssertionError("screened a one-group fit")

    monkeypatch.setattr(_Arrays, "screen", refuse)
    dataset = os_dataset()
    res = fit(dataset, nupom_spec(dataset.pair))
    assert res.converged
    # the fit did hit the boundary, where a multi-group fit would screen
    assert counts["incompatible"] > 0


def test_screen_saves_full_trials_on_a_boundary_fit(monkeypatch):
    counts = _count_trials(monkeypatch)
    truth, (dataset,) = _loss_datasets(1)
    res = fit(dataset, truth.spec)
    assert res.failure_reason.startswith("no acceptable step")
    trials = counts["full"] - 1 + counts["rejected"]  # the start is no trial
    assert counts["full"] < trials
    # one screen per trial would take 113 full evaluations too
    assert counts["full"] == 113
    # a screen call rejects several trials at once
    assert counts["screens"] < counts["rejected"]


def test_screened_fits_equal_fits_with_every_trial_in_full(monkeypatch):
    counts = _count_trials(monkeypatch)
    truth, (dataset,) = _loss_datasets(1)
    # unpenalized, and smoothed with the ordering penalty
    penalties = (None, smoothing_config(truth.spec, 1.0))
    screened = [fit(dataset, truth.spec, penalty) for penalty in penalties]
    assert screened[0].failure_reason.endswith("at iteration 76")
    assert counts["rejected"] > 100

    def passes(self, ladder, groups):
        return np.ones(ladder.shape[:-1], dtype=bool)

    monkeypatch.setattr(_Arrays, "screen", passes)
    for penalty, want in zip(penalties, screened):
        assert_same_fit(fit(dataset, truth.spec, penalty), want)


def test_derivatives_leave_no_state_in_the_work_array():
    truth, datasets = _loss_datasets(3)
    arrays = _Arrays(datasets, truth.spec)
    pi_a, _ = arrays.probs(np.tile(truth.beta_true, (3, 1)))
    pi_b, _ = arrays.probs(np.stack([default_start(ds, truth.spec) for ds in datasets]))
    first = arrays.derivatives(pi_a)
    arrays.derivatives(pi_b)
    again = arrays.derivatives(pi_a)
    mask = np.array([True, False, True])
    cases = (
        (again, first),
        (arrays[mask].derivatives(pi_a[mask]),
         _Arrays([datasets[0], datasets[2]], truth.spec).derivatives(pi_a[mask])),
        (arrays[0].derivatives(pi_a[0]),
         _Arrays([datasets[0]], truth.spec)[0].derivatives(pi_a[0])),
    )
    for got, want in cases:
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
            assert not np.shares_memory(a, arrays._work)
    assert not any(np.shares_memory(a, arrays._work) for a in first)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_derivatives_fault_in_no_fresh_pages():
    # in a fresh interpreter: how freed pages go back to the kernel depends
    # on what the process allocated before
    code = """if True:
        import resource
        from bolm.estimator import _Arrays
        from bolm.simulation import default_loss_benchmark_truth, sample_dataset
        truth = default_loss_benchmark_truth(n=400)
        dataset = sample_dataset(truth, seed=20260816, stream=0)
        arrays = _Arrays([dataset], truth.spec)[0]
        pi, _ = arrays.probs(truth.beta_true)
        arrays.derivatives(pi)  # the work array's pages fault in once
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            arrays.derivatives(pi)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    # fresh (G*q, p) products fault in about 256 pages a call at G = 400
    assert float(done.stdout) < 32


def test_fit_batch_splits_mixed_group_counts():
    loss = default_loss_benchmark_truth(n=400)
    null = default_null_calibration_truth()
    wide = [sample_dataset(loss, seed=3, stream=r) for r in range(2)]
    narrow = [sample_dataset(null, seed=3, stream=r) for r in range(2)]
    assert {d.n_groups for d in wide} != {d.n_groups for d in narrow}
    assert_batch_equals_solo([narrow[0], wide[0], narrow[1], wide[1]], loss.spec)


def test_fit_batch_isolates_a_rank_deficient_replicate():
    # z is constant in one dataset, where it aliases the eq1 intercepts
    pair = OrdinalPair(3, 3)
    empty = EquationTerms()
    spec = ModelSpec(pair, ("x", "z"), EquationTerms(("x", "z")), empty, empty)
    rng = np.random.default_rng(5)

    def dataset(rows):
        counts = [rng.integers(5, 30, (3, 3)) for _ in rows]
        return Dataset(pair, np.array(rows, float), np.array(counts))

    full_rank = [(0, 0), (1, 0), (0, 1)]
    datasets = [dataset(full_rank), dataset(full_rank), dataset([(0, 1), (1, 1), (2, 1)]),
                dataset(full_rank)]
    batch = assert_batch_equals_solo(datasets, spec)
    assert "rank deficient" in batch[2].failure_reason
    assert batch[2].fisher_scoring_failed and np.isnan(batch[2].cov).all()
    assert all(batch[r].converged for r in (0, 1, 3))


def test_singular_information_at_convergence_fails_the_fit():
    # unit counts in every cell: the independence start is the fit at
    # once, but x2 is always 0, so its design column is zero and the
    # final information is singular
    pair = OrdinalPair(2, 2)
    dataset = Dataset(pair, [[0.0, 0.0], [1.0, 0.0]], np.ones((2, 2, 2), dtype=np.int64))
    spec = ModelSpec(pair, ("x1", "x2"), EquationTerms(("x1", "x2")))
    res = fit(dataset, spec)
    assert not res.converged
    assert res.fisher_scoring_failed
    assert "rank deficient" in res.failure_reason
    assert np.isnan(res.edf) and np.isnan(res.aic)


def test_stacked_starts_equal_default_start():
    truth = default_null_calibration_truth()
    datasets = [sample_dataset(truth, seed=20260816, stream=r) for r in range(5)]
    # one replicate with an empty first category takes the add-0.5 branch
    counts = datasets[3].counts.copy()
    counts[:, 0, :] = 0
    datasets[3] = Dataset(truth.spec.pair, datasets[3].covariates, counts)
    assert (datasets[3].pooled_counts().sum(axis=1) == 0).any()
    for stack in (datasets, datasets[3:4], datasets[:1]):
        starts = _independence_starts(np.stack([ds.pooled_counts() for ds in stack]), truth.spec)
        assert starts.shape == (len(stack), truth.spec.layout.size)
        for dataset, start in zip(stack, starts):
            assert np.array_equal(start, default_start(dataset, truth.spec))


def test_stacked_arrays_equal_the_per_dataset_build():
    for truth in (default_null_calibration_truth(), default_loss_benchmark_truth(n=60)):
        datasets = [sample_dataset(truth, seed=20260816, stream=r) for r in range(4)]
        arrays = _Arrays(datasets, truth.spec)
        for r, dataset in enumerate(datasets):
            X = np.stack([build_design_matrix(truth.spec, x) for x in dataset.covariates])
            assert np.array_equal(arrays.X[r], X)
            assert np.array_equal(arrays.Y[r], dataset.count_matrix())
