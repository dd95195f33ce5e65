import math

import numpy as np
import pytest

from bolm import simulation
from bolm.inference import default_null_calibration_truth
from bolm.link_map import IncompatibleEta
from bolm.model_core import INTERCEPT, EquationTerms, ModelSpec, OrdinalPair
from bolm.simulation import (
    _pool_map,
    _stream_rng,
    CovariateLaw,
    GeneratingModel,
    default_loss_benchmark_truth,
    loss_mel,
    loss_msel,
    loss_mrsel,
    run_table1_experiment,
    sample_dataset,
    smoothing_config,
    true_probs,
    uniform_proportional_spec,
)


def test_covariate_law_validation():
    with pytest.raises(ValueError):
        CovariateLaw.bernoulli(1.5)
    with pytest.raises(ValueError):
        CovariateLaw.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        CovariateLaw.fixed(np.zeros(3))
    assert CovariateLaw.bernoulli(0.3).n_covariates == 1
    assert CovariateLaw.fixed(np.zeros((5, 2))).n_covariates == 2


def test_covariate_law_draws():
    rng = np.random.default_rng(0)
    b = CovariateLaw.bernoulli(0.4).draw(200, rng)
    assert b.shape == (200, 1)
    assert set(np.unique(b)) <= {0.0, 1.0}
    u = CovariateLaw.uniform(-1.0, 1.0).draw(500, rng)
    assert (-1.0 < u).all() and (u < 1.0).all()
    design = np.arange(6.0).reshape(3, 2)
    f = CovariateLaw.fixed(design)
    np.testing.assert_array_equal(f.draw(3, rng), design)
    with pytest.raises(ValueError):
        f.draw(4, rng)


def test_generating_model_validates_shapes():
    truth = default_loss_benchmark_truth()
    with pytest.raises(ValueError):
        GeneratingModel(truth.spec, truth.beta_true[:-1], truth.law, 100)
    with pytest.raises(ValueError):
        GeneratingModel(
            truth.spec, truth.beta_true, CovariateLaw.fixed(np.zeros((4, 2))), 4
        )
    with pytest.raises(ValueError):
        GeneratingModel(truth.spec, truth.beta_true, truth.law, 0)


def test_generating_model_rejects_incompatible_designs():
    truth = default_null_calibration_truth()
    # x = -1 pushes the true predictor outside the compatible region
    with pytest.raises(IncompatibleEta, match="row"):
        GeneratingModel(
            truth.spec,
            truth.beta_true,
            CovariateLaw.fixed(np.array([[0.0], [-1.0]])),
            2,
        )


def test_sample_dataset_reproducible_per_stream():
    truth = default_null_calibration_truth(n=300)
    a = sample_dataset(truth, seed=9, stream=4)
    b = sample_dataset(truth, seed=9, stream=4)
    c = sample_dataset(truth, seed=9, stream=5)
    assert a.pair == truth.spec.pair
    assert a.n_total == 300
    assert a.n_groups <= 2  # bernoulli covariate: two profiles at most
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.covariates, b.covariates)
    assert not np.array_equal(a.counts, c.counts)
    # datasets compare by value
    assert a == b and a is not b
    assert a != c


@pytest.mark.parametrize(
    "truth",
    [default_null_calibration_truth(n=400), default_loss_benchmark_truth(n=400)],
    ids=["null", "loss"],
)
def test_sample_dataset_groups_rows_by_first_sight(truth):
    seed = 20260816
    for stream in (0, 1, 7):
        dataset = sample_dataset(truth, seed, stream)
        rows = truth.draw_covariates(truth.n, _stream_rng(seed, stream))
        first_rows: dict[tuple, np.ndarray] = {}
        sizes: dict[tuple, int] = {}
        for row in rows:
            key = tuple(row)
            first_rows.setdefault(key, row)
            sizes[key] = sizes.get(key, 0) + 1
        np.testing.assert_array_equal(
            dataset.covariates, np.array(list(first_rows.values()))
        )
        assert dataset.counts.sum(axis=(1, 2)).tolist() == list(sizes.values())


def test_true_probs_are_distributions():
    truth = default_loss_benchmark_truth(n=150)
    dataset = sample_dataset(truth, seed=3, stream=1)
    probs = true_probs(truth, dataset)
    assert probs.shape == (dataset.n_groups, 9)
    assert (probs > 0.0).all()
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(dataset.n_groups))


def test_losses_zero_at_truth_and_match_hand_values():
    pi = np.array([[0.5, 0.5]])
    assert loss_msel(pi, pi) == 0.0
    assert loss_mrsel(pi, pi) == 0.0
    assert loss_mel(pi, pi) == 0.0
    hat = np.array([[0.25, 0.75]])
    assert loss_msel(pi, hat) == pytest.approx(0.125)
    assert loss_mrsel(pi, hat) == pytest.approx(0.25)
    assert loss_mel(pi, hat) == pytest.approx(0.5 * math.log(4.0 / 3.0))
    with pytest.raises(ValueError):
        loss_mrsel(np.array([[0.0, 1.0]]), hat)
    with pytest.raises(ValueError):
        loss_msel(np.zeros((1, 4)), np.zeros((1, 6)))


def test_uniform_proportional_spec_shape():
    spec = uniform_proportional_spec(OrdinalPair(3, 3), ("x",))
    assert spec.uniform_association
    assert spec.eq1.global_terms == ("x",)
    assert spec.eq3.dependent_terms == ()


def test_smoothing_config_combines_differences_and_ordering():
    truth = default_loss_benchmark_truth()
    assert smoothing_config(truth.spec, 0.0).is_null
    cfg = smoothing_config(truth.spec, 5.0)
    assert cfg.orderings
    targets = {key for key, lam, K in cfg.block_operators(truth.spec)}
    assert (3, INTERCEPT) in targets
    assert (1, "x") in targets and (2, "x") in targets and (3, "x") in targets


def test_run_table1_experiment_structure_and_determinism():
    res = run_table1_experiment(seed=5, replicates=8, n=400, ladder=(0.0, 1.0, 10.0))
    assert [row.model for row in res.rows] == ["NUNPOM"] * 3 + ["UPOM"]
    fss = [row.fss for row in res.rows[:-1]]
    assert fss == sorted(fss)
    assert fss[-1] <= 8
    for row in res.rows:
        if not math.isnan(row.msel):
            assert row.msel >= 0.0 and row.mrsel >= 0.0 and row.mel >= 0.0
    again = run_table1_experiment(seed=5, replicates=8, n=400, ladder=(0.0, 1.0, 10.0))
    for r1, r2 in zip(res.rows, again.rows):
        assert (r1.model, r1.lam, r1.fss) == (r2.model, r2.lam, r2.fss)
        np.testing.assert_array_equal(
            [r1.msel, r1.mrsel, r1.mel, r1.aic], [r2.msel, r2.mrsel, r2.mel, r2.aic]
        )
    with pytest.raises(ValueError):
        run_table1_experiment(seed=5, replicates=2, n=100, ladder=(1.0, 0.0))


class RecordingPool:
    """Stands in for ProcessPoolExecutor: maps in process, keeps the
    worker counts it was asked for."""

    workers: list[int] = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_pool_map_starts_no_pool_for_one_job_and_caps_workers(monkeypatch):
    monkeypatch.setattr(RecordingPool, "workers", [])
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    assert _pool_map(abs, [-3], threads=2) == [3]
    assert _pool_map(abs, [], threads=2) == []
    assert _pool_map(abs, [-1, -2], threads=1) == [1, 2]
    assert RecordingPool.workers == []
    assert _pool_map(abs, [-1, -2], threads=8) == [1, 2]
    assert _pool_map(abs, [-1, -2, -3], threads=2) == [1, 2, 3]
    assert RecordingPool.workers == [2, 2]
