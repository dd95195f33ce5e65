import math

import numpy as np
import pytest

from bolm import simulation
from bolm.inference import default_null_calibration_truth
from bolm.link_map import IncompatibleEta
from bolm.model_core import (
    INTERCEPT,
    EquationTerms,
    ModelSpec,
    OrdinalPair,
    group_profiles,
)
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
    uniform_proportional_spec,
)


def test_covariate_law_validation():
    with pytest.raises(ValueError):
        CovariateLaw.bernoulli(1.5)
    with pytest.raises(ValueError):
        CovariateLaw.uniform(1.0, 1.0)
    with pytest.raises(ValueError, match="unknown covariate law"):
        CovariateLaw("fixed")


def test_covariate_law_draws():
    rng = np.random.default_rng(0)
    b = CovariateLaw.bernoulli(0.4).draw(200, rng)
    assert b.shape == (200, 1)
    assert set(np.unique(b)) <= {0.0, 1.0}
    u = CovariateLaw.uniform(-1.0, 1.0).draw(500, rng)
    assert u.shape == (500, 1)
    assert (-1.0 < u).all() and (u < 1.0).all()


def test_generating_model_validates_shapes():
    truth = default_loss_benchmark_truth()
    with pytest.raises(ValueError):
        GeneratingModel(truth.spec, truth.beta_true[:-1], truth.law, 100)
    two = ModelSpec(
        truth.spec.pair, ("x", "z"), truth.spec.eq1, truth.spec.eq2, truth.spec.eq3
    )
    assert two.layout.size == truth.beta_true.size
    with pytest.raises(ValueError, match="width"):
        GeneratingModel(two, truth.beta_true, truth.law, 100)
    with pytest.raises(ValueError):
        GeneratingModel(truth.spec, truth.beta_true, truth.law, 0)


def test_generating_model_rejects_incompatible_designs():
    truth = default_null_calibration_truth()
    # reversed equation-1 intercepts leave no compatible predictor at either
    # value of the Bernoulli covariate
    beta = truth.beta_true.copy()
    beta[truth.spec.layout.block(1, INTERCEPT).slice] = [0.5, -0.5]
    with pytest.raises(IncompatibleEta) as err:
        GeneratingModel(truth.spec, beta, truth.law, truth.n)
    assert str(err.value) == (
        "covariate law is essentially incompatible with the model "
        "(compatible fraction 0.000 over the probed range)"
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


def _sequential_binomial_counts(rng, total, probs):
    """Multinomial draw by sequential binomial conditioning, cell by cell:
    the algorithm and draw order ``Generator.multinomial`` runs."""
    counts = np.zeros(probs.size, dtype=np.int64)
    remaining = int(total)
    tail = 1.0
    for j in range(probs.size - 1):
        if remaining == 0:
            break
        counts[j] = rng.binomial(remaining, min(max(probs[j] / tail, 0.0), 1.0))
        remaining -= int(counts[j])
        tail -= probs[j]
    counts[-1] = remaining
    return counts


@pytest.mark.parametrize(
    "truth",
    [
        default_null_calibration_truth(n=400),
        default_null_calibration_truth(n=37),
        default_loss_benchmark_truth(n=400),
    ],
    ids=["null", "null-small", "loss"],
)
def test_sample_dataset_draws_by_sequential_binomial_conditioning(truth, monkeypatch):
    streams = []

    def recording_rng(seed, stream):
        streams.append(_stream_rng(seed, stream))
        return streams[-1]

    monkeypatch.setattr(simulation, "_stream_rng", recording_rng)
    for seed, stream in [(20260816, 0), (20260816, 9), (20260817, 3), (5, 41)]:
        dataset = sample_dataset(truth, seed, stream)
        rng = _stream_rng(seed, stream)
        rows = truth.draw_covariates(truth.n, rng)
        first, inverse = group_profiles(rows)
        probs = truth.probs_for(rows[first])
        expected = [
            _sequential_binomial_counts(rng, size, p)
            for size, p in zip(np.bincount(inverse), probs)
        ]
        np.testing.assert_array_equal(
            dataset.counts.reshape(dataset.n_groups, -1), expected
        )
        # the stream is left where the reference leaves it
        assert streams[-1].integers(2**63) == rng.integers(2**63)


def test_true_probs_are_distributions():
    truth = default_loss_benchmark_truth(n=150)
    dataset = sample_dataset(truth, seed=3, stream=1)
    probs = truth.probs_for(dataset.covariates)
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
    # only (N, cells) pairs: a 1-d pair would be averaged over its cells
    for shape in [(2,), (1, 3, 3)]:
        with pytest.raises(ValueError, match="2-d"):
            loss_msel(np.full(shape, 0.5), np.full(shape, 0.5))


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
