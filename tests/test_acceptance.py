"""End-to-end acceptance checks for the shipped analyses.

Each test covers one acceptance criterion and prints a single
``criterion N: PASS/FAIL (...)`` line with the measured quantities
(run pytest with ``-s`` to see the lines as they appear).  Assertions
carry the same text, so a failing criterion reports its numbers.
"""

import math
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from bolm.estimator import FitOptions, default_start, fit, penalized_score
from bolm.inference import (
    default_null_calibration_truth,
    gray_weights_from_information,
    simulate_lrp_null,
    weighted_chisq_pvalue,
)
from bolm.link_map import (
    IncompatibleEta,
    empirical_log_gors,
    eta_to_pi,
    eta_to_pi_batch,
    pi_to_eta,
)
from bolm.model_core import (
    INTERCEPT,
    Dataset,
    EquationTerms,
    ModelSpec,
    OrdinalPair,
    ParamLayout,
    build_design_matrix,
)
from bolm.penalties import (
    PenaltyConfig,
    build_ordering_penalty,
    build_penalty_matrix,
    marginal_difference_selector,
    penalty_value,
)
from bolm.simulation import run_table1_experiment

DATA = Path(__file__).resolve().parents[1] / "data"


def report(name: str, ok: bool, details: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def os_dataset():
    counts = np.loadtxt(DATA / "occupational_status.dat")
    return Dataset.merged(OrdinalPair(7, 7), [((), counts)])


@pytest.fixture(scope="module")
def upom_fit(os_dataset):
    spec = ModelSpec(OrdinalPair(7, 7), (), uniform_association=True)
    return fit(os_dataset, spec)


def arc2_both_streams(lam: float, s: int) -> PenaltyConfig:
    keys = {(3, INTERCEPT): lam, (4, INTERCEPT): lam}
    orders = {(3, INTERCEPT): s, (4, INTERCEPT): s}
    return PenaltyConfig.arc2(keys, orders)


def test_criterion1_empirical_association():
    t0 = time.perf_counter()
    counts = np.loadtxt(DATA / "liver.dat")
    logg = empirical_log_gors(counts)
    elapsed = time.perf_counter() - t0
    got = (
        round(logg[0, 0], 2),
        logg[0, 1],
        round(logg[1, 0], 2),
        round(logg[1, 1], 2),
    )
    ok = (
        got[0] == 1.72
        and math.isinf(got[1])
        and got[1] > 0
        and got[2] == 3.18
        and got[3] == 3.31
        and elapsed < 1.0
    )
    report(
        "criterion 1",
        ok,
        f"log-GORs {got[0]}, {got[1]}, {got[2]}, {got[3]}; {elapsed:.3f}s",
    )


def test_criterion2_model_ladder(os_dataset):
    spec = ModelSpec(OrdinalPair(7, 7), ())
    rows = [
        ("ridge 1e12", PenaltyConfig.ridge({(3, INTERCEPT): 1e12}), 36, 897.52, 23081.12),
        ("arc1 1e10", PenaltyConfig.arc1({(3, INTERCEPT): 1e10}), 35, 207.22, 22392.83),
        ("arc2 s=2", arc2_both_streams(1e8, 2), 32, 55.85, 22247.46),
        ("arc2 s=3", arc2_both_streams(1e8, 3), 27, 38.36, 22239.96),
        ("arc2 s=4", arc2_both_streams(1e8, 4), 20, 22.74, 22238.34),
        ("unpenalized", PenaltyConfig.none(), 0, 0.00, 22255.60),
    ]
    t0 = time.perf_counter()
    failures = []
    measured = []
    for label, penalty, df_exp, g2_exp, aic_exp in rows:
        res = fit(os_dataset, spec, penalty)
        measured.append(f"{label}: df {res.df_nominal} G2 {res.deviance_g2:.2f} AIC {res.aic:.2f}")
        if res.df_nominal != df_exp:
            failures.append(f"{label} df {res.df_nominal} != {df_exp}")
        if abs(res.deviance_g2 - g2_exp) > 0.5:
            failures.append(f"{label} G2 {res.deviance_g2:.3f} vs {g2_exp}")
        if abs(res.aic - aic_exp) > 1.0:
            failures.append(f"{label} AIC {res.aic:.3f} vs {aic_exp}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(
        "criterion 2",
        not failures,
        "; ".join(failures) if failures else f"{'; '.join(measured)}; {elapsed:.1f}s",
    )


def test_criterion3_aic_profile(os_dataset, upom_fit):
    spec = ModelSpec(OrdinalPair(7, 7), ())
    t0 = time.perf_counter()
    curve: dict[tuple[int, int], float] = {}
    for s in (1, 2, 3, 4):
        start = None
        for g in range(-2, 16):
            penalty = arc2_both_streams(10.0**g, s)
            options = FitOptions() if start is None else FitOptions(start=start)
            res = fit(os_dataset, spec, penalty, options)
            if res.converged:
                curve[(s, g)] = res.aic
                start = res.beta_hat
    elapsed = time.perf_counter() - t0
    (s_min, g_min), aic_min = min(curve.items(), key=lambda kv: kv[1])
    s1_limit = curve[(1, 15)]
    gap = abs(s1_limit - upom_fit.aic)
    failures = []
    if gap > 0.5:
        failures.append(f"s=1 large-lambda AIC {s1_limit:.3f} vs UPOM {upom_fit.aic:.3f}")
    if aic_min > 22238.0:
        failures.append(f"grid minimum {aic_min:.3f} > 22238.0")
    if s_min != 3:
        failures.append(f"grid minimum on s={s_min}, not s=3")
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s >= 600s")
    report(
        "criterion 3",
        not failures,
        "; ".join(failures)
        if failures
        else (
            f"min AIC {aic_min:.2f} at s={s_min}, log10 lambda {g_min}; "
            f"s=1 limit within {gap:.3f} of UPOM; {elapsed:.1f}s"
        ),
    )


def test_criterion4_null_calibration():
    t0 = time.perf_counter()
    res = simulate_lrp_null(
        truth=default_null_calibration_truth(n=400),
        replicates=1500,
        lambdas=(0.0, 1.0, 10.0, 50.0),
        seed=20260816,
    )
    elapsed = time.perf_counter() - t0
    rates = {s.lam: s.rejection_rate for s in res.summaries}
    mixture = {s.lam: s.rejection_rate_mixture for s in res.summaries}
    # the unsmoothed level against chi-squared on 3 df; the smoothed
    # levels against the statistic's own shifted Gray mixture
    checks = [(0.0, "chi2", rates[0.0])]
    checks += [(lam, "mixture", mixture[lam]) for lam in (1.0, 10.0, 50.0)]
    failures = []
    for lam, ref, rate in checks:
        if not 0.03 <= rate <= 0.07:
            failures.append(
                f"{ref} rejection at lambda={lam:g} is {rate:.4f}, outside [0.03, 0.07]"
            )
    # heavy smoothing collapses the statistic below chi-squared's cutoff
    if rates[50.0] > 0.01:
        failures.append(f"rejection at lambda=50 is {rates[50.0]:.4f} > 0.01")
    if elapsed >= 1800.0:
        failures.append(f"runtime {elapsed:.1f}s >= 1800s")
    detail = ", ".join(
        f"rej@{lam:g}={rates[lam]:.4f} (mixture {mixture[lam]:.4f})" for lam in sorted(rates)
    )
    report(
        "criterion 4",
        not failures,
        ("; ".join(failures) + f"; {detail}; {elapsed:.1f}s")
        if failures
        else f"{detail}; {elapsed:.1f}s",
    )


def test_criterion5_loss_benchmark():
    t0 = time.perf_counter()
    res = run_table1_experiment(seed=20260816, replicates=100, n=400, ladder=(0.0, 1.0, 10.0, 100.0))
    elapsed = time.perf_counter() - t0
    nunpom = {row.lam: row for row in res.rows[:-1]}
    upom = res.rows[-1]
    failures = []
    if upom.model != "UPOM" or upom.fss != 100:
        failures.append(f"UPOM FSS {upom.fss} != 100")
    fss = [row.fss for row in res.rows[:-1]]
    if fss != sorted(fss):
        failures.append(f"NUNPOM FSS not non-decreasing: {fss}")
    for lam in (0.0, 1.0, 10.0):
        row = nunpom[lam]
        for name in ("msel", "mrsel", "mel"):
            a, b = getattr(row, name), getattr(upom, name)
            if not a < b:
                failures.append(f"NUNPOM {name}@{lam:g} {a:.5f} not below UPOM {b:.5f}")
    if not nunpom[0.0].aic > nunpom[10.0].aic:
        failures.append(
            f"NUNPOM AIC@0 {nunpom[0.0].aic:.2f} not above AIC@10 {nunpom[10.0].aic:.2f}"
        )
    if elapsed >= 1200.0:
        failures.append(f"runtime {elapsed:.1f}s >= 1200s")
    detail = (
        f"FSS {fss}+UPOM {upom.fss}; msel@0 {nunpom[0.0].msel:.5f} vs UPOM {upom.msel:.5f}; "
        f"AIC@0 {nunpom[0.0].aic:.1f} > AIC@10 {nunpom[10.0].aic:.1f}; {elapsed:.1f}s"
    )
    report("criterion 5", not failures, "; ".join(failures) if failures else detail)


def test_criterion6a_round_trip():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(1000):
        d1 = int(rng.integers(2, 8))
        d2 = int(rng.integers(2, 8))
        pi = rng.dirichlet(np.full(d1 * d2, 1.5)).reshape(d1, d2)
        pi = pi + 1e-4
        pi /= pi.sum()
        pair = OrdinalPair(d1, d2)
        eta = pi_to_eta(pi, pair)
        back = eta_to_pi(eta, pair)
        worst = max(worst, float(np.max(np.abs(back - pi))))
    report("criterion 6a", worst < 1e-10, f"max round-trip error {worst:.2e} over 1000 tables")


def test_criterion6b_score_vs_finite_differences():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    done = 0
    attempts = 0
    while done < 50 and attempts < 400:
        attempts += 1
        m1 = int(rng.integers(2, 5))
        m2 = int(rng.integers(2, 5))
        pair = OrdinalPair(m1, m2)
        n_cov = int(rng.integers(0, 3))
        names = tuple(f"x{j}" for j in range(n_cov))
        eqs = []
        for _k in range(3):
            inc = tuple(nm for nm in names if rng.random() < 0.7)
            dep = tuple(nm for nm in inc if rng.random() < 0.5)
            eqs.append(EquationTerms(included=inc, category_dependent=dep))
        spec = ModelSpec(pair, names, eq1=eqs[0], eq2=eqs[1], eq3=eqs[2])
        profiles = []
        for _ in range(int(rng.integers(3, 8))):
            cov = rng.uniform(-1.0, 1.0, size=n_cov)
            table = rng.poisson(8.0, size=(m1, m2)) + 1
            profiles.append((tuple(cov), table))
        try:
            dataset = Dataset.merged(pair, profiles)
        except ValueError:
            continue  # duplicate covariate-free profiles
        family = ("ridge", "arc1", "arc2", "none")[done % 4]
        if family == "arc2" and (m1 < 3 or m2 < 3):
            family = "ridge"
        lam = float(10.0 ** rng.uniform(-2, 2))
        if family == "ridge":
            penalty = PenaltyConfig.ridge({(3, INTERCEPT): lam})
        elif family == "arc1":
            penalty = PenaltyConfig.arc1({(3, INTERCEPT): lam})
        elif family == "arc2":
            penalty = arc2_both_streams(lam, 1)
        else:
            penalty = PenaltyConfig.none()
        P = build_penalty_matrix(penalty, spec)
        X = np.stack([build_design_matrix(spec, x) for x in dataset.covariates])
        y = dataset.counts.reshape(dataset.n_groups, -1).astype(float)

        def lp(beta):
            pi = eta_to_pi_batch(X @ beta, pair)
            return float((y * np.log(pi)).sum()) - 0.5 * float(beta @ P @ beta)

        base = default_start(dataset, spec)
        beta = None
        for scale in (0.3, 0.15, 0.05, 0.02):
            cand = base + rng.normal(0.0, scale, size=base.size)
            try:
                lp(cand)
                beta = cand
                break
            except IncompatibleEta:
                continue
        if beta is None:
            continue
        h = 1e-5
        g_fd = np.zeros(beta.size)
        ok = True
        for j in range(beta.size):
            e = np.zeros(beta.size)
            e[j] = h
            try:
                g_fd[j] = (lp(beta + e) - lp(beta - e)) / (2 * h)
            except IncompatibleEta:
                ok = False
                break
        if not ok:
            continue
        g = penalized_score(beta, dataset, spec, P)
        rel = float(np.linalg.norm(g_fd - g) / max(1.0, np.linalg.norm(g)))
        worst = max(worst, rel)
        done += 1
    report(
        "criterion 6b",
        done == 50 and worst < 1e-5,
        f"{done} triples, worst relative error {worst:.2e}",
    )


def test_criterion6c_matrix_vs_sum():
    pair = OrdinalPair(4, 4)
    spec = ModelSpec(
        pair,
        ("x",),
        eq1=EquationTerms(included=("x",), category_dependent=("x",)),
    )
    rng = np.random.default_rng(7)
    profiles = [
        ((0.0,), rng.poisson(2.0, size=(4, 4)) + 1),
        ((1.0,), rng.poisson(2.0, size=(4, 4)) + 1),
    ]
    dataset = Dataset.merged(pair, profiles)
    p = ParamLayout(spec).size
    static = {
        "ridge": PenaltyConfig.ridge({(1, INTERCEPT): 0.3, (3, INTERCEPT): 0.9}),
        "arc1": PenaltyConfig.arc1({(3, INTERCEPT): 0.8, (1, "x"): 0.4}),
        "arc2": PenaltyConfig.arc2(
            {(3, INTERCEPT): 0.6, (4, INTERCEPT): 0.5},
            {(3, INTERCEPT): 2, (4, INTERCEPT): 1},
        ),
    }
    X = np.stack([build_design_matrix(spec, x) for x in dataset.covariates])
    weights = dataset.counts.sum(axis=(1, 2)).astype(float)
    M = marginal_difference_selector(pair)
    lam_vec = np.concatenate([np.full(pair.m1 - 1, 0.8), np.full(pair.m2 - 1, 0.5)])
    worst = 0.0
    for family, config in static.items():
        P = build_penalty_matrix(config, spec)
        for _ in range(100):
            beta = rng.normal(0.0, 0.3, size=p)
            diff = abs(float(beta @ P @ beta) - penalty_value(config, spec, beta))
            worst = max(worst, diff)
    for _ in range(100):
        beta = rng.normal(0.0, 0.3, size=p)
        P = build_ordering_penalty(spec, dataset, beta, 0.8, 0.5)
        tau_sum = 0.0
        for g_idx in range(dataset.n_groups):
            v = M @ (X[g_idx] @ beta)
            tau_sum += weights[g_idx] * float(
                (lam_vec * v * v * (v <= 0.0)).sum()
            )
        diff = abs(float(beta @ P @ beta) - tau_sum)
        worst = max(worst, diff)
    report(
        "criterion 6c",
        worst < 1e-12,
        f"max matrix-vs-sum gap {worst:.2e} over four families x 100 draws",
    )


def test_criterion6d_heavy_arc1_matches_uniform(os_dataset, upom_fit):
    spec = ModelSpec(OrdinalPair(7, 7), ())
    res = fit(os_dataset, spec, PenaltyConfig.arc1({(3, INTERCEPT): 1e10}))
    loglik_gap = abs(res.loglik - upom_fit.loglik)
    assoc = res.beta_hat[res.layout.block(3, INTERCEPT).slice]
    upom_assoc = upom_fit.beta_hat[upom_fit.layout.block(3, INTERCEPT).slice]
    coef_gap = max(
        float(np.max(np.abs(assoc - upom_assoc[0]))),
        float(np.max(np.abs(res.beta_hat[:12] - upom_fit.beta_hat[:12]))),
    )
    ok = loglik_gap < 1e-3 and coef_gap < 1e-4
    report(
        "criterion 6d",
        ok,
        f"loglik gap {loglik_gap:.2e}, coefficient gap {coef_gap:.2e}",
    )


def test_criterion6e_arc2_limit_surface(os_dataset):
    spec = ModelSpec(OrdinalPair(7, 7), ())
    worst = 0.0
    for s in (2, 3, 4):
        res = fit(os_dataset, spec, arc2_both_streams(1e8, s))
        surface = res.beta_hat[res.layout.block(3, INTERCEPT).slice]
        r = np.repeat(np.arange(1.0, 7.0), 6)
        c = np.tile(np.arange(1.0, 7.0), 6)
        V = np.column_stack([r**i * c**j for i, j in product(range(s), range(s))])
        coef, *_ = np.linalg.lstsq(V, surface, rcond=None)
        worst = max(worst, float(np.max(np.abs(surface - V @ coef))))
    report(
        "criterion 6e",
        worst < 1e-4,
        f"max projection residual {worst:.2e} over s in (2, 3, 4)",
    )


def test_criterion6f_gray_weights():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(8, 8))
    F = A @ A.T + 8.0 * np.eye(8)
    weights = gray_weights_from_information(F, [2, 5, 6], P=None)
    weight_gap = float(np.max(np.abs(weights - 1.0)))
    failures = []
    if weight_gap > 1e-10:
        failures.append(f"weights deviate from 1 by {weight_gap:.2e}")
    for stat in (1.0, 3.0, 7.815, 12.0):
        p = weighted_chisq_pvalue(stat, np.ones(3))
        ref = float(chi2.sf(stat, df=3))
        if p != ref:
            failures.append(f"stat {stat}: mixture {p!r} vs chi2 {ref!r}")
    report(
        "criterion 6f",
        not failures,
        "; ".join(failures) if failures else f"weight gap {weight_gap:.1e}; chi2 tails equal",
    )


def test_criterion6g_ordering_restores_strictness():
    pair = OrdinalPair(3, 3)
    counts = np.array([[30, 10, 5], [0, 0, 0], [5, 10, 30]])
    dataset = Dataset.merged(pair, [((), counts)])
    spec = ModelSpec(pair, ())
    M = marginal_difference_selector(pair)
    X0 = build_design_matrix(spec, np.zeros(0))

    def min_gap(beta):
        return float(np.min(M @ (X0 @ beta)))

    plain = fit(dataset, spec)
    ordered = fit(dataset, spec, PenaltyConfig.ordering(1e6, 1e6, margin=0.01))
    plain_gap = min_gap(plain.beta_hat)
    ordered_gap = min_gap(ordered.beta_hat)
    ok = plain_gap < 1e-8 and ordered.converged and ordered_gap > 1e-3
    report(
        "criterion 6g",
        ok,
        f"unpenalized min gap {plain_gap:.2e} (violates strictness), "
        f"ordering-penalized min gap {ordered_gap:.4f}, converged {ordered.converged}",
    )
