"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; the experiment presets these tests drive are
seeded, so each criterion is a deterministic check.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from transport_langevin import experiments as ex


def _report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def test_criterion_01_invariant_measure_matches_conjugate_posterior():
    # linear-Gaussian, 8 modes, n=50, beta=n, lam=1/n, eta=1e-3,
    # burn-in 2e4, 2e5 kept steps; per-mode |z| <= 3 and mean rel err <= 5%
    t0 = time.time()
    res = ex.run_preset("posterior-validate", seed=0)
    dt = time.time() - t0
    max_z, rel = res.extras["max_z"], res.extras["rel_err"]
    ok = res.passed and dt <= 120.0
    _report("criterion-1 posterior oracle equivalence", ok,
            f"max |z|={max_z:.3f} (<=3), rel err={rel:.4f} (<=0.05), {dt:.0f}s (<=120s)")
    assert max_z <= 3.0
    assert rel <= 0.05
    assert dt <= 120.0


def test_criterion_02_ou_reference_moment():
    # MC stationary E||Z||^2 within 3 stderr of the closed form, and the
    # closed form below c_mu/(beta*lam), across the 10-config grid
    t0 = time.time()
    res = ex.run_preset("ou-moment", seed=0)
    dt = time.time() - t0
    ok = res.passed and dt <= 30.0
    _report("criterion-2 noise-recursion moment", ok,
            f"max |z|={res.extras['max_z']:.3f} (<=3), bound holds, {dt:.1f}s (<=30s)")
    assert res.passed
    assert dt <= 30.0


def test_criterion_03_stepsize_bias_order():
    # bias of E||W||^2 vs the eta_min/8 reference over eta in {0.2,...,0.025};
    # log-log slope within [0.4, 1.2]
    t0 = time.time()
    res = ex.run_preset("stepsize-bias", seed=0)
    dt = time.time() - t0
    slope = res.extras["slope"]
    eta_ref = min(ex.PRESET_DEFAULTS["stepsize-bias"]["etas"]) / 8.0
    ok = res.passed and 0.4 <= slope <= 1.2 and dt <= 300.0
    _report("criterion-3 step-size bias order", ok,
            f"slope={slope:.3f} (in [0.4, 1.2]), ref eta={eta_ref:g}, {dt:.0f}s (<=300s)")
    assert res.passed, res.criteria[0].line()
    assert 0.4 <= slope <= 1.2
    assert dt <= 300.0


def test_criterion_04_geometric_ergodicity():
    # coupled chains from distant starts: exponential gap decay with
    # r^2 >= 0.9 and positive rate
    t0 = time.time()
    res = ex.run_preset("ergodicity", seed=0)
    dt = time.time() - t0
    rate, r2 = res.extras["rate"], res.extras["r2"]
    ok = r2 >= 0.9 and rate > 0 and dt <= 120.0
    _report("criterion-4 geometric ergodicity", ok,
            f"rate={rate:.3f} (>0), r2={r2:.4f} (>=0.9), {dt:.1f}s (<=120s)")
    assert r2 >= 0.9
    assert rate > 0
    assert dt <= 120.0


def test_criterion_05_gradient_correctness():
    # analytic vs central finite differences, rel err <= 1e-5,
    # 100 random configs per architecture
    t0 = time.time()
    res = ex.run_preset("grad-check", seed=0)
    dt = time.time() - t0
    worst = res.extras["max_rel_err"]
    ok = res.passed and dt <= 60.0
    _report("criterion-5 gradient correctness", ok,
            f"max rel err={worst:.3g} (<=1e-5) over 3x100 configs, {dt:.1f}s (<=60s)")
    for c in res.criteria:
        assert c.passed, c.line()
    assert dt <= 60.0


def test_criterion_06_sup_norm_lipschitz_bound():
    # 1000 random clipped two-layer pairs, 512-point grids inside ||x|| <= D
    res = ex.run_preset("lipschitz-suite", seed=0)
    viol = res.extras["violations"]
    _report("criterion-6 sup-norm map-distance bound", viol == 0,
            f"violations={viol} (=0), worst margin={res.extras['worst_margin']:.3g}")
    assert viol == 0


def test_criterion_07_bernstein_constant_grid():
    # the squared-log-ratio inequality with constant 4+3R on the full
    # feasible grid at step 0.005 for R in {0.5, 1, 2}
    res = ex.run_preset("bernstein-suite", seed=0)
    viol = res.extras["violations"]
    _report("criterion-7 logistic Bernstein grid", viol == 0,
            f"violations={viol} (=0) across all three grids")
    assert viol == 0


def test_criterion_08_correlation_inequality_mc():
    # 20 random centered-ellipsoid pairs, dim <= 6, 1e6 shared samples each
    res = ex.run_preset("correlation-suite", seed=0)
    ok = res.extras["all_ok"]
    worst = min(r[5] for r in res.table_rows)
    _report("criterion-8 product-probability inequality", ok,
            f"all 20 pairs hold within 3 stderr (worst margin {worst:.2f} se)")
    assert ok


def test_criterion_09_regression_fast_rate():
    # teacher-in-model clipped two-layer, n in {64..1024}, beta=n, lam=1/n;
    # fitted excess-risk slope <= -0.5
    t0 = time.time()
    results, (_, _, slope, verdict) = ex.sweep("regression-rate", "n", (64, 128, 256, 512, 1024),
                                               seed=0)
    dt = time.time() - t0
    risks = [r.extras["excess_risk"] for r in results]
    ok = all(r.passed for r in results) and verdict is True and dt <= 1200.0
    _report("criterion-9 regression fast rate", ok,
            f"slope={slope:.3f} (<=-0.5), risks={np.round(risks, 5).tolist()}, "
            f"{dt:.0f}s (<=1200s)")
    assert all(r.passed for r in results)
    assert verdict is True and slope <= -0.5
    assert dt <= 1200.0


def test_criterion_10_classification_exponential_rate():
    # strong-low-noise task (margin audited >= 0.3), beta in {25,50,100,200};
    # log error-probability vs beta correlation <= -0.9, or exact zero at the
    # largest beta
    t0 = time.time()
    results, (_, name, measured, verdict) = ex.sweep("classification-rate", "beta",
                                                     (25.0, 50.0, 100.0, 200.0), seed=0)
    dt = time.time() - t0
    ok = all(r.passed for r in results) and verdict is True and dt <= 1200.0
    errs = [r.extras["error_prob"] for r in results]
    _report("criterion-10 classification exponential rate", ok,
            f"error probs={errs}, audit holds at every beta, fit {name}={measured:.3g}, "
            f"{dt:.0f}s (<=1200s)")
    for r in results:
        for c in r.criteria:
            assert c.passed, c.line()
    assert verdict is True, (name, measured)
    assert dt <= 1200.0


def test_criterion_11_finite_width_training():
    # 8 particles, no width scaling: train loss below 0.1x initial within
    # 5e4 steps
    t0 = time.time()
    res = ex.run_preset("finite-width-demo", seed=0)
    dt = time.time() - t0
    steps = res.extras["steps_needed"]
    ok = res.passed and dt <= 120.0
    _report("criterion-11 finite-width training", ok,
            f"0.1x initial reached at step {steps} (<=50000), {dt:.1f}s (<=120s)")
    assert res.passed
    assert steps <= 50_000
    assert dt <= 120.0


def test_criterion_12_generalization_bound_sanity():
    # bound (with the optimization term replaced by the measured
    # chain-vs-reference gap) dominates the observed train/test gap for
    # 10 seeds of the regression setup
    t0 = time.time()
    res = ex.run_preset("pac-bayes", seed=0)
    dt = time.time() - t0
    worst = max(r[1] for r in res.table_rows)
    ok = res.passed and dt <= 120.0
    _report("criterion-12 generalization bound sanity", ok,
            f"bound >= observed gap on all 10 seeds (largest gap {worst:.4g}), "
            f"{dt:.1f}s (<=120s)")
    assert res.passed and len(res.table_rows) == 10
    assert dt <= 120.0
