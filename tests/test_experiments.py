import concurrent.futures
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transport_langevin import experiments as ex
from transport_langevin import langevin as lg
from transport_langevin import models as md
from transport_langevin import oracle as orc


def test_unknown_override_rejected():
    with pytest.raises(KeyError, match="not_a_key"):
        ex.run_preset("grad-check", seed=0, overrides={"not_a_key": 1})
    with pytest.raises(KeyError, match="unknown preset"):
        ex.run_preset("no-such-preset")


def test_preset_results_are_deterministic():
    a = ex.run_preset("ou-moment", seed=5)
    b = ex.run_preset("ou-moment", seed=5)
    assert a.table_rows == b.table_rows
    assert a.extras == b.extras


def test_ou_moment_holds_one_chunk_and_its_batch_means():
    p = ex.PRESET_DEFAULTS["ou-moment"]
    ex.run_preset("ou-moment", seed=0, overrides={"steps": 3000, "burn_in": 500})   # one-off state
    tracemalloc.start()
    try:
        ex.run_preset("ou-moment", seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk buffer and its squared norms, at most _BLOCK_FLOATS floats each, the batch
    # means and the batch under way, numpy's 64 KB ufunc buffer and small change
    batch_means = 2 * 8 * math.isqrt(p["steps"] - p["burn_in"])
    assert peak <= 2 * 8 * lg._BLOCK_FLOATS + batch_means + (1 << 18), peak


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _batch_growth(width):
    # batch means hold about sqrt(n) values of each of their `width` series twice: the
    # batch means and the batch under way
    return lambda small, big: 2 * 8 * width * (math.isqrt(big) - math.isqrt(small))


# ergodicity's table holds one row a step: the [step, mean gap] list of its results.csv row
# (a two-item list of 72 bytes, an int of 28 and a numpy float of 32) and the (step, gap)
# pair its decay fit reads, about 190 bytes a step at their peak (traced on 4,000 rows);
# 256 bytes a step leaves room for them and is an eighth of the 64 x 4 x 8 = 2,048 bytes
# a step of the stack's record holds
_TABLE_ROW_BYTES = 256


@pytest.mark.parametrize("preset, budgets, sizes, allowed", [
    pytest.param("posterior-validate", lambda kept: dict(burn_in=2000, kept=kept),
                 (20_000, 200_000), _batch_growth(8), id="posterior-validate"),
    pytest.param("stepsize-bias", lambda kept: dict(kept=kept, ref_kept=kept),
                 (20_000, 200_000), _batch_growth(1), id="stepsize-bias"),
    pytest.param("ou-moment", lambda kept: dict(burn_in=2000, steps=2000 + kept),
                 (20_000, 200_000), _batch_growth(1), id="ou-moment"),
    pytest.param("ergodicity", lambda steps: dict(steps=steps), (400, 4000),
                 lambda small, big: _TABLE_ROW_BYTES * (big - small), id="ergodicity"),
])
def test_streamed_presets_hold_no_record(preset, budgets, sizes, allowed):
    # the blocks feed the statistics as they are made, so the working memory grows with
    # the step count only by what the statistics and the output table hold; a record, or
    # ou-moment's trace, would grow by 8 bytes per kept step, mode and member
    def peak(n):
        return _peak_bytes(lambda: ex.run_preset(preset, seed=0, overrides=budgets(n)))

    n_small, n_big = sizes
    # traced warm-up runs: numpy's first calls under tracing leave small buffers live
    peak(n_big)
    peak(n_small)
    small, big = peak(n_small), peak(n_big)
    assert big - small <= allowed(n_small, n_big) + 8192, (small, big)


def _stepwise_ergodicity_gaps(seed, overrides):
    """The ergodicity preset's mean gaps from coupled gld_step loops: two generators with
    the same seed per pair, one step of each chain at a time."""
    p = {**ex.PRESET_DEFAULTS["ergodicity"], **overrides}
    rng = np.random.default_rng(seed)
    basis, model, data, _ = ex._linear_gaussian_setup(rng, p)
    cfg = lg.DynamicsConfig(eta=p["eta"], beta=p["beta"], lam=p["lam"])
    c_dir = rng.standard_normal(p["n_modes"])
    c_dir /= np.linalg.norm(c_dir)
    _, grad = md.risk_objective(model, "squared", data)
    gaps = np.zeros(p["steps"])
    for pair in range(p["n_pairs"]):
        Wa = md.TransportMap(coeffs=md.identity_coeffs(model, basis), basis=basis)
        Wb = md.TransportMap(coeffs=Wa.coeffs + 4.0 + rng.standard_normal(Wa.coeffs.shape),
                             basis=basis)
        states = [lg.ChainState(step=0, map=W) for W in (Wa, Wb)]
        rngs = [np.random.default_rng(seed * 1000 + pair) for _ in states]
        for k in range(p["steps"]):
            states = [lg.gld_step(st, cfg, model, "squared", data, r, lambda W: grad(W.coeffs))
                      for st, r in zip(states, rngs)]
            a, b = (np.tanh(c_dir.dot(st.map.coeffs[:, 0])) for st in states)
            gaps[k] += abs(a - b)
    return gaps / p["n_pairs"], p["gap_floor"]


@pytest.mark.parametrize("seed", [0, 3])
def test_ergodicity_matches_coupled_gld_step_loops(seed):
    overrides = {"steps": 50, "n_pairs": 2}
    gaps, floor = _stepwise_ergodicity_gaps(seed, overrides)
    result = ex.run_preset("ergodicity", seed=seed, overrides=overrides)
    usable = gaps > floor
    assert usable.sum() >= 40
    assert [row[0] for row in result.table_rows] == list(np.arange(1, 51)[usable])
    np.testing.assert_allclose([row[1] for row in result.table_rows], gaps[usable],
                               rtol=0, atol=1e-12)


def test_overrides_change_the_run():
    small = ex.run_preset("grad-check", seed=0, overrides={"n_configs": 3})
    assert len(small.table_rows) == 9  # 3 configs x 3 architectures


def test_sweep_fit_regression_and_insufficient():
    results = [ex.run_preset("regression-rate", 0, {"n": n, "steps": 1500, "burn_in": 500})
               for n in (64, 128)]
    row = ex.sweep_fit("regression-rate", "n", [64, 128], results)
    assert row[3] == "insufficient-points"
    row = ex.sweep_fit("grad-check", "n", [1], [ex.run_preset("bernstein-suite")])
    assert row[1] == "none"


def _criteria(result):
    return [(c.name, c.passed, c.measured) for c in result.criteria]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_sweep_equals_its_runs_one_by_one_and_leaves_no_worker(monkeypatch, cpus):
    # one usable CPU runs the values in this process, two run them in forked workers
    monkeypatch.setattr(ex, "_usable_cpus", lambda: cpus)
    budget, ns = {"steps": 1500, "burn_in": 500}, (64, 128, 256, 512)
    results, fit = ex.sweep("regression-rate", "n", ns, seed=1, overrides=budget)
    assert not multiprocessing.active_children()
    alone = [ex.run_preset("regression-rate", 1, {**budget, "n": n}) for n in ns]
    assert [r.table_rows for r in results] == [r.table_rows for r in alone]
    assert [r.extras for r in results] == [r.extras for r in alone]
    assert [_criteria(r) for r in results] == [_criteria(r) for r in alone]
    assert fit == ex.sweep_fit("regression-rate", "n", ns, alone)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_sweep_raises_the_first_error_in_value_order(monkeypatch, cpus):
    def fake(seed=0, overrides=None):
        if overrides["eta"] >= 0.002:
            raise ValueError(f"no run at eta={overrides['eta']}")
        return ex.ExperimentResult("posterior-validate", seed, [], [], [],
                                   extras={"pid": os.getpid()})

    monkeypatch.setattr(ex, "_usable_cpus", lambda: cpus)
    monkeypatch.setitem(ex.PRESETS, "posterior-validate", fake)
    results, _ = ex.sweep("posterior-validate", "eta", [0.001, 0.0015])
    # the fake ran in this process only when there is one worker
    assert all((r.extras["pid"] == os.getpid()) == (cpus == 1) for r in results)
    with pytest.raises(ValueError) as exc:
        ex.sweep("posterior-validate", "eta", [0.001, 0.003, 0.002])
    assert type(exc.value) is ValueError and str(exc.value) == "no run at eta=0.003"
    assert not multiprocessing.active_children()


def test_stepsize_bias_has_a_fit_but_no_sweep():
    # stepsize-bias fits the biases of its own eta grid; no sweep run reads its fit
    with pytest.raises(KeyError, match="'eta'"):
        ex.sweep("stepsize-bias", "eta", [0.2, 0.1, 0.05])
    result = ex.ExperimentResult("stepsize-bias", 0, [], [], [], extras={"slope": 1.0})
    assert ex.sweep_fit("stepsize-bias", "eta", [0.2], [result])[1] == "none"
    assert ex._fit_row(ex._BIAS_FIT, [0.2, 0.1], [1.0, 0.5])[3] == "insufficient-points"


def test_criterion_result_line_format():
    c = ex.CriterionResult("thing", True, 1.23456, "<= 2")
    assert c.line().startswith("[PASS] thing:")
    c = ex.CriterionResult("thing", False, 9.9, "<= 2")
    assert c.line().startswith("[FAIL]")


def test_classification_sweep_zero_escape_logic():
    # when the largest beta reaches exactly zero error the criterion passes
    # regardless of the correlation, and in whatever order the betas come;
    # zero error at a smaller beta only fails (hand-built results)
    def fit(pairs):
        rows = [ex.ExperimentResult("classification-rate", 0, [], [], [[b, e, 0.33, 10]],
                                    extras={"error_prob": e, "beta": b, "low_noise_gap": 0.33})
                for b, e in pairs]
        return ex.sweep_fit("classification-rate", "beta", [b for b, _ in pairs], rows)

    assert fit([(25.0, 0.5), (50.0, 0.2), (100.0, 0.01), (200.0, 0.0)])[3] is True
    assert fit([(200.0, 0.0), (100.0, 0.01), (50.0, 0.2), (25.0, 0.5)])[3] is True
    assert fit([(25.0, 0.5), (50.0, 0.0), (100.0, 0.1), (200.0, 0.05)])[3] is False


def test_every_declared_default_is_a_preset():
    assert set(ex.PRESET_DEFAULTS) == set(ex.PRESETS) == set(ex._CHECKS)
    # every key the rule table names is a key of its preset, and each shared least value
    # is some preset's
    for preset, checks in ex._CHECKS.items():
        named = set(checks.least).union(*(keys for keys, _, _ in checks.rules),
                                        *(chain[:3] for chain in checks.records)) - {None}
        assert named <= set(ex.PRESET_DEFAULTS[preset]), preset
    assert set(ex._LEAST) <= set().union(*ex.PRESET_DEFAULTS.values())


def _near(low):
    """Numbers at and around a least value of the rule table."""
    if low == -math.inf:
        return [-1e308, -1.0, 0.0]
    return [low - 1, low, low + 1, low + 0.5, float(low), math.nextafter(low, -math.inf),
            math.nextafter(low, math.inf)]


# no number a config key takes: not finite, no number, an empty or nested list, ints no
# float holds
_HOSTILE = [math.nan, math.inf, -math.inf, True, False, "1", "", None, [], [[0.1]], [0.1, "x"],
            {}, 10 ** 400, -10 ** 400]


@pytest.mark.parametrize("preset", sorted(ex.PRESET_DEFAULTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_merged_returns_a_checked_config_or_refuses_it(preset, data):
    defaults = ex.PRESET_DEFAULTS[preset]
    overrides = {}
    for key in data.draw(st.lists(st.sampled_from(sorted(defaults)), min_size=1, max_size=3,
                                  unique=True)):
        number = (st.sampled_from(_near(ex._least(preset, key)[0]) + _HOSTILE)
                  | st.integers(-2, 40) | st.floats(allow_nan=True, allow_infinity=True))
        if isinstance(defaults[key], list):
            number = st.lists(number, min_size=1, max_size=4) | number
        overrides[key] = data.draw(number)
    try:
        out = ex._merged(preset, overrides)
    except (KeyError, ValueError):
        return
    for key, default in defaults.items():
        if isinstance(default, int):
            assert type(out[key]) is int, (key, out[key])
        else:
            values = out[key] if isinstance(default, list) else [out[key]]
            assert values and all(type(v) is float and math.isfinite(v) for v in values), \
                (key, out[key])


def test_pac_bayes_check_rejects_eta_not_below_n():
    # the chain runs at beta = n: a step size at or above n is refused before any run
    for eta in (64.0, 100.0):
        with pytest.raises(ValueError, match="'eta'"):
            ex.run_preset("pac-bayes", overrides={"eta": eta})


def test_pac_bayes_check_rejects_bad_ref_eta_factor(monkeypatch):
    # the reference chain runs at eta * ref_eta_factor and beta = n: a factor <= 0, or
    # one that puts its step size at or above n, is refused before any chain runs
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the overrides were checked")

    monkeypatch.setattr(ex.lg, "run_chain", no_chain)
    monkeypatch.setattr(ex.lg, "run_chains", no_chain)
    for factor in (-1.0, 0.0, 640.0, 1000.0):
        with pytest.raises(ValueError, match="'ref_eta_factor'"):
            ex.run_preset("pac-bayes", overrides={"ref_eta_factor": factor})


def test_pac_bayes_check_rejects_a_schedule_that_records_nothing(monkeypatch):
    # both chains must record a sample: the main chain after burn_in, the reference
    # chain after twice burn_in; refused before any chain runs
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the overrides were checked")

    monkeypatch.setattr(ex.lg, "run_chain", no_chain)
    monkeypatch.setattr(ex.lg, "run_chains", no_chain)
    for overrides, needle in (({"steps": 2000, "burn_in": 2000}, "preset 'pac-bayes'"),
                              ({"steps": 2000, "burn_in": 1000, "thin": 1001},
                               "preset 'pac-bayes'"),
                              ({"ref_steps": 4000}, "'ref_steps'"),
                              ({"ref_steps": 4005, "thin": 10}, "'ref_steps'")):
        with pytest.raises(ValueError, match=needle):
            ex.run_preset("pac-bayes", overrides=overrides)


_SMALL_CORRELATION = {"n_pairs": 5, "n_samples": 20_000}


def _pool_sizes(monkeypatch):
    """Record the max_workers of every pool correlation-suite opens."""
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return sizes


def test_correlation_suite_rows_do_not_depend_on_the_worker_count(monkeypatch):
    sizes = _pool_sizes(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = ex.run_preset("correlation-suite", seed=4, overrides=_SMALL_CORRELATION)
    # four workers, switching threads as often as the interpreter allows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = ex.run_preset("correlation-suite", seed=4, overrides=_SMALL_CORRELATION)
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [1, 4]
    assert one.table_rows == four.table_rows
    assert one.extras == four.extras


def test_correlation_suite_counts_cpus_without_an_affinity_call(monkeypatch):
    sizes = _pool_sizes(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    ex.run_preset("correlation-suite", seed=0, overrides={"n_pairs": 2, "n_samples": 2000})
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    ex.run_preset("correlation-suite", seed=0, overrides={"n_pairs": 2, "n_samples": 2000})
    assert sizes == [2, 1]


def test_correlation_suite_pair_configs_do_not_depend_on_the_sample_count():
    # every pair's (dim, a, b) is drawn before any sample, and each pair samples its own stream
    few = ex.run_preset("correlation-suite", seed=7, overrides={"n_pairs": 8, "n_samples": 2000})
    more = ex.run_preset("correlation-suite", seed=7, overrides={"n_pairs": 8, "n_samples": 5000})
    assert [r[1] for r in few.table_rows] == [r[1] for r in more.table_rows]
    three = ex.run_preset("correlation-suite", seed=7, overrides={"n_pairs": 3, "n_samples": 2000})
    five = ex.run_preset("correlation-suite", seed=7, overrides={"n_pairs": 5, "n_samples": 2000})
    assert five.table_rows[:3] == three.table_rows


def test_correlation_suite_leaves_no_thread_running():
    baseline = threading.active_count()
    ex.run_preset("correlation-suite", seed=0, overrides=_SMALL_CORRELATION)
    assert threading.active_count() == baseline


def test_correlation_suite_max_dim_is_capped_at_the_oracle_cap():
    cap = orc.CORRELATION_DIM_CAP
    res = ex.run_preset("correlation-suite", seed=0,
                        overrides={"n_pairs": 2, "n_samples": 2000, "max_dim": cap})
    assert len(res.table_rows) == 2
    with pytest.raises(ValueError, match="'max_dim'"):
        ex.run_preset("correlation-suite", seed=0, overrides={"max_dim": cap + 1})
