import dataclasses
import itertools
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transport_langevin import experiments as ex
from transport_langevin import langevin as lg
from transport_langevin import models as md
from transport_langevin import oracle as orc
from transport_langevin.spectral import (EigenSequence, SpectralBasis, cosine_basis,
                                         diagonal_basis, eval_basis, gram_eigenbasis,
                                         make_eigen_sequence, resolvent_S_eta)


# the objective as the package builds it, before any test substitutes another
_RISK_OBJECTIVE = md.risk_objective


def _no_affine_objective(*args):
    """The package's objective with a gradient that declares no affine form, as a
    substituted objective's does: run_chain takes it step by step, bit for bit."""
    value, grad = _RISK_OBJECTIVE(*args)
    return value, lambda c: grad(c)


def _linear_setup(n_modes=4, n=12, seed=0):
    rng = np.random.default_rng(seed)
    basis = cosine_basis(n_modes, dim_in=1)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    x = rng.uniform(0, 1, (n, 1))
    y = rng.standard_normal(n) * 0.5
    return model, md.Dataset(x=x, y=y)


def test_config_validation():
    with pytest.raises(ValueError):
        lg.DynamicsConfig(eta=0.5, beta=0.4, lam=1.0)  # beta <= eta
    with pytest.raises(ValueError):
        lg.DynamicsConfig(eta=-0.1, beta=1.0, lam=1.0)
    cfg = lg.DynamicsConfig(eta=0.1, beta=np.inf, lam=1.0)
    assert cfg.noise_amp == 0.0


def test_gld_step_pure_resolvent_contraction():
    # zero gradient, noise disabled: one step is exactly the resolvent
    basis = diagonal_basis(1, c_mu=1.0)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    W = md.TransportMap(coeffs=np.array([[1.0]]), basis=basis)
    cfg = lg.DynamicsConfig(eta=0.1, beta=np.inf, lam=1.0)
    state = lg.ChainState(step=0, map=W)
    rng = np.random.default_rng(0)
    out = lg.gld_step(state, cfg, model, "squared", None, rng,
                      grad_fn=lambda m: np.zeros_like(m.coeffs))
    assert out.map.coeffs[0, 0] == pytest.approx(1.0 / 1.1, rel=1e-14)
    assert out.step == 1
    # strict contraction of the norm
    assert np.linalg.norm(out.map.coeffs) < np.linalg.norm(W.coeffs)


def test_gld_step_eta_zero_is_identity():
    basis = diagonal_basis(3)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    W = md.TransportMap(coeffs=np.array([[1.0], [2.0], [-0.5]]), basis=basis)
    cfg = lg.DynamicsConfig(eta=0.0, beta=1.0, lam=1.0)
    out = lg.gld_step(lg.ChainState(step=0, map=W), cfg, model, "squared", None,
                      np.random.default_rng(0), grad_fn=lambda m: np.ones_like(m.coeffs))
    np.testing.assert_array_equal(out.map.coeffs, W.coeffs)


def test_gld_step_divergence_carries_last_state():
    basis = diagonal_basis(2)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    W = md.TransportMap(coeffs=np.ones((2, 1)), basis=basis)
    cfg = lg.DynamicsConfig(eta=0.1, beta=np.inf, lam=1.0)
    state = lg.ChainState(step=5, map=W)
    with pytest.raises(lg.ChainDivergedError) as exc:
        lg.gld_step(state, cfg, model, "squared", None, np.random.default_rng(0),
                    grad_fn=lambda m: np.full_like(m.coeffs, np.inf))
    assert exc.value.state is state
    np.testing.assert_array_equal(exc.value.state.map.coeffs, np.ones((2, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gld_step_non_finite_update_raises_once_without_warnings(bad, monkeypatch):
    basis = diagonal_basis(3)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    state = lg.ChainState(step=2, map=md.TransportMap(coeffs=np.ones((3, 2)), basis=basis))
    cfg = lg.DynamicsConfig(eta=0.1, beta=4.0, lam=1.0)
    checks = []
    real_isfinite = np.isfinite
    monkeypatch.setattr(lg.np, "isfinite", lambda a: checks.append(1) or real_isfinite(a))
    for grad in (np.zeros((3, 2)), np.full((3, 2), bad)):
        checks.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = lg.gld_step(state, cfg, model, "squared", None, np.random.default_rng(0),
                                  grad_fn=lambda m: grad)
            except lg.ChainDivergedError as exc:
                assert np.isnan(bad) or np.isinf(bad)
                assert exc.state is state
            else:
                assert out.step == 3 and np.all(real_isfinite(out.map.coeffs))
        assert len(checks) == 1
    # a state built by a caller is still checked
    with pytest.raises(ValueError, match="non-finite"):
        lg.ChainState(step=0, map=md.TransportMap(coeffs=np.full((3, 1), bad), basis=basis))


def test_zero_gradient_chain_matches_discrete_stationary_variance():
    # the chain with zero gradient samples the discrete-scheme Gaussian whose
    # per-mode variance is 2*mu/(beta*lam*(2+eta*lam/mu))
    n_modes = 3
    basis = diagonal_basis(n_modes)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    cfg = lg.DynamicsConfig(eta=0.2, beta=2.0, lam=1.0,
                            steps=60_000, burn_in=2_000, thin=1, seed=42)
    rng = np.random.default_rng(cfg.seed)
    state = lg.ChainState(step=0, map=md.TransportMap(coeffs=np.zeros((n_modes, 1)), basis=basis))
    zero_grad = lambda m: np.zeros_like(m.coeffs)
    kept = []
    for _ in range(cfg.steps):
        state = lg.gld_step(state, cfg, model, "squared", None, rng, grad_fn=zero_grad)
        if state.step > cfg.burn_in:
            kept.append(state.map.coeffs[:, 0].copy())
    kept = np.array(kept)
    target = lg.gld_zero_grad_stationary_variance(cfg, basis.eigen)
    for k in range(n_modes):
        sq = kept[:, k] ** 2
        se = orc.batch_means_stderr(sq)
        assert abs(sq.mean() - target[k]) < 3 * se, f"mode {k}"
    # eta -> 0 limit recovers the reference-measure variance mu/(beta*lam)
    cfg0 = lg.DynamicsConfig(eta=1e-9, beta=2.0, lam=1.0)
    np.testing.assert_allclose(lg.gld_zero_grad_stationary_variance(cfg0, basis.eigen),
                               basis.eigen.mu / 2.0, rtol=1e-8)


@pytest.mark.parametrize("path, steps, tol", [("block", 200_000, 0.05), ("step", 50_000, 0.10)])
def test_a_linear_chain_samples_the_exact_discrete_stationary_covariance(path, steps, tol):
    # x' = A x + c + S amp eps with A = S(I - eta H), H = (2/n) Phi^T Phi from the basis's
    # features: the stationary covariance solves Sigma = A Sigma A^T + Q, Q = (2 eta/beta) S^2
    # (a Kronecker solve).  Each mode's sample variance matches it on both paths, so the
    # noise amplitude of a chain with a gradient is checked: noise x1.5 puts it 2.25x off
    model, data = _linear_setup(n_modes=3, n=12, seed=3)
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5, steps=steps + 1000, burn_in=1000,
                            seed=3)
    Phi = eval_basis(model.basis, data.x)
    H = 2.0 / len(data.y) * Phi.T.dot(Phi)
    S = np.diag(1.0 / (1.0 + cfg.eta * cfg.lam / model.basis.mu))
    A = S.dot(np.eye(3) - cfg.eta * H)
    Q = 2.0 * cfg.eta / cfg.beta * S.dot(S)
    sigma = np.linalg.solve(np.eye(9) - np.kron(A, A), Q.reshape(-1)).reshape(3, 3)
    assert np.abs(np.linalg.eigvals(A)).max() < 0.95     # mixes well within the burn-in
    solves, ar1_blocks = [], lg._ar1_blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lg, "_ar1_blocks", lambda *a: solves.append(1) or ar1_blocks(*a))
        if path == "step":
            mp.setattr(md, "risk_objective", _no_affine_objective)
        records = lg.run_chain(cfg, model, "squared", data).coeffs[:, :, 0]
    assert (len(solves) > 0) == (path == "block")
    rel = records.var(axis=0) / np.diag(sigma) - 1.0
    assert np.all(np.abs(rel) <= tol), rel


# steps per block of the stepwise tests that cross block boundaries, set by monkeypatching:
# stepwise records do not depend on the block length, and the record schedule is also
# tested at the real length (test_run_chain_record_at_the_real_block_size_...)
_SB = 64


def test_run_chain_matches_stepwise_updates(monkeypatch):
    # run_chain and gld_step share one update function: equal bit for bit, noise included,
    # across two block boundaries and with a record schedule that does not divide the block
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5,
                            steps=2 * _SB + 3, burn_in=5, thin=7, seed=21)
    monkeypatch.setattr(lg, "_BLOCK", _SB)
    monkeypatch.setattr(md, "risk_objective", _no_affine_objective)
    traj = lg.run_chain(cfg, model, "squared", data)
    rng = np.random.default_rng(cfg.seed)
    state = _identity_start(model, 0)
    stepwise = []
    for k in range(cfg.steps):
        state = lg.gld_step(state, cfg, model, "squared", data, rng)
        stepwise.append(state.map.coeffs)
    expected_steps = np.arange(cfg.burn_in + cfg.thin, cfg.steps + 1, cfg.thin)
    np.testing.assert_array_equal(traj.steps, expected_steps)
    np.testing.assert_array_equal(traj.coeffs, np.array(stepwise)[expected_steps - 1])
    np.testing.assert_array_equal(traj.final_state.map.coeffs, state.map.coeffs)


def test_run_chain_divergence_carries_last_finite_state():
    # eta * lambda_max(H) > 2 on the retained modes: the squared-loss chain blows up
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=2.0, beta=4.0, lam=0.5, steps=5000, seed=21)
    with pytest.raises(lg.ChainDivergedError) as exc:
        lg.run_chain(cfg, model, "squared", data)
    last = exc.value.state
    assert 0 < last.step < cfg.steps
    assert np.all(np.isfinite(last.map.coeffs))
    assert f"after step {last.step}" in str(exc.value)
    # the carried state is the chain's own state at that step, reached without a warning
    upto = lg.DynamicsConfig(eta=2.0, beta=4.0, lam=0.5, steps=last.step, seed=21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = lg.run_chain(upto, model, "squared", data)
    np.testing.assert_array_equal(traj.final_state.map.coeffs, last.map.coeffs)


_B = lg._BLOCK


@settings(max_examples=12, deadline=None)
@given(block=st.integers(min_value=0, max_value=2),
       row=st.one_of(st.just(0), st.integers(min_value=1, max_value=_SB - 2), st.just(_SB - 1)))
def test_block_divergence_reports_exact_last_finite_step(block, row):
    # the gradient turns infinite at step k + 1: on the first step (block 0, row 0) or
    # on the first, a middle or the last row of a block
    k = block * _SB + row
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5, steps=3 * _SB + 5, seed=4)
    risk_objective = md.risk_objective

    def tripping_objective(*args):
        value, grad = risk_objective(*args)
        calls = []

        def tripping_grad(coeffs):
            calls.append(None)
            g = grad(coeffs)
            return np.full_like(g, np.inf) if len(calls) == k + 1 else g

        return value, tripping_grad

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lg, "_BLOCK", _SB)
        mp.setattr(md, "risk_objective", tripping_objective)
        with pytest.raises(lg.ChainDivergedError) as exc:
            lg.run_chain(cfg, model, "squared", data)
    last = exc.value.state
    assert last.step == k
    if k == 0:
        expected = lg.initial_map(model, model.basis, "identity").coeffs
    else:
        upto = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5, steps=k, seed=4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(md, "risk_objective", _no_affine_objective)
            expected = lg.run_chain(upto, model, "squared", data).final_state.map.coeffs
    np.testing.assert_array_equal(last.map.coeffs, expected)


def test_run_chain_with_no_record_keeps_empty_shapes():
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5,
                            steps=_B + 1, burn_in=_B + 1, seed=2)
    traj = lg.run_chain(cfg, model, "squared", data)
    assert traj.coeffs.shape == (0, model.basis.n_modes, 1)
    assert traj.steps.shape == traj.risk(model, "squared", data).shape == (0,)
    assert traj.final_state.step == cfg.steps


def _stepwise_record(cfg, model, data, state):
    """The record of run_chain as gld_step, a list of kept rows and np.concatenate make it;
    a divergence raises gld_step's ChainDivergedError."""
    rng = np.random.default_rng(cfg.seed)
    steps, rows = [], []
    for _ in range(cfg.steps):
        state = lg.gld_step(state, cfg, model, "squared", data, rng)
        if state.step > cfg.burn_in and (state.step - cfg.burn_in) % cfg.thin == 0:
            steps.append(state.step)
            rows.append(state.map.coeffs[None])
    empty = np.empty((0,) + state.map.coeffs.shape)
    return np.array(steps, dtype=np.int64), np.concatenate(rows or [empty]), state


def _identity_start(model, step):
    return lg.ChainState(step=step, map=lg.initial_map(model, model.basis, "identity"))


@settings(max_examples=40, deadline=None)
@given(block=st.integers(min_value=1, max_value=6), init=st.integers(min_value=0, max_value=20),
       steps=st.integers(min_value=1, max_value=40), burn_in=st.integers(min_value=0, max_value=50),
       thin=st.integers(min_value=1, max_value=9))
def test_run_chain_record_equals_a_list_and_concatenate_reference(block, init, steps, burn_in,
                                                                  thin):
    # small blocks put block boundaries on, before and after the recorded steps; burn-in at or
    # past the last step records nothing
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5, steps=steps,
                            burn_in=burn_in, thin=thin, seed=init + 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lg, "_BLOCK", block)
        mp.setattr(md, "risk_objective", _no_affine_objective)
        traj = lg.run_chain(cfg, model, "squared", data,
                            init_state=_identity_start(model, init))
    ref_steps, ref_coeffs, ref_final = _stepwise_record(cfg, model, data,
                                                        _identity_start(model, init))
    assert traj.steps.dtype == np.int64
    np.testing.assert_array_equal(traj.steps, ref_steps)
    assert traj.coeffs.shape == ref_coeffs.shape
    np.testing.assert_array_equal(traj.coeffs, ref_coeffs)
    assert traj.final_state.step == ref_final.step == init + steps
    np.testing.assert_array_equal(traj.final_state.map.coeffs, ref_final.map.coeffs)


def test_run_chain_record_at_the_real_block_size_and_divergence_with_a_record():
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5,
                            steps=2 * _B + 9, burn_in=_B - 2, thin=3, seed=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(md, "risk_objective", _no_affine_objective)
        traj = lg.run_chain(cfg, model, "squared", data,
                            init_state=_identity_start(model, 4))
    ref_steps, ref_coeffs, _ = _stepwise_record(cfg, model, data, _identity_start(model, 4))
    np.testing.assert_array_equal(traj.steps, ref_steps)
    np.testing.assert_array_equal(traj.coeffs, ref_coeffs)
    # a chain that diverges after some records: gld_step's error step and last finite state
    cfg = lg.DynamicsConfig(eta=2.0, beta=4.0, lam=0.5, steps=5000, burn_in=3,
                            thin=2, seed=21)
    with pytest.raises(lg.ChainDivergedError) as exc:
        lg.run_chain(cfg, model, "squared", data, init_state=_identity_start(model, 7))
    with pytest.raises(lg.ChainDivergedError) as ref, np.errstate(over="ignore", invalid="ignore"):
        _stepwise_record(cfg, model, data, _identity_start(model, 7))
    last, want = exc.value.state, ref.value.state
    assert 7 + 3 < last.step == want.step < 7 + cfg.steps
    np.testing.assert_array_equal(last.map.coeffs, want.map.coeffs)


def _block_solve_eigenvalues(cfg, model, data):
    """The AR(1) coefficients d of the block solve of this chain."""
    _, grad = md.risk_objective(model, "squared", data)
    H, _ = grad.affine()
    r = np.sqrt(cfg._resolvent(model.basis)[:, 0])
    return np.linalg.eigvalsh(r[:, None] * (np.eye(len(r)) - cfg.eta * H) * r)


# steps per block of the block solve, for maps of at most 8 coefficients
_AB = lg._BLOCK


def _assert_block_solve_matches_stepwise(cfg, model, data, state):
    # run_chain takes the block solve; the schedule, the shapes and the steps agree exactly
    # with the gld_step loop, the states to rounding
    solves, ar1_blocks = [], lg._ar1_blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lg, "_ar1_blocks", lambda *a: solves.append(1) or ar1_blocks(*a))
        traj = lg.run_chain(cfg, model, "squared", data, init_state=state)
    assert model.basis.n_modes * _AB <= lg._BLOCK_FLOATS
    assert len(solves) == -(-cfg.steps // _AB)
    ref_steps, ref_coeffs, ref_final = _stepwise_record(cfg, model, data, state)
    np.testing.assert_array_equal(traj.steps, ref_steps)
    assert traj.coeffs.shape == ref_coeffs.shape and traj.steps.size > 0
    np.testing.assert_allclose(traj.coeffs, ref_coeffs, rtol=0, atol=1e-12)
    assert traj.final_state.step == ref_final.step == state.step + cfg.steps
    np.testing.assert_allclose(traj.final_state.map.coeffs, ref_final.map.coeffs, rtol=0,
                               atol=1e-12)
    return traj


def test_block_solve_matches_the_stepwise_chain_across_blocks():
    # two block boundaries, and a thin that divides neither the block nor the AR(1) block
    model, data = _linear_setup(n_modes=3)
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5,
                            steps=2 * _AB + 3, burn_in=5, thin=7, seed=21)
    _assert_block_solve_matches_stepwise(cfg, model, data, _identity_start(model, 0))
    # a single step: one block of one row
    one = dataclasses.replace(cfg, steps=1, burn_in=0, thin=1)
    _assert_block_solve_matches_stepwise(one, model, data, _identity_start(model, 0))


def test_block_solve_with_a_negative_eigenvalue():
    # eta * lambda_max(H) > 1 flips a mode's sign each step, yet |d| < 1: d^-j must be an
    # integer power, as a float power of a negative number is nan
    model, data = _linear_setup(n=40)
    cfg = lg.DynamicsConfig(eta=0.6, beta=40.0, lam=0.5,
                            steps=_AB + 300, burn_in=100, thin=3, seed=6)
    d = _block_solve_eigenvalues(cfg, model, data)
    assert d.min() < 0.0 and np.abs(d).max() < 1.0
    with np.errstate(invalid="ignore"):
        assert np.isnan(d.min() ** -1.5)
    traj = _assert_block_solve_matches_stepwise(cfg, model, data, _identity_start(model, 0))
    assert np.all(np.isfinite(traj.coeffs))


def test_block_solve_without_noise_draws_nothing(monkeypatch):
    # beta = inf: no draw on either path, so the generator ends where it started
    model, data = _linear_setup(n_modes=3)
    cfg = lg.DynamicsConfig(eta=0.05, beta=np.inf, lam=0.5,
                            steps=_AB + 17, burn_in=2, thin=5, seed=3)
    assert cfg.noise_amp == 0.0
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(lg.np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed)) or made[-1])
    _assert_block_solve_matches_stepwise(cfg, model, data, _identity_start(model, 0))
    monkeypatch.setattr(md, "risk_objective", _no_affine_objective)
    lg.run_chain(cfg, model, "squared", data)
    fresh = default_rng(cfg.seed).bit_generator.state
    assert made[0].bit_generator.state == made[2].bit_generator.state == fresh


def test_a_block_solved_chain_never_calls_its_gradient(monkeypatch):
    # the solve reads the gradient's affine form (H, b) only, on every block and at the end
    model, data = _linear_setup(n_modes=3)
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5,
                            steps=_AB + 17, burn_in=2, thin=5, seed=3)
    calls, solves, ar1_blocks = [], [], lg._ar1_blocks

    def counting_objective(*args):
        value, grad = _RISK_OBJECTIVE(*args)

        def counting_grad(c):
            calls.append(None)
            return grad(c)

        counting_grad.affine = grad.affine
        return value, counting_grad

    monkeypatch.setattr(md, "risk_objective", counting_objective)
    monkeypatch.setattr(lg, "_ar1_blocks", lambda *a: solves.append(1) or ar1_blocks(*a))
    traj = lg.run_chain(cfg, model, "squared", data)
    assert len(solves) == 2 and traj.final_state.step == cfg.steps
    assert calls == []


def test_same_seed_chains_from_two_starts_differ_by_powers_of_the_linear_map():
    # the synchronous coupling of the ergodicity preset: the same seed draws the same noise,
    # so x_a - x_b follows x' = A x with A = S(I - eta H) exactly, across a block boundary
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.0005, beta=4.0, lam=0.5,
                            steps=_AB + 50, seed=5)
    rng = np.random.default_rng(2)
    starts = [rng.standard_normal((4, 1)) + shift for shift in (0.0, 4.0)]
    solves, ar1_blocks = [], lg._ar1_blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lg, "_ar1_blocks", lambda *a: solves.append(1) or ar1_blocks(*a))
        rec_a, rec_b = (lg.run_chain(cfg, model, "squared", data, init_state=lg.ChainState(
            step=0, map=md.TransportMap(coeffs=c, basis=model.basis))).coeffs for c in starts)
    assert len(solves) == 2 * 2
    _, grad = md.risk_objective(model, "squared", data)
    H, _ = grad.affine()
    s_col = cfg._resolvent(model.basis)
    A = s_col * (np.eye(len(s_col)) - cfg.eta * H)
    gap = starts[0][:, 0] - starts[1][:, 0]
    for k in range(cfg.steps):
        gap = A.dot(gap)
        np.testing.assert_allclose(rec_a[k, :, 0] - rec_b[k, :, 0], gap, rtol=0, atol=1e-12)
    assert np.abs(gap).max() > 1e-2     # the last records still differ: the check is not vacuous


def test_run_chain_holds_its_record_once():
    model, data = _linear_setup(n_modes=16)
    cfg = lg.DynamicsConfig(eta=0.01, beta=4.0, lam=0.5,
                            steps=40_000, burn_in=100, seed=1)
    lg.run_chain(dataclasses.replace(cfg, steps=1), model, "squared", data)   # one-off state
    tracemalloc.start()
    try:
        traj = lg.run_chain(cfg, model, "squared", data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= traj.coeffs.nbytes + traj.steps.nbytes + (1 << 20), peak


def test_a_huge_gradient_gives_a_finite_update_without_a_warning(monkeypatch):
    # the update stays finite, in gld_step and in run_chain alike, though the gradient's
    # squared norm would overflow
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=1e-3, beta=4.0, lam=0.5, steps=3, seed=0)
    huge = np.full((model.basis.n_modes, 1), 1e200)
    monkeypatch.setattr(md, "risk_objective", lambda *args: (None, lambda c: huge))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lg.gld_step(_identity_start(model, 0), cfg, model, "squared", data,
                          np.random.default_rng(0), grad_fn=lambda W: huge)
        traj = lg.run_chain(cfg, model, "squared", data)
    assert np.all(np.isfinite(out.map.coeffs))
    assert np.all(np.isfinite(traj.coeffs)) and np.all(np.isfinite(traj.final_state.map.coeffs))


_coeff = st.floats(min_value=-1e3, max_value=1e3).filter(lambda v: abs(v) > 1e-6)


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(min_value=1e-3, max_value=10.0), lam=st.floats(min_value=1e-3, max_value=10.0),
       coeffs=st.lists(_coeff, min_size=1, max_size=6))
def test_update_strictly_contracts_without_gradient_or_noise(eta, lam, coeffs):
    basis = diagonal_basis(len(coeffs))
    model = md.ModelSpec(arch="identity-map", basis=basis)
    W = md.TransportMap(coeffs=np.array(coeffs)[:, None], basis=basis)
    cfg = lg.DynamicsConfig(eta=eta, beta=np.inf, lam=lam)
    out = lg.gld_step(lg.ChainState(step=0, map=W), cfg, model, "squared", None,
                      np.random.default_rng(0), grad_fn=lambda m: np.zeros_like(m.coeffs))
    assert np.all(np.abs(out.map.coeffs) < np.abs(W.coeffs))
    assert np.all(np.sign(out.map.coeffs) == np.sign(W.coeffs))


@settings(max_examples=60, deadline=None)
@given(n_modes=st.integers(min_value=1, max_value=6), d_out=st.integers(min_value=1, max_value=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_update_with_eta_zero_is_identity_on_retained_modes(n_modes, d_out, seed):
    # every mode of the basis is retained: eta = 0 leaves the whole map as it is
    rng = np.random.default_rng(seed)
    basis = diagonal_basis(n_modes)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    W = md.TransportMap(coeffs=rng.standard_normal((n_modes, d_out)), basis=basis)
    cfg = lg.DynamicsConfig(eta=0.0, beta=1.0, lam=1.0)
    grad = rng.standard_normal((n_modes, d_out))
    out = lg.gld_step(lg.ChainState(step=0, map=W), cfg, model, "squared", None,
                      rng, grad_fn=lambda m: grad)
    np.testing.assert_array_equal(out.map.coeffs, W.coeffs)


def test_run_chain_single_step_and_determinism():
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.05, beta=10.0, lam=0.5,
                            steps=1, burn_in=0, thin=1, seed=3)
    traj = lg.run_chain(cfg, model, "squared", data)
    assert traj.steps.size == 1 and traj.steps[0] == 1
    cfg2 = lg.DynamicsConfig(eta=0.05, beta=10.0, lam=0.5,
                             steps=200, burn_in=10, thin=5, seed=3)
    t1 = lg.run_chain(cfg2, model, "squared", data)
    t2 = lg.run_chain(cfg2, model, "squared", data)
    np.testing.assert_array_equal(t1.coeffs, t2.coeffs)
    np.testing.assert_array_equal(t1.risk(model, "squared", data),
                                  t2.risk(model, "squared", data))
    assert np.all(np.diff(t1.steps) == 5)


def test_run_chain_training_descends_on_realizable_task():
    rng = np.random.default_rng(7)
    basis = cosine_basis(5, dim_in=1)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    teacher = md.TransportMap(coeffs=np.array([[0.5], [0.8], [-0.4], [0.2], [0.1]]), basis=basis)
    x = rng.uniform(0, 1, (40, 1))
    y = md.forward(model, teacher, x)
    cfg = lg.DynamicsConfig(eta=0.05, beta=2_000.0, lam=0.01,
                            steps=3_000, burn_in=0, thin=50, seed=1)
    data = md.Dataset(x=x, y=y)
    traj = lg.run_chain(cfg, model, "squared", data, init="zero")
    init_loss = float(np.mean(y ** 2))
    assert traj.risk(model, "squared", data)[-1] < 0.5 * init_loss


def test_run_chain_resumes_from_its_final_state():
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.05, beta=10.0, lam=0.5,
                            steps=50, burn_in=0, thin=10, seed=9)
    traj = lg.run_chain(cfg, model, "squared", data)
    assert traj.coeffs.shape == (traj.steps.size, model.basis.n_modes, 1)
    # the state a run ends in (or a ChainDivergedError carries) continues the chain
    more = lg.run_chain(cfg, model, "squared", data, init_state=traj.final_state)
    assert more.final_state.step == traj.final_state.step + cfg.steps


def test_trajectory_risk_is_the_empirical_risk_of_each_record():
    # a two-layer chain, and an identity-map chain resumed from a gamma = 0.5 state
    rng = np.random.default_rng(5)
    M, d = 5, 2
    cloud = md.finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M))
    two_layer = md.ModelSpec(arch="two-layer", cloud=cloud,
                             clip=md.ClipConfig(R=2.0, input_bound_D=1.0),
                             basis=gram_eigenbasis(cloud, 1.0, M))
    x = rng.uniform(-0.6, 0.6, (16, d))
    tl_data = md.Dataset(x=x, y=np.sin(x[:, 0]))
    tl_cfg = lg.DynamicsConfig(eta=0.05, beta=50.0, lam=0.1,
                               steps=60, burn_in=10, thin=10, seed=1)
    tl_traj = lg.run_chain(tl_cfg, two_layer, "squared", tl_data, init="zero")

    ident, id_data = _linear_setup()
    W0 = md.TransportMap(coeffs=np.full((ident.basis.n_modes, 1), 0.3), basis=ident.basis,
                         gamma=0.5)
    id_cfg = lg.DynamicsConfig(eta=0.05, beta=10.0, lam=0.5,
                               steps=40, burn_in=0, thin=8, seed=2)
    id_traj = lg.run_chain(id_cfg, ident, "squared", id_data,
                           init_state=lg.ChainState(step=0, map=W0))
    assert id_traj.final_state.map.gamma == 0.5

    for model, data, traj in ((two_layer, tl_data, tl_traj), (ident, id_data, id_traj)):
        gamma = traj.final_state.map.gamma
        expected = [md.empirical_risk(model, md.TransportMap(c, model.basis, gamma),
                                      "squared", data) for c in traj.coeffs]
        assert traj.coeffs.shape[0] == traj.steps.size > 0
        np.testing.assert_array_equal(traj.risk(model, "squared", data), expected)


# The noise-only recursion Z' = S_eta(Z + sqrt(eta/beta) eps) at beta as it was written
# before it became the zero-gradient chain at 2*beta: one step and the closed-form
# stationary E||Z||^2 with its envelope.
def _reference_ou_step(z, cfg, eigen, rng, noise_enabled=True):
    z = np.asarray(z, dtype=float)
    amp = 0.0 if (not noise_enabled or np.isinf(cfg.beta)) else np.sqrt(cfg.eta / cfg.beta)
    eps = rng.standard_normal(z.shape) if amp > 0 else 0.0
    return resolvent_S_eta(z + amp * eps, cfg.eta, cfg.lam, eigen)


def _reference_ou_stationary_moment(cfg, eigen):
    mu = eigen.mu
    exact = float(np.sum(mu / (cfg.beta * cfg.lam * (2.0 + cfg.eta * cfg.lam / mu))))
    bound = eigen.c_mu / (cfg.beta * cfg.lam)
    return exact, bound


def _at_twice_beta(cfg):
    return dataclasses.replace(cfg, beta=2.0 * cfg.beta)


def _zero_grad_step(z, cfg, basis, rng):
    """One zero-gradient gld_step of the column vector z, as a flat array."""
    model = md.ModelSpec(arch="identity-map", basis=basis)
    state = lg.ChainState(step=0, map=md.TransportMap(coeffs=z[:, None], basis=basis))
    out = lg.gld_step(state, cfg, model, "squared", None, rng,
                      grad_fn=lambda m: np.zeros_like(m.coeffs))
    return out.map.coeffs[:, 0]


def _random_ou_configs(rng, count):
    """(config at the recursion's beta, eigen) pairs."""
    for _ in range(count):
        n_modes = int(rng.integers(1, 12))
        c_mu, decay = float(rng.uniform(0.2, 5)), float(rng.uniform(2, 3.5))
        eigen = make_eigen_sequence(c_mu, decay, n_modes)
        cfg = lg.DynamicsConfig(eta=float(rng.uniform(0.0, 0.5)),
                                beta=float(rng.uniform(0.6, 50)),
                                lam=float(rng.uniform(0.05, 5)))
        yield cfg, eigen


def _ou_moment_configs(monkeypatch):
    """(config at the grid's beta, eigen) of each ou-moment config.

    Checked against the preset on the way: it runs each chain at 2*beta, and its
    exact and bound columns are the reference moment at the grid's beta.
    """
    seen, variance = [], lg.gld_zero_grad_stationary_variance
    with monkeypatch.context() as m:
        m.setattr(lg, "gld_zero_grad_stationary_variance",
                  lambda cfg, eigen: seen.append((cfg, eigen)) or variance(cfg, eigen))
        rows = ex.run_preset("ou-moment", 0, {"steps": 50, "burn_in": 0}).table_rows
    assert len(seen) == len(rows) == 10
    configs = []
    for (chain_cfg, eigen), row in zip(seen, rows):
        cfg = lg.DynamicsConfig(eta=row[0], beta=row[1], lam=row[2])
        assert chain_cfg == _at_twice_beta(cfg) and len(eigen) == row[3]
        assert (row[6], row[7]) == _reference_ou_stationary_moment(cfg, eigen)
        configs.append((cfg, eigen))
    return configs


def test_zero_gradient_step_at_twice_beta_is_the_reference_recursion(monkeypatch):
    # same stream, same numbers: the fold moves no float
    configs = _ou_moment_configs(monkeypatch)
    configs += _random_ou_configs(np.random.default_rng(8), 10)
    for i, (cfg, eigen) in enumerate(configs):
        basis = SpectralBasis(kind="synthetic-diagonal", dim_in=len(eigen), dim_out=1,
                              eigen=eigen)
        z_ref = z = np.random.default_rng(i).standard_normal(len(eigen))
        rng_ref, rng = np.random.default_rng(100 + i), np.random.default_rng(100 + i)
        for _ in range(50):
            z_ref = _reference_ou_step(z_ref, cfg, eigen, rng_ref)
            z = _zero_grad_step(z, _at_twice_beta(cfg), basis, rng)
            np.testing.assert_array_equal(z, z_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert _at_twice_beta(cfg).noise_amp == np.sqrt(cfg.eta / cfg.beta)
    # at beta = inf both are the noise-free resolvent, with zero a fixed point
    basis = diagonal_basis(4)
    cfg = lg.DynamicsConfig(eta=0.1, beta=np.inf, lam=1.0)
    z0 = np.array([1.0, -2.0, 0.5, 0.0])
    rng_ref, rng = np.random.default_rng(0), np.random.default_rng(0)
    np.testing.assert_array_equal(_zero_grad_step(z0, _at_twice_beta(cfg), basis, rng),
                                  _reference_ou_step(z0, cfg, basis.eigen, rng_ref))
    np.testing.assert_array_equal(_zero_grad_step(np.zeros(4), _at_twice_beta(cfg), basis, rng),
                                  np.zeros(4))
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_zero_gradient_variance_at_twice_beta_is_the_reference_moment(monkeypatch):
    configs = _ou_moment_configs(monkeypatch)
    configs += _random_ou_configs(np.random.default_rng(9), 25)
    for cfg, eigen in configs:
        exact, _ = _reference_ou_stationary_moment(cfg, eigen)
        assert float(lg.gld_zero_grad_stationary_variance(_at_twice_beta(cfg), eigen).sum()) \
            == exact


def test_ou_step_fixed_point_and_stationary_variance():
    # the noise-only recursion at beta = 1, run as the zero-gradient chain at 2*beta
    basis = diagonal_basis(1)
    beta = 1.0
    cfg = lg.DynamicsConfig(eta=0.1, beta=2.0 * beta, lam=1.0)
    cfg_off = lg.DynamicsConfig(eta=0.1, beta=np.inf, lam=1.0)
    z = _zero_grad_step(np.zeros(1), cfg_off, basis, np.random.default_rng(0))
    np.testing.assert_array_equal(z, np.zeros(1))
    # long run variance vs (eta/beta) * s^2/(1-s^2)
    sq = lg.simulate_ou_sq_norms(cfg, basis.eigen, 400_000, np.random.default_rng(5))
    kept = sq[20_000:]
    s = 1.0 / 1.1
    target = 0.1 / beta * s ** 2 / (1.0 - s ** 2)
    assert target == pytest.approx(0.1 / 0.21, rel=1e-12)
    se = orc.batch_means_stderr(kept)
    assert abs(kept.mean() - target) < 3 * se


def _lfilter_sq_norms(cfg, eigen, n_steps, rng):
    # the per-mode AR(1) z_t = s z_{t-1} + s*amp*eps_t as a scipy IIR filter
    from scipy.signal import lfilter

    s = 1.0 / (1.0 + cfg.eta * cfg.lam / eigen.mu)
    amp = np.sqrt(cfg.eta / cfg.beta)
    eps = rng.standard_normal((n_steps, len(eigen)))
    z = np.column_stack([lfilter([s[k] * amp], [1.0, -s[k]], eps[:, k])
                         for k in range(len(eigen))])
    return np.sum(z ** 2, axis=1)


@pytest.mark.parametrize("mu", [[1e9], [9.0], [1 / 49], [1e-7], [1e9, 9.0, 1 / 49, 1e-7]],
                         ids=["s=1-1e-9", "s=0.9", "s=0.02", "s=1e-7", "all-four"])
def test_simulate_ou_sq_norms_matches_the_lfilter_recursion(mu):
    # eta = lam = 1 puts s = 1/(1 + 1/mu); a noise chunk holds at most _BLOCK_FLOATS rows,
    # so the least prime above _BLOCK_FLOATS (32,771 at 2^15) spans two chunks, and being
    # prime it ends inside a block whatever the block length
    # the reference runs the recursion at beta = 2, simulate_ou_sq_norms the chain at 2*beta
    eigen = EigenSequence(mu=np.array(mu), c_mu=max(mu[0], 1.0))
    cfg = lg.DynamicsConfig(eta=1.0, beta=2.0, lam=1.0)
    n_steps = next(k for k in itertools.count(lg._BLOCK_FLOATS + 1)
                   if all(k % q for q in range(2, int(k ** 0.5) + 1)))
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    sq = lg.simulate_ou_sq_norms(_at_twice_beta(cfg), eigen, n_steps, rng)
    ref = _lfilter_sq_norms(cfg, eigen, n_steps, rng_ref)
    assert sq.shape == (n_steps,)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    # both realizations round at the 1e-16 level of the path's scale; near a zero
    # crossing that is no relative bound on ||Z_t|| itself, so each step's error is
    # taken relative to the largest ||Z|| so far
    err = np.abs(np.sqrt(sq) - np.sqrt(ref))
    assert np.all(err <= 1e-12 * np.sqrt(np.maximum.accumulate(ref)))


def test_simulate_ou_sq_norms_is_the_same_trace_in_one_block_chunks(monkeypatch):
    # the chunk bound only splits the draw: one block per chunk gives the same bits
    eigen = make_eigen_sequence(1.0, 2.0, 5)
    cfg = lg.DynamicsConfig(eta=0.05, beta=2.0, lam=1.0)
    rng, rng_one = np.random.default_rng(8), np.random.default_rng(8)
    sq = lg.simulate_ou_sq_norms(cfg, eigen, 3_001, rng)
    monkeypatch.setattr(lg, "_BLOCK_FLOATS", 1)
    one = lg.simulate_ou_sq_norms(cfg, eigen, 3_001, rng_one)
    np.testing.assert_array_equal(sq, one)
    assert rng.bit_generator.state == rng_one.bit_generator.state


def test_simulate_ou_sq_norms_working_memory_does_not_grow_with_the_step_count():
    eigen = make_eigen_sequence(1.0, 2.0, 8)
    cfg = lg.DynamicsConfig(eta=0.05, beta=2.0, lam=1.0)
    rng = np.random.default_rng(0)
    extra = []
    # the first traced run counts a few KB of numpy's own small buffers, which cumsum's
    # later calls reuse once some tens of them have run under tracing: a traced warm-up
    # over as many chunks as the largest run settles them, and its reading is dropped
    for n_steps in (400_000, 100_000, 400_000):
        tracemalloc.start()
        try:
            lg.simulate_ou_sq_norms(cfg, eigen, n_steps, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - 8 * n_steps)   # beyond the returned trace
    extra = extra[1:]
    assert max(extra) <= 8 * lg._BLOCK_FLOATS + (1 << 19), extra
    assert abs(extra[1] - extra[0]) <= 4096, extra


def test_the_ou_chunk_stream_is_the_trace_and_feeds_batch_means_bit_for_bit(monkeypatch):
    # two blocks per chunk, so that the run spans several chunks and ends inside one
    monkeypatch.setattr(lg, "_BLOCK_FLOATS", 3 * lg._OU_BLOCK * 2)
    eigen = make_eigen_sequence(1.0, 2.0, 3)
    cfg = lg.DynamicsConfig(eta=0.05, beta=2.0, lam=1.0)
    n_steps = 5 * 2 * lg._OU_BLOCK + 101
    rng, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
    trace = lg.simulate_ou_sq_norms(cfg, eigen, n_steps, rng_ref)
    chunks = []
    for start, norms in lg._ou_sq_norm_blocks(cfg, eigen, n_steps, rng):
        assert not norms.flags.writeable
        chunks.append((start, norms.copy()))
    np.testing.assert_array_equal(np.concatenate([norms for _, norms in chunks]), trace)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    chunk = chunks[1][0]
    assert chunk == 2 * lg._OU_BLOCK and len(chunks) == 6
    # burn-ins at 0, inside the first chunk, on a chunk boundary and past one chunk
    for burn_in in (0, chunk // 3, chunk, chunk + 7):
        stats = orc._BatchMeans(n_steps - burn_in, 1)
        for start, norms in chunks:
            stats.add(norms[max(0, burn_in - start):, None])
        assert stats.stderr()[0] == orc.batch_means_stderr(trace[burn_in:])
        assert stats.mean()[0] == pytest.approx(trace[burn_in:].mean(), rel=1e-14)


def test_ou_growth_is_monotone_toward_stationary():
    # ensemble mean of ||Z_n||^2 follows (eta/beta) * sum (s^2 - s^(2n))/(1-s^2)
    # the recursion at beta = 1.5 is the zero-gradient chain at 2*beta
    eigen = make_eigen_sequence(1.0, 2.0, 3)
    beta = 1.5
    cfg = lg.DynamicsConfig(eta=0.3, beta=2.0 * beta, lam=1.0)
    rng = np.random.default_rng(11)
    n_steps, n_rep = 60, 4000
    mu = eigen.mu
    s = 1.0 / (1.0 + cfg.eta * cfg.lam / mu)
    # E||Z_m||^2 = (eta/beta) sum_k s_k^2 (1 - s_k^(2m)) / (1 - s_k^2)
    ns = np.arange(1, n_steps + 1)
    expected = (cfg.eta / beta) * np.sum(
        s[None, :] ** 2 * (1 - s[None, :] ** (2 * ns[:, None])) / (1 - s[None, :] ** 2), axis=1)
    assert np.all(np.diff(expected) > 0)
    acc = np.zeros(n_steps)
    for _ in range(n_rep):
        acc += lg.simulate_ou_sq_norms(cfg, eigen, n_steps, rng)
    emp = acc / n_rep
    np.testing.assert_allclose(emp, expected, rtol=0.15, atol=5e-4)


def test_ou_stationary_moment_hand_value_and_bound():
    # the stationary E||Z||^2 of the recursion at beta = 1 is the chain's variance at 2*beta
    eigen = make_eigen_sequence(1.0, 2.0, 1)
    beta = 1.0
    cfg = lg.DynamicsConfig(eta=0.1, beta=2.0 * beta, lam=1.0)
    exact = float(lg.gld_zero_grad_stationary_variance(cfg, eigen).sum())
    bound = eigen.c_mu / (beta * cfg.lam)
    assert exact == pytest.approx(0.1 / 0.21, rel=1e-12)
    assert bound == 1.0
    assert exact <= bound
    # eta -> 0 stays bounded: sum mu_k/(2 beta lam) <= c_mu/(beta lam)
    eigen8 = make_eigen_sequence(1.0, 2.0, 8)
    cfg0 = lg.DynamicsConfig(eta=0.0, beta=2.0 * beta, lam=1.0)
    exact0 = float(lg.gld_zero_grad_stationary_variance(cfg0, eigen8).sum())
    assert exact0 == pytest.approx(float(np.sum(eigen8.mu)) / 2.0, rel=1e-12)
    assert exact0 <= eigen8.c_mu / (beta * cfg0.lam)


def test_ou_bound_holds_on_grid():
    for cfg, eigen in _random_ou_configs(np.random.default_rng(2), 25):
        exact = float(lg.gld_zero_grad_stationary_variance(_at_twice_beta(cfg), eigen).sum())
        assert exact <= eigen.c_mu / (cfg.beta * cfg.lam) + 1e-15


@pytest.mark.parametrize("n_modes, seed, d_out, order, scale", [
    (4, 4, 1, "C", 1.0), (6, 3, 3, "F", 1.0), (5, 5, 2, "C", 1e200)])
def test_gld_step_is_the_reference_update_and_leaves_g_alone(n_modes, seed, d_out, order, scale):
    # the update as written before it took numpy's per-call overhead off, with the
    # Python-float eta; the gradient is left as it is
    rng = np.random.default_rng([n_modes, seed, d_out])
    basis = cosine_basis(n_modes, dim_in=1)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    cfg = lg.DynamicsConfig(eta=0.03, beta=2.0, lam=0.7)
    W = md.TransportMap(coeffs=rng.standard_normal((n_modes, d_out)), basis=basis)
    g = np.asarray(rng.standard_normal((n_modes, d_out)) * scale, order=order)
    g_before = g.copy()
    out = lg.gld_step(lg.ChainState(step=0, map=W), cfg, model, "squared", None,
                      np.random.default_rng(5), grad_fn=lambda m: g)
    np.testing.assert_array_equal(g, g_before)
    s = 1.0 / (1.0 + cfg.eta * cfg.lam / basis.eigen.mu)
    drift = W.coeffs - cfg.eta * g
    drift += cfg.noise_amp * np.random.default_rng(5).standard_normal((n_modes, d_out))
    drift *= s[:, None]
    np.testing.assert_array_equal(out.map.coeffs, drift)


# ---------------------------------------------------------------------------
# stacks of chains
# ---------------------------------------------------------------------------

def _stack_member(arch, seed, n=24):
    """A small two-layer (squared loss) or identity-map (logistic loss) task of its own seed."""
    rng = np.random.default_rng(seed)
    if arch == "two-layer":
        M = 5
        cloud = md.finite_width_cloud(rng.standard_normal((M, 2)), rng.uniform(-1, 1, M))
        model = md.ModelSpec(arch=arch, cloud=cloud, clip=md.ClipConfig(R=2.0),
                             basis=gram_eigenbasis(cloud, 1.0, M))
        x = rng.uniform(-0.6, 0.6, (n, 2))
        return model, md.Dataset(x=x, y=np.sin(x[:, 0]) + 0.1 * rng.standard_normal(n))
    model = md.ModelSpec(arch=arch, basis=cosine_basis(5, dim_in=1))
    x = rng.uniform(0, 1, (n, 1))
    return model, md.Dataset(x=x, y=np.where(rng.uniform(0, 1, n) < x[:, 0], 1.0, -1.0))


def _assert_same_trajectory(a, b):
    np.testing.assert_array_equal(a.steps, b.steps)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert a.final_state.step == b.final_state.step
    np.testing.assert_array_equal(a.final_state.map.coeffs, b.final_state.map.coeffs)


@pytest.mark.parametrize("arch, loss, gamma, beta", [("two-layer", "squared", 0.0, 24.0),
                                                     ("identity-map", "logistic", 0.0, 24.0),
                                                     ("two-layer", "squared", 0.5, np.inf)])
def test_a_stack_equals_its_members_run_alone_bit_for_bit(arch, loss, gamma, beta, monkeypatch):
    # three networks or bases, three datasets and three seeds, across block boundaries, with a
    # record schedule that does not divide the block; the stack steps through batched
    # products.  A member alone takes _SB steps per block, and a stack fewer, as the float
    # cap of a block buffer binds
    models, datas = zip(*(_stack_member(arch, s) for s in (3, 4, 5)))
    monkeypatch.setattr(lg, "_BLOCK_FLOATS", _SB * models[0].basis.n_modes
                        * md.map_output_dim(models[0]))
    seeds = [11, 12, 13]
    starts = [lg.ChainState(step=2, map=md.TransportMap(
        coeffs=np.zeros((m.basis.n_modes, md.map_output_dim(m))), basis=m.basis, gamma=gamma))
        for m in models]
    cfg = lg.DynamicsConfig(eta=0.05, beta=beta, lam=0.1, steps=_SB + 37, burn_in=20, thin=7)
    stack = lg.run_chains(cfg, models, loss, datas, seeds, init_states=starts)
    assert len(stack) == 3 and stack[0].coeffs.shape[0] > 0
    for model, data, seed, start, traj in zip(models, datas, seeds, starts, stack):
        alone = lg.run_chain(dataclasses.replace(cfg, seed=seed), model, loss, data,
                             init_state=start)
        _assert_same_trajectory(traj, alone)
        assert traj.final_state.map.gamma == gamma
    # member 2's records depend neither on the other members nor on its place in the stack
    for picked in ([2, 0], [1, 2, 0]):
        sub = lg.run_chains(cfg, [models[k] for k in picked], loss, [datas[k] for k in picked],
                            [seeds[k] for k in picked], init_states=[starts[k] for k in picked])
        _assert_same_trajectory(sub[picked.index(2)], stack[2])


def test_a_linear_stack_is_solved_in_blocks_and_one_seed_reads_one_noise():
    # two chains of one task and one seed from two starts (ergodicity's coupling), and a
    # chain of another task on another basis, so another resolvent: one block solve per block
    # for the whole stack, each member equal to its own gld_step loop to rounding
    (model, data), (_, other_data) = _linear_setup(), _linear_setup(seed=1)
    points = md.finite_width_cloud(np.random.default_rng(3).uniform(0, 1, (6, 1)), np.zeros(6))
    other = md.ModelSpec(arch="identity-map", basis=gram_eigenbasis(points, 0.5, 4, False))
    assert not np.array_equal(other.basis.eigen.mu, model.basis.eigen.mu)
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5,
                            steps=_AB + 40, burn_in=10, thin=3)
    rng = np.random.default_rng(2)
    models, datas, seeds = [model, model, other], [data, data, other_data], [7, 7, 8]
    starts = [lg.ChainState(step=0, map=md.TransportMap(
        coeffs=rng.standard_normal((4, 1)) + shift, basis=m.basis))
        for m, shift in zip(models, (0, 4, 0))]
    solves, ar1_blocks = [], lg._ar1_blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lg, "_ar1_blocks", lambda *a: solves.append(1) or ar1_blocks(*a))
        stack = lg.run_chains(cfg, models, "squared", datas, seeds, init_states=starts)
    assert len(solves) == 2
    for m, d, seed, state, traj in zip(models, datas, seeds, starts, stack):
        ref_steps, ref_coeffs, ref_final = _stepwise_record(dataclasses.replace(cfg, seed=seed),
                                                            m, d, state)
        np.testing.assert_array_equal(traj.steps, ref_steps)
        np.testing.assert_allclose(traj.coeffs, ref_coeffs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.final_state.map.coeffs, ref_final.map.coeffs,
                                   rtol=0, atol=1e-12)
    # the two members of one seed differ by the powers of A = S(I - eta H) alone
    _, grad = md.risk_objective(model, "squared", data)
    H, _ = grad.affine()
    s_col = cfg._resolvent(model.basis)
    A = s_col * (np.eye(len(s_col)) - cfg.eta * H)
    gap = starts[0].map.coeffs[:, 0] - starts[1].map.coeffs[:, 0]
    for k in range(1, cfg.steps + 1):
        gap = A.dot(gap)
        if k in stack[0].steps:
            row = int(np.searchsorted(stack[0].steps, k))
            np.testing.assert_allclose(stack[0].coeffs[row, :, 0] - stack[1].coeffs[row, :, 0],
                                       gap, rtol=0, atol=1e-12)


def test_a_member_with_a_near_zero_eigenvalue_shortens_the_ar1_blocks_of_the_whole_stack():
    # member 1's inputs crowd near x = 0, where every cosine mode is near 1.  At
    # eta = (1 - 1e-12) / h, h the largest eigenvalue of its H, one of its d is about 1e-12:
    # d^-L must stay finite, so the stack solves in AR(1) blocks of 21 steps, where member 0
    # alone takes 256; each member still equals its own gld_step loop
    model, data = _linear_setup(n_modes=3, n=40)
    rng = np.random.default_rng(3)
    steep = md.Dataset(x=rng.uniform(0.0, 0.1, (40, 1)), y=rng.standard_normal(40))
    _, grad = md.risk_objective(model, "squared", steep)
    h = np.linalg.eigvalsh(grad.affine()[0]).max()
    cfg = lg.DynamicsConfig(eta=(1.0 - 1e-12) / h, beta=4.0, lam=0.5,
                            steps=600, burn_in=5, thin=3)
    d_steep = _block_solve_eigenvalues(cfg, model, steep)
    assert np.abs(d_steep).min() < 1e-10 and np.abs(d_steep).max() < 1.0
    assert np.abs(_block_solve_eigenvalues(cfg, model, data)).min() > 1e-2
    lengths, ar1_blocks = {}, lg._ar1_blocks

    def run(models, datas, seeds, key):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lg, "_ar1_blocks",
                       lambda x, *a: lengths.setdefault(key, x.shape[1]) and ar1_blocks(x, *a))
            return lg.run_chains(cfg, models, "squared", datas, seeds)

    stack = run([model, model], [data, steep], [4, 5], "stack")
    (alone,) = run([model], [data], [4], "alone")
    assert lengths == {"stack": 21, "alone": lg._OU_BLOCK}
    for d, seed, traj in zip((data, steep), (4, 5), stack):
        start = _identity_start(model, 0)
        ref_steps, ref_coeffs, _ = _stepwise_record(dataclasses.replace(cfg, seed=seed),
                                                    model, d, start)
        np.testing.assert_array_equal(traj.steps, ref_steps)
        np.testing.assert_allclose(traj.coeffs, ref_coeffs, rtol=0, atol=1e-12)
    # member 0's records depend on its company by rounding only
    np.testing.assert_allclose(stack[0].coeffs, alone.coeffs, rtol=0, atol=1e-12)


def test_a_stack_holds_its_records_once_and_its_block_buffers_do_not_grow_with_k():
    # eight two-layer members step by step: the noise and state buffers of a block hold at
    # most _BLOCK_FLOATS floats each, where _B steps of each member would fill 8 MB
    models, datas = zip(*(_stack_member("two-layer", s) for s in range(8)))
    cfg = lg.DynamicsConfig(eta=0.05, beta=24.0, lam=0.1,
                            steps=3000, burn_in=100)
    seeds = list(range(8))
    lg.run_chains(dataclasses.replace(cfg, steps=1), models, "squared", datas, seeds)
    tracemalloc.start()
    try:
        stack = lg.run_chains(cfg, models, "squared", datas, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * len(models) * _B * stack[0].coeffs[0].size * 8 > 2 * lg._BLOCK_FLOATS * 8 + (1 << 20)
    records = stack[0].coeffs.base.nbytes + stack[0].steps.nbytes
    assert peak <= records + (1 << 20), peak


def test_a_diverging_member_of_a_stack_is_named_with_its_last_finite_state():
    # member 1's inputs all sit at x = 0, where every cosine mode is large: its linear map
    # expands at this step size, so the whole stack steps one update at a time
    model, good = _linear_setup(n=40)
    bad = md.Dataset(x=np.zeros((40, 1)), y=np.ones(40))
    cfg = lg.DynamicsConfig(eta=0.5, beta=4.0, lam=0.5, steps=3 * _B)
    with pytest.raises(lg.ChainDivergedError) as exc:
        lg.run_chains(cfg, [model, model], "squared", [good, bad], [1, 2])
    last = exc.value.state
    assert exc.value.member == 1 and "(member 1)" in str(exc.value)
    assert 0 < last.step < cfg.steps and np.all(np.isfinite(last.map.coeffs))
    # the carried state is member 1's own, and run alone it diverges after the same step
    upto = lg.run_chain(dataclasses.replace(cfg, seed=2, steps=last.step), model, "squared", bad)
    np.testing.assert_array_equal(upto.final_state.map.coeffs, last.map.coeffs)
    with pytest.raises(lg.ChainDivergedError) as alone:
        lg.run_chain(dataclasses.replace(cfg, seed=2), model, "squared", bad)
    assert alone.value.state.step == last.step and alone.value.member == 0
    assert "member" not in str(alone.value)


@pytest.mark.parametrize("member", [None, 0, 3])
def test_a_divergence_error_survives_pickling(member):
    # a sweep's worker process hands its error back to the caller pickled
    model, _ = _linear_setup()
    coeffs = np.random.default_rng(1).standard_normal((4, 1))
    err = lg.ChainDivergedError(lg.ChainState(step=252, map=md.TransportMap(coeffs, model.basis)),
                                member=member)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is lg.ChainDivergedError and str(back) == str(err)
    assert str(back) == ("chain diverged after step 252"
                         + ("" if member is None else f" (member {member})"))
    assert back.state.step == 252 and back.member == (member or 0)
    np.testing.assert_array_equal(back.state.map.coeffs, coeffs)


@pytest.mark.parametrize("arch", ["resnet", "wasserstein"])
def test_resnet_and_wasserstein_chains_run_alone_but_do_not_stack(arch):
    rng = np.random.default_rng(6)
    M, d = 4, 2
    if arch == "resnet":
        cloud = md.finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M),
                                      a_vec=rng.standard_normal((M, d)) / 2.0)
        model = md.ModelSpec(arch=arch, cloud=cloud, resnet_blocks=2,
                             basis=gram_eigenbasis(cloud, 1.0, M, include_a=False))
        data = md.Dataset(x=rng.uniform(-0.5, 0.5, (10, d)), y=rng.standard_normal(10))
    else:
        src = rng.standard_normal((8, d))
        cloud = md.finite_width_cloud(src, np.zeros(8))
        model = md.ModelSpec(arch=arch, cloud=cloud, basis=gram_eigenbasis(cloud, 1.0, M, False))
        data = md.Dataset(x=src, y=src + 1.0)
    cfg = lg.DynamicsConfig(eta=0.01, beta=100.0, lam=0.1, steps=5)
    (one,) = lg.run_chains(cfg, [model], "squared", [data], [3])
    _assert_same_trajectory(one, lg.run_chain(dataclasses.replace(cfg, seed=3), model,
                                              "squared", data))
    with pytest.raises(ValueError, match=f"{arch} chains do not stack"):
        lg.run_chains(cfg, [model, model], "squared", [data, data], [3, 4])


def test_a_stack_refuses_members_that_do_not_fit_together():
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.05, beta=4.0, lam=0.5, steps=5)
    with pytest.raises(ValueError, match="one seed per member"):
        lg.run_chains(cfg, [model, model], "squared", [data, data], [1])
    with pytest.raises(ValueError, match="one initial state per member"):
        lg.run_chains(cfg, [model, model], "squared", [data, data], [1, 2], init_states=[None])
    later = lg.run_chain(cfg, model, "squared", data).final_state
    with pytest.raises(ValueError, match="must start at one step"):
        lg.run_chains(cfg, [model, model], "squared", [data, data], [1, 2],
                      init_states=[None, later])
    wide, wide_data = _linear_setup(n_modes=6)
    with pytest.raises(ValueError, match="one coefficient shape"):
        lg.run_chains(cfg, [model, wide], "squared", [data, wide_data], [1, 2])
    short = md.Dataset(x=data.x[:5], y=data.y[:5])
    with pytest.raises(ValueError, match="the data shape"):
        lg.run_chains(cfg, [model, model], "squared", [data, short], [1, 2])


@pytest.mark.parametrize("arch", ["identity-map", "two-layer"])
def test_the_block_stream_is_the_record_of_run_chains(arch):
    # the stream's rows, block by block, are run_chains' record, and its return value is
    # each member's final state
    models, datas = zip(*(_stack_member(arch, s) for s in range(3)))
    loss = "squared" if arch == "two-layer" else "logistic"
    cfg = lg.DynamicsConfig(eta=0.02, beta=24.0, lam=0.1, steps=2 * _B + 300,
                            burn_in=_B + 7, thin=3)
    seeds = [5, 6, 7]
    trajs = lg.run_chains(cfg, models, loss, datas, seeds)
    schedule, shape, blocks = lg._record_blocks(cfg, models, loss, datas, seeds)
    assert shape == trajs[0].coeffs.shape[1:]
    np.testing.assert_array_equal(np.array(schedule), trajs[0].steps)
    got = []
    while True:
        try:
            rows = next(blocks)
        except StopIteration as done:
            finals = done.value
            break
        assert not rows.flags.writeable
        got.append(rows.copy())
    # the blocks before the first record yield nothing
    block = min(lg._BLOCK, lg._BLOCK_FLOATS // (len(models) * shape[0] * shape[1]))
    n_blocks, silent = -(-cfg.steps // block), (schedule[0] - 1) // block
    assert silent >= 1 and len(got) == n_blocks - silent
    record = np.concatenate(got, axis=1)
    for k, traj in enumerate(trajs):
        np.testing.assert_array_equal(record[k], traj.coeffs)
        assert finals[k].step == traj.final_state.step == cfg.steps
        np.testing.assert_array_equal(finals[k].map.coeffs, traj.final_state.map.coeffs)


def test_a_bad_stack_is_refused_before_the_stream_starts():
    model, data = _linear_setup()
    cfg = lg.DynamicsConfig(eta=0.01, beta=4.0, lam=0.5, steps=10)
    with pytest.raises(ValueError, match="one seed per member"):
        lg._record_blocks(cfg, [model], "squared", [data], [0, 1])
