import dataclasses

import numpy as np
import pytest

from transport_langevin import models as md
from transport_langevin import oracle as orc
from transport_langevin.spectral import (cosine_basis, eval_basis, fractional_power_scale,
                                         gram_eigenbasis)


def test_clip_properties():
    assert md.clip(0.0, 1.5) == 0.0
    assert md.clip(0.5, 1.0) == pytest.approx(np.tanh(0.5), rel=1e-14)
    v = np.linspace(-50, 50, 1001)
    c = md.clip(v, 2.0)
    assert np.all(np.abs(c) <= 2.0)
    np.testing.assert_allclose(md.clip(-v, 2.0), -c, atol=1e-15)
    # 1-Lipschitz on a grid
    assert np.max(np.abs(np.diff(c))) <= np.max(np.diff(v)) * (1 + 1e-12)
    assert c[-1] == pytest.approx(2.0, abs=1e-8) and c[0] == pytest.approx(-2.0, abs=1e-8)
    with pytest.raises(ValueError):
        md.clip(v, 0.5)


def _unclip(target, R):
    # value v with clip(v, R) == target
    return R * np.arctanh(np.asarray(target, dtype=float) / R)


def _cloud_model(w, a, R=2.0, D=2.0, bandwidth=1.0):
    cloud = md.finite_width_cloud(w, a)
    model = md.ModelSpec(arch="two-layer", cloud=cloud,
                         clip=md.ClipConfig(R=R, input_bound_D=D))
    basis = gram_eigenbasis(cloud, bandwidth, cloud.size)
    return md.attach_basis(model, basis)


def test_two_layer_hand_composition():
    # one particle; map values chosen so the clipped values are exactly
    # W1 = (1, 0) and W2 = 1, hence f(x) = tanh(x_0)
    model = _cloud_model(np.array([[0.2, -0.1]]), np.array([0.4]), R=2.0)
    target = np.array([[1.0, 0.0, 1.0]])
    values = _unclip(target, 2.0)
    E = model.basis.basis_vectors          # (1, 1)
    coeffs = np.linalg.solve(E, values)
    W = md.TransportMap(coeffs=coeffs, basis=model.basis)
    got = md.forward(model, W, np.array([0.5, 0.3]))
    assert got == pytest.approx(np.tanh(0.5), rel=1e-12)


def test_two_layer_zero_map_predicts_zero():
    model = _cloud_model(np.random.default_rng(0).standard_normal((5, 2)),
                         np.linspace(-1, 1, 5))
    W = md.TransportMap(coeffs=np.zeros((5, 3)), basis=model.basis)
    x = np.random.default_rng(1).standard_normal((7, 2)) * 0.4
    np.testing.assert_allclose(md.forward(model, W, x), np.zeros(7), atol=1e-15)


def test_finite_width_equivalence_when_clipping_inactive():
    # identity map with huge clip radius reproduces (1/M) sum a_m tanh(w_m.x)
    rng = np.random.default_rng(2)
    M, d = 6, 3
    w = rng.standard_normal((M, d))
    a = rng.uniform(-1, 1, M)
    model = _cloud_model(w, a, R=1e7, D=2.0)
    coeffs = md.identity_coeffs(model, model.basis)
    W = md.TransportMap(coeffs=coeffs, basis=model.basis)
    x = rng.standard_normal((9, d)) * 0.5
    want = np.mean(a[None, :] * np.tanh(x @ w.T), axis=1)
    np.testing.assert_allclose(md.forward(model, W, x), want, atol=1e-12)


def test_identity_map_interpolates_at_cloud_points():
    rng = np.random.default_rng(3)
    cloud = md.finite_width_cloud(rng.standard_normal((8, 2)), rng.uniform(-1, 1, 8))
    basis = gram_eigenbasis(cloud, 1.0, 8, include_a=False)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    stored = rng.standard_normal(8)
    coeffs = basis.basis_vectors.T @ (basis.anchor_weights * stored)
    W = md.TransportMap(coeffs=coeffs[:, None], basis=basis)
    got = md.forward(model, W, cloud.w)
    np.testing.assert_allclose(got, stored, atol=1e-9)


def test_gradient_zero_residual_is_zero():
    rng = np.random.default_rng(4)
    model = _cloud_model(rng.standard_normal((4, 2)), rng.uniform(-1, 1, 4))
    coeffs = rng.standard_normal((4, 3)) * 0.3
    W = md.TransportMap(coeffs=coeffs, basis=model.basis)
    x = rng.standard_normal((6, 2)) * 0.5
    y = md.forward(model, W, x)
    g = md.gradient(model, W, md.Dataset(x=x, y=y), "squared")
    np.testing.assert_allclose(g, np.zeros_like(coeffs), atol=1e-12)


def test_gradient_single_particle_hand_value():
    # zero first-layer values, nonzero second layer: the first-layer gradient
    # block is clip(v2) * loss'(y, 0) * x exactly (tanh'(0) = clip'(0) = 1)
    model = _cloud_model(np.array([[0.3, 0.7]]), np.array([0.2]), R=2.0)
    v2 = 0.8
    values = np.array([[0.0, 0.0, _unclip(v2, 2.0)]])
    E = model.basis.basis_vectors
    coeffs = np.linalg.solve(E, values)
    W = md.TransportMap(coeffs=coeffs, basis=model.basis)
    x = np.array([[0.5, -0.25]])
    y = np.array([0.7])
    g = md.gradient(model, W, md.Dataset(x=x, y=y), "squared")
    g_values = (E @ g)  # back to value space: (1, 3)
    lp = -2.0 * (0.7 - 0.0)
    np.testing.assert_allclose(g_values[0, :2], v2 * lp * x[0], rtol=1e-12)
    # second-layer gradient vanishes because sigma(0) = 0
    assert abs(g_values[0, 2]) < 1e-14


def _random_two_layer(rng):
    M, d = rng.integers(2, 6), rng.integers(1, 4)
    model = _cloud_model(rng.standard_normal((M, d)), rng.uniform(-1, 1, M),
                         R=float(rng.uniform(1.0, 3.0)), D=3.0,
                         bandwidth=float(rng.uniform(0.6, 1.6)))
    n = rng.integers(2, 8)
    data = md.Dataset(x=rng.standard_normal((n, d)) * 0.6, y=rng.standard_normal(n))
    gamma = float(rng.choice([0.0, 0.0, 1.0]))
    W = md.TransportMap(coeffs=rng.standard_normal((M, d + 1)), basis=model.basis, gamma=gamma)
    return model, W, data


def _random_identity(rng):
    N = rng.integers(3, 9)
    basis = cosine_basis(int(N), dim_in=1)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    n = rng.integers(2, 10)
    data = md.Dataset(x=rng.uniform(0, 1, (n, 1)), y=rng.standard_normal(n))
    gamma = float(rng.choice([0.0, 0.5]))
    W = md.TransportMap(coeffs=rng.standard_normal((N, 1)), basis=basis, gamma=gamma)
    return model, W, data


def _random_resnet(rng):
    M, d, T = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
    cloud = md.finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M),
                                  a_vec=rng.standard_normal((M, d)) / np.sqrt(d))
    basis = gram_eigenbasis(cloud, 1.0, M, include_a=False)
    model = md.ModelSpec(arch="resnet", cloud=cloud, clip=md.ClipConfig(R=2.0, input_bound_D=3.0),
                         basis=basis, resnet_blocks=T)
    n = rng.integers(2, 6)
    data = md.Dataset(x=rng.standard_normal((n, d)) * 0.5, y=rng.standard_normal(n))
    W = md.TransportMap(coeffs=rng.standard_normal((M, T * d)) * 0.7, basis=basis)
    return model, W, data


@pytest.mark.parametrize("maker,loss", [
    ("two-layer", "squared"), ("two-layer", "logistic"),
    ("identity", "squared"), ("resnet", "squared"),
])
def test_gradient_matches_finite_differences(maker, loss):
    makers = {"two-layer": _random_two_layer, "identity": _random_identity,
              "resnet": _random_resnet}
    rng = np.random.default_rng(list(makers).index(maker))   # same draws in every process
    for trial in range(12):
        model, W, data = makers[maker](rng)
        if loss == "logistic":
            data = md.Dataset(x=data.x, y=np.sign(data.y) + (data.y == 0))
        g = md.gradient(model, W, data, loss)
        fd = orc.finite_diff_grad(model, loss, data, W, step=1e-5)
        denom = max(np.linalg.norm(fd), 1e-10)
        assert np.linalg.norm(g - fd) / denom < 1e-5, f"trial {trial}"


def test_wasserstein_objective_identity_cases():
    rng = np.random.default_rng(6)
    src = rng.standard_normal((20, 1))
    cloud = md.finite_width_cloud(src, np.zeros(20))
    basis = gram_eigenbasis(cloud, 0.3, 20, include_a=False)
    model = md.ModelSpec(arch="wasserstein", basis=basis, cloud=cloud,
                         wasserstein_penalty=1.0, mmd_bandwidth=0.7)
    ident = basis.basis_vectors.T @ (basis.anchor_weights[:, None] * src)
    W = md.TransportMap(coeffs=ident, basis=basis)
    # identity onto itself: zero displacement, zero discrepancy
    assert md.wasserstein_objective(W, src, src, 1.0, 0.7) == pytest.approx(0.0, abs=1e-10)
    # translated target keeps zero displacement but positive discrepancy
    shifted = md.wasserstein_objective(W, src, src + 1.5, 0.0, 0.7)
    assert shifted == pytest.approx(0.0, abs=1e-10)
    assert md.wasserstein_objective(W, src, src + 1.5, 1.0, 0.7) > 0.05


def test_wasserstein_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    src = rng.standard_normal((10, 2))
    tgt = rng.standard_normal((8, 2)) + 0.5
    cloud = md.finite_width_cloud(src, np.zeros(10))
    basis = gram_eigenbasis(cloud, 1.2, 10, include_a=False)
    model = md.ModelSpec(arch="wasserstein", basis=basis, cloud=cloud,
                         wasserstein_penalty=0.8, mmd_bandwidth=1.1)
    for _ in range(5):
        W = md.TransportMap(coeffs=rng.standard_normal((10, 2)) * 0.5, basis=basis)
        data = md.Dataset(x=src, y=tgt)
        g = md.gradient(model, W, data, "squared")
        fd = orc.finite_diff_grad(model, "squared", data, W, step=1e-5)
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-10) < 1e-5


def test_wasserstein_gaussian_grid_search():
    # 1-d Gaussian -> Gaussian: the optimal map is affine with slope s_t/s_s
    rng = np.random.default_rng(8)
    src = rng.standard_normal((20, 1)) * 1.0
    a_true, b_true = 0.5, 1.0
    tgt = a_true * rng.standard_normal((40, 1)) + b_true
    cloud = md.finite_width_cloud(src, np.zeros(20))
    basis = gram_eigenbasis(cloud, 0.3, 20, include_a=False)
    penalty = 25.0
    best, best_ab = np.inf, None
    for a in np.linspace(0.1, 1.2, 23):
        for b in np.linspace(0.0, 1.6, 33):
            vals = a * src + b
            coeffs = basis.basis_vectors.T @ (basis.anchor_weights[:, None] * vals)
            W = md.TransportMap(coeffs=coeffs, basis=basis)
            obj = md.wasserstein_objective(W, src, tgt, penalty, 0.8)
            if obj < best:
                best, best_ab = obj, (a, b)
    # grid optimum sits near the analytic affine transport map
    assert abs(best_ab[0] - a_true) < 0.2
    assert abs(best_ab[1] - b_true) < 0.2


def test_lipschitz_gap_trivial_and_shift():
    rng = np.random.default_rng(9)
    model = _cloud_model(rng.standard_normal((6, 2)), rng.uniform(-1, 1, 6), R=1.5, D=1.0)
    W = md.TransportMap(coeffs=rng.standard_normal((6, 3)), basis=model.basis)
    grid = rng.standard_normal((64, 2))
    grid /= np.maximum(1.0, np.linalg.norm(grid, axis=1))[:, None]
    lhs, rhs = md.lipschitz_gap(model, W, W, grid)
    assert lhs == 0.0 and rhs == 0.0
    # constant shift on the second-layer coordinate only
    c = 0.3
    E = model.basis.basis_vectors
    shift_values = np.column_stack([np.zeros((6, 2)), np.full(6, c)])
    shift_coeffs = E.T @ (model.cloud.weights[:, None] * shift_values)
    W2 = md.TransportMap(coeffs=W.coeffs + shift_coeffs, basis=model.basis)
    lhs, rhs = md.lipschitz_gap(model, W, W2, grid)
    assert lhs <= c + 1e-9
    assert lhs <= rhs + 1e-9
    assert rhs == pytest.approx((1 + 1.5 * 1.0) * c, rel=1e-9)


def test_lipschitz_inequality_random_pairs():
    rng = np.random.default_rng(10)
    for _ in range(50):
        M = int(rng.integers(2, 7))
        model = _cloud_model(rng.standard_normal((M, 2)), rng.uniform(-1, 1, M),
                             R=float(rng.uniform(1, 3)), D=1.5)
        Wa = md.TransportMap(coeffs=rng.standard_normal((M, 3)) * 2, basis=model.basis)
        Wb = md.TransportMap(coeffs=rng.standard_normal((M, 3)) * 2, basis=model.basis)
        grid = rng.standard_normal((128, 2))
        grid *= (1.5 / np.maximum(1.5, np.linalg.norm(grid, axis=1)))[:, None]
        lhs, rhs = md.lipschitz_gap(model, Wa, Wb, grid)
        assert lhs <= rhs + 1e-9


def test_gamma_scaling_composition_identity():
    rng = np.random.default_rng(12)
    model = _cloud_model(rng.standard_normal((5, 2)), rng.uniform(-1, 1, 5))
    coeffs = rng.standard_normal((5, 3))
    x = rng.standard_normal((8, 2)) * 0.5
    from transport_langevin.spectral import fractional_power_scale
    W_gamma = md.TransportMap(coeffs=coeffs, basis=model.basis, gamma=1.2)
    scaled = fractional_power_scale(coeffs, model.basis.eigen, 1.2)
    W_plain = md.TransportMap(coeffs=scaled, basis=model.basis, gamma=0.0)
    np.testing.assert_allclose(md.forward(model, W_gamma, x),
                               md.forward(model, W_plain, x), rtol=1e-13)


def test_cloud_weight_validation():
    with pytest.raises(ValueError):
        md.ParticleCloud(w=np.zeros((3, 2)), a=np.zeros(3), weights=np.array([0.5, 0.2, 0.2]))


def test_arch_cloud_mismatch_rejected():
    with pytest.raises(ValueError):
        md.ModelSpec(arch="two-layer", cloud=None)
    rng = np.random.default_rng(14)
    cloud = md.finite_width_cloud(rng.standard_normal((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        md.ModelSpec(arch="resnet", cloud=cloud, resnet_blocks=2)  # no a_vec
    with pytest.raises(ValueError):
        md.ModelSpec(arch="unknown")


def test_attach_basis_keeps_every_other_field_and_checks_the_spec():
    rng = np.random.default_rng(16)
    M, d = 4, 2
    cloud = md.finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M),
                                  a_vec=rng.standard_normal((M, d)))
    old, new = (gram_eigenbasis(cloud, h, M, include_a=False) for h in (1.0, 0.7))
    model = md.ModelSpec(arch="resnet", cloud=cloud, clip=md.ClipConfig(R=3.0, input_bound_D=0.5),
                         basis=old, resnet_blocks=3, wasserstein_penalty=2.5, mmd_bandwidth=0.3)
    out = md.attach_basis(model, new)
    assert out.basis is new
    for field in dataclasses.fields(md.ModelSpec):
        if field.default is not dataclasses.MISSING:
            # every field the spec has is set away from its default here, a new one too
            assert getattr(model, field.name) != field.default, field.name
        if field.name != "basis":
            assert getattr(out, field.name) is getattr(model, field.name), field.name
    # the spec with the basis attached is checked as any other: resnet needs a_vec
    plain = md.finite_width_cloud(cloud.w, cloud.a)
    unchecked = md.ModelSpec(arch="two-layer", cloud=plain, resnet_blocks=2)
    object.__setattr__(unchecked, "arch", "resnet")
    with pytest.raises(ValueError, match="a_vec"):
        md.attach_basis(unchecked, new)


def test_input_bound_warning():
    rng = np.random.default_rng(15)
    model = _cloud_model(rng.standard_normal((3, 2)), np.zeros(3), D=0.5)
    W = md.TransportMap(coeffs=np.zeros((3, 3)), basis=model.basis)
    with pytest.warns(UserWarning):
        md.forward(model, W, np.array([5.0, 5.0]))


# The two-layer forward and gradient as they were written before the objective
# was built once per (model, loss, dataset, gamma): one self-contained pass per call.
def _reference_two_layer_forward(model, W, x):
    X = np.asarray(x, dtype=float)
    R = model.clip.R
    V = md.map_values(model, W)
    Vb = md.clip(V, R)
    Z = Vb[:, :-1] @ X.T
    return (model.cloud.weights * Vb[:, -1]) @ np.tanh(Z)


def _reference_two_layer_gradient(model, W, dataset, loss_kind):
    n = dataset.x.shape[0]
    X = np.asarray(dataset.x, dtype=float)
    R = model.clip.R
    E = md._cloud_features(model, W.basis)
    V = E @ W.effective_coeffs()
    Vb = md.clip(V, R)
    Cd = 1.0 - np.tanh(V / R) ** 2
    Z = Vb[:, :-1] @ X.T
    S = np.tanh(Z)
    f = (model.cloud.weights * Vb[:, -1]) @ S
    lp = md.loss_eval_derivs(loss_kind, dataset.y, f, 1)
    omega = model.cloud.weights
    kernel = (1.0 - S ** 2) * lp[None, :]
    dV1 = (omega * Vb[:, -1])[:, None] * (kernel @ X) / n * Cd[:, :-1]
    dV2 = omega * (S @ lp) / n * Cd[:, -1]
    dV = np.column_stack([dV1, dV2])
    return fractional_power_scale(E.T @ dV, W.basis.eigen, W.gamma)


# tanh is the one activation; the parameter keeps these cases' names and seeds
@pytest.mark.parametrize("activation", ["tanh"])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("loss", ["squared", "logistic"])
def test_two_layer_objective_equals_the_reference_bit_for_bit(activation, gamma, loss):
    rng = np.random.default_rng([0, int(gamma), ["squared", "logistic"].index(loss)])
    for n in (1, 2, 17, 256, 1024):
        M, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        cloud = md.finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M))
        model = md.ModelSpec(arch="two-layer", cloud=cloud,
                             clip=md.ClipConfig(R=float(rng.uniform(1.0, 3.0)), input_bound_D=4.0),
                             basis=gram_eigenbasis(cloud, float(rng.uniform(0.6, 1.6)), M))
        x = rng.standard_normal((n, d)) * 0.6
        y = rng.standard_normal(n)
        if loss == "logistic":
            y = np.where(y >= 0, 1.0, -1.0)
        data = md.Dataset(x=x, y=y)
        value, grad = md.risk_objective(model, loss, data, gamma)
        for _ in range(3):
            W = md.TransportMap(coeffs=rng.standard_normal((M, d + 1)) * 1.5, basis=model.basis,
                                gamma=gamma)
            ref_f = _reference_two_layer_forward(model, W, x)
            ref_g = _reference_two_layer_gradient(model, W, data, loss)
            np.testing.assert_array_equal(md.forward(model, W, x), ref_f)
            np.testing.assert_array_equal(grad(W.coeffs), ref_g)
            np.testing.assert_array_equal(md.gradient(model, W, data, loss), ref_g)
            expected = float(np.mean(md.loss_eval_derivs(loss, y, ref_f, 0)))
            assert value(W.coeffs) == expected
            assert md.empirical_risk(model, W, loss, data) == expected


def test_input_bound_warns_on_values_not_on_gradients():
    import warnings

    rng = np.random.default_rng(16)
    model = _cloud_model(rng.standard_normal((4, 2)), rng.uniform(-1, 1, 4), D=0.5)
    W = md.TransportMap(coeffs=rng.standard_normal((4, 3)), basis=model.basis)
    far = md.Dataset(x=np.array([[0.1, 0.2], [3.0, 0.0]]), y=np.array([0.3, -0.2]))
    near = md.Dataset(x=far.x * 0.1, y=far.y)
    value, grad = md.risk_objective(model, "squared", far)
    warned = {
        "forward": lambda: md.forward(model, W, far.x),
        "empirical_risk": lambda: md.empirical_risk(model, W, "squared", far),
        "risk_objective value": lambda: value(W.coeffs),
    }
    silent = {
        "gradient": lambda: md.gradient(model, W, far, "squared"),
        "risk_objective grad": lambda: grad(W.coeffs),
        "forward inside D": lambda: md.forward(model, W, near.x),
        "value inside D": lambda: md.risk_objective(model, "squared", near)[0](W.coeffs),
    }
    for name, call in {**warned, **silent}.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        messages = [str(w.message) for w in caught]
        if name in warned:
            assert len(messages) == 1 and "exceeds the declared bound" in messages[0], name
        else:
            assert messages == [], name


# The identity-map value and gradient as they were written before the step took
# numpy's per-call overhead off: the `@` products and Python-number operands.
def _reference_identity_objective(model, loss_kind, dataset, gamma):
    Phi = eval_basis(model.basis, dataset.x)
    y, n = dataset.y, Phi.shape[0]
    eigen, scaled = model.basis.eigen, gamma != 0.0

    def value(coeffs):
        if scaled:
            coeffs = fractional_power_scale(coeffs, eigen, gamma)
        return float(np.mean(md.loss_eval_derivs(loss_kind, y, Phi @ coeffs[:, 0], 0)))

    def grad(coeffs):
        if scaled:
            coeffs = fractional_power_scale(coeffs, eigen, gamma)
        lp = md.loss_eval_derivs(loss_kind, y, Phi @ coeffs[:, 0], 1)
        g = (Phi.T @ lp)[:, None] / n
        return fractional_power_scale(g, eigen, gamma) if scaled else g

    return value, grad


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("loss", ["squared", "logistic"])
def test_identity_map_objective_equals_the_reference_bit_for_bit(gamma, loss):
    rng = np.random.default_rng([int(2 * gamma), ["squared", "logistic"].index(loss)])
    for n_modes, n in ((1, 1), (3, 2), (8, 50), (6, 300)):
        model = md.ModelSpec(arch="identity-map", basis=cosine_basis(n_modes, dim_in=1))
        x = rng.uniform(0, 1, (n, 1))
        y = rng.standard_normal(n)
        if loss == "logistic":
            y = np.where(y >= 0, 1.0, -1.0)
        data = md.Dataset(x=x, y=y)
        value, grad = md.risk_objective(model, loss, data, gamma)
        ref_value, ref_grad = _reference_identity_objective(model, loss, data, gamma)
        for _ in range(3):
            c = rng.standard_normal((n_modes, 1)) * 2.0
            W = md.TransportMap(coeffs=c, basis=model.basis, gamma=gamma)
            g = ref_grad(c)
            np.testing.assert_array_equal(grad(c), g)
            np.testing.assert_array_equal(md.gradient(model, W, data, loss), g)
            assert value(c) == ref_value(c)


def test_only_the_identity_squared_gradient_declares_an_affine_form(monkeypatch):
    # grad(c) = H c - b, H = (2/n) Phi^T Phi and b = (2/n) Phi^T y, from the features the
    # objective already holds; gamma > 0, the logistic loss and the other maps declare none
    rng = np.random.default_rng(4)
    model = md.ModelSpec(arch="identity-map", basis=cosine_basis(6, dim_in=1))
    x, y = rng.uniform(0, 1, (30, 1)), rng.standard_normal(30)
    Phi = eval_basis(model.basis, x)
    calls = []
    monkeypatch.setattr(md, "eval_basis", lambda basis, x: calls.append(1) or eval_basis(basis, x))
    _, grad = md.risk_objective(model, "squared", md.Dataset(x=x, y=y))
    H, b = grad.affine()
    assert len(calls) == 1 and b.shape == (6, 1)
    np.testing.assert_allclose(H, 2.0 / 30 * Phi.T @ Phi, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(b[:, 0], 2.0 / 30 * Phi.T @ y, rtol=1e-14, atol=1e-15)
    for _ in range(3):
        c = rng.standard_normal((6, 1))
        np.testing.assert_allclose(H @ c - b, grad(c), rtol=0, atol=1e-13)
    labels = md.Dataset(x=x, y=np.where(y >= 0, 1.0, -1.0))
    assert not hasattr(md.risk_objective(model, "squared", md.Dataset(x=x, y=y), 0.5)[1],
                       "affine")
    assert not hasattr(md.risk_objective(model, "logistic", labels)[1], "affine")
    for arch in ("two-layer", "resnet", "wasserstein"):
        other, data, _ = _arch_case(arch, rng)
        assert not hasattr(md.risk_objective(other, "squared", data)[1], "affine"), arch


# The resnet forward and gradient and the wasserstein objective and gradient as they were
# written before one objective per architecture was built: one self-contained pass per call.
def _reference_resnet_forward(model, W, X):
    d, T, R = model.cloud.dim, model.resnet_blocks, model.clip.R
    E = md._cloud_features(model, W.basis)
    C = W.effective_coeffs().reshape(W.basis.n_modes, T, d)
    omega, a_vec = model.cloud.weights, model.cloud.a_vec
    z = X
    cache = []
    for t in range(T):
        V = E @ C[:, t, :]
        Vb = md.clip(V, R)
        P = z @ Vb.T
        S = np.tanh(P)
        cache.append((z, V, Vb, P, S))
        z = z + (S * omega[None, :]) @ a_vec
    return z, cache


def _reference_resnet_gradient(model, W, dataset, loss_kind):
    X = np.asarray(dataset.x, dtype=float)
    n = X.shape[0]
    d, T, R = model.cloud.dim, model.resnet_blocks, model.clip.R
    E = md._cloud_features(model, W.basis)
    omega, a_vec = model.cloud.weights, model.cloud.a_vec
    u = np.full(d, 1.0 / np.sqrt(d))
    z_out, cache = _reference_resnet_forward(model, W, X)
    lp = md.loss_eval_derivs(loss_kind, dataset.y, z_out @ u, 1)
    G = (lp[:, None] / n) * u[None, :]
    dC = np.zeros((W.basis.n_modes, T, d))
    for t in range(T - 1, -1, -1):
        z_in, V, Vb, P, S = cache[t]
        Q = (G @ a_vec.T) * (1.0 - S ** 2)
        dV = (Q.T @ z_in) * omega[:, None] * (1.0 - np.tanh(V / R) ** 2)
        dC[:, t, :] = E.T @ dV
        G = G + (Q * omega[None, :]) @ Vb
    return fractional_power_scale(dC.reshape(W.basis.n_modes, T * d), W.basis.eigen, W.gamma)


def _reference_mmd_terms(A, B, h):
    def k(u, v):
        sq = np.sum(u ** 2, axis=1)[:, None] + np.sum(v ** 2, axis=1)[None, :] - 2.0 * u @ v.T
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * h ** 2))
    return k(A, A), k(B, B), k(A, B)


def _reference_wasserstein_objective(W, S, Tgt, penalty, h):
    F = eval_basis(W.basis, S) @ W.effective_coeffs()
    disp = float(np.mean(np.sum((S - F) ** 2, axis=1)))
    Kff, Ktt, Kft = _reference_mmd_terms(F, Tgt, h)
    return disp + penalty * float(Kff.mean() + Ktt.mean() - 2.0 * Kft.mean())


def _reference_wasserstein_gradient(model, W, S, Tgt):
    h = model.mmd_bandwidth
    Phi = eval_basis(W.basis, S)
    F = Phi @ W.effective_coeffs()
    m, t = S.shape[0], Tgt.shape[0]
    dF = -2.0 * (S - F) / m
    Kff, _, Kft = _reference_mmd_terms(F, Tgt, h)
    dmmd = (-2.0 / (m ** 2 * h ** 2)) * (Kff.sum(axis=1)[:, None] * F - Kff @ F) \
        + (2.0 / (m * t * h ** 2)) * (Kft.sum(axis=1)[:, None] * F - Kft @ Tgt)
    dF = dF + model.wasserstein_penalty * dmmd
    return fractional_power_scale(Phi.T @ dF, W.basis.eigen, W.gamma)


def _reference(model, W, data, loss):
    """The reference forward on ``data.x``, gradient and empirical risk, the map over W.basis."""
    spec = md.attach_basis(model, W.basis)
    if model.arch == "wasserstein":
        f = eval_basis(W.basis, data.x) @ W.effective_coeffs()
        return (f, _reference_wasserstein_gradient(spec, W, data.x, data.y),
                _reference_wasserstein_objective(W, data.x, data.y, model.wasserstein_penalty,
                                                 model.mmd_bandwidth))
    if model.arch == "identity-map":
        f = eval_basis(W.basis, data.x) @ W.effective_coeffs()[:, 0]
        g = _reference_identity_objective(spec, loss, data, W.gamma)[1](W.coeffs)
    elif model.arch == "two-layer":
        f = _reference_two_layer_forward(spec, W, data.x)
        g = _reference_two_layer_gradient(spec, W, data, loss)
    else:
        d = model.cloud.dim
        f = _reference_resnet_forward(spec, W, data.x)[0] @ np.full(d, 1.0 / np.sqrt(d))
        g = _reference_resnet_gradient(spec, W, data, loss)
    return f, g, float(np.mean(md.loss_eval_derivs(loss, data.y, f, 0)))


def _arch_case(arch, rng, n=7):
    """A small ``arch`` model whose features go through eval_basis, n data points, and the
    coefficient shape of its maps.  The networks' basis is anchored on a larger cloud than
    their own, so even their cloud features are a Nystrom evaluation."""
    if arch == "identity-map":
        model = md.ModelSpec(arch=arch, basis=cosine_basis(5, dim_in=1))
        return model, md.Dataset(x=rng.uniform(0, 1, (n, 1)), y=rng.standard_normal(n)), (5, 1)
    if arch == "wasserstein":
        src = rng.standard_normal((n, 2))
        cloud = md.finite_width_cloud(src, np.zeros(n))
        k = min(n, 8)
        model = md.ModelSpec(arch=arch, cloud=cloud, basis=gram_eigenbasis(cloud, 1.2, k, False),
                             wasserstein_penalty=0.8, mmd_bandwidth=1.1)
        return model, md.Dataset(x=src, y=rng.standard_normal((n + 3, 2)) + 0.5), (k, 2)
    M, d, resnet = 5, 2, arch == "resnet"
    a_vec = rng.standard_normal((M, d)) / np.sqrt(d) if resnet else None
    cloud = md.finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M), a_vec=a_vec)
    anchors = md.finite_width_cloud(rng.standard_normal((M + 3, d)), rng.uniform(-1, 1, M + 3))
    model = md.ModelSpec(arch=arch, cloud=cloud,
                         clip=md.ClipConfig(R=2.0, input_bound_D=4.0),
                         basis=gram_eigenbasis(anchors, 1.0, M, include_a=not resnet),
                         resnet_blocks=3 if resnet else 0)
    data = md.Dataset(x=rng.standard_normal((n, d)) * 0.5, y=rng.standard_normal(n))
    return model, data, (M, 3 * d if resnet else d + 1)


def _assert_gradient_equals_the_reference(arch, g, ref_g):
    """Bit for bit, but wasserstein's to rounding: the package sums its kernel terms over
    the direct differences F_i - P_j, and the reference over the expanded square."""
    if arch == "wasserstein":
        np.testing.assert_allclose(g, ref_g, rtol=1e-13, atol=1e-13 * np.abs(ref_g).max())
    else:
        np.testing.assert_array_equal(g, ref_g, arch)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
# tanh is the one activation; the parameter keeps these cases' names and seeds
@pytest.mark.parametrize("arch,activation", [("resnet", "tanh"), ("wasserstein", "tanh")])
def test_resnet_and_wasserstein_objectives_equal_the_reference_bit_for_bit(arch, activation,
                                                                            gamma):
    rng = np.random.default_rng([md.ARCHS.index(arch), 1, int(gamma)])
    for n in (1, 2, 17, 64):
        model, data, shape = _arch_case(arch, rng, n=n)
        value, grad = md.risk_objective(model, "squared", data, gamma)
        for _ in range(3):
            W = md.TransportMap(coeffs=rng.standard_normal(shape) * 0.7, basis=model.basis,
                                gamma=gamma)
            ref_f, ref_g, ref_risk = _reference(model, W, data, "squared")
            np.testing.assert_array_equal(md.forward(model, W, data.x), ref_f)
            _assert_gradient_equals_the_reference(arch, grad(W.coeffs), ref_g)
            _assert_gradient_equals_the_reference(arch, md.gradient(model, W, data, "squared"),
                                                  ref_g)
            assert value(W.coeffs) == ref_risk
            assert md.empirical_risk(model, W, "squared", data) == ref_risk
            if arch == "wasserstein":
                assert md.wasserstein_objective(W, data.x, data.y, model.wasserstein_penalty,
                                                model.mmd_bandwidth) == ref_risk


def test_forward_and_gradient_read_the_basis_of_the_map():
    # the map carries its basis; the model's own, or none at all, does not matter
    rng = np.random.default_rng(17)
    for arch in md.ARCHS:
        model, data, shape = _arch_case(arch, rng)
        if arch == "identity-map":                      # same mode count, other modes
            points = md.finite_width_cloud(rng.uniform(0, 1, (5, 1)), np.zeros(5))
            other = gram_eigenbasis(points, 0.5, 5, include_a=False)
        else:
            other = gram_eigenbasis(model.cloud, 0.5, shape[0],
                                    include_a=model.basis.dim_in > model.cloud.dim)
        bare = dataclasses.replace(model, basis=None)
        for gamma in (0.0, 1.0):
            W = md.TransportMap(coeffs=rng.standard_normal(shape), basis=other, gamma=gamma)
            ref_f, ref_g, ref_risk = _reference(model, W, data, "squared")
            for spec in (model, bare):
                np.testing.assert_array_equal(md.forward(spec, W, data.x), ref_f, arch)
                _assert_gradient_equals_the_reference(
                    arch, md.gradient(spec, W, data, "squared"), ref_g)
                assert md.empirical_risk(spec, W, "squared", data) == ref_risk, arch


@pytest.mark.parametrize("arch", md.ARCHS)
def test_risk_objective_evaluates_features_when_built_only(arch, monkeypatch):
    calls = []

    def counted(basis, x):
        calls.append(basis)
        return eval_basis(basis, x)

    monkeypatch.setattr(md, "eval_basis", counted)
    rng = np.random.default_rng(18)
    model, data, shape = _arch_case(arch, rng)
    value, grad = md.risk_objective(model, "squared", data)
    built = len(calls)
    assert built >= 1
    for _ in range(3):
        c = rng.standard_normal(shape)
        value(c)
        grad(c)
    assert len(calls) == built


@pytest.mark.parametrize("arch", md.ARCHS)
def test_risk_objective_refuses_a_negative_gamma(arch):
    # mu^(gamma/2) with gamma < 0 would grow with the mode index, the map no longer smoother
    model, data, _ = _arch_case(arch, np.random.default_rng(19))
    with pytest.raises(ValueError, match="gamma must be non-negative"):
        md.risk_objective(model, "squared", data, -0.5)
