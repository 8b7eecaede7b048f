import warnings

import numpy as np
import pytest

from transport_langevin import losses as ls
from transport_langevin.models import Dataset, ModelSpec, ClipConfig, finite_width_cloud, attach_basis
from transport_langevin.spectral import gram_eigenbasis


def test_squared_loss_values():
    assert ls.loss_eval_derivs("squared", 1.0, 0.5, 0) == pytest.approx(0.25)
    assert ls.loss_eval_derivs("squared", 1.0, 0.5, 1) == pytest.approx(-1.0)
    assert ls.loss_eval_derivs("squared", 0.0, 3.0, 2) == pytest.approx(2.0)
    assert ls.loss_eval_derivs("squared", 0.0, 3.0, 3) == 0.0


def test_logistic_loss_at_zero_is_log2():
    assert ls.loss_eval_derivs("logistic", 1.0, 0.0, 0) == pytest.approx(np.log(2.0), rel=1e-14)
    assert ls.loss_eval_derivs("logistic", -1.0, 0.0, 0) == pytest.approx(np.log(2.0), rel=1e-14)


def test_logistic_derivatives_match_finite_differences():
    h = 1e-6
    u_grid = np.linspace(-4, 4, 33)
    for y in (-1.0, 1.0):
        for order in (1, 2, 3):
            lo = ls.loss_eval_derivs("logistic", y, u_grid - h, order - 1)
            hi = ls.loss_eval_derivs("logistic", y, u_grid + h, order - 1)
            fd = (hi - lo) / (2 * h)
            got = ls.loss_eval_derivs("logistic", y, u_grid, order)
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)


def test_logistic_derivative_bounds():
    u = np.linspace(-30, 30, 2001)
    d1 = ls.loss_eval_derivs("logistic", 1.0, u, 1)
    d2 = ls.loss_eval_derivs("logistic", 1.0, u, 2)
    assert np.all(np.abs(d1) <= 1.0 + 1e-12)
    assert np.all(d2 >= 0) and np.all(d2 <= 0.25 + 1e-12)
    # closed form of the first derivative
    np.testing.assert_allclose(d1, -1.0 / (1.0 + np.exp(u)), rtol=1e-12)


def test_loss_eval_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ls.loss_eval_derivs("hinge", 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        ls.loss_eval_derivs("squared", 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        ls.loss_eval_derivs("logistic", 0.5, 0.0, 0)


def test_clipped_loss_range_values():
    assert ls.clipped_loss_range(1.0, 1.0) == pytest.approx(10.0)
    assert ls.clipped_loss_range(1.0, 0.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        ls.clipped_loss_range(0.5, 1.0)


def test_clipped_loss_range_is_an_envelope():
    rng = np.random.default_rng(11)
    R, C = 1.5, 0.7
    n = 100_000
    f = rng.uniform(-R, R, n)
    fstar = rng.uniform(-R, R, n)
    eps = rng.uniform(-C, C, n)
    losses = (fstar + eps - f) ** 2
    assert np.max(losses) <= ls.clipped_loss_range(R, C)


def test_bernstein_check_equality_and_hand_case():
    lhs, rhs, ok = ls.bernstein_check(0.4, 0.4, 1.0)
    assert lhs == 0.0 and rhs == 0.0 and ok
    # hand evaluation at p=0.3, q=0.6, R=1 (C_B = 7)
    lhs, rhs, ok = ls.bernstein_check(0.3, 0.6, 1.0)
    lp, lq = np.log(0.3 / 0.6), np.log(0.7 / 0.4)
    assert lhs == pytest.approx(0.3 * lp ** 2 + 0.7 * lq ** 2, rel=1e-14)
    assert rhs == pytest.approx(7.0 * (0.3 * lp + 0.7 * lq), rel=1e-14)
    assert ok


def test_bernstein_check_rejects_outside_band():
    with pytest.raises(ValueError):
        ls.bernstein_check(0.05, 0.5, 1.0)
    with pytest.raises(ValueError):
        ls.bernstein_check(0.5, 0.99, 1.0)


def test_feasible_band_of_a_large_radius_is_the_unit_interval_without_a_warning():
    # exp(R) overflows to inf above R ~ 709, which puts the lower end at exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ls.feasible_band(1000.0) == (0.0, 1.0)


def test_bernstein_full_grid_small():
    # step 0.01 here; the acceptance suite runs the 0.005 grid
    for R in (0.5, 1.0):
        lo, hi = ls.feasible_band(R)
        grid = np.arange(lo, hi + 1e-12, 0.01)
        grid = grid[(grid >= lo) & (grid <= hi)]
        P, Q = np.meshgrid(grid, grid, indexing="ij")
        _, _, ok = ls.bernstein_check(P.ravel(), Q.ravel(), R)
        assert np.all(ok)


def _small_model(rng, M=4, d=2):
    cloud = finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M))
    model = ModelSpec(arch="two-layer", cloud=cloud, clip=ClipConfig(R=2.0, input_bound_D=2.0))
    basis = gram_eigenbasis(cloud, 1.0, M)
    return attach_basis(model, basis)


def test_smoothness_audit_monotone_and_guarded():
    rng = np.random.default_rng(4)
    model = _small_model(rng)
    x = rng.standard_normal((12, 2)) * 0.5
    y = rng.standard_normal(12)
    data = Dataset(x=x, y=y)
    with pytest.raises(ValueError):
        ls.smoothness_audit(model, "squared", Dataset(x=np.zeros((0, 2)), y=np.zeros(0)), 4,
                            np.random.default_rng(0))
    small = ls.smoothness_audit(model, "squared", data, 4, np.random.default_rng(1))
    big = ls.smoothness_audit(model, "squared", data, 16, np.random.default_rng(1))
    assert small.empirical and big.empirical
    assert big.B >= small.B - 1e-12
    assert big.R_bar >= small.R_bar - 1e-12


def test_smoothness_audit_below_analytic_envelope():
    # squared loss with clipped two-layer: |f| <= R so |loss'| <= 2(|y|+R);
    # ||grad||_H is bounded through the cloud geometry, checked loosely here
    rng = np.random.default_rng(9)
    model = _small_model(rng)
    x = rng.standard_normal((20, 2))
    x /= np.maximum(1.0, np.linalg.norm(x, axis=1) / 2.0)[:, None]
    y = rng.uniform(-1, 1, 20)
    audit = ls.smoothness_audit(model, "squared", Dataset(x=x, y=y), 12, np.random.default_rng(2))
    R, D = model.clip.R, model.clip.input_bound_D
    loss_deriv_bound = 2.0 * (np.max(np.abs(y)) + R)
    envelope = loss_deriv_bound * R * max(1.0, D) * np.sqrt(1.0 + D ** 2)
    assert audit.B <= envelope
    assert audit.R_bar <= (np.max(np.abs(y)) + R) ** 2


def test_loss_bounds_validation():
    with pytest.raises(ValueError):
        ls.LossBounds(B=-1.0, L_lip=0.0, R_bar=1.0)
    with pytest.raises(ValueError):
        ls.LossBounds(B=1.0, L_lip=0.0, R_bar=1.0, s=1.5)


def _same_bits(a, b) -> bool:
    # equal values, signed zeros told apart, and the same Python type
    return type(a) is type(b) and np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                                                 np.asarray(b, dtype=float).view(np.uint64))


def _reference_squared_first_derivative(y, u):
    # the first derivative as written before its -2.0 became a 0-d array scaled in place
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    out = -2.0 * (y - u)
    return out if out.ndim else float(out)


@pytest.mark.parametrize("y, u", [
    (1.0, 0.5), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (3, -2),
    (np.float64(0.25), np.float64(-1.5)),
    (np.array(0.0), np.array(-0.0)), (np.array(-0.0), np.array(0.0)), (np.array(1.5), 2.0),
    (np.array([0.0, -0.0, 1.0, -2.5, 1e300]), np.array([-0.0, -0.0, 1.0, 0.5, -1e300])),
    (np.array([0.0, -0.0, 3.0]), -0.0), (0.5, np.array([0.0, -0.0, -7.25])),
    ([1.0, 2.0], [2.0, 1.0]),
])
def test_squared_first_derivative_equals_the_reference_bit_for_bit(y, u):
    got = ls.loss_eval_derivs("squared", y, u, 1)
    assert _same_bits(got, _reference_squared_first_derivative(y, u))


@pytest.mark.parametrize("bad", [0.0, -0.0, 0.5, 2.0, -2.0, np.nan, np.inf, -np.inf])
def test_logistic_loss_rejects_every_label_but_plus_and_minus_one(bad):
    for y in (bad, np.array(bad), np.array([1.0, bad, -1.0])):
        for order in (0, 1, 2, 3):
            with pytest.raises(ValueError, match="labels"):
                ls.loss_eval_derivs("logistic", y, 0.3, order)
    np.testing.assert_array_equal(ls.loss_eval_derivs("logistic", np.array([1.0, -1.0]), 0.0, 0),
                                  np.log(2.0))
