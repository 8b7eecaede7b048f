import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transport_langevin import spectral as sp
from transport_langevin.models import finite_width_cloud


def test_make_eigen_sequence_values():
    e = sp.make_eigen_sequence(1.0, 2.0, 3)
    np.testing.assert_allclose(e.mu, [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)
    single = sp.make_eigen_sequence(1.0, 2.0, 1)
    np.testing.assert_allclose(single.mu, [1.0])
    # hand evaluation of 2*(k+1)^-3
    e2 = sp.make_eigen_sequence(2.0, 3.0, 2)
    np.testing.assert_allclose(e2.mu, [2.0, 0.25], rtol=1e-15)


@pytest.mark.parametrize("bad", [dict(c_mu=0.0), dict(c_mu=-1.0), dict(n_modes=0)])
def test_make_eigen_sequence_rejects(bad):
    kw = dict(c_mu=1.0, decay_exponent=2.0, n_modes=4)
    kw.update(bad)
    with pytest.raises(ValueError):
        sp.make_eigen_sequence(**kw)


def test_eigen_sequence_validator_rejects_slow_decay():
    # mu_k = (k+1)^-1 violates the decay envelope for any c_mu = mu_0
    mu = 1.0 / np.arange(1, 6, dtype=float)
    with pytest.raises(ValueError):
        sp.EigenSequence(mu=mu, c_mu=1.0)
    with pytest.raises(ValueError):
        sp.EigenSequence(mu=np.array([1.0, 0.5, 0.6]), c_mu=1.0)  # not monotone
    with pytest.raises(ValueError):
        sp.EigenSequence(mu=np.array([1.0, -0.25]), c_mu=1.0)


def test_apply_A_hand_values():
    e = sp.EigenSequence(mu=np.array([1.0, 0.25]), c_mu=1.0)
    np.testing.assert_allclose(sp.apply_A([2.0, 2.0], 1.0, e), [2.0, 8.0], rtol=1e-15)
    np.testing.assert_allclose(sp.apply_A(np.zeros(2), 3.0, e), [0.0, 0.0])
    e2 = sp.EigenSequence(mu=np.array([1.0, 0.5]), c_mu=2.0)
    np.testing.assert_allclose(sp.apply_A([1.0, 1.0], 2.0, e2), [2.0, 4.0], rtol=1e-15)
    with pytest.raises(ValueError):
        sp.apply_A(np.ones(3), 1.0, e)


def test_resolvent_hand_values():
    e = sp.EigenSequence(mu=np.array([1.0, 0.25]), c_mu=1.0)
    np.testing.assert_allclose(sp.resolvent_S_eta([1.0, 1.0], 0.0, 1.0, e), [1.0, 1.0])
    out = sp.resolvent_S_eta([1.0, 1.0], 0.1, 1.0, e)
    np.testing.assert_allclose(out, [1.0 / 1.1, 1.0 / 1.4], rtol=1e-12)
    # eta -> infinity drives every mode to zero
    big = sp.resolvent_S_eta([1.0], 1e12, 1.0, sp.EigenSequence(mu=np.array([1.0]), c_mu=1.0))
    assert abs(big[0]) < 1e-11
    with pytest.raises(ValueError):
        sp.resolvent_S_eta([1.0], -0.1, 1.0, e)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(0.0, 10.0), st.floats(0.05, 5.0))
def test_resolvent_contracts_and_inverts(coeffs, eta, lam):
    e = sp.make_eigen_sequence(1.0, 2.0, 8)
    a = np.array(coeffs)
    out = sp.resolvent_S_eta(a, eta, lam, e)
    assert np.linalg.norm(out) <= np.linalg.norm(a) + 1e-12
    factors = 1.0 / (1.0 + eta * lam / e.mu[: a.size])
    np.testing.assert_allclose(out, a * factors, rtol=1e-13, atol=1e-300)
    # exact inversion recovers the input
    back = out * (1.0 + eta * lam / e.mu[: a.size])
    np.testing.assert_allclose(back, a, rtol=1e-12, atol=1e-12)


def test_sample_prior_moments():
    eigen = sp.make_eigen_sequence(1.0, 2.0, 4)
    basis = sp.diagonal_basis(4)
    spec = sp.GaussianMeasureSpec(beta=10.0, lam=0.1, eigen=eigen)
    rng = np.random.default_rng(7)
    n = 100_000
    draws = np.stack([sp.sample_prior(spec, basis, rng)[:, 0] for _ in range(n)])
    target_var = eigen.mu / (10.0 * 0.1)
    assert abs(target_var[0] - 1.0) < 1e-15
    for k in range(4):
        se_mean = np.sqrt(target_var[k] / n)
        assert abs(draws[:, k].mean()) < 3 * se_mean
        se_var = target_var[k] * np.sqrt(2.0 / n)
        assert abs(draws[:, k].var() - target_var[k]) < 3 * se_var


def test_weighted_norm_values():
    e = sp.EigenSequence(mu=np.array([1.0, 0.25]), c_mu=1.0)
    assert sp.weighted_norm(np.array([3.0, 4.0]), e, 0.0) == pytest.approx(5.0, abs=1e-15)
    got = sp.weighted_norm(np.array([1.0, 1.0]), e, 0.5)
    assert got == pytest.approx(np.sqrt(1.25), rel=1e-14)
    assert sp.weighted_norm(np.zeros(2), e, 1.3) == 0.0
    # eps=-1/2 gives the RKHS norm sqrt(sum alpha^2/mu)
    got = sp.weighted_norm(np.array([1.0, 1.0]), e, -0.5)
    assert got == pytest.approx(np.sqrt(1.0 + 4.0), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
def test_weighted_norm_eps0_is_euclidean(coeffs):
    e = sp.make_eigen_sequence(2.0, 2.0, 6)
    a = np.array(coeffs)
    assert sp.weighted_norm(a, e, 0.0) == pytest.approx(float(np.linalg.norm(a)), abs=1e-300, rel=1e-14)


def test_project_P_N():
    a = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(sp.project_P_N(a, 5), a)
    np.testing.assert_array_equal(sp.project_P_N(a, 1), [1.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    r = rng.standard_normal((6, 2))
    once = sp.project_P_N(r, 3)
    np.testing.assert_array_equal(sp.project_P_N(once, 3), once)
    with pytest.raises(ValueError):
        sp.project_P_N(a, -1)


def test_fractional_power_scale():
    e = sp.EigenSequence(mu=np.array([1.0, 0.25]), c_mu=1.0)
    a = np.array([1.0, 1.0])
    np.testing.assert_array_equal(sp.fractional_power_scale(a, e, 0.0), a)
    np.testing.assert_allclose(sp.fractional_power_scale(a, e, 2.0), [1.0, 0.25], rtol=1e-15)
    e2 = sp.EigenSequence(mu=np.array([0.04]), c_mu=0.04)
    np.testing.assert_allclose(sp.fractional_power_scale(np.array([1.0]), e2, 1.0), [0.2], rtol=1e-12)


def _toy_cloud(rng, M, d):
    return finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M))


def test_gram_eigenbasis_single_particle():
    cloud = finite_width_cloud(np.array([[0.3, -0.2]]), np.array([0.5]))
    basis = sp.gram_eigenbasis(cloud, kernel_bandwidth=1.0, n_modes=1)
    assert basis.n_modes == 1
    assert basis.eigen.mu[0] == pytest.approx(1.0, rel=1e-12)  # Gaussian kernel self-value


def test_gram_eigenbasis_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    cloud = _toy_cloud(rng, 12, 2)
    basis = sp.gram_eigenbasis(cloud, kernel_bandwidth=0.8, n_modes=12)
    E, w, mu = basis.basis_vectors, basis.anchor_weights, basis.mu
    gram = (E * w[:, None]).T @ E
    np.testing.assert_allclose(gram, np.eye(12), atol=1e-10)
    pts = basis.anchor_points
    K = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) / (2 * 0.8 ** 2))
    K_rec = (E * mu[None, :]) @ E.T
    np.testing.assert_allclose(K_rec, K, atol=1e-8)


def test_gram_eigenbasis_rank_deficiency_reported():
    # duplicated particles make the Gram matrix rank deficient
    w = np.array([[0.1, 0.2]] * 6)
    cloud = finite_width_cloud(w, np.full(6, 0.3))
    with pytest.raises(ValueError, match="usable rank"):
        sp.gram_eigenbasis(cloud, kernel_bandwidth=1.0, n_modes=6)


def test_gram_nystrom_matches_cloud_columns():
    rng = np.random.default_rng(5)
    cloud = _toy_cloud(rng, 10, 2)
    basis = sp.gram_eigenbasis(cloud, kernel_bandwidth=1.0, n_modes=6)
    got = sp.eval_basis(basis, basis.anchor_points)
    np.testing.assert_allclose(got, basis.basis_vectors, atol=1e-9)


def test_a_basis_has_exactly_the_modes_of_its_eigenvalues():
    rng = np.random.default_rng(6)
    gram = sp.gram_eigenbasis(_toy_cloud(rng, 10, 2), kernel_bandwidth=1.0, n_modes=6)
    for basis in (gram, sp.cosine_basis(5, dim_in=2), sp.diagonal_basis(3)):
        assert basis.n_modes == len(basis.eigen)
        assert basis.mu is basis.eigen.mu
    # the mode count is no field: it cannot be set beside the eigenvalues
    eigen = sp.make_eigen_sequence(1.0, 2.0, 4)
    with pytest.raises(TypeError):
        sp.SpectralBasis(kind="synthetic-diagonal", dim_in=4, dim_out=1, n_modes=2, eigen=eigen)
    # a gram basis holds one column per eigenvalue
    fields = dict(kind=gram.kind, dim_in=gram.dim_in, dim_out=gram.dim_out,
                  anchor_points=gram.anchor_points, anchor_weights=gram.anchor_weights,
                  kernel_bandwidth=gram.kernel_bandwidth)
    shorter = sp.EigenSequence(mu=gram.mu[:4], c_mu=gram.eigen.c_mu)
    with pytest.raises(ValueError, match="6 columns but there are 4 eigenvalues"):
        sp.SpectralBasis(eigen=shorter, basis_vectors=gram.basis_vectors, **fields)
    with pytest.raises(ValueError, match="4 columns but there are 6 eigenvalues"):
        sp.SpectralBasis(eigen=gram.eigen, basis_vectors=gram.basis_vectors[:, :4], **fields)
    same = sp.SpectralBasis(eigen=shorter, basis_vectors=gram.basis_vectors[:, :4], **fields)
    assert same.n_modes == 4


def test_cosine_basis_orthonormal_under_uniform():
    basis = sp.cosine_basis(6, dim_in=1)
    x = (np.arange(20000) + 0.5)[:, None] / 20000
    Phi = sp.eval_basis(basis, x)
    gram = Phi.T @ Phi / x.shape[0]
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-6)


def test_diagonal_basis_has_no_point_evaluation():
    basis = sp.diagonal_basis(3)
    with pytest.raises(ValueError):
        sp.eval_basis(basis, np.zeros((2, 3)))


def test_gaussian_measure_spec_variances():
    eigen = sp.make_eigen_sequence(1.0, 2.0, 3)
    spec = sp.GaussianMeasureSpec(beta=10.0, lam=0.1, eigen=eigen)
    np.testing.assert_allclose(spec.mode_variances, eigen.mu)
    with pytest.raises(ValueError):
        sp.GaussianMeasureSpec(beta=-1.0, lam=0.1, eigen=eigen)
