import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transport_langevin import models as md
from transport_langevin import oracle as orc
from transport_langevin.spectral import (GaussianMeasureSpec, cosine_basis,
                                         diagonal_basis, eval_basis,
                                         make_eigen_sequence)
from scipy.stats import norm


def test_conjugate_posterior_hand_case():
    # 1 mode, 1 datum, phi = 1, y = 1, beta = lam = mu_0 = 1:
    # completing the square of (1-a)^2 + a^2/2 gives N(2/3, 1/3)
    basis = diagonal_basis(1, c_mu=1.0)
    post = orc.conjugate_posterior(basis, np.array([[1.0]]), np.array([1.0]), beta=1.0, lam=1.0)
    assert post.mean[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert post.covariance[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_conjugate_posterior_no_data_is_prior():
    basis = diagonal_basis(3, c_mu=1.0)
    post = orc.conjugate_posterior(basis, np.zeros((0, 3)), np.zeros((0,)), beta=4.0, lam=0.5)
    np.testing.assert_allclose(post.mean, np.zeros((3, 1)))
    np.testing.assert_allclose(np.diag(post.covariance), basis.eigen.mu / 2.0, rtol=1e-12)


def test_conjugate_posterior_zero_targets_zero_mean():
    rng = np.random.default_rng(0)
    basis = cosine_basis(4, dim_in=1)
    Phi = eval_basis(basis, rng.uniform(0, 1, (10, 1)))
    post = orc.conjugate_posterior(basis, Phi, np.zeros(10), beta=10.0, lam=0.1)
    np.testing.assert_allclose(post.mean, np.zeros((4, 1)), atol=1e-14)


def test_conjugate_posterior_validates_covariance():
    with pytest.raises(ValueError):
        orc.GaussianPosterior(mean=np.zeros((2, 1)),
                              covariance=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        orc.GaussianPosterior(mean=np.zeros((2, 1)),
                              covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_finite_diff_exact_on_quadratic():
    # the empirical risk of the coefficient-linear model is quadratic, so
    # central differences are exact up to round-off
    rng = np.random.default_rng(1)
    basis = cosine_basis(4, dim_in=1)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    data = md.Dataset(x=rng.uniform(0, 1, (12, 1)), y=rng.standard_normal(12))
    W = md.TransportMap(coeffs=rng.standard_normal((4, 1)), basis=basis)
    g = md.gradient(model, W, data, "squared")
    fd = orc.finite_diff_grad(model, "squared", data, W, step=1e-4)
    np.testing.assert_allclose(fd, g, rtol=1e-9, atol=1e-11)


def test_finite_diff_second_order_convergence():
    rng = np.random.default_rng(2)
    cloud = md.finite_width_cloud(rng.standard_normal((3, 2)), rng.uniform(-1, 1, 3))
    from transport_langevin.spectral import gram_eigenbasis
    basis = gram_eigenbasis(cloud, 1.0, 3)
    model = md.attach_basis(md.ModelSpec(arch="two-layer", cloud=cloud,
                                         clip=md.ClipConfig(R=1.5, input_bound_D=2.0)), basis)
    data = md.Dataset(x=rng.standard_normal((5, 2)) * 0.5, y=rng.standard_normal(5))
    W = md.TransportMap(coeffs=rng.standard_normal((3, 3)), basis=basis)
    exact = md.gradient(model, W, data, "squared")
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        fd = orc.finite_diff_grad(model, "squared", data, W, step=h)
        errs.append(np.linalg.norm(fd - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_finite_diff_rejects_bad_step():
    basis = diagonal_basis(2)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    W = md.TransportMap(coeffs=np.zeros((2, 1)), basis=basis)
    with pytest.raises(ValueError):
        orc.finite_diff_grad(model, "squared", None, W, step=0.0)


def test_small_ball_univariate_matches_normal_cdf():
    eigen = make_eigen_sequence(1.0, 2.0, 1)
    spec = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=eigen)  # unit variance
    rng = np.random.default_rng(3)
    est = orc.small_ball_mc(spec, 1.0, 200_000, rng)
    want = 2.0 * norm.cdf(1.0) - 1.0
    assert want == pytest.approx(0.682689, abs=1e-6)
    assert abs(est.probability - want) < 3 * est.stderr
    assert not est.zero_hits


def test_small_ball_edge_radii():
    eigen = make_eigen_sequence(1.0, 2.0, 2)
    spec = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=eigen)
    rng = np.random.default_rng(4)
    assert orc.small_ball_mc(spec, 1e6, 2000, rng).probability == 1.0
    est0 = orc.small_ball_mc(spec, 0.0, 2000, rng)
    assert est0.probability == 0.0 and est0.zero_hits
    assert np.isfinite(est0.neg_log)
    with pytest.raises(ValueError):
        orc.small_ball_mc(spec, 1.0, 100, rng)


def test_small_ball_mc_is_one_draw_counted_per_radius():
    # the squared norms as one (n_samples, n_modes) draw gave them, whatever the chunking
    radii = [0.0, 0.05, 0.3, 0.7, 1.0, 1.5, 4.0]
    for n_modes, n_samples in ((1, 1000), (5, 70_001), (64, 40_000)):
        spec = GaussianMeasureSpec(beta=2.0, lam=0.5,
                                   eigen=make_eigen_sequence(1.0, 2.0, n_modes))
        sd = np.sqrt(spec.mode_variances)
        ref_rng, rng = np.random.default_rng(n_modes), np.random.default_rng(n_modes)
        ref = np.sum((ref_rng.standard_normal((n_samples, n_modes)) * sd) ** 2, axis=1)
        sq_norms = orc.small_ball_sq_norms(spec, n_samples, rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        np.testing.assert_array_equal(sq_norms, np.sort(ref))
        for r in radii:
            est = orc.small_ball_mc(spec, r, n_samples, np.random.default_rng(n_modes))
            assert est == orc.small_ball_estimate(sq_norms, r)
            hits = int(np.count_nonzero(ref <= r ** 2))
            assert est.probability == hits / n_samples and est.zero_hits == (hits == 0)
    with pytest.raises(ValueError, match="non-negative"):
        orc.small_ball_estimate(sq_norms, -1.0)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_working_memory_does_not_grow_with_the_sample_count():
    spec = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=make_eigen_sequence(1.0, 2.0, 64))
    spec16 = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=make_eigen_sequence(1.0, 2.0, 16))
    a, b = np.full(16, 0.5), np.linspace(0.0, 2.0, 16)
    rng = np.random.default_rng(0)
    # first calls in a process allocate numpy's own one-off state
    orc.gaussian_correlation_mc(spec16, a, b, 1000, rng)
    orc.small_ball_mc(spec, 0.5, 1000, rng)
    peaks = []
    for n_samples in (100_000, 800_000):
        corr = _peak_bytes(lambda: orc.gaussian_correlation_mc(spec16, a, b, n_samples, rng))
        # the sorted norms small_ball_mc draws take 8 bytes per sample
        ball = _peak_bytes(lambda: orc.small_ball_mc(spec, 0.5, n_samples, rng)) - 8 * n_samples
        peaks.append((corr, ball))
    for corr, ball in peaks:
        assert max(corr, ball) <= 8 * orc._CHUNK + (1 << 19), peaks
    (c1, b1), (c2, b2) = peaks
    assert abs(c2 - c1) <= 4096 and abs(b2 - b1) <= 4096, peaks


def test_gaussian_correlation_identical_and_whole_space():
    eigen = make_eigen_sequence(1.0, 2.0, 4)
    spec = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=eigen)
    rng = np.random.default_rng(5)
    a = np.array([0.5, 1.0, 2.0, 0.1])
    est = orc.gaussian_correlation_mc(spec, a, a, 100_000, rng)
    # A = B: P(A and A) = P(A) >= P(A)^2
    assert est.p_both >= est.p_product
    est2 = orc.gaussian_correlation_mc(spec, a, np.zeros(4), 50_000, rng)
    assert est2.p_both == pytest.approx(est2.p_product, abs=1e-12)  # B is everything
    with pytest.raises(ValueError):
        orc.gaussian_correlation_mc(spec, -a, a, 10_000, rng)
    dim = orc.CORRELATION_DIM_CAP + 1
    beyond = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=make_eigen_sequence(1.0, 2.0, dim))
    with pytest.raises(ValueError, match="exceeds the cap"):
        orc.gaussian_correlation_mc(beyond, np.ones(dim), np.ones(dim), 10_000, rng)


def test_the_monte_carlo_oracles_read_every_mode_of_their_measure():
    spec = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=make_eigen_sequence(1.0, 2.0, 4))
    rng = np.random.default_rng(0)
    # the small-ball oracles take no mode count: a smaller measure is a shorter sequence
    for extra in (2, -1, 0):
        with pytest.raises(TypeError):
            orc.small_ball_mc(spec, 0.5, 20_000, rng, extra)
        with pytest.raises(TypeError):
            orc.small_ball_sq_norms(spec, 20_000, rng, extra)
    # one correlation weight per mode, in each vector; a mismatch names both counts
    a = np.array([0.5, 1.0, 2.0, 0.1])
    for wa, wb in ((a[:3], a[:3]), (a, a[:3]), (np.append(a, 1.0), np.append(a, 1.0))):
        with pytest.raises(ValueError, match=f"{wa.size} and {wb.size} ellipsoid weights "
                                             "for a measure of 4 modes"):
            orc.gaussian_correlation_mc(spec, wa, wb, 10_000, rng)


def test_conjugate_posterior_needs_one_feature_column_per_eigenvalue():
    basis = diagonal_basis(4)
    y = np.ones(5)
    for cols in (2, 5):
        with pytest.raises(ValueError, match=f"{cols} feature columns for a basis of 4 "
                                             "eigenvalues"):
            orc.conjugate_posterior(basis, np.ones((5, cols)), y, beta=1.0, lam=1.0)
    assert orc.conjugate_posterior(basis, np.ones((5, 4)), y, beta=1.0, lam=1.0).mean.shape \
        == (4, 1)


def _cov_formula_correlation(spec, a, b, n_samples, rng):
    # the estimator with the 0/1 indicators stacked and np.cov taken over all samples
    sd = np.sqrt(spec.mode_variances[:a.size])
    in_a, in_b = [], []
    for start in range(0, n_samples, 200_000):
        X2 = (rng.standard_normal((min(200_000, n_samples - start), a.size)) * sd) ** 2
        in_a.append(X2 @ a <= 1.0)
        in_b.append(X2 @ b <= 1.0)
    in_a, in_b = np.concatenate(in_a), np.concatenate(in_b)
    both = in_a & in_b
    p_ab, p_a, p_b = both.mean(), in_a.mean(), in_b.mean()
    grad = np.array([1.0, -p_b, -p_a])
    var = float(grad @ np.cov(np.stack([both, in_a, in_b]).astype(float)) @ grad) / n_samples
    return p_ab, p_a * p_b, np.sqrt(var)


def test_gaussian_correlation_matches_the_cov_formula():
    rng = np.random.default_rng(8)
    for dim, n_samples in ((1, 3_000), (3, 250_003), (6, 410_000)):
        spec = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=make_eigen_sequence(1.0, 2.0, dim))
        a, b = rng.uniform(0, 8, dim), rng.uniform(0, 8, dim)
        r1, r2 = np.random.default_rng(dim), np.random.default_rng(dim)
        est = orc.gaussian_correlation_mc(spec, a, b, n_samples, r1)
        p_both, p_product, stderr = _cov_formula_correlation(spec, a, b, n_samples, r2)
        assert r1.bit_generator.state == r2.bit_generator.state
        assert est.p_both == p_both and est.p_product == p_product
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        assert stderr > 0.0
    with pytest.raises(ValueError):
        orc.gaussian_correlation_mc(spec, a, b, 1, rng)
    # zero weights in a, as correlation-suite draws them, and a dimension at the cap
    rng = np.random.default_rng(10)
    for dim, n_samples in ((5, 200_001), (16, 300_000)):
        spec = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=make_eigen_sequence(1.0, 2.0, dim))
        a = rng.uniform(0, 8, dim) * rng.integers(0, 2, dim)
        b = rng.uniform(0, 8, dim)
        assert np.any(a == 0.0) and np.any(a > 0.0)
        r1, r2 = np.random.default_rng(dim), np.random.default_rng(dim)
        est = orc.gaussian_correlation_mc(spec, a, b, n_samples, r1)
        p_both, p_product, stderr = _cov_formula_correlation(spec, a, b, n_samples, r2)
        assert r1.bit_generator.state == r2.bit_generator.state
        assert est.p_both == p_both and est.p_product == p_product
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


def test_conjugate_posterior_matches_cho_solve():
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(4)
    basis = cosine_basis(8, dim_in=1)
    for n, beta, lam in ((50, 50.0, 1 / 50), (7, 3.0, 0.5), (200, 1e4, 1e-4)):
        Phi = eval_basis(basis, rng.uniform(0, 1, (n, 1)))
        y = rng.standard_normal((n, 2))
        post = orc.conjugate_posterior(basis, Phi, y, beta=beta, lam=lam)
        prec = beta * ((2.0 / n) * Phi.T @ Phi + lam * np.diag(1.0 / basis.eigen.mu))
        factor = cho_factor(prec)
        cov = cho_solve(factor, np.eye(8))
        mean = cho_solve(factor, (2.0 * beta / n) * Phi.T @ y)
        np.testing.assert_allclose(post.covariance, 0.5 * (cov + cov.T), rtol=1e-12,
                                   atol=1e-12 * np.abs(cov).max())
        np.testing.assert_allclose(post.mean, mean, rtol=1e-12, atol=1e-12 * np.abs(mean).max())
    with pytest.raises(RuntimeError, match="singular"):
        orc.conjugate_posterior(basis, np.zeros((0, 8)), np.zeros(0), beta=1.0, lam=0.0)


def test_batch_means_stderr_needs_two_values():
    for series in ([], [1.5]):
        message = f"needs at least 2 values, got {len(series)}"
        with pytest.raises(ValueError, match=message):
            orc.batch_means_stderr(np.array(series))
        with pytest.raises(ValueError, match=message):
            orc._BatchMeans(len(series), 8)
    assert orc.batch_means_stderr(np.array([1.0, 3.0])) == pytest.approx(1.0)


def test_batch_means_stderr_shrinks_with_horizon():
    # doubling the horizon of an AR(1) series shrinks the stderr ~ sqrt(2)
    rng = np.random.default_rng(7)
    def ar1(n, rho=0.9):
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for i in range(1, n):
            x[i] = rho * x[i - 1] + rng.standard_normal()
        return x
    reps = 40
    r = np.mean([orc.batch_means_stderr(ar1(4000)) / orc.batch_means_stderr(ar1(8000))
                 for _ in range(reps)])
    assert r == pytest.approx(np.sqrt(2.0), rel=0.2)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 2500), width=st.sampled_from([1, 8]),
       cuts=st.lists(st.integers(0, 2500), max_size=12))
# 10 values: 3 batches of 3 after 1 dropped value, fed in blocks that cut the dropped value
# off from the first batch and every batch in two
@example(n=10, width=8, cuts=[1, 2, 5, 6, 8])
@example(n=2, width=1, cuts=[1])
def test_streamed_batch_means_equal_those_of_the_whole_series(n, width, cuts):
    series = np.cumsum(np.random.default_rng(n).standard_normal((n, width)), axis=0)
    stats = orc._BatchMeans(n, width)
    for block in np.split(series, sorted(c % (n + 1) for c in cuts)):
        stats.add(block)
    assert stats.count == n
    stderr = stats.stderr()
    for k in range(width):
        whole = np.ascontiguousarray(series[:, k])
        np.testing.assert_array_equal(stats.means[k], orc._batch_means(whole))
        np.testing.assert_array_equal(stderr[k], orc.batch_means_stderr(whole))
    np.testing.assert_allclose(stats.mean(), series.mean(axis=0), rtol=1e-12,
                               atol=1e-12 * np.abs(series).max())


def test_streamed_batch_means_refuse_a_short_or_long_feed():
    stats = orc._BatchMeans(10, 2)
    stats.add(np.ones((6, 2)))
    for read in (stats.mean, stats.stderr):
        with pytest.raises(ValueError, match="of 10 values were fed 6"):
            read()
    with pytest.raises(ValueError, match="11 values fed to batch means of 10"):
        stats.add(np.ones((5, 2)))
