import numpy as np
import pytest

from transport_langevin import analysis as an
from transport_langevin import models as md
from transport_langevin.spectral import cosine_basis, make_eigen_sequence


def test_prop1_constants_hand_values():
    c = an.prop1_constants(eta=0.1, beta=10.0, lam=1.0, mu_0=1.0, mu_1=0.25,
                           c_mu=1.0, B=1.0, R_bar=1.0, delta=0.5)
    assert c.rho == pytest.approx(1.0 / 1.1, rel=1e-14)
    assert c.b == pytest.approx(1.1, rel=1e-14)          # (mu_0/lam)B + c_mu/(beta lam)
    assert c.b_bar == pytest.approx(1.1) and c.kappa == pytest.approx(2.1)
    x = (1.0 / 1.1) ** 10
    want_V = 4 * 1.1 / (np.sqrt((1 + x) / 2) - x)
    assert c.V_bar == pytest.approx(want_V, rel=1e-12)
    want_L = min(0.5, 0.5) * 0.5 / (4 * np.log(2.1 * (want_V + 1) / 0.5))
    assert c.Lambda_star == pytest.approx(want_L, rel=1e-12)
    want_C = 2.1 * (want_V + 1) + np.sqrt(2) * (1.0 + 1.1) / np.sqrt(0.5)
    assert c.C_W0 == pytest.approx(want_C, rel=1e-12)
    assert 0 < c.rho < 1 and c.Lambda_star > 0 and c.C_W0 > 0


@pytest.mark.parametrize("eta,beta,lam,mu0,mu1,c_mu,B,R_bar,delta", [
    (0.05, 4.0, 0.5, 2.0, 0.5, 2.0, 0.3, 2.0, 0.25),
    (0.2, 50.0, 0.02, 1.0, 0.25, 1.0, 1.5, 10.0, 0.8),
])
def test_prop1_constants_more_parameter_sets(eta, beta, lam, mu0, mu1, c_mu, B, R_bar, delta):
    c = an.prop1_constants(eta, beta, lam, mu0, mu1, c_mu, B, R_bar, delta)
    rho = 1.0 / (1.0 + lam * eta / mu0)
    b = (mu0 / lam) * B + c_mu / (beta * lam)
    b_bar = max(b, 1.0)
    kappa = b_bar + 1.0
    x = rho ** (1.0 / eta)
    V = 4 * b_bar / (np.sqrt((1 + x) / 2) - x)
    L = min(lam / (2 * mu0), 0.5) * delta / (4 * np.log(kappa * (V + 1) / (1 - delta)))
    C = kappa * (V + 1) + np.sqrt(2) * (R_bar + b) / np.sqrt(delta)
    assert c.rho == pytest.approx(rho, rel=1e-14)
    assert c.b == pytest.approx(b, rel=1e-14)
    assert c.V_bar == pytest.approx(V, rel=1e-12)
    assert c.Lambda_star == pytest.approx(L, rel=1e-12)
    assert c.C_W0 == pytest.approx(C, rel=1e-12)


def test_prop1_eta_zero_variant_uses_mu1():
    c = an.prop1_constants(eta=0.0, beta=10.0, lam=1.0, mu_0=1.0, mu_1=0.25,
                           c_mu=1.0, B=1.0, R_bar=1.0, delta=0.5)
    x = np.exp(-1.0 / 0.25)
    want_V = 4 * 1.1 / (np.sqrt((1 + x) / 2) - x)
    assert c.V_bar == pytest.approx(want_V, rel=1e-12)


def test_prop1_lambda_star_decreases_in_mu0():
    vals = [an.prop1_constants(eta=0.1, beta=10.0, lam=1.0, mu_0=m, mu_1=m / 4,
                               c_mu=max(1.0, m), B=1.0, R_bar=1.0).Lambda_star
            for m in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_prop1_rejects_bad_delta():
    with pytest.raises(ValueError):
        an.prop1_constants(0.1, 10.0, 1.0, 1.0, 0.25, 1.0, 1.0, 1.0, delta=1.0)
    with pytest.raises(ValueError):
        an.prop1_constants(0.1, 0.05, 1.0, 1.0, 0.25, 1.0, 1.0, 1.0)  # beta <= eta


def test_xi_k_bracket_decays_in_k():
    c = an.prop1_constants(0.1, 10.0, 1.0, 1.0, 0.25, 1.0, 1.0, 1.0)
    c0 = an.prop1_constants(0.0, 10.0, 1.0, 1.0, 0.25, 1.0, 1.0, 1.0)
    xs = [an.xi_k_bracket(c, c0, 0.1, k, 10.0) for k in (1, 10, 100, 1000)]
    assert all(a >= b for a, b in zip(xs, xs[1:]))


def test_pac_bayes_bound_hand_value():
    got = an.pac_bayes_bound(R_bar=1.0, beta=10.0, n=100, delta=0.5, Xi_k=0.0)
    want = 0.1 * (2 * (1 + 2.0) + np.log((1 + np.exp(0.5)) / 0.5))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.76672, abs=5e-5)
    # the Xi term enters with factor exactly 2
    with_xi = an.pac_bayes_bound(1.0, 10.0, 100, 0.5, Xi_k=0.1)
    assert with_xi - got == pytest.approx(0.2, rel=1e-12)


def test_pac_bayes_monotonicity():
    R_grid = np.linspace(0.5, 4.0, 8)
    vals = [an.pac_bayes_bound(R, 10.0, 100, 0.5) for R in R_grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    d_grid = np.linspace(0.05, 0.95, 8)
    vals = [an.pac_bayes_bound(1.0, 10.0, 100, d) for d in d_grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # decreasing in n beyond the (2 beta)^2 region
    ns = [500, 1000, 2000, 8000]
    vals = [an.pac_bayes_bound(1.0, 10.0, n, 0.5) for n in ns]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fit_geometric_decay_exact_and_constant():
    ks = np.arange(20)
    gaps = 3.0 * 0.8 ** ks
    rate, r2 = an.fit_geometric_decay(list(zip(ks, gaps)), eta=0.1)
    assert rate == pytest.approx(-np.log(0.8) / 0.1, rel=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    rate, r2 = an.fit_geometric_decay([(k, 2.0) for k in range(6)])
    assert rate == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        an.fit_geometric_decay([(0, 1.0), (1, 0.5), (2, 0.25)])
    with pytest.raises(ValueError):
        an.fit_geometric_decay([(0, 1.0), (1, -0.5), (2, 0.25), (3, 0.1)])


def test_fit_geometric_decay_noisy_recovery():
    rng = np.random.default_rng(0)
    ks = np.arange(40)
    true_rate = 2.0
    gaps = np.exp(-true_rate * 0.05 * ks) * np.exp(rng.normal(0, 0.05, ks.size))
    rate, r2 = an.fit_geometric_decay(list(zip(ks, gaps)), eta=0.05)
    assert abs(rate - true_rate) / true_rate < 0.1
    assert r2 > 0.9


def test_fit_stepsize_bias_slopes():
    etas = np.array([0.2, 0.1, 0.05, 0.025])
    assert an.fit_stepsize_bias(etas, 3.0 * etas ** 0.5) == pytest.approx(0.5, rel=1e-10)
    assert an.fit_stepsize_bias(etas, 0.7 * etas) == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        an.fit_stepsize_bias(etas[:2], np.ones(2))
    with pytest.raises(ValueError):
        an.fit_stepsize_bias(etas, np.array([1.0, -1.0, 1.0, 1.0]))


def test_epsilon_star_closed_form():
    # phi(eps) = 1/eps, beta = 100: crossing at eps^3 = 1/100
    res = an.epsilon_star(lambda e: 1.0 / e, beta=100.0, n=10 ** 6, s=1.0)
    assert res.resolved and not res.floored
    assert res.value == pytest.approx(0.01 ** (1.0 / 3.0), rel=1e-6)
    # phi == 0: the floor n^(-1/(2(2-s))) binds
    res0 = an.epsilon_star(lambda e: 0.0, beta=100.0, n=256, s=1.0)
    assert res0.floored and res0.value == pytest.approx(256.0 ** -0.5, rel=1e-12)
    assert res0.value ** 2 == pytest.approx(256.0 ** (-1.0 / (2 - 1)), rel=1e-12)


def test_epsilon_star_fixed_point_grid_and_unresolved():
    beta = 50.0
    grid = np.array([0.1, 0.2, 0.4])
    phi = lambda e: beta * 0.2 ** 2 if e < 0.2 else beta * 0.2 ** 2 * (0.2 / e) ** 3
    res = an.epsilon_star(phi, beta=beta, n=10 ** 8, s=1.0, grid=grid)
    assert res.resolved
    assert res.value == pytest.approx(0.2, rel=1e-6)
    bad = an.epsilon_star(lambda e: 1e12, beta=1.0, n=100, s=1.0, grid=np.array([0.1, 1.0]))
    assert not bad.resolved and np.isnan(bad.value)


def test_epsilon_star_crossing_brackets():
    phi = lambda e: 1.0 / e
    beta, n = 100.0, 10 ** 6
    res = an.epsilon_star(phi, beta, n, 1.0)
    e = res.value
    assert phi(e) <= beta * e ** 2 + 1e-9
    assert phi(e * 0.99) > beta * (e * 0.99) ** 2


def test_ridge_bias_term_monotone_and_zero_cases():
    eigen = make_eigen_sequence(1.0, 2.0, 16)
    teacher = np.sqrt(eigen.mu)  # well inside the smooth class
    vals = [an.ridge_bias_term(teacher, eigen, gamma=1.0, beta=100.0, lam=0.01, epsilon=e)
            for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    big = an.ridge_bias_term(teacher, eigen, 1.0, 100.0, 0.01, epsilon=10.0)
    assert big == 0.0  # the zero map is already eps-good


def test_truncation_for_bias_values():
    assert an.truncation_for_bias(0.01, 0.5, 1.0) == 100
    assert an.truncation_for_bias(1.0, 0.5, 1.0) == 1
    assert an.truncation_for_bias(0.1, 1.0 / 3.0, 0.5) == 100
    with pytest.raises(ValueError):
        an.truncation_for_bias(0.01, 0.8, 1.0)   # theta >= 1 - alpha_tilde
    with pytest.raises(ValueError):
        an.truncation_for_bias(-0.1, 0.5, 1.0)


def test_excess_risk_rate_fit():
    ns = np.array([64, 128, 256, 512, 1024])
    assert an.excess_risk_rate_fit(ns, 5.0 / ns) == pytest.approx(-1.0, rel=1e-10)
    assert an.excess_risk_rate_fit(ns, np.full(5, 0.3)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        an.excess_risk_rate_fit(ns[:3], np.ones(3))


def test_classification_error_prob_trivial_cases():
    basis = cosine_basis(4, dim_in=1)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    teacher = md.TransportMap(coeffs=np.array([[1.0], [0.5], [0.0], [0.0]]), basis=basis)
    grid = np.linspace(0.05, 0.95, 64)[:, None]
    bayes = lambda X: np.sign(md.forward(model, teacher, X))
    assert an.classification_error_prob([teacher] * 5, model, bayes, grid) == 0.0
    flipped = md.TransportMap(coeffs=-teacher.coeffs, basis=basis)
    assert an.classification_error_prob([flipped] * 5, model, bayes, grid) == 1.0
    with pytest.raises(ValueError):
        an.classification_error_prob([], model, bayes, grid)


def test_assumption_audit_reports():
    rng = np.random.default_rng(0)
    from transport_langevin.spectral import gram_eigenbasis
    cloud = md.finite_width_cloud(rng.standard_normal((5, 2)), rng.uniform(-1, 1, 5))
    basis = gram_eigenbasis(cloud, 1.0, 5)
    model = md.attach_basis(md.ModelSpec(arch="two-layer", cloud=cloud,
                                         clip=md.ClipConfig(R=2.0, input_bound_D=2.0)), basis)
    data = md.Dataset(x=rng.standard_normal((10, 2)) * 0.5, y=rng.standard_normal(10))
    report = an.assumption_audit(basis, model, "squared", data,
                                 class_probs=np.array([0.85, 0.2, 0.9]))
    assert report.passed("eigenvalue-decay")
    assert report.passed("strong-low-noise")
    text = report.render()
    assert "not machine-checkable".upper() in text.upper()
    # boundary sequence passes with margin ~ 0
    eigen_entry = [e for e in report.entries if e[0] == "eigenvalue-decay"][0]
    assert abs(eigen_entry[2]) < 1e-9 or eigen_entry[2] >= 0

    basis_cos = cosine_basis(4, dim_in=1)
    model_cos = md.ModelSpec(arch="identity-map", basis=basis_cos)
    report2 = an.assumption_audit(basis_cos, model_cos, "squared",
                                  md.Dataset(x=rng.uniform(0, 1, (6, 1)), y=rng.standard_normal(6)))
    assert report2.passed("eigenvalue-decay")


def test_assumption_audit_flags_slow_decay():
    # a hand-built report entry: mu_k = (k+1)^-1 against c_mu = 1 must fail
    class FakeEigen:
        mu = 1.0 / np.arange(1, 7, dtype=float)
        c_mu = 1.0
        decay_exponent = 2.0

    class FakeBasis:
        eigen = FakeEigen()

    basis = cosine_basis(3, dim_in=1)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    data = md.Dataset(x=np.array([[0.5]]), y=np.array([0.0]))
    report = an.assumption_audit(FakeBasis(), model, "squared", data)
    assert not report.passed("eigenvalue-decay")
