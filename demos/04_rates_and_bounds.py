#!/usr/bin/env python3
"""Theory diagnostics in action.

Evaluates the ergodicity constants, the generalization-gap bound, and the
critical radius machinery (regularized approximation cost + small-ball mass)
on a concrete configuration, then recovers convergence slopes from synthetic
and simulated data.
"""
import numpy as np

from transport_langevin import (GaussianMeasureSpec, make_eigen_sequence,
                                pac_bayes_bound, prop1_constants,
                                truncation_for_bias)
from transport_langevin.analysis import (epsilon_star, fit_geometric_decay,
                                         fit_stepsize_bias, ridge_bias_term,
                                         xi_k_bracket)
from transport_langevin.oracle import small_ball_estimate, small_ball_sq_norms

print("== ergodicity constants (eta = 0.1, beta = 10, lam = 1) ==")
c = prop1_constants(eta=0.1, beta=10.0, lam=1.0, mu_0=1.0, mu_1=0.25,
                    c_mu=1.0, B=1.0, R_bar=1.0, delta=0.5)
c0 = prop1_constants(eta=0.0, beta=10.0, lam=1.0, mu_0=1.0, mu_1=0.25,
                     c_mu=1.0, B=1.0, R_bar=1.0, delta=0.5)
print(f"rho={c.rho:.4f}  b={c.b:.3f}  V_bar={c.V_bar:.2f}  "
      f"Lambda*={c.Lambda_star:.5f}  C_W0={c.C_W0:.2f}")
print("optimization-error shape (up to the unspecified prefactor):")
for k in (10, 100, 1000, 10000):
    print(f"  k={k:>6}: {xi_k_bracket(c, c0, 0.1, k, 10.0):.4f}")

print("\n== generalization-gap bound ==")
for n in (100, 400, 1600, 6400):
    print(f"  n={n:>5}: bound = {pac_bayes_bound(R_bar=1.0, beta=10.0, n=n, delta=0.5):.4f}")

print("\n== critical radius from bias + small-ball mass ==")
eigen = make_eigen_sequence(1.0, 2.0, 64)
gamma, beta, lam, n = 1.0, 400.0, 1.0 / 400.0, 400
teacher = 0.6 * eigen.mu ** 0.75
rng = np.random.default_rng(0)
eigen_tilde = make_eigen_sequence(eigen.c_mu ** (gamma + 1), 2.0 * (gamma + 1), 64)
spec_tilde = GaussianMeasureSpec(beta=beta, lam=lam, eigen=eigen_tilde)
# one draw of the small-ball norms serves every radius phi is evaluated at
sq_norms = small_ball_sq_norms(spec_tilde, 40_000, np.random.default_rng(1))

def phi(eps):
    bias = ridge_bias_term(teacher, eigen, gamma, beta, lam, eps)
    ball = small_ball_estimate(sq_norms, eps)
    return bias + ball.neg_log + np.log(2.0)

res = epsilon_star(phi, beta=beta, n=n, s=1.0, grid=np.logspace(-2.5, 0.5, 40))
print(f"  eps* = {res.value:.4f} (floor {res.floor:.4f}, floored={res.floored})")
print(f"  truncation for the bias term at eps*: N = "
      f"{truncation_for_bias(res.value, theta=0.4, gamma=gamma)} modes")

print("\n== slope recovery ==")
ks = np.arange(30)
rate, r2 = fit_geometric_decay(list(zip(ks, 2.0 * np.exp(-0.3 * ks))), eta=0.1)
print(f"  geometric decay: rate={rate:.2f} (true 3.0), r2={r2:.4f}")
etas = np.array([0.2, 0.1, 0.05, 0.025])
print(f"  step-size bias slope on eta^0.7 data: "
      f"{fit_stepsize_bias(etas, 0.3 * etas ** 0.7):.3f}")
