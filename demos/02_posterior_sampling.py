#!/usr/bin/env python3
"""The chain samples the posterior it is supposed to sample.

For a coefficient-linear model with squared loss the invariant measure is a
Gaussian we can write down exactly (conjugate algebra).  Run the implicit
Euler chain at beta = n, lam = 1/n and compare the marginal it produces with
that closed form, mode by mode.
"""
import numpy as np

from transport_langevin import Dataset, DynamicsConfig, ModelSpec, run_chain
from transport_langevin.oracle import batch_means_stderr, conjugate_posterior
from transport_langevin.spectral import cosine_basis, eval_basis

rng = np.random.default_rng(42)
n_modes, n = 6, 60

basis = cosine_basis(n_modes, dim_in=1)
model = ModelSpec(arch="identity-map", basis=basis)
teacher = np.array([0.9, 0.5, -0.4, 0.25, -0.15, 0.1])
x = rng.uniform(0, 1, (n, 1))
y = eval_basis(basis, x) @ teacher + rng.uniform(-0.2, 0.2, n)
data = Dataset(x=x, y=y)

beta, lam = float(n), 1.0 / n
post = conjugate_posterior(basis, eval_basis(basis, x), y, beta=beta, lam=lam)

cfg = DynamicsConfig(eta=2e-3, beta=beta, lam=lam,
                     steps=120_000, burn_in=20_000, thin=1, seed=0)
samples = run_chain(cfg, model, "squared", data).coeffs[:, :, 0]

print(f"{'mode':>4} {'chain mean':>11} {'exact mean':>11} {'z':>6}   "
      f"{'chain var':>10} {'exact var':>10}")
for k in range(n_modes):
    se = batch_means_stderr(samples[:, k])
    z = (samples[:, k].mean() - post.mean[k, 0]) / se
    print(f"{k:>4} {samples[:, k].mean():>11.4f} {post.mean[k, 0]:>11.4f} {z:>6.2f}   "
          f"{samples[:, k].var():>10.5f} {post.covariance[k, k]:>10.5f}")

rel = np.linalg.norm(samples.mean(0) - post.mean[:, 0]) / np.linalg.norm(post.mean[:, 0])
print(f"\nrelative error of the mean vector: {rel:.2%}")
