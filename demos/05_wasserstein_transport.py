#!/usr/bin/env python3
"""Estimating a transport map between two samples.

The map is a basis-represented function trained by the same chain as every
other architecture, with the pushforward constraint relaxed to a kernel
discrepancy penalty.  For 1-d Gaussians the optimal map is affine, so after
training we compare against a brute-force grid search over affine maps.
"""
import numpy as np

from transport_langevin import (Dataset, DynamicsConfig, ModelSpec, TransportMap,
                                finite_width_cloud, forward, run_chain,
                                wasserstein_objective)
from transport_langevin.langevin import initial_map
from transport_langevin.models import empirical_risk
from transport_langevin.spectral import gram_eigenbasis

rng = np.random.default_rng(0)
n_pts = 24
src = rng.standard_normal((n_pts, 1))
tgt = 0.5 * rng.standard_normal((n_pts, 1)) + 1.0

cloud = finite_width_cloud(src, np.zeros(n_pts))
basis = gram_eigenbasis(cloud, kernel_bandwidth=0.3, n_modes=12, include_a=False)
model = ModelSpec(arch="wasserstein", basis=basis, cloud=cloud,
                  wasserstein_penalty=25.0, mmd_bandwidth=0.8)
data = Dataset(x=src, y=tgt)

W0 = initial_map(model, basis, "identity")
print(f"objective at the identity map: {empirical_risk(model, W0, 'squared', data):.3f}")

cfg = DynamicsConfig(eta=0.02, beta=1e5, lam=1e-6,
                     steps=30_000, burn_in=0, thin=3000, seed=0)
traj = run_chain(cfg, model, "squared", data)
for s, v in zip(traj.steps, traj.risk(model, "squared", data)):
    print(f"  step {s:>6}: objective {v:.4f}")

mapped = forward(model, traj.final_state.map, src)
print(f"\nmapped sample: mean {mapped.mean():.3f}, std {mapped.std():.3f}")
print(f"target sample: mean {tgt.mean():.3f}, std {tgt.std():.3f}")

print("\nbrute-force grid over affine maps a*x + b:")
best, best_ab = np.inf, None
for a in np.linspace(0.1, 1.2, 23):
    for b in np.linspace(0.0, 1.6, 33):
        coeffs = basis.basis_vectors.T @ (basis.anchor_weights[:, None] * (a * src + b))
        obj = wasserstein_objective(TransportMap(coeffs=coeffs, basis=basis),
                                    src, tgt, 25.0, 0.8)
        if obj < best:
            best, best_ab = obj, (a, b)
print(f"  grid optimum a={best_ab[0]:.2f}, b={best_ab[1]:.2f} "
      f"(objective {best:.4f}); analytic affine transport is a=0.5, b=1.0-ish")
