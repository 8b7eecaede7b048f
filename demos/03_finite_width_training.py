#!/usr/bin/env python3
"""Training an 8-neuron network as a transport map.

The cloud of 8 particles is the network; the chain moves the map that
relocates those particles.  The data comes from another map over the same
cloud, so the task is realizable and the training loss should collapse.
Along the way we check the sup-norm stability bound on the learned map.
"""
import numpy as np

from transport_langevin import (ClipConfig, Dataset, DynamicsConfig, ModelSpec,
                                TransportMap, empirical_risk, finite_width_cloud,
                                forward, lipschitz_gap, run_chain)
from transport_langevin.langevin import initial_map
from transport_langevin.spectral import gram_eigenbasis

rng = np.random.default_rng(7)
M, d = 8, 2

cloud = finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M))
basis = gram_eigenbasis(cloud, kernel_bandwidth=1.0, n_modes=M)
model = ModelSpec(arch="two-layer", cloud=cloud,
                  clip=ClipConfig(R=2.0, input_bound_D=1.0), basis=basis)

teacher = TransportMap(coeffs=rng.standard_normal((M, d + 1)) * 1.5
                       * np.sqrt(basis.mu)[:, None], basis=basis)
theta = rng.uniform(0, 2 * np.pi, 48)
r = np.sqrt(rng.uniform(0, 1, 48))
x = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
y = forward(model, teacher, x)
data = Dataset(x=x, y=y)

W0 = initial_map(model, basis, "zero")
print(f"initial training loss: {empirical_risk(model, W0, 'squared', data):.5f}")

cfg = DynamicsConfig(eta=0.2, beta=1e6, lam=1e-5,
                     steps=8000, burn_in=0, thin=400, seed=0)
traj = run_chain(cfg, model, "squared", data, init="zero")
for s, l in zip(traj.steps, traj.risk(model, "squared", data)):
    print(f"  step {s:>5}: loss {l:.6f}")

W_final = traj.final_state.map
lhs, rhs = lipschitz_gap(model, W_final, teacher, x)
print(f"\nsup-norm gap to the teacher  : {lhs:.5f}")
print(f"(1 + R D) map-distance bound : {rhs:.5f}  (gap <= bound: {lhs <= rhs + 1e-9})")
