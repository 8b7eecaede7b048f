"""Transport maps and the predictors they induce.

A map W is stored by its mode coefficients against a spectral basis; the
architectures differ in how the map values turn into a predictor:

* ``two-layer``     f_W(x) = sum_m weight_m * clip(V2_m) * tanh(clip(V1_m) . x)
                    with (V1_m, V2_m) the map value at particle m,
* ``identity-map``  f_W(x) = W(x), scalar output,
* ``wasserstein``   f_W(x) = W(x), vector output,
* ``resnet``        composition of (identity + particle-averaged block) layers.

Training sees an architecture only through one objective, built once per
dataset: ``_objective`` gives value(coeffs) and grad(coeffs), and forward,
gradient, empirical_risk and risk_objective all read it.  The pointwise
losses wrap one forward/backward pair per architecture (``_passes``), which
identity-map and two-layer also run over a stack of members for
:func:`langevin.run_chains`; wasserstein has its soft transport objective.

Clipping is componentwise R*tanh(v/R); its derivative enters every analytic
gradient, which is written in coefficient space so that it agrees with finite
differences of the empirical risk.  The networks' activation is tanh: the clipped-loss
range and the (1 + R*D) Lipschitz bound need |act| <= 1.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .losses import loss_eval_derivs
from .spectral import SpectralBasis, _gaussian_kernel, eval_basis

__all__ = [
    "Dataset",
    "ParticleCloud",
    "TransportMap",
    "ClipConfig",
    "ModelSpec",
    "clip",
    "finite_width_cloud",
    "forward",
    "empirical_risk",
    "gradient",
    "risk_objective",
    "lipschitz_gap",
    "wasserstein_objective",
    "identity_coeffs",
    "map_values",
]

ARCHS = ("two-layer", "identity-map", "resnet", "wasserstein")
# the networks: their inputs are points of the cloud's space, bounded in norm by D
_NETWORKS = ("two-layer", "resnet")

# 1.0 as a 0-d array: numpy converts a Python-float operand again on every call
_ONE = np.array(1.0)


class Dataset(NamedTuple):
    x: np.ndarray  # (n, d_in)
    y: np.ndarray  # (n,) labels/targets, or (n, d) for map targets


@dataclass(frozen=True)
class ParticleCloud:
    """Discrete representation of the initial weight distribution.

    The cloud *is* the model: one particle per neuron.  ``a_vec`` holds the
    fixed per-particle read-in vectors used by the resnet blocks.
    """

    w: np.ndarray
    a: np.ndarray
    weights: np.ndarray
    a_vec: Optional[np.ndarray] = None

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        a = np.asarray(self.a, dtype=float).ravel()
        wt = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "weights", wt)
        if w.shape[0] != a.size or w.shape[0] != wt.size:
            raise ValueError("w, a and weights must agree on the particle count")
        if np.any(wt < 0) or abs(wt.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be non-negative and sum to 1")
        if self.a_vec is not None:
            av = np.asarray(self.a_vec, dtype=float)
            object.__setattr__(self, "a_vec", av)
            if av.shape != w.shape:
                raise ValueError("a_vec must have shape (n_particles, d)")

    @property
    def size(self) -> int:
        return self.w.shape[0]

    @property
    def dim(self) -> int:
        return self.w.shape[1]


def finite_width_cloud(w, a, a_vec=None) -> ParticleCloud:
    """Uniform-mass cloud whose particles are the network's own neurons."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    M = w.shape[0]
    return ParticleCloud(w=w, a=a, weights=np.full(M, 1.0 / M), a_vec=a_vec)


@dataclass
class TransportMap:
    """Mode-coefficient representation of a map, optionally reparametrized.

    ``gamma > 0`` means the map that is actually evaluated is the
    fractional-power rescaling mu_k^(gamma/2) of the stored coefficients.
    """

    coeffs: np.ndarray
    basis: SpectralBasis
    gamma: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        self.coeffs = c
        if c.shape[0] != self.basis.n_modes:
            raise ValueError("coefficient rows must match the basis mode count")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    def effective_coeffs(self) -> np.ndarray:
        return _gamma_scaler([self.basis], self.gamma)(self.coeffs)

    def copy_with(self, coeffs) -> "TransportMap":
        return TransportMap(coeffs=np.asarray(coeffs, dtype=float), basis=self.basis, gamma=self.gamma)


@dataclass(frozen=True)
class ClipConfig:
    """Clipping radius and the input-norm bound; the activation is tanh."""

    R: float = 2.0
    input_bound_D: float = 1.0

    def __post_init__(self):
        if self.R < 1:
            raise ValueError("clip radius R must be >= 1")
        if self.input_bound_D <= 0:
            raise ValueError("input bound D must be positive")


@dataclass(frozen=True)
class ModelSpec:
    arch: str
    cloud: Optional[ParticleCloud] = None
    clip: ClipConfig = ClipConfig()
    basis: Optional[SpectralBasis] = None
    resnet_blocks: int = 0
    wasserstein_penalty: float = 1.0
    mmd_bandwidth: float = 1.0

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.arch in _NETWORKS and self.cloud is None:
            raise ValueError(f"{self.arch} requires a particle cloud")
        if self.arch == "resnet":
            if self.resnet_blocks < 1:
                raise ValueError("resnet requires resnet_blocks >= 1")
            if self.cloud.a_vec is None:
                raise ValueError("resnet requires a cloud with read-in vectors a_vec")


def clip(v, R: float):
    """Componentwise R*tanh(v/R): odd, bounded by R, 1-Lipschitz."""
    if R < 1:
        raise ValueError("R must be >= 1")
    return R * np.tanh(np.asarray(v, dtype=float) / R)


def model_basis(model: ModelSpec) -> SpectralBasis:
    if model.basis is None:
        raise ValueError("model has no basis attached")
    return model.basis


def map_output_dim(model: ModelSpec) -> int:
    """Output dimension of the transport map (not of the predictor)."""
    if model.arch == "two-layer":
        return model.cloud.dim + 1
    if model.arch == "identity-map":
        return 1
    if model.arch == "wasserstein":
        return model_basis(model).dim_in
    return model.resnet_blocks * model.cloud.dim


def attach_basis(model: ModelSpec, basis: SpectralBasis) -> ModelSpec:
    """``model`` with ``basis`` attached, every other field kept."""
    return replace(model, basis=basis)


def map_values(model: ModelSpec, W: TransportMap) -> np.ndarray:
    """Unclipped map values at the cloud points, shape (M, d_out_of_map)."""
    if model.cloud is None:
        raise ValueError(f"{model.arch} has no particle cloud to evaluate at")
    E = _cloud_features(model, W.basis)
    return E @ W.effective_coeffs()


def _cloud_features(model: ModelSpec, basis: SpectralBasis) -> np.ndarray:
    if basis.kind == "gram-eigenbasis" and basis.basis_vectors is not None \
            and model.cloud is not None and basis.basis_vectors.shape[0] == model.cloud.size:
        return basis.basis_vectors
    pts = np.column_stack([model.cloud.w, model.cloud.a]) if basis.dim_in == model.cloud.dim + 1 \
        else model.cloud.w
    return eval_basis(basis, pts)


def _as_points(model: ModelSpec, basis: SpectralBasis, x) -> tuple[np.ndarray, bool]:
    """``x`` as rows of inputs (of the cloud's space, or the basis's), and whether it was one."""
    dim_in = model.cloud.dim if model.arch in _NETWORKS else basis.dim_in
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x.reshape(1, -1)
    if x.shape[1] != dim_in:
        raise ValueError(f"input dimension {x.shape[1]} does not match model dimension {dim_in}")
    return x, single


def forward(model: ModelSpec, W: TransportMap, x):
    """Predictor value(s) at x, the map read over its own basis ``W.basis``.

    Scalar output for two-layer / identity-map / resnet, vector output for
    wasserstein.  Accepts a single point or a batch of rows.
    """
    X, single = _as_points(model, W.basis, x)
    if model.arch == "wasserstein":                     # the map itself, a vector per point
        out = eval_basis(W.basis, X) @ W.effective_coeffs()
        return out[0] if single else out
    _input_bound_warning(model, X)()
    fwd, _ = _passes([model], [W.basis], W.gamma, [X])
    out, _ = fwd(W.coeffs)
    return float(out[0]) if single else out


def empirical_risk(model: ModelSpec, W: TransportMap, loss_kind: str, dataset: Dataset) -> float:
    """Mean loss over the dataset; the soft transport objective for wasserstein."""
    value, _ = _objective(model, W.basis, W.gamma, loss_kind, dataset)
    return value(W.coeffs)


def gradient(model: ModelSpec, W: TransportMap, dataset: Dataset, loss_kind: str) -> np.ndarray:
    """Coefficient-space gradient of the empirical risk.

    The pointwise functional gradient at each cloud point is projected onto
    the basis (exact for a full gram eigenbasis); the clip derivative and the
    fractional-power reparametrization enter by the chain rule.
    """
    _, grad = _objective(model, W.basis, W.gamma, loss_kind, dataset)
    return grad(W.coeffs)


def risk_objective(model: ModelSpec, loss_kind: str, dataset: Dataset, gamma: float = 0.0):
    """Closures value(coeffs) and grad(coeffs) of the empirical risk on raw coefficients.

    The map is over the model's basis; features and weights are looked up
    here, once.  gamma scales the coefficients before the features and the
    gradient after them.  The value warns, as :func:`forward` does,
    when an input lies beyond the declared bound D; the gradient does not.

    Where the gradient is affine in the coefficients (identity map, squared
    loss, gamma = 0), ``grad.affine()`` returns (H, b) with grad(c) = H c - b;
    :func:`langevin.run_chain` solves such a chain in blocks.
    """
    return _objective(model, model_basis(model), gamma, loss_kind, dataset)


def _objective(model: ModelSpec, basis: SpectralBasis, gamma: float, loss_kind: str,
               dataset: Dataset):
    """value(coeffs) and grad(coeffs) of the empirical risk, the map over ``basis``.

    Wasserstein's objective takes the source sample as inputs and the target
    sample as labels.
    """
    if model.arch == "wasserstein":
        return _transport_objective(basis, gamma, dataset.x, dataset.y,
                                    model.wasserstein_penalty, model.mmd_bandwidth)
    X, y = np.asarray(dataset.x, dtype=float), dataset.y
    fwd, back = _passes([model], [basis], gamma, [X])
    warn = _input_bound_warning(model, X)

    def value(coeffs):
        warn()
        f, _ = fwd(coeffs)
        return float(np.mean(loss_eval_derivs(loss_kind, y, f, 0)))

    return value, _loss_grad(fwd, back, loss_kind, y)


def _loss_grad(fwd, back, loss_kind: str, y):
    """grad(coeffs) of the mean pointwise loss through the passes ``fwd`` and ``back``, with
    ``grad.affine`` when the loss is squared and ``back`` declares its affine form."""
    def grad(coeffs):
        f, cache = fwd(coeffs)
        return back(cache, loss_eval_derivs(loss_kind, y, f, 1))

    affine = getattr(back, "squared_affine", None)
    if loss_kind == "squared" and affine is not None:
        grad.affine = functools.partial(affine, y)
    return grad


# the architectures whose passes take a stack of members
_STACKED = ("identity-map", "two-layer")


def _stacked_grad(models, loss_kind: str, datasets, gamma: float = 0.0):
    """grad(C) of the empirical risks of K members, for :func:`langevin.run_chains`.

    One member's gradient is its :func:`risk_objective` gradient, on its (n_modes, d_out)
    coefficients.  A stack of K > 1 takes C of shape (K, n_modes, d_out) and returns that
    shape, through one set of batched passes; ``grad.affine()`` then gives (K, ...) arrays.
    Only identity-map and two-layer members stack, and they must share the architecture,
    the clip config and the shapes of their maps and data; anything else raises ValueError.
    """
    if len(models) == 1:
        return risk_objective(models[0], loss_kind, datasets[0], gamma)[1]
    arch = models[0].arch
    if arch not in _STACKED:
        raise ValueError(f"{arch} chains do not stack: run them one at a time with run_chain")
    bases = [model_basis(model) for model in models]
    X = [np.asarray(data.x, dtype=float) for data in datasets]
    y = [np.asarray(data.y, dtype=float) for data in datasets]
    if any((model.arch, model.clip, basis.n_modes, x.shape, t.shape)
           != (arch, models[0].clip, bases[0].n_modes, X[0].shape, y[0].shape)
           for model, basis, x, t in zip(models, bases, X, y)):
        raise ValueError("the members of a stack of chains must share the architecture, the "
                         "clip config, the mode count and the data shape")
    fwd, back = _passes(models, bases, gamma, X)
    return _loss_grad(fwd, back, loss_kind, np.stack(y))


def _input_bound_warning(model: ModelSpec, X: np.ndarray):
    """``warn()``: warns, at the caller of its caller, when a row of ``X`` lies beyond the bound D.

    Only the networks bound their inputs.  The norms are computed on the first call.
    """
    if model.arch not in _NETWORKS:
        return lambda: None
    D = model.clip.input_bound_D
    largest = functools.cache(lambda: np.max(np.linalg.norm(X, axis=1)))

    def warn():
        r = largest()
        if r > D * (1 + 1e-9):
            warnings.warn(f"input norm {r:.3g} exceeds the declared bound D={D:g}", stacklevel=3)

    return warn


def _passes(models, bases, gamma: float, Xs):
    """The scalar predictor of K members on their fixed inputs, as closures of the raw
    coefficients of their maps: ``fwd(coeffs) -> (f, cache)`` and ``back(cache, lp) ->
    gradient``, with ``lp`` dloss/df at each input.  ``back`` may overwrite its cache, so
    each cache is passed to it once.

    Member k is the map over ``bases[k]`` of ``models[k]`` on the inputs ``Xs[k]`` (n, d).
    One member's arrays have no member axis: coeffs (n_modes, d_out) and f (n,).  A stack
    of K > 1 adds a leading axis to both, and its products are ``np.matmul`` over it, the
    same BLAS calls per member as one member's ``dot``; only the architectures in
    ``_STACKED`` take K > 1.
    """
    return _PASSES[models[0].arch](models, bases, gamma, Xs)


def _members(arrays) -> np.ndarray:
    """The one member's array, or the members' arrays stacked on a leading axis."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _stack_mv(A, v):
    return np.matmul(A, v[..., None])[..., 0]


def _stack_vm(v, A):
    return np.matmul(v[..., None, :], A)[..., 0, :]


def _products(K: int):
    """(matrix-matrix, matrix-vector, vector-matrix) products for K members.

    One member's are ``ndarray.dot`` on 2-D arrays: np.matmul costs about 0.6 µs more
    per call on these small arrays, and a chain step makes several.
    """
    if K == 1:
        return np.ndarray.dot, np.ndarray.dot, np.ndarray.dot
    return np.matmul, _stack_mv, _stack_vm


def _gamma_scaler(bases, gamma: float):
    """c -> each member's mode k scaled by mu_k^(gamma/2); ``c`` itself when gamma is 0."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if gamma == 0.0:
        return lambda c: c
    cols = _members([b.mu ** (gamma / 2.0) for b in bases])[..., None]
    return lambda c: c * cols


def _identity_passes(models, bases, gamma: float, Xs):
    """The map itself, f = W(x) = Phi(x) . coeffs, with Phi evaluated on the inputs once.

    Unscaled (gamma = 0), ``back.squared_affine(y)`` gives the squared-loss gradient
    (2/n) Phi^T (f - y) as the affine map H coeffs - b: H = (2/n) Phi^T Phi and
    b = (2/n) Phi^T y, a column.
    """
    mm, mv, _ = _products(len(bases))
    features = {}   # members on one basis and one input array share their features
    for basis, X in zip(bases, Xs):
        if (id(basis), id(X)) not in features:
            features[id(basis), id(X)] = eval_basis(basis, X)
    Phi = _members([features[id(basis), id(X)] for basis, X in zip(bases, Xs)])
    PhiT, scale = Phi.swapaxes(-1, -2), _gamma_scaler(bases, gamma)
    # n as a 0-d array: numpy converts a Python-number operand again on every call
    n = np.array(float(Phi.shape[-2]))

    def fwd(coeffs):
        return mv(Phi, scale(coeffs)[..., 0]), None

    def back(cache, lp):
        g = mv(PhiT, lp)
        g /= n                                          # in place: g is this call's own array
        return scale(g[..., None])

    def squared_affine(y):
        two_n = 2.0 / n
        return two_n * mm(PhiT, Phi), two_n * mv(PhiT, np.asarray(y, dtype=float))[..., None]

    if gamma == 0.0:
        back.squared_affine = squared_affine
    return fwd, back


def _two_layer_passes(models, bases, gamma: float, Xs):
    """f(x) = sum_m weight_m * clip(V2_m) * tanh(clip(V1_m) . x); ``t = tanh(V/R)`` gives
    both the clip R*t and its derivative 1 - t^2."""
    mm, mv, vm = _products(len(models))
    E = _members([_cloud_features(model, basis) for model, basis in zip(models, bases)])
    X = _members(Xs)
    ET, XT = E.swapaxes(-1, -2), X.swapaxes(-1, -2)
    omega = _members([model.cloud.weights for model in models])
    scale = _gamma_scaler(bases, gamma)
    # n and R as 0-d arrays: numpy converts a Python-number operand again on every call
    n, R = np.array(float(X.shape[-2])), np.array(float(models[0].clip.R))

    def fwd(coeffs):
        V = mm(E, scale(coeffs))                        # (M, d+1) unclipped map values
        V /= R
        t = np.tanh(V, out=V)
        Vb = R * t                                      # clip(V, R)
        Z = mm(Vb[..., :-1], XT)                        # (M, n) pre-activations
        S = np.tanh(Z)
        w2 = omega * Vb[..., -1]
        return vm(w2, S), (t, Z, S, w2)

    def back(cache, lp):
        t, Z, S, w2 = cache
        Cd = _ONE - t ** 2
        kernel = np.subtract(_ONE, np.square(S, out=Z), out=Z)   # (M, n) 1 - S^2, in Z's buffer
        kernel *= lp[..., None, :]
        dV = np.empty_like(t)
        np.multiply(w2[..., None], mm(kernel, X), out=dV[..., :-1])
        np.multiply(omega, mv(S, lp), out=dV[..., -1])
        dV /= n
        dV *= Cd
        return scale(mm(ET, dV))

    return fwd, back


def _resnet_passes(models, bases, gamma: float, Xs):
    """T residual blocks z <- z + sum_m weight_m tanh(z . clip(V_m)) a_m, read out along
    u = 1/sqrt(d).  Block t reads columns t*d..(t+1)*d of the map values at the cloud;
    ``th = tanh(V/R)`` gives both the clip R*th and its derivative 1 - th^2.  One member.
    """
    (model,), (basis,), (X,) = models, bases, Xs
    n, T, d = X.shape[0], model.resnet_blocks, model.cloud.dim
    R = model.clip.R
    E = _cloud_features(model, basis)
    omega, a_vec, scale = model.cloud.weights, model.cloud.a_vec, _gamma_scaler(bases, gamma)
    u = np.full(d, 1.0 / np.sqrt(d))

    def fwd(coeffs):
        C = scale(coeffs).reshape(basis.n_modes, T, d)
        z = X
        cache = []
        for t in range(T):
            th = np.tanh(E @ C[:, t, :] / R)          # (M, d)
            Vb = R * th                               # clip(V, R)
            P = z @ Vb.T                              # (n, M)
            S = np.tanh(P)
            cache.append((z, th, Vb, P, S))
            z = z + (S * omega[None, :]) @ a_vec
        return z @ u, cache

    def back(cache, lp):
        G = (lp[:, None] / n) * u[None, :]            # adjoint after the last block
        dC = np.zeros((basis.n_modes, T, d))
        for t in range(T - 1, -1, -1):
            z_in, th, Vb, P, S = cache[t]
            Q = (G @ a_vec.T) * np.subtract(_ONE, np.square(S, out=P), out=P)   # (n, M)
            dV = (Q.T @ z_in) * omega[:, None] * (_ONE - th ** 2)
            dC[:, t, :] = E.T @ dV
            G = G + (Q * omega[None, :]) @ Vb
        return scale(dC.reshape(basis.n_modes, T * d))

    return fwd, back


_PASSES = {"identity-map": _identity_passes, "two-layer": _two_layer_passes,
           "resnet": _resnet_passes}


def lipschitz_gap(model: ModelSpec, W: TransportMap, W2: TransportMap, x_grid) -> tuple[float, float]:
    """Sup-norm gap of the predictors against the (1 + R*D) map-distance bound.

    Returns (lhs, rhs) with lhs the max |f_W - f_W'| over the grid and rhs the
    bound (1 + R*D) * ||W - W'|| in the mass-weighted L2 sense of the
    unclipped map values.
    """
    X = np.asarray(x_grid, dtype=float)
    fa = forward(model, W, X)
    fb = forward(model, W2, X)
    lhs = float(np.max(np.abs(fa - fb)))
    V = map_values(model, W)
    V2 = map_values(model, W2)
    dist = np.sqrt(np.sum(model.cloud.weights * np.sum((V - V2) ** 2, axis=1)))
    rhs = (1.0 + model.clip.R * model.clip.input_bound_D) * float(dist)
    return lhs, rhs


# ---------------------------------------------------------------------------
# soft transport objective
# ---------------------------------------------------------------------------

def wasserstein_objective(W: TransportMap, source_samples, target_samples,
                          penalty: float, mmd_bandwidth: float = 1.0) -> float:
    """Mean squared displacement plus a kernel-discrepancy pushforward penalty.

    The hard pushforward constraint is relaxed to penalty * MMD^2 between the
    mapped source sample and the target sample (Gaussian kernel, V-statistic).
    """
    value, _ = _transport_objective(W.basis, W.gamma, source_samples, target_samples,
                                    penalty, mmd_bandwidth)
    return value(W.coeffs)


def _transport_objective(basis: SpectralBasis, gamma: float, source_samples, target_samples,
                         penalty: float, h: float):
    """value(coeffs) and grad(coeffs) of :func:`wasserstein_objective`, the map over ``basis``;
    the source features and the target-target kernel mean are computed here, once."""
    S = np.atleast_2d(np.asarray(source_samples, dtype=float))
    Tgt = np.atleast_2d(np.asarray(target_samples, dtype=float))
    if S.shape[0] == 0 or Tgt.shape[0] == 0:
        raise ValueError("both sample sets must be non-empty")
    Phi, scale = eval_basis(basis, S), _gamma_scaler([basis], gamma)
    m, t = S.shape[0], Tgt.shape[0]
    ktt = _gaussian_kernel(Tgt, Tgt, h).mean()

    def value(coeffs):
        F = Phi @ scale(coeffs)
        disp = float(np.mean(np.sum((S - F) ** 2, axis=1)))
        mmd2 = float(_gaussian_kernel(F, F, h).mean() + ktt
                     - 2.0 * _gaussian_kernel(F, Tgt, h).mean())
        return disp + penalty * mmd2

    # d/dF_i of penalty * MMD^2 is sum_j w_j K(F_i, P_j) (F_i - P_j) over the points P of
    # [F; Tgt]: w_j = -2/(m^2 h^2) on F, as both slots of the ff term contribute, and
    # 2/(m t h^2) on Tgt, times the penalty
    weights = penalty * np.concatenate([np.full(m, -2.0 / (m ** 2 * h ** 2)),
                                        np.full(t, 2.0 / (m * t * h ** 2))])
    # 0-d arrays: numpy converts a Python-number operand again on every call
    neg_half_inv_h2, two_over_m = np.array(-0.5 / h ** 2), np.array(2.0 / m)
    PhiT = Phi.T

    def grad(coeffs):
        F = Phi.dot(scale(coeffs))
        # the direct differences F_i - P_j give the kernel and its weighted sum from one exp
        D = F[:, None, :] - np.concatenate([F, Tgt])        # (m, m + t, dim)
        sq = np.square(D).sum(axis=2)
        Kw = np.exp(np.multiply(sq, neg_half_inv_h2, out=sq), out=sq)
        Kw *= weights
        dF = np.matmul(Kw[:, None, :], D)[:, 0, :]
        dF += two_over_m * (F - S)                          # the displacement term
        return scale(PhiT.dot(dF))

    return value, grad


# ---------------------------------------------------------------------------
# initial condition
# ---------------------------------------------------------------------------

def identity_coeffs(model: ModelSpec, basis: SpectralBasis) -> np.ndarray:
    """Projection of the identity map onto the basis.

    For cloud-based bases this projects the cloud coordinates themselves
    (exact at the cloud points with a full gram basis); cosine bases project
    the coordinate functions on the unit cube by midpoint quadrature; the
    abstract diagonal basis has no spatial identity and starts at zero.
    """
    d_out = map_output_dim(model)
    if basis.kind == "synthetic-diagonal":
        return np.zeros((basis.n_modes, d_out))
    if basis.kind == "gram-eigenbasis":
        pts, wts = basis.anchor_points, basis.anchor_weights
        if model.arch == "resnet":
            target = np.tile(pts[:, : model.cloud.dim], (1, model.resnet_blocks))
        elif model.arch == "identity-map":
            target = pts[:, :1]
        else:
            target = pts
        if target.shape[1] != d_out:
            raise ValueError("basis anchor dimension does not match the map output dimension")
        return basis.basis_vectors.T @ (wts[:, None] * target)
    # cosine-tensor: quadrature on the unit cube
    npts = 512 if basis.dim_in == 1 else 64
    grids = [np.linspace(0.5 / npts, 1 - 0.5 / npts, npts)] * basis.dim_in
    mesh = np.meshgrid(*grids, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    Phi = eval_basis(basis, pts)
    if pts.shape[1] < d_out:
        raise ValueError("cosine basis dimension is smaller than the map output dimension")
    target = pts[:, :d_out]
    return Phi.T @ target / pts.shape[0]
