"""Hilbert-space machinery for transport-map dynamics.

Everything here lives in mode-coefficient space: a map W is represented by
coefficients against an orthonormal basis (e_k) of a separable Hilbert space,
and the regularizing operator, its resolvent, fractional powers, projections
and the Gaussian reference measure are all diagonal in that basis with
eigenvalue sequence (mu_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "EigenSequence",
    "SpectralBasis",
    "GaussianMeasureSpec",
    "make_eigen_sequence",
    "apply_A",
    "resolvent_S_eta",
    "sample_prior",
    "weighted_norm",
    "project_P_N",
    "fractional_power_scale",
    "gram_eigenbasis",
    "cosine_basis",
    "diagonal_basis",
    "eval_basis",
]

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class EigenSequence:
    """Non-increasing positive eigenvalue sequence with polynomial decay.

    The sequence must satisfy ``mu_k <= c_mu * (k+1)**(-decay_exponent)``
    for every stored mode, and the decay exponent must be at least 2.
    """

    mu: np.ndarray
    c_mu: float
    decay_exponent: float = 2.0

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("mu must be a non-empty 1-d sequence")
        if not np.all(mu > 0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(mu) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        if self.c_mu <= 0:
            raise ValueError("c_mu must be positive")
        if self.decay_exponent < 2:
            raise ValueError("decay_exponent must be >= 2")
        envelope = self.c_mu * (np.arange(1, mu.size + 1, dtype=float) ** (-self.decay_exponent))
        # tiny slack for the float noise of computing the boundary sequence itself
        if np.any(mu > envelope * (1 + 1e-12)):
            k = int(np.argmax(mu - envelope))
            raise ValueError(
                f"eigenvalue condition violated at mode {k}: "
                f"mu_k={mu[k]:.6g} > c_mu*(k+1)^(-{self.decay_exponent:g})={envelope[k]:.6g}"
            )

    def __len__(self):
        return self.mu.size


def make_eigen_sequence(c_mu: float, decay_exponent: float = 2.0, n_modes: int = 1) -> EigenSequence:
    """Boundary sequence mu_k = c_mu * (k+1)**(-decay_exponent)."""
    if c_mu <= 0:
        raise ValueError("c_mu must be positive")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if decay_exponent < 2:
        raise ValueError("decay_exponent must be >= 2")
    k = np.arange(1, n_modes + 1, dtype=float)
    return EigenSequence(mu=c_mu * k ** (-decay_exponent), c_mu=float(c_mu), decay_exponent=float(decay_exponent))


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal system (e_k) plus the eigenvalues that define the RKHS scale.

    The basis has exactly one mode per eigenvalue: ``n_modes`` is
    ``len(eigen)`` and ``mu`` is ``eigen.mu``.  To truncate, build the basis
    from a shorter eigenvalue sequence.

    Three kinds are supported:

    ``synthetic-diagonal``
        purely abstract coefficient space, no point evaluation;
    ``gram-eigenbasis``
        eigenvectors of a kernel Gram matrix weighted by particle masses,
        evaluable anywhere through the Nystrom extension;
    ``cosine-tensor``
        tensor-product cosine functions on the unit cube, orthonormal under
        the uniform measure.
    """

    kind: str
    dim_in: int
    dim_out: int
    eigen: EigenSequence
    basis_vectors: Optional[np.ndarray] = None      # gram: (M, n_modes) values at the cloud
    anchor_points: Optional[np.ndarray] = None      # gram: (M, dim_in) cloud coordinates
    anchor_weights: Optional[np.ndarray] = None     # gram: (M,) particle masses
    kernel_bandwidth: Optional[float] = None        # gram: Gaussian kernel width
    frequencies: Optional[np.ndarray] = None        # cosine: (n_modes, dim_in) integer freqs

    def __post_init__(self):
        if self.kind not in ("synthetic-diagonal", "gram-eigenbasis", "cosine-tensor"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "gram-eigenbasis":
            E, w = self.basis_vectors, self.anchor_weights
            if E is None or w is None or self.anchor_points is None:
                raise ValueError("gram-eigenbasis requires basis_vectors, anchor_points, anchor_weights")
            if E.shape[1] != self.n_modes:
                raise ValueError(f"basis_vectors has {E.shape[1]} columns but there are "
                                 f"{self.n_modes} eigenvalues: one column per eigenvalue")
            gram = (E * w[:, None]).T @ E
            if np.max(np.abs(gram - np.eye(self.n_modes))) > _ORTHO_TOL:
                raise ValueError("basis columns are not orthonormal under the particle weights")
        if self.kind == "cosine-tensor" and self.frequencies is None:
            raise ValueError("cosine-tensor requires frequencies")

    @property
    def n_modes(self) -> int:
        return len(self.eigen)

    @property
    def mu(self) -> np.ndarray:
        return self.eigen.mu


@dataclass(frozen=True)
class GaussianMeasureSpec:
    """Centered Gaussian reference measure with per-mode variance mu_k/(beta*lam)."""

    beta: float
    lam: float
    eigen: EigenSequence

    def __post_init__(self):
        if self.beta <= 0 or self.lam <= 0:
            raise ValueError("beta and lam must be positive")

    @property
    def mode_variances(self) -> np.ndarray:
        return self.eigen.mu / (self.beta * self.lam)


def _check_modes(coeffs: np.ndarray, eigen: EigenSequence) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] > len(eigen):
        raise ValueError(f"{coeffs.shape[0]} coefficient modes but only {len(eigen)} eigenvalues")
    return coeffs


def _mode_scale(coeffs: np.ndarray, scale: np.ndarray) -> np.ndarray:
    if coeffs.ndim == 1:
        return coeffs * scale
    return coeffs * scale[:, None]


def apply_A(coeffs, lam: float, eigen: EigenSequence):
    """Regularizing operator: mode k is multiplied by lam/mu_k."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    coeffs = _check_modes(coeffs, eigen)
    return _mode_scale(coeffs, lam / eigen.mu[: coeffs.shape[0]])


def _resolvent_factor(eta, lam, mu):
    """1/(1 + eta*lam/mu): the factor by which the implicit Euler step shrinks a mode of
    eigenvalue ``mu`` (an array or a number)."""
    return 1.0 / (1.0 + eta * lam / mu)


def resolvent_S_eta(coeffs, eta: float, lam: float, eigen: EigenSequence):
    """Resolvent of the implicit Euler step: mode k shrinks by 1/(1 + eta*lam/mu_k)."""
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if lam <= 0:
        raise ValueError("lam must be positive")
    coeffs = _check_modes(coeffs, eigen)
    return _mode_scale(coeffs, _resolvent_factor(eta, lam, eigen.mu[: coeffs.shape[0]]))


def sample_prior(spec: GaussianMeasureSpec, basis: SpectralBasis, rng: np.random.Generator, d_out: Optional[int] = None):
    """Draw mode coefficients of a map under the Gaussian reference measure.

    Coefficients are independent across modes and output coordinates, mode k
    having variance mu_k/(beta*lam).  Returns an (n_modes, d_out) array.
    """
    if basis.eigen is not spec.eigen and not np.array_equal(basis.eigen.mu, spec.eigen.mu):
        raise ValueError("basis and measure eigenvalues disagree")
    if d_out is None:
        d_out = basis.dim_out
    sd = np.sqrt(spec.mode_variances)
    return rng.standard_normal((basis.n_modes, d_out)) * sd[:, None]


def weighted_norm(coeffs, eigen: EigenSequence, epsilon_exponent: float = 0.0) -> float:
    """Weighted norm (sum_k mu_k^(2*eps) * |alpha_k|^2)^(1/2).

    eps=0 is the plain coefficient norm; eps=-1/2 gives the RKHS norm
    sqrt(sum alpha_k^2 / mu_k).  Matrix coefficients are treated as a single
    vector-valued map (sum over output coordinates too).
    """
    coeffs = _check_modes(coeffs, eigen)
    if epsilon_exponent == 0.0:
        return float(np.linalg.norm(coeffs))
    w = eigen.mu[: coeffs.shape[0]] ** (2.0 * epsilon_exponent)
    sq = coeffs ** 2
    if coeffs.ndim > 1:
        sq = sq.sum(axis=1)
    return float(np.sqrt(np.sum(w * sq)))


def project_P_N(coeffs, N: int):
    """Zero out every mode with index >= N.  Idempotent."""
    if N < 0:
        raise ValueError("N must be non-negative")
    coeffs = np.asarray(coeffs, dtype=float)
    out = coeffs.copy()
    out[N:] = 0.0
    return out


def fractional_power_scale(coeffs, eigen: EigenSequence, gamma: float):
    """Scale mode k by mu_k^(gamma/2), mapping coefficients into a smoother class."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    coeffs = _check_modes(coeffs, eigen)
    if gamma == 0.0:
        return coeffs.copy()
    return _mode_scale(coeffs, eigen.mu[: coeffs.shape[0]] ** (gamma / 2.0))


# ---------------------------------------------------------------------------
# concrete bases
# ---------------------------------------------------------------------------

def _gaussian_kernel(x, y, bandwidth):
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    sq = np.sum(x ** 2, axis=1)[:, None] + np.sum(y ** 2, axis=1)[None, :] - 2.0 * x @ y.T
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth ** 2))


def gram_eigenbasis(cloud, kernel_bandwidth: float, n_modes: int, include_a: bool = True) -> SpectralBasis:
    """Eigenbasis of the mass-weighted Gaussian-kernel Gram matrix of a particle cloud.

    The returned columns are orthonormal under the particle weights and the
    eigenvalues are sorted descending; with the full mode count the kernel is
    reproduced exactly at the cloud points.  ``include_a`` appends the
    second-layer coordinate to the kernel inputs so the basis lives on the
    joint (w, a) domain.
    """
    if kernel_bandwidth <= 0:
        raise ValueError("kernel_bandwidth must be positive")
    pts = np.column_stack([cloud.w, cloud.a]) if include_a else np.asarray(cloud.w, dtype=float)
    weights = np.asarray(cloud.weights, dtype=float)
    M = pts.shape[0]
    if n_modes < 1 or n_modes > M:
        raise ValueError(f"n_modes must be in [1, {M}]")
    K = _gaussian_kernel(pts, pts, kernel_bandwidth)
    sw = np.sqrt(weights)
    Kw = sw[:, None] * K * sw[None, :]
    evals, U = np.linalg.eigh(Kw)
    order = np.argsort(evals)[::-1]
    evals, U = evals[order], U[:, order]
    usable = int(np.sum(evals > max(evals[0], 0.0) * 1e-12))
    if usable < n_modes:
        raise ValueError(f"Gram matrix rank deficient: requested {n_modes} modes, usable rank {usable}")
    mu = evals[:n_modes]
    E = U[:, :n_modes] / sw[:, None]
    ks = np.arange(1, n_modes + 1, dtype=float)
    c_mu = float(np.max(mu * ks ** 2))
    eigen = EigenSequence(mu=mu, c_mu=c_mu, decay_exponent=2.0)
    d = pts.shape[1]
    return SpectralBasis(
        kind="gram-eigenbasis", dim_in=d, dim_out=d, eigen=eigen,
        basis_vectors=E, anchor_points=pts, anchor_weights=weights,
        kernel_bandwidth=float(kernel_bandwidth),
    )


def _cosine_frequencies(n_modes: int, dim_in: int) -> np.ndarray:
    if dim_in == 1:
        return np.arange(n_modes, dtype=int)[:, None]
    # enumerate multi-indices by increasing squared frequency, ties lexicographic
    top = int(np.ceil(n_modes ** (1.0 / dim_in))) + 2
    grids = np.meshgrid(*([np.arange(top)] * dim_in), indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    order = np.lexsort(tuple(idx[:, j] for j in range(dim_in - 1, -1, -1)) + (np.sum(idx ** 2, axis=1),))
    return idx[order][:n_modes]


def cosine_basis(n_modes: int, dim_in: int = 1, dim_out: int = 1,
                 c_mu: float = 1.0, decay_exponent: float = 2.0) -> SpectralBasis:
    """Tensor-product cosine basis on [0,1]^dim_in with boundary eigen-decay."""
    if dim_in < 1 or dim_in > 3:
        raise ValueError("cosine basis supports dim_in in {1, 2, 3}")
    eigen = make_eigen_sequence(c_mu, decay_exponent, n_modes)
    freqs = _cosine_frequencies(n_modes, dim_in)
    return SpectralBasis(kind="cosine-tensor", dim_in=dim_in, dim_out=dim_out,
                         eigen=eigen, frequencies=freqs)


def diagonal_basis(n_modes: int, c_mu: float = 1.0, decay_exponent: float = 2.0,
                   dim_out: int = 1) -> SpectralBasis:
    """Abstract coefficient-space basis with no point evaluation."""
    eigen = make_eigen_sequence(c_mu, decay_exponent, n_modes)
    return SpectralBasis(kind="synthetic-diagonal", dim_in=n_modes, dim_out=dim_out, eigen=eigen)


def eval_basis(basis: SpectralBasis, x) -> np.ndarray:
    """Evaluate all basis functions at points x, returning (n_points, n_modes).

    Gram bases extend off the cloud by the Nystrom formula
    e_k(x) = (1/mu_k) * sum_i w_i K(x, p_i) e_k(p_i); at the cloud points this
    reproduces the stored columns exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1) if basis.dim_in > 1 else x.reshape(-1, 1)
    if x.shape[1] != basis.dim_in:
        raise ValueError(f"points have dimension {x.shape[1]}, basis expects {basis.dim_in}")
    if basis.kind == "cosine-tensor":
        out = np.ones((x.shape[0], basis.n_modes))
        for j in range(basis.dim_in):
            fj = basis.frequencies[:, j]
            vals = np.where(fj[None, :] == 0, 1.0,
                            np.sqrt(2.0) * np.cos(np.pi * fj[None, :] * x[:, j][:, None]))
            out *= vals
        return out
    if basis.kind == "gram-eigenbasis":
        K = _gaussian_kernel(x, basis.anchor_points, basis.kernel_bandwidth)
        return (K * basis.anchor_weights[None, :]) @ basis.basis_vectors / basis.mu[None, :]
    raise ValueError("synthetic-diagonal basis has no point evaluation")
