"""Independent ground-truth generators used to cross-check the dynamics.

The conjugate Gaussian posterior is exact algebra; finite differences check
every analytic gradient; batch means give the standard error of a chain
average; Monte-Carlo estimators probe the small-ball mass and the correlation
inequality for centered ellipsoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import models as _models
from .spectral import GaussianMeasureSpec

__all__ = [
    "GaussianPosterior",
    "conjugate_posterior",
    "finite_diff_grad",
    "SmallBallEstimate",
    "small_ball_sq_norms",
    "small_ball_estimate",
    "small_ball_mc",
    "CorrelationEstimate",
    "gaussian_correlation_mc",
    "batch_means_stderr",
]


@dataclass
class GaussianPosterior:
    """Exact posterior of a coefficient-linear model under squared loss.

    The covariance block is shared across output coordinates because the
    features do not depend on the outputs.
    """

    mean: np.ndarray          # (n_modes, d_out)
    covariance: np.ndarray    # (n_modes, n_modes)

    def __post_init__(self):
        C = self.covariance
        if np.max(np.abs(C - C.T)) > 1e-12:
            raise ValueError("covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(C) <= 0):
            raise ValueError("covariance must be positive definite")


def conjugate_posterior(basis, feature_matrix, y, beta: float, lam: float) -> GaussianPosterior:
    """Gaussian invariant measure of the coefficient-linear squared-loss model.

    The empirical risk (1/n) * sum (y_i - (Phi alpha)_i)^2 carries curvature
    2/n * Phi^T Phi, so the posterior precision is
    beta * (2/n * Phi^T Phi + lam * diag(1/mu)); completing the square gives
    the mean.  With no data the posterior is the reference measure itself.
    """
    eigen = basis.eigen
    Phi = np.asarray(feature_matrix, dtype=float)
    if Phi.ndim != 2:
        raise ValueError("feature matrix must be 2-d")
    n, N = Phi.shape
    if N > len(eigen):
        raise ValueError("more feature columns than eigenvalues")
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    mu = eigen.mu[:N]
    if n == 0:
        prec = beta * lam * np.diag(1.0 / mu)
        rhs = np.zeros((N, y.shape[1]))
    else:
        prec = beta * ((2.0 / n) * Phi.T @ Phi + lam * np.diag(1.0 / mu))
        rhs = (2.0 * beta / n) * Phi.T @ y
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:  # cannot happen for lam > 0
        raise RuntimeError("posterior precision is singular") from exc
    # prec = L L^T, so prec^-1 = L^-T L^-1
    chol_inv = np.linalg.inv(chol)
    cov = chol_inv.T @ chol_inv
    cov = 0.5 * (cov + cov.T)
    mean = chol_inv.T @ (chol_inv @ rhs)
    return GaussianPosterior(mean=mean, covariance=cov)


def finite_diff_grad(model, loss_kind, dataset, W, step: float = 1e-5) -> np.ndarray:
    """Central differences of the empirical risk per coefficient, O(step^2)."""
    if step <= 0:
        raise ValueError("step must be positive")
    value, _ = _models._objective(model, W.basis, W.gamma, loss_kind, dataset)
    base = W.coeffs
    out = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        c_plus = base.copy()
        c_plus[idx] += step
        c_minus = base.copy()
        c_minus[idx] -= step
        out[idx] = (value(c_plus) - value(c_minus)) / (2.0 * step)
    return out


# elements per chunk of Monte-Carlo draws, here and in langevin.simulate_ou_sq_norms:
# the working buffer is this many floats, whatever the sample or step count.  Each of
# correlation-suite's worker threads holds one such buffer and its temporaries: on the
# two-layer-oracle benchmark (2 CPUs, two workers) 2^16 raised peak RSS by about 2.7 MB
# over the serial suite, 2^14 by about 0.6 MB
_CHUNK = 1 << 14


def _squared_draws(sd: np.ndarray, n_samples: int, rng: np.random.Generator):
    """Yield ``(start, x)`` over consecutive row chunks of n_samples draws, where x holds
    the rows' squared scaled draws ``(sd * eps)**2``, eps standard normal.

    The rows come from one reused buffer of at most ``_CHUNK`` elements (one
    row at least), so ``x`` is valid only until the next chunk.  The draws are
    the row-major ``standard_normal`` stream of one ``(n_samples, sd.size)``
    draw, whatever the chunking.
    """
    rows = max(1, _CHUNK // max(sd.size, 1))
    buf = np.empty((min(rows, n_samples), sd.size))
    for start in range(0, n_samples, rows):
        x = buf[:min(rows, n_samples - start)]
        rng.standard_normal(out=x)
        x *= sd
        np.square(x, out=x)
        yield start, x


class SmallBallEstimate(NamedTuple):
    probability: float
    stderr: float
    neg_log: float
    zero_hits: bool          # when True, neg_log is only a lower bound


def small_ball_sq_norms(spec: GaussianMeasureSpec, n_samples: int, rng: np.random.Generator,
                        n_modes: Optional[int] = None) -> np.ndarray:
    """Sorted squared norms ||alpha||^2 of n_samples draws from the measure's first modes.

    One draw serves every radius: :func:`small_ball_estimate` counts the
    norms within each.
    """
    if n_samples < 1000:
        raise ValueError("use at least 10^3 samples")
    if n_modes is None:
        n_modes = len(spec.eigen)
    sq_norms = np.empty(n_samples)
    for start, x in _squared_draws(np.sqrt(spec.mode_variances[:n_modes]), n_samples, rng):
        np.sum(x, axis=1, out=sq_norms[start:start + len(x)])
    sq_norms.sort()
    return sq_norms


def small_ball_estimate(sq_norms: np.ndarray, radius: float) -> SmallBallEstimate:
    """Mass of the centered ball {||alpha|| <= radius} from the sorted squared norms
    of :func:`small_ball_sq_norms`."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n_samples = sq_norms.size
    hits = int(np.searchsorted(sq_norms, radius ** 2, side="right"))
    p = hits / n_samples
    stderr = float(np.sqrt(max(p * (1 - p), 0.0) / n_samples))
    if hits == 0:
        # p < ~3/n at 95%; report the implied lower bound on -log p
        return SmallBallEstimate(0.0, stderr, float(np.log(n_samples / 3.0)), True)
    return SmallBallEstimate(p, stderr, float(-np.log(p)), False)


def small_ball_mc(spec: GaussianMeasureSpec, radius: float, n_samples: int,
                  rng: np.random.Generator, n_modes: Optional[int] = None) -> SmallBallEstimate:
    """Monte-Carlo mass of the centered ball {||alpha|| <= radius} under the measure:
    :func:`small_ball_sq_norms` then :func:`small_ball_estimate`."""
    return small_ball_estimate(small_ball_sq_norms(spec, n_samples, rng, n_modes), radius)


class CorrelationEstimate(NamedTuple):
    p_both: float
    p_product: float
    stderr: float            # delta-method stderr of (p_both - p_product)


# the most coordinates gaussian_correlation_mc samples
CORRELATION_DIM_CAP = 16


def gaussian_correlation_mc(spec: GaussianMeasureSpec, ellipsoid_a, ellipsoid_b,
                            n_samples: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Shared-sample estimate of P(A and B) against P(A)*P(B) for the
    centered ellipsoids {sum a_i alpha_i^2 <= 1} and {sum b_i alpha_i^2 <= 1}.

    The samples are drawn and counted in chunks of a fixed number of elements,
    so memory does not grow with n_samples.
    """
    a = np.asarray(ellipsoid_a, dtype=float)
    b = np.asarray(ellipsoid_b, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("ellipsoid weights must be non-negative")
    dim = a.size
    if b.size != dim:
        raise ValueError("weight vectors must have equal length")
    if dim > CORRELATION_DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds the cap {CORRELATION_DIM_CAP}")
    if n_samples < 2:
        raise ValueError("use at least 2 samples")
    n_ab = n_a = n_b = 0
    for _, x in _squared_draws(np.sqrt(spec.mode_variances[:dim]), n_samples, rng):
        # einsum reduces in this thread; a BLAS matrix-vector product on a
        # chunk this size wakes worker threads that spin on after it returns
        in_a = np.einsum("ij,j->i", x, a) <= 1.0
        in_b = np.einsum("ij,j->i", x, b) <= 1.0
        n_ab += int(np.count_nonzero(in_a & in_b))
        n_a += int(np.count_nonzero(in_a))
        n_b += int(np.count_nonzero(in_b))
    p_ab, p_a, p_b = n_ab / n_samples, n_a / n_samples, n_b / n_samples
    # delta method on g(m_ab, m_a, m_b) = m_ab - m_a*m_b with shared samples; any two
    # of the indicators 1{A and B}, 1{A}, 1{B} multiply to 1{A and B}, so their
    # ddof=1 covariance follows from the three counts
    means = np.array([p_ab, p_a, p_b])
    second = np.full((3, 3), p_ab)
    second[1, 1], second[2, 2] = p_a, p_b
    S = (second - np.outer(means, means)) * (n_samples / (n_samples - 1))
    grad = np.array([1.0, -p_b, -p_a])
    var = float(grad @ S @ grad) / n_samples
    return CorrelationEstimate(float(p_ab), float(p_a * p_b), float(np.sqrt(max(var, 0.0))))


def batch_means_stderr(series: np.ndarray) -> float:
    """Batch-means standard error of the mean of a correlated series of >= 2 values."""
    series = np.asarray(series, dtype=float)
    n = series.size
    if n < 2:
        raise ValueError(f"a batch-means stderr needs at least 2 values, got {n}")
    n_batches = max(int(np.floor(np.sqrt(n))), 2)
    batch = n // n_batches
    trimmed = series[n - n_batches * batch:]
    means = trimmed.reshape(n_batches, batch).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(n_batches))
