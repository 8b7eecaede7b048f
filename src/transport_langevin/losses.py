"""Loss functions with derivatives, range bounds and the Bernstein-condition check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "LossBounds",
    "loss_eval_derivs",
    "clipped_loss_range",
    "feasible_band",
    "bernstein_check",
    "smoothness_audit",
]

LOSS_KINDS = ("squared", "logistic")

_expit = None   # the logistic sigmoid, bound by the first logistic evaluation

# -2.0 as a 0-d array: numpy converts a Python-float operand again on every call
_MINUS_TWO = np.array(-2.0)


@dataclass
class LossBounds:
    """Boundedness / smoothness / Bernstein constants of a loss-model pair.

    ``empirical=True`` marks values that were estimated by probing and are
    therefore lower bounds on the true constants.
    """

    B: float
    L_lip: float
    R_bar: float
    C_B: float = 0.0
    s: float = 1.0
    C_alpha_prime: Optional[float] = None
    alpha_prime: Optional[float] = None
    empirical: bool = False

    def __post_init__(self):
        for name in ("B", "L_lip", "R_bar", "C_B"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not (0 < self.s <= 1):
            raise ValueError("s must lie in (0, 1]")


def loss_eval_derivs(kind: str, y, u, order: int = 0):
    """Value or u-derivative (order 0..3) of the squared or logistic loss.

    Logistic labels must be +-1.  Vectorized over y and u.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unsupported loss kind {kind!r}")
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0, 1, 2 or 3")
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if kind == "squared":
        if order == 0:
            out = (y - u) ** 2
        elif order == 1:
            out = y - u
            out *= _MINUS_TWO   # in place on a new array; a numpy scalar is rebound
        elif order == 2:
            out = np.full(np.broadcast_shapes(y.shape, u.shape), 2.0)
        else:
            out = np.zeros(np.broadcast_shapes(y.shape, u.shape))
    else:
        global _expit
        if _expit is None:
            # scipy is loaded only when a logistic loss is evaluated
            from scipy.special import expit as _expit
        if not (np.abs(y) == 1.0).all():     # the labels -1 and +1, nothing else
            raise ValueError("logistic loss requires labels in {-1, +1}")
        z = y * u
        if order == 0:
            out = np.logaddexp(0.0, -z)
        elif order == 1:
            out = -y * _expit(-z)
        elif order == 2:
            out = _expit(z) * _expit(-z)
        else:
            s = _expit(-z)
            out = -y * s * (1.0 - s) * (1.0 - 2.0 * s)
    return out if out.ndim else float(out)


def clipped_loss_range(R: float, noise_bound_C: float) -> float:
    """Range bound 2*(4R^2 + C^2) of the squared loss under |f|<=R, |noise|<=C."""
    if R < 1:
        raise ValueError("R must be >= 1")
    if noise_bound_C < 0:
        raise ValueError("noise bound must be non-negative")
    return 2.0 * (4.0 * R ** 2 + noise_bound_C ** 2)


def feasible_band(R: float) -> tuple[float, float]:
    """Probability band reachable by a logistic link with |f| <= R."""
    with np.errstate(over="ignore"):     # exp(R) is inf above R ~ 709: the right lower end, 0
        return 1.0 / (1.0 + np.exp(R)), 1.0 / (1.0 + np.exp(-R))


def bernstein_check(p, q, R: float):
    """Both sides of the squared-log-ratio inequality with constant 4 + 3R.

    lhs = p*log(p/q)^2 + (1-p)*log((1-p)/(1-q))^2,
    rhs = (4+3R)*(p*log(p/q) + (1-p)*log((1-p)/(1-q))),
    and holds = (lhs <= rhs + 1e-12).  Both probabilities must sit inside the
    band reachable by a logistic link bounded by R.  Vectorized.
    """
    if R < 1e-12:
        raise ValueError("R must be positive")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    lo, hi = feasible_band(R)
    tol = 1e-12
    if np.any(p < lo - tol) or np.any(p > hi + tol) or np.any(q < lo - tol) or np.any(q > hi + tol):
        raise ValueError(f"p, q must lie in the feasible band [{lo:.6g}, {hi:.6g}] for R={R:g}")
    C_B = 4.0 + 3.0 * R
    lp, lq = np.log(p / q), np.log((1.0 - p) / (1.0 - q))
    lhs = p * lp ** 2 + (1.0 - p) * lq ** 2
    rhs = C_B * (p * lp + (1.0 - p) * lq)
    holds = lhs <= rhs + 1e-12
    if lhs.ndim == 0:
        return float(lhs), float(rhs), bool(holds)
    return lhs, rhs, holds


def smoothness_audit(model, loss_kind: str, dataset, n_probes: int,
                     rng: np.random.Generator, alpha: float = 0.25,
                     probe_scale: float = 1.0) -> LossBounds:
    """Empirical lower bounds on the gradient bound B, the Lipschitz constant
    of the gradient (measured against the alpha-weighted norm) and the loss
    range, obtained by probing random maps.
    """
    from . import models as _models
    from .spectral import weighted_norm

    if n_probes < 2:
        raise ValueError("n_probes must be >= 2")
    if dataset.x.shape[0] == 0:
        raise ValueError("dataset must be non-empty")
    basis = _models.model_basis(model)
    mu = basis.mu
    d_out = _models.map_output_dim(model)

    def draw():
        c = rng.standard_normal((basis.n_modes, d_out)) * np.sqrt(mu)[:, None] * probe_scale
        return _models.TransportMap(coeffs=c, basis=basis)

    probes = [draw() for _ in range(n_probes)]
    grads = [_models.gradient(model, W, dataset, loss_kind) for W in probes]
    B_hat = max(float(np.linalg.norm(g)) for g in grads)
    R_hat = max(float(np.max(loss_eval_derivs(loss_kind, dataset.y,
                                              _models.forward(model, W, dataset.x), 0)))
                for W in probes)
    L_hat = 0.0
    for i in range(n_probes - 1):
        dW = probes[i].coeffs - probes[i + 1].coeffs
        denom = weighted_norm(dW, basis.eigen, alpha)
        if denom > 1e-14:
            L_hat = max(L_hat, float(np.linalg.norm(grads[i] - grads[i + 1])) / denom)
    return LossBounds(B=B_hat, L_lip=L_hat, R_bar=R_hat, empirical=True)
