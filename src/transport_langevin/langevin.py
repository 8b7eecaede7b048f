"""Discrete-time implicit-Euler gradient Langevin dynamics in coefficient space.

One chain step is

    W_{k+1} = S_eta( W_k - eta * grad(W_k) + sqrt(2*eta/beta) * eps_k )

with S_eta the per-mode resolvent 1/(1 + eta*lam/mu_k) and eps_k i.i.d.
standard normal per retained mode and output coordinate (zero beyond the
truncation).  The noise-only reference recursion at temperature beta,

    Z_{n+1} = S_eta( Z_n + sqrt(eta/beta) * eps_n ),

is this chain with zero gradient at 2*beta: sqrt(2*eta/(2*beta)) = sqrt(eta/beta),
so :attr:`DynamicsConfig.noise_amp` is the one noise convention.  Per mode it
is an AR(1) process, which :func:`simulate_ou_sq_norms` solves in closed form
over blocks of steps with numpy alone.  A chain whose gradient is affine
(identity map, squared loss) is the same AR(1) in the eigenbasis of its linear
map, and :func:`run_chain` solves it with the same block solver when it is stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import models as _models
from . import oracle as _oracle
from .spectral import EigenSequence, _resolvent_factor, project_P_N

__all__ = [
    "DynamicsConfig",
    "ChainState",
    "Trajectory",
    "ChainDivergedError",
    "gld_step",
    "run_chain",
    "simulate_ou_sq_norms",
    "gld_zero_grad_stationary_variance",
]


@dataclass(frozen=True)
class DynamicsConfig:
    """Step size, temperature, regularization weight, truncation and schedule."""

    eta: float
    beta: float
    lam: float
    n_modes: int
    steps: int = 1
    burn_in: int = 0
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not self.beta > self.eta:
            raise ValueError("beta must exceed eta")
        if self.n_modes < 1 or self.steps < 0 or self.burn_in < 0 or self.thin < 1:
            raise ValueError("n_modes >= 1, steps >= 0, burn_in >= 0, thin >= 1 required")

    @cached_property
    def noise_amp(self) -> float:
        return 0.0 if np.isinf(self.beta) else np.sqrt(2.0 * self.eta / self.beta)

    @cached_property
    def _eta(self) -> np.ndarray:
        # eta as a 0-d array: numpy converts a Python-float operand again on every step
        return np.array(float(self.eta))

    def _resolvent(self, basis) -> tuple[int, np.ndarray]:
        """Retained-mode count N and the resolvent column 1/(1 + eta*lam/mu_k), 1 beyond N.

        The config is frozen, so the result is kept and reused while ``basis``
        is the same object; the kept reference makes the identity check sound.
        The column is shared between calls and must not be written to.
        """
        last = self.__dict__.get("_last_resolvent")
        if last is not None and last[0] is basis:
            return last[1]
        N = min(self.n_modes, basis.n_modes)
        s = np.ones(basis.n_modes)
        s[:N] = _resolvent_factor(self.eta, self.lam, basis.eigen.mu[:N])
        self.__dict__["_last_resolvent"] = (basis, (N, s[:, None]))
        return N, s[:, None]


@dataclass
class ChainState:
    step: int
    map: _models.TransportMap
    last_grad_norm: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.map.coeffs).all():
            raise ValueError("chain state holds non-finite coefficients")


class ChainDivergedError(RuntimeError):
    """Raised when an update produces non-finite coefficients.

    Carries the last finite state so the caller can inspect or restart.
    """

    def __init__(self, state: ChainState):
        super().__init__(f"chain diverged after step {state.step}")
        self.state = state


@dataclass
class Trajectory:
    """Coefficient records of a chain run, every ``thin`` steps after burn-in."""

    steps: np.ndarray
    coeffs: np.ndarray   # (n_records, n_modes, d_out)
    final_state: ChainState

    def risk(self, model, loss_kind, dataset) -> np.ndarray:
        """Empirical risk of each recorded map on ``dataset``, in record order."""
        value, _ = _models.risk_objective(model, loss_kind, dataset, self.final_state.map.gamma)
        return np.array([value(c) for c in self.coeffs])


# steps per block of run_chain: one noise draw, one finiteness check, one copy into the record
_BLOCK = 1024

# the block AR(1) solve: at most _OU_BLOCK steps per block, and min|d|^-L <= e^_OU_MAX_LOG_GAIN
# (finite in float64); each noise draw of simulate_ou_sq_norms fills at most oracle._CHUNK floats
_OU_BLOCK = 256
_OU_MAX_LOG_GAIN = 600.0


def _implicit_euler(coeffs, g, eta, N: int, s_col, noise, out=None) -> np.ndarray:
    """The chain update S_eta(P_N(coeffs - eta*g) + noise), written into ``out``.

    ``eta`` is :attr:`DynamicsConfig._eta`, a 0-d array.  ``noise`` is the
    scaled draw amp*eps for the N retained modes, or None when the amplitude
    is 0.  ``g`` is left as it is: the caller reads its norm.
    """
    # eta*g is written into the step's own buffer, never into g
    drift = np.multiply(g, eta, out=out)
    np.subtract(coeffs, drift, out=drift)
    if N < drift.shape[0]:
        drift[N:] = 0.0
        if noise is not None:
            drift[:N] += noise
    elif noise is not None:
        drift += noise
    return np.multiply(drift, s_col, out=drift)


def gld_step(state: ChainState, cfg: DynamicsConfig, model, loss_kind, dataset,
             rng: np.random.Generator, grad_fn: Optional[Callable] = None) -> ChainState:
    """One implicit-Euler update of the chain.

    A non-finite update raises :class:`ChainDivergedError` carrying ``state``.
    """
    W = state.map
    g = grad_fn(W) if grad_fn is not None else _models.gradient(model, W, dataset, loss_kind)
    N, s_col = cfg._resolvent(W.basis)
    amp = cfg.noise_amp
    noise = amp * rng.standard_normal((N, W.coeffs.shape[1])) if amp > 0.0 else None
    new = W.copy_with(_implicit_euler(W.coeffs, g, cfg._eta, N, s_col, noise))
    try:
        out = ChainState(step=state.step + 1, map=new)
    except ValueError:   # the one finiteness check, ChainState's own, refused the update
        raise ChainDivergedError(state) from None
    out.last_grad_norm = _grad_norm(g)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _grad_norm(g) -> float:
    """``float(np.linalg.norm(g))``, bit for bit: the square root of the flat dot product.

    It is ``inf`` without a warning when the squared norm overflows, under the
    ``errstate`` that :func:`run_chain` runs its steps in.
    """
    # np.linalg.norm computes the same for ord=None, behind several numpy calls
    r = g.ravel(order="K")
    return math.sqrt(r.dot(r))


def initial_map(model, basis, kind: str = "identity") -> _models.TransportMap:
    """Starting point of a chain: the identity projection (default) or zero."""
    if kind == "identity":
        coeffs = _models.identity_coeffs(model, basis)
    elif kind == "zero":
        coeffs = np.zeros((basis.n_modes, _models.map_output_dim(model)))
    else:
        raise ValueError(f"unknown initialization {kind!r}")
    return _models.TransportMap(coeffs=coeffs, basis=basis)


def _record_steps(first: int, last: int, burn_in: int, thin: int) -> np.ndarray:
    """The steps in (first, last] on the schedule burn_in + thin*j, j >= 1, as int64."""
    j0 = max(1, (first - burn_in) // thin + 1)
    j1 = (last - burn_in) // thin
    return burn_in + thin * np.arange(j0, max(j0, j1 + 1), dtype=np.int64)


def run_chain(cfg: DynamicsConfig, model, loss_kind, dataset, *,
              init: str = "identity", init_state: Optional[ChainState] = None) -> Trajectory:
    """Run the chain for cfg.steps updates, recording the coefficients.

    Deterministic given (cfg.seed, inputs); the initial state is the identity
    map projected on the basis unless overridden.  Each step is the update of
    :func:`gld_step`, made by the same function, on the gradient of
    :func:`models.risk_objective`.  The record is the coefficients of the
    steps on the burn-in/thin schedule; :meth:`Trajectory.risk` evaluates the
    loss on it.

    When the objective declares its gradient affine (``grad.affine``) and the
    chain it gives is stable, the steps are solved in blocks instead
    (:func:`_affine_solver`): the same noise and the same states up to
    rounding, not bit for bit.

    The record's steps follow from the initial step, cfg.steps, cfg.burn_in
    and cfg.thin, so the record is allocated once at its final size.  The
    steps run in blocks of up to ``_BLOCK``.  Each block draws its noise in
    one call (the same numbers as one draw per step) and checks finiteness
    once; the first non-finite step of a block raises
    :class:`ChainDivergedError` carrying the last finite state and its step
    number.  Only then are the block's rows on the schedule copied into the
    record.
    """
    if cfg.steps < 1:
        raise ValueError("steps must be >= 1")
    basis = _models.model_basis(model)
    rng = np.random.default_rng(cfg.seed)
    if init_state is not None:
        state = init_state
    else:
        W0 = initial_map(model, basis, init)
        W0 = W0.copy_with(project_P_N(W0.coeffs, cfg.n_modes))
        state = ChainState(step=0, map=W0)
    gamma = state.map.gamma
    _, grad_fn = _models.risk_objective(model, loss_kind, dataset, gamma)
    N, s_col = cfg._resolvent(basis)
    eta, amp = cfg._eta, cfg.noise_amp

    def as_map(c):
        return _models.TransportMap(coeffs=c, basis=basis, gamma=gamma)

    coeffs = state.map.coeffs.copy()
    step_no = state.step
    rec_steps = _record_steps(step_no, step_no + cfg.steps, cfg.burn_in, cfg.thin)
    rec_coeffs = np.empty((rec_steps.size,) + coeffs.shape)
    n_rec = 0
    block = min(_BLOCK, cfg.steps)
    buf = np.empty((block,) + coeffs.shape)
    solve = _affine_solver(grad_fn, cfg, N, s_col, coeffs.shape, block)
    if solve is not None:
        buf[:, N:] = 0.0                # P_N: the solve writes the retained rows only

    # overflow on the way to divergence is handled by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, cfg.steps, block):
            b = min(block, cfg.steps - start)
            noise = amp * rng.standard_normal((b, N, coeffs.shape[1])) if amp > 0.0 else None
            if solve is None:
                prev = coeffs
                for i in range(b):
                    g = grad_fn(prev)
                    prev = _implicit_euler(prev, g, eta, N, s_col,
                                           None if noise is None else noise[i], out=buf[i])
            else:
                solve(coeffs, noise, buf[:b])
                before_last = buf[b - 2] if b > 1 else coeffs
            finite = np.isfinite(buf[:b]).all(axis=(1, 2))
            if not finite.all():
                bad = int(np.argmin(finite))
                last = buf[bad - 1].copy() if bad else coeffs
                raise ChainDivergedError(ChainState(step=step_no + bad, map=as_map(last)))
            if n_rec < rec_steps.size and rec_steps[n_rec] <= step_no + b:
                rows = buf[rec_steps[n_rec] - step_no - 1:b:cfg.thin]
                rec_coeffs[n_rec:n_rec + len(rows)] = rows
                n_rec += len(rows)
            coeffs = buf[b - 1].copy()
            step_no += b
        if solve is not None:
            g = grad_fn(before_last)
        final = ChainState(step=step_no, map=as_map(coeffs),
                           last_grad_norm=_grad_norm(g))

    return Trajectory(steps=rec_steps, coeffs=rec_coeffs, final_state=final)


def _affine_solver(grad_fn, cfg: DynamicsConfig, N: int, s_col, shape, block: int):
    """``solve(w, noise, out)`` for a chain whose gradient is affine, or None.

    With ``grad_fn.affine()`` = (H, b), the retained rows x follow the linear
    recurrence x' = A x + S(eta b_N + noise) with A = S(I - eta H_NN), S the
    resolvent diagonal.  A is similar to the symmetric S^1/2 (I - eta H_NN) S^1/2
    = Q diag(d) Q^T, so A = V diag(d) V^-1 with V = S^1/2 Q and V^-1 = Q^T S^-1/2,
    and each eigen coordinate u = V^-1 x is the AR(1) u' = d u + e that
    :func:`_ar1_blocks` solves.  None, for the step-by-step path, unless the
    gradient declares its affine form, the state has one column and max |d| < 1.

    ``solve`` writes the ``len(out)`` states after ``w`` into the retained rows
    of ``out``, given the block's scaled noise (None when the amplitude is 0).
    Rows of ``w`` beyond N enter the first step through H, as in P_N(w - eta g).
    """
    affine = getattr(grad_fn, "affine", None)
    if affine is None or shape[1] != 1:
        return None
    H, b_vec = affine()
    eta, r = float(cfg.eta), np.sqrt(s_col[:N, 0])
    d, Q = np.linalg.eigh(r[:, None] * (np.eye(N) - eta * H[:N, :N]) * r)
    if not np.abs(d).max() < 1.0:            # also refuses the nan of a non-finite H
        return None
    G = Q.T * r                          # V^-1 S, and also V^T: x = V u is the row u @ G
    e0 = G.dot(eta * b_vec[:N, 0])       # the drift's constant part, in eigen coordinates
    rest = -eta * G.dot(H[:N, N:])       # the first step's term in the rows beyond N
    L = _ar1_block_length(d)
    gains = _ar1_gains(d, 1.0, L)
    n_blocks = -(-block // L)
    buf = np.empty((n_blocks, L, N))
    flat = buf.reshape(n_blocks * L, N)

    def solve(w, noise, out):
        rows = len(out)
        e = flat[:rows]
        if noise is None:
            e[:] = e0
        else:
            np.dot(noise.reshape(rows, N), G.T, out=e)
            e += e0
        if N < shape[0]:
            e[0] += rest.dot(w[N:, 0])
        nb = -(-rows // L)
        flat[rows:nb * L] = 0.0
        _ar1_blocks(buf[:nb], gains, (w[:N, 0] / r).dot(Q))
        np.matmul(e, G, out=out[:, :N, 0])

    return solve


# ---------------------------------------------------------------------------
# the block AR(1) solve and the zero-gradient chain
# ---------------------------------------------------------------------------

def _ar1_block_length(d) -> int:
    """Steps per block for the AR(1) coefficients ``d``: at most ``_OU_BLOCK``, and few
    enough that min|d|^-L stays below e^``_OU_MAX_LOG_GAIN``."""
    with np.errstate(divide="ignore"):
        decay = -np.log(np.abs(d).min())
    return _OU_BLOCK if decay == 0.0 else max(1, int(min(_OU_BLOCK, _OU_MAX_LOG_GAIN // decay)))


def _ar1_gains(d, scale, L: int):
    """(scale * d^-j, d^j, d^(j+1)) for j = 0..L-1, rows by j: integer powers, so a
    negative ``d`` is fine."""
    j = np.arange(L)[:, None]
    return scale * d ** -j, d ** j, d ** (j + 1)


def _ar1_blocks(x, gains, z):
    """Solve u_t = d u_{t-1} + scale*e_t in place over whole blocks ``x`` (nb, L, m).

    ``x`` holds the inputs e_t; ``z`` is u before its first row.  Row j of a
    block is d^j * cumsum_i(d^-i * scale*e_i)_j + d^(j+1) * z_carry, z_carry the
    last row of the block before.  Returns a copy of the last row.
    """
    gain_in, gain_out, gain_carry = gains
    x *= gain_in
    np.cumsum(x, axis=1, out=x)
    x *= gain_out
    for b in range(len(x)):
        x[b] += gain_carry * z
        z = x[b, -1]
    return z.copy()


def simulate_ou_sq_norms(cfg: DynamicsConfig, eigen: EigenSequence, n_steps: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Trace of ||Z_n||^2 for the zero-gradient chain of ``cfg`` started at zero.

    Per mode the chain is the AR(1) z_t = s z_{t-1} + s*amp*eps_t, amp = cfg.noise_amp,
    solved by :func:`_ar1_blocks` with d = s in its own coordinates (V = I).  The
    noise is drawn in chunks of whole blocks into one buffer of at most ``oracle._CHUNK``
    floats (one block at least), the same numbers as one (n_steps, n_modes)
    draw, so memory beyond the returned trace does not grow with n_steps.
    Modes beyond ``len(eigen)`` are truncated, as in :meth:`DynamicsConfig._resolvent`.
    """
    m = min(cfg.n_modes, len(eigen))
    s = _resolvent_factor(cfg.eta, cfg.lam, eigen.mu[:m])
    L = _ar1_block_length(s)
    gains = _ar1_gains(s, s * cfg.noise_amp, L)
    n_blocks = max(1, _oracle._CHUNK // (L * m))
    buf = np.empty((n_blocks, L, m))
    out = np.empty(n_steps)
    z = np.zeros(m)
    for start in range(0, n_steps, n_blocks * L):
        rows = min(n_blocks * L, n_steps - start)
        nb = -(-rows // L)
        x = buf[:nb]
        flat = x.reshape(nb * L, m)
        y = flat[:rows]
        rng.standard_normal(out=y)
        flat[rows:] = 0.0
        z = _ar1_blocks(x, gains, z)
        np.sum(np.square(y, out=y), axis=1, out=out[start:start + rows])
    return out


def gld_zero_grad_stationary_variance(cfg: DynamicsConfig, eigen: EigenSequence) -> np.ndarray:
    """Per-mode stationary variance of the zero-gradient chain.

    It is amp^2 s^2/(1 - s^2) = 2*mu_k/(beta*lam*(2 + eta*lam/mu_k)), amp^2 = 2*eta/beta,
    and tends to the reference-measure variance mu_k/(beta*lam) as eta -> 0.  At 2*beta
    its sum is, bit for bit, the stationary E||Z||^2 of the noise-only recursion at
    beta, which is at most c_mu/(beta*lam).
    """
    mu = eigen.mu[: cfg.n_modes]
    return 2.0 * mu / (cfg.beta * cfg.lam * (2.0 + cfg.eta * cfg.lam / mu))
