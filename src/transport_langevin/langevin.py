"""Discrete-time implicit-Euler gradient Langevin dynamics in coefficient space.

One chain step is

    W_{k+1} = S_eta( W_k - eta * grad(W_k) + sqrt(2*eta/beta) * eps_k )

with S_eta the per-mode resolvent 1/(1 + eta*lam/mu_k) and eps_k i.i.d.
standard normal per mode of the map's basis and output coordinate.  The
noise-only reference recursion at temperature beta,

    Z_{n+1} = S_eta( Z_n + sqrt(eta/beta) * eps_n ),

is this chain with zero gradient at 2*beta: sqrt(2*eta/(2*beta)) = sqrt(eta/beta),
so :attr:`DynamicsConfig.noise_amp` is the one noise convention.  Per mode it
is an AR(1) process, which :func:`simulate_ou_sq_norms` solves in closed form
over blocks of steps with numpy alone.  A chain whose gradient is affine
(identity map, squared loss) is the same AR(1) in the eigenbasis of its linear
map, and :func:`run_chain` solves it with the same block solver when it is stable.

:func:`run_chains` runs K chains as one stack: members of one architecture and one
coefficient shape, each with its own model, dataset, seed and initial state, under one
schedule.  The state carries a leading member axis, each member draws its noise from its
own generator, and :func:`run_chain` is the stack of one member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import models as _models
from .spectral import EigenSequence, _resolvent_factor

__all__ = [
    "DynamicsConfig",
    "ChainState",
    "Trajectory",
    "ChainDivergedError",
    "gld_step",
    "run_chain",
    "run_chains",
    "simulate_ou_sq_norms",
    "gld_zero_grad_stationary_variance",
]


@dataclass(frozen=True)
class DynamicsConfig:
    """Step size, temperature, regularization weight and schedule."""

    eta: float
    beta: float
    lam: float
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
        if self.steps < 0 or self.burn_in < 0 or self.thin < 1:
            raise ValueError("steps >= 0, burn_in >= 0, thin >= 1 required")

    @cached_property
    def noise_amp(self) -> float:
        return 0.0 if np.isinf(self.beta) else np.sqrt(2.0 * self.eta / self.beta)

    def _resolvent(self, basis) -> np.ndarray:
        """The resolvent column 1/(1 + eta*lam/mu_k) of the basis's modes."""
        return _resolvent_factor(self.eta, self.lam, basis.mu)[:, None]


@dataclass
class ChainState:
    step: int
    map: _models.TransportMap

    def __post_init__(self):
        if not np.isfinite(self.map.coeffs).all():
            raise ValueError("chain state holds non-finite coefficients")


class ChainDivergedError(RuntimeError):
    """Raised when an update produces non-finite coefficients.

    Carries the last finite state so the caller can inspect or restart, and the
    index of the member it belongs to in a stack of chains (0 for a single chain,
    whose message names no member).
    """

    def __init__(self, state: ChainState, member: Optional[int] = None):
        where = "" if member is None else f" (member {member})"
        super().__init__(f"chain diverged after step {state.step}{where}")
        self.state = state
        self.member = member or 0
        self._member_given = member

    def __reduce__(self):
        # BaseException's own reduce re-calls __init__ with the message alone, so an error
        # raised in a worker process could not be rebuilt in the caller
        return type(self), (self.state, self._member_given)


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


# steps per block: per block, one noise draw per member, one finiteness check and one copy
# into the record.  4,096 steps of 8 modes fill 256 KB, so that the block solve's state
# buffer, which also takes the noise, and its AR(1) workspace stay in L2 (16,384 steps ran
# about 3x slower)
_BLOCK = 4096
# a stack or a map with more coefficients takes fewer steps per block, so that a block buffer
# holds at most _BLOCK_FLOATS floats whatever the number of members
_BLOCK_FLOATS = 8 * _BLOCK

# the block AR(1) solve: at most _OU_BLOCK steps per block, and min|d|^-L <= e^_OU_MAX_LOG_GAIN
# (finite in float64); each noise draw of simulate_ou_sq_norms fills at most _BLOCK_FLOATS floats
_OU_BLOCK = 256
_OU_MAX_LOG_GAIN = 600.0


def _implicit_euler(coeffs, g, eta, s_col, noise, out=None) -> np.ndarray:
    """The chain update S_eta(coeffs - eta*g + noise), written into ``out``.

    ``coeffs`` is one map's (n_modes, d_out) coefficients or a stack of them,
    (K, n_modes, d_out), with ``s_col`` of the same rank.  ``noise`` is the scaled
    draw amp*eps of the coefficients' shape, or None when the amplitude is 0.  ``g``
    is left as it is.
    """
    # eta*g is written into the step's own buffer, never into g
    drift = np.multiply(g, eta, out=out)
    np.subtract(coeffs, drift, out=drift)
    if noise is not None:
        drift += noise
    return np.multiply(drift, s_col, out=drift)


def gld_step(state: ChainState, cfg: DynamicsConfig, model, loss_kind, dataset,
             rng: np.random.Generator, grad_fn: Optional[Callable] = None) -> ChainState:
    """One implicit-Euler update of the chain.

    A non-finite update raises :class:`ChainDivergedError` carrying ``state``.
    """
    W = state.map
    g = grad_fn(W) if grad_fn is not None else _models.gradient(model, W, dataset, loss_kind)
    amp = cfg.noise_amp
    noise = amp * rng.standard_normal(W.coeffs.shape) if amp > 0.0 else None
    new = W.copy_with(_implicit_euler(W.coeffs, g, cfg.eta, cfg._resolvent(W.basis), noise))
    try:
        return ChainState(step=state.step + 1, map=new)
    except ValueError:   # the one finiteness check, ChainState's own, refused the update
        raise ChainDivergedError(state) from None


def initial_map(model, basis, kind: str = "identity") -> _models.TransportMap:
    """Starting point of a chain: the identity projection (default) or zero."""
    if kind == "identity":
        coeffs = _models.identity_coeffs(model, basis)
    elif kind == "zero":
        coeffs = np.zeros((basis.n_modes, _models.map_output_dim(model)))
    else:
        raise ValueError(f"unknown initialization {kind!r}")
    return _models.TransportMap(coeffs=coeffs, basis=basis)


def _record_steps(first: int, last: int, burn_in: int, thin: int) -> range:
    """The steps in (first, last] on the schedule burn_in + thin*j, j >= 1: a range,
    which holds no array however many steps it counts."""
    j0 = max(1, (first - burn_in) // thin + 1)
    j1 = max(j0 - 1, (last - burn_in) // thin)
    return range(burn_in + thin * j0, burn_in + thin * (j1 + 1), thin)


def run_chain(cfg: DynamicsConfig, model, loss_kind, dataset, *,
              init: str = "identity", init_state: Optional[ChainState] = None) -> Trajectory:
    """Run the chain for cfg.steps updates, recording the coefficients.

    Deterministic given (cfg.seed, inputs); the initial state is the identity
    map projected on the basis unless overridden.  Each step is the update of
    :func:`gld_step`, made by the same function, on the gradient of
    :func:`models.risk_objective`.  The record is the coefficients of the
    steps on the burn-in/thin schedule; :meth:`Trajectory.risk` evaluates the
    loss on it.

    This is the stack of one member of :func:`run_chains`, seeded by cfg.seed:
    the steps run in blocks, each drawing its noise in one call (the same
    numbers as one draw per step) and checking finiteness once, and a chain
    whose gradient is affine and stable is solved in blocks (:func:`_affine_solver`),
    to rounding rather than bit for bit.  The first non-finite step raises
    :class:`ChainDivergedError` carrying the last finite state and its step number.
    """
    return run_chains(cfg, [model], loss_kind, [dataset], [cfg.seed], init=init,
                      init_states=[init_state])[0]


def run_chains(cfg: DynamicsConfig, models, loss_kind, datasets, seeds, *,
               init: str = "identity", init_states=None) -> list[Trajectory]:
    """Run K chains as one stack; one :class:`Trajectory` per member, in member order.

    Member k is the chain ``run_chain(replace(cfg, seed=seeds[k]), models[k], loss_kind,
    datasets[k], init=init, init_state=init_states[k])``: the sequences hold one entry
    per member, and ``init_states`` may be None or hold None for a member that starts
    at ``init``.  The members share the schedule of ``cfg`` (η, β, λ, steps, burn-in
    and thinning; cfg.seed is not read), one architecture, one coefficient shape, one
    data shape, one initial step and one γ.

    The state is one (K, n_modes, d_out) array, and each member draws its block's
    noise from its own generator, so member k's noise does not depend on K or on
    k's place in the stack.  Identity-map and two-layer members step through
    batched products (``models._stacked_grad``), and each member's records equal
    its own :func:`run_chain` bit for bit; resnet and wasserstein chains take one
    member only.  An affine stable stack is solved in blocks after one batched
    ``eigh``, and there a member's records depend on the other members by rounding:
    the whole stack takes the stepwise path when any member's linear map is not
    stable, the AR(1) blocks are as short as the member of smallest |d| needs
    (:func:`_ar1_block_length`), and the steps per block shrink with K.

    On either path a block's buffers hold at most ``_BLOCK_FLOATS`` floats each, so
    they do not grow with K: the block solve draws the noise into the state buffer, and
    the step-by-step path keeps a noise buffer beside it.  The steps run in the block
    stream of :func:`_record_blocks`, and this function collects it: the record is one
    (K, n_records, n_modes, d_out) array, allocated once and filled once per block, so
    it holds every member's records at once; each trajectory holds its member's slice,
    and all share one array of record steps.  A block is checked for finiteness as a
    whole; its first non-finite (step, member) raises :class:`ChainDivergedError`
    carrying that member's last finite state and its index.
    """
    schedule, shape, blocks = _record_blocks(cfg, models, loss_kind, datasets, seeds,
                                             init=init, init_states=init_states)
    rec_steps = np.arange(schedule.start, schedule.stop, schedule.step, dtype=np.int64)
    rec_coeffs = np.empty((len(models), len(schedule)) + shape)
    n_rec = 0
    while True:
        try:
            rows = next(blocks)
        except StopIteration as done:
            finals = done.value
            break
        rec_coeffs[:, n_rec:n_rec + rows.shape[1]] = rows
        n_rec += rows.shape[1]
    return [Trajectory(steps=rec_steps, coeffs=rec_coeffs[k], final_state=state)
            for k, state in enumerate(finals)]


def _record_blocks(cfg: DynamicsConfig, models, loss_kind, datasets, seeds, *,
                   init: str = "identity", init_states=None):
    """The stack of chains of :func:`run_chains` as a stream of blocks.

    Returns (the record steps as a range, one record's (n_modes, d_out), stream); a bad
    stack raises here, before any step runs.  The stream is a generator that runs the
    steps in blocks and yields each block's rows on the burn-in/thin schedule,
    (K, rows, n_modes, d_out), and skips a block that holds none.  The rows are a
    read-only view into the reused block buffer, valid only until the next block, so
    a consumer that keeps no record holds at most one block.  The generator's return
    value is the final :class:`ChainState` of each member.

    Each block's noise is drawn member by member into the block buffer when the block
    solve runs, as ``solve`` reads it before it writes the states there, and into a
    noise buffer of the same shape on the step-by-step path, where a step writes its
    state before it reads its noise.
    """
    if cfg.steps < 1:
        raise ValueError("steps must be >= 1")
    K = len(models)
    if K < 1 or len(datasets) != K or len(seeds) != K or \
            (init_states is not None and len(init_states) != K):
        raise ValueError("a stack of chains needs one model, one dataset and one seed per "
                         "member, and one initial state per member if any")
    starts = [_start(model, init, state)
              for model, state in zip(models, init_states or [None] * K)]
    step_no, gamma, shape = starts[0].step, starts[0].map.gamma, starts[0].map.coeffs.shape
    if any((s.step, s.map.gamma, s.map.coeffs.shape) != (step_no, gamma, shape) for s in starts):
        raise ValueError("the members of a stack of chains must start at one step, with "
                         "one gamma and one coefficient shape")
    bases = [_models.model_basis(model) for model in models]
    grad_fn = _models._stacked_grad(models, loss_kind, datasets, gamma)
    s_col = np.stack([cfg._resolvent(basis) for basis in bases])
    # eta as a 0-d array: numpy converts a Python-float operand again on every step
    eta, amp = np.array(float(cfg.eta)), cfg.noise_amp
    rngs = [np.random.default_rng(seed) for seed in seeds]

    def as_map(k, c):
        return _models.TransportMap(coeffs=c, basis=bases[k], gamma=gamma)

    coeffs = np.stack([s.map.coeffs for s in starts])
    m, d_out = shape
    rec_steps = _record_steps(step_no, step_no + cfg.steps, cfg.burn_in, cfg.thin)
    block = max(1, min(_BLOCK, _BLOCK_FLOATS // (K * m * d_out), cfg.steps))
    solve = _affine_solver(grad_fn, cfg, s_col, coeffs.shape, block)
    buf = np.empty((K, block, m, d_out))
    # the block solve reads a block's noise before it writes its states: one buffer for both
    noise = None if amp == 0.0 else buf if solve is not None else np.empty_like(buf)
    # the steps of one member run on its 2-D arrays, where each numpy call costs less
    if K == 1:
        step_out, step_noise, step_s = buf[0], None if noise is None else noise[0], s_col[0]
    else:
        step_out, step_s = buf.swapaxes(0, 1), s_col
        step_noise = None if noise is None else noise.swapaxes(0, 1)

    def stream(coeffs, step_no):
        n_rec = 0
        for start in range(0, cfg.steps, block):
            b = min(block, cfg.steps - start)
            # overflow on the way to divergence is handled by the finiteness check; the
            # errstate is left before the yield, so that it never reaches the consumer
            with np.errstate(over="ignore", invalid="ignore"):
                if noise is not None:
                    for rng, member_noise in zip(rngs, noise[:, :b]):
                        rng.standard_normal(out=member_noise)
                    noise[:, :b] *= amp
                if solve is None:
                    prev = coeffs[0] if K == 1 else coeffs
                    for i in range(b):
                        g = grad_fn(prev)
                        prev = _implicit_euler(prev, g, eta, step_s,
                                               None if noise is None else step_noise[i],
                                               out=step_out[i])
                else:
                    solve(coeffs, None if noise is None else noise[:, :b], buf[:, :b])
            if not np.isfinite(buf[:, :b]).all():
                raise _diverged(buf[:, :b], coeffs, step_no, as_map)
            rows = None
            if n_rec < len(rec_steps) and rec_steps[n_rec] <= step_no + b:
                rows = buf[:, rec_steps[n_rec] - step_no - 1:b:cfg.thin]
                rows.flags.writeable = False
                n_rec += rows.shape[1]
            coeffs = buf[:, b - 1].copy()
            step_no += b
            if rows is not None:
                yield rows
        return [ChainState(step=step_no, map=as_map(k, coeffs[k])) for k in range(K)]

    return rec_steps, shape, stream(coeffs, step_no)


def _start(model, init: str, state: Optional[ChainState]) -> ChainState:
    """``state``, or the map ``init`` of the model's basis at step 0."""
    if state is not None:
        return state
    return ChainState(step=0, map=initial_map(model, _models.model_basis(model), init))


def _diverged(states, before, step_no: int, as_map) -> ChainDivergedError:
    """The error for the first non-finite state of a block ``states`` (K, b, n_modes, d_out):
    its earliest step, and the lowest member at that step; ``before`` is the state before
    the block."""
    finite = np.isfinite(states).all(axis=(2, 3))
    first = np.where(finite.all(axis=1), finite.shape[1], finite.argmin(axis=1))
    k = int(first.argmin())
    bad = int(first[k])
    last = (states[k, bad - 1] if bad else before[k]).copy()
    return ChainDivergedError(ChainState(step=step_no + bad, map=as_map(k, last)),
                              member=k if len(states) > 1 else None)


def _affine_solver(grad_fn, cfg: DynamicsConfig, s_col, shape, block: int):
    """``solve(w, noise, out)`` for a stack of chains whose gradients are affine, or None.

    With ``grad_fn.affine()`` = (H, b), member k's coefficients x follow the linear
    recurrence x' = A x + S(eta b + noise) with A = S(I - eta H), S its resolvent
    diagonal.  A is similar to the symmetric S^1/2 (I - eta H) S^1/2 = Q diag(d) Q^T,
    so A = V diag(d) V^-1 with V = S^1/2 Q and V^-1 = Q^T S^-1/2, and each eigen
    coordinate u = V^-1 x is the AR(1) u' = d u + e that :func:`_ar1_blocks` solves,
    the members' coordinates side by side as its columns.  One batched ``eigh`` gives
    every member's Q and d.  None, for the step-by-step path, unless the gradients
    declare their affine form, the state has one column and max |d| < 1 over the stack.

    ``solve`` writes the states after ``w`` (K, n_modes, 1) into ``out``
    (K, rows, n_modes, 1), given the block's scaled noise (K, rows, n_modes, 1), or
    None when the amplitude is 0; ``noise`` may be ``out`` itself, as it is read in full
    before ``out`` is written.  Its workspace is (n_blocks, L, K, N) for blocks of L
    steps, and its gains (L, K, N), those of each distinct eigenvalue taken once, or
    (L, 1, N) when every member has the same eigenvalues.
    """
    affine = getattr(grad_fn, "affine", None)
    K, N, d_out = shape
    if affine is None or d_out != 1:
        return None
    # a one-member stack's gradient takes 2-D maps; its (H, b) gain the member axis here
    H, b_vec = (a.reshape((K,) + a.shape[-2:]) for a in affine())
    eta, r = float(cfg.eta), np.sqrt(s_col)                  # r: (K, N, 1)
    r_row = r.swapaxes(1, 2)
    d, Q = np.linalg.eigh(r * (np.eye(N) - eta * H) * r_row)
    if not np.abs(d).max() < 1.0:            # also refuses the nan of a non-finite H
        return None
    G = Q.swapaxes(1, 2) * r_row         # V^-1 S, and also V^T: x = V u is the row u @ G
    GT = G.swapaxes(1, 2)
    e0 = np.matmul(G, eta * b_vec)[..., 0]            # the drift's constant part, (K, N)
    L = min(_ar1_block_length(d), block)
    # the gains of each distinct eigenvalue once, (L, K, N), and (L, 1, N) when every member
    # has the same eigenvalues, as the chains of one task do
    values, which = np.unique(d, return_inverse=True)
    which = which.reshape(K, N)
    if (which == which[0]).all():
        which = which[:1]
    gains = tuple(gain[:, which] for gain in _ar1_gains(values, 1.0, L))
    n_blocks = -(-block // L)
    buf = np.empty((n_blocks, L, K, N))
    flat = buf.reshape(n_blocks * L, K, N)

    def solve(w, noise, out):
        rows = out.shape[1]
        e = flat[:rows]
        by_member = e.transpose(1, 0, 2)
        if noise is None:
            e[:] = e0
        else:
            np.matmul(noise[..., 0], GT, out=by_member)
            e += e0
        nb = -(-rows // L)
        flat[rows:nb * L] = 0.0
        u0 = np.matmul((w / r).swapaxes(1, 2), Q)            # V^-1 w, (K, 1, N)
        _ar1_blocks(buf[:nb], gains, u0[:, 0])
        np.matmul(by_member, G, out=out[..., 0])

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
    """Solve u_t = d u_{t-1} + scale*e_t in place over whole blocks ``x`` (nb, L, ...).

    ``x`` holds the inputs e_t; ``z`` is u before its first row.  Row j of a
    block is d^j * cumsum_i(d^-i * scale*e_i)_j + d^(j+1) * z_carry, z_carry the
    last row of the block before.  Each gain is (L, ...) and broadcasts against a row of
    blocks: the OU stream's are (L, m) for x (nb, L, m), the block solve's (L, K, N) or
    (L, 1, N) for x (nb, L, K, N).  Returns a copy of the last row.
    """
    gain_in, gain_out, gain_carry = gains
    x *= gain_in
    # add.accumulate is cumsum's own loop; cumsum's wrapper and method each left a varying
    # few KB of small allocations per run under tracemalloc
    np.add.accumulate(x, axis=1, out=x)
    x *= gain_out
    for b in range(len(x)):
        x[b] += gain_carry * z
        z = x[b, -1]
    return z.copy()


def _ou_sq_norm_blocks(cfg: DynamicsConfig, eigen: EigenSequence, n_steps: int,
                       rng: np.random.Generator):
    """The trace of :func:`simulate_ou_sq_norms` as a stream of chunks.

    Yields ``(start, norms)``: the squared norms of steps start .. start + len(norms) - 1,
    a read-only view into one reused buffer, valid only until the next chunk, so a
    consumer that keeps no trace holds one chunk.  The noise of each chunk is drawn
    after the consumer is done with the one before.
    """
    m = len(eigen)
    s = _resolvent_factor(cfg.eta, cfg.lam, eigen.mu)
    L = _ar1_block_length(s)
    gains = _ar1_gains(s, s * cfg.noise_amp, L)
    n_blocks = max(1, _BLOCK_FLOATS // (L * m))
    buf = np.empty((n_blocks, L, m))
    sq_norms = np.empty(n_blocks * L)
    # the chunks are slices of one read-only view: the flag's setter, run on each
    # chunk's view, also left a varying few KB of small allocations under tracemalloc
    read_only = sq_norms.view()
    read_only.flags.writeable = False
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
        np.sum(np.square(y, out=y), axis=1, out=sq_norms[:rows])
        yield start, read_only[:rows]


def simulate_ou_sq_norms(cfg: DynamicsConfig, eigen: EigenSequence, n_steps: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Trace of ||Z_n||^2 for the zero-gradient chain of ``cfg`` started at zero.

    Per mode the chain is the AR(1) z_t = s z_{t-1} + s*amp*eps_t, amp = cfg.noise_amp,
    solved by :func:`_ar1_blocks` with d = s in its own coordinates (V = I).  The
    noise is drawn in chunks of whole blocks into one buffer of at most ``_BLOCK_FLOATS``
    floats (one block at least), the same numbers as one (n_steps, n_modes)
    draw, so memory beyond the returned trace does not grow with n_steps.  The chunks
    are the stream of :func:`_ou_sq_norm_blocks`, which this function collects.
    """
    out = np.empty(n_steps)
    for start, norms in _ou_sq_norm_blocks(cfg, eigen, n_steps, rng):
        out[start:start + len(norms)] = norms
    return out


def gld_zero_grad_stationary_variance(cfg: DynamicsConfig, eigen: EigenSequence) -> np.ndarray:
    """Per-mode stationary variance of the zero-gradient chain.

    It is amp^2 s^2/(1 - s^2) = 2*mu_k/(beta*lam*(2 + eta*lam/mu_k)), amp^2 = 2*eta/beta,
    and tends to the reference-measure variance mu_k/(beta*lam) as eta -> 0.  At 2*beta
    its sum is, bit for bit, the stationary E||Z||^2 of the noise-only recursion at
    beta, which is at most c_mu/(beta*lam).
    """
    mu = eigen.mu
    return 2.0 * mu / (cfg.beta * cfg.lam * (2.0 + cfg.eta * cfg.lam / mu))
