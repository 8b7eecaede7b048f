"""Experiment presets: each one exercises a verifiable claim at desk scale.

Every preset is a pure function of (seed, config) returning a structured
result with per-criterion pass/fail lines and a results table; ``run_preset``
builds the config from the preset's defaults and the overrides and checks it
first.  The command line wraps the presets with CSV artifacts and exit codes,
and the acceptance suite runs the same presets and sweeps.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import analysis as an
from . import langevin as lg
from . import losses as ls
from . import models as md
from . import oracle as orc
from .spectral import (GaussianMeasureSpec, cosine_basis, eval_basis,
                       gram_eigenbasis, make_eigen_sequence)

__all__ = ["ExperimentResult", "CriterionResult", "PRESETS", "PRESET_DEFAULTS",
           "run_preset", "SWEEPABLE_AXES", "sweep", "sweep_fit"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: float
    threshold: str
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured={self.measured:.6g} required {self.threshold}  {self.detail}"


@dataclass
class ExperimentResult:
    preset: str
    seed: int
    criteria: list
    table_header: list
    table_rows: list
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def report_lines(self) -> list[str]:
        lines = [f"preset: {self.preset}", f"seed: {self.seed}"]
        lines += [c.line() for c in self.criteria]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


# declared override keys and defaults, one entry per preset; the command line
# validates override keys against this at config-parse time
PRESET_DEFAULTS = {
    "posterior-validate": dict(n_modes=8, n=50, eta=1e-3, burn_in=20_000,
                               kept=200_000, noise=0.2),
    "ou-moment": dict(steps=200_000, burn_in=20_000),
    "stepsize-bias": dict(etas=[0.2, 0.1, 0.05, 0.025], n_modes=3, n=24, beta=1.0,
                          lam=4.0, kept=300_000, ref_kept=1_200_000),
    "ergodicity": dict(n_modes=4, n=24, beta=5.0, lam=1.0, eta=0.05, steps=400,
                       n_pairs=32, gap_floor=1e-9),
    "grad-check": dict(n_configs=100, step=1e-5, tol=1e-5),
    "lipschitz-suite": dict(n_pairs=1000, n_grid=512, slack=1e-9),
    "bernstein-suite": dict(step=0.005, radii=[0.5, 1.0, 2.0]),
    "correlation-suite": dict(n_pairs=20, n_samples=1_000_000, max_dim=6),
    "regression-rate": dict(n=256, M=8, d=2, R=2.0, noise=0.2, eta=0.05, steps=8000,
                            burn_in=4000, thin=10),
    "classification-rate": dict(beta=100.0, n=300, n_modes=6, margin_amp=4.5, eta=0.05,
                                steps=30_000, burn_in=10_000, thin=50),
    "finite-width-demo": dict(M=8, d=2, n=48, R=2.0, eta=0.2, beta=1e6, lam=1e-5,
                              max_steps=20_000, budget=50_000, check_every=250,
                              teacher_scale=1.5),
    "wasserstein-demo": dict(n_source=24, n_modes=12, penalty=25.0, mmd_bandwidth=0.8,
                             eta=0.05, beta=1e5, lam=1e-6, steps=20_000, target_shift=1.0,
                             target_scale=0.5),
    "pac-bayes": dict(n_seeds=10, n=64, M=6, d=2, R=2.0, noise=0.2, eta=0.1, steps=4000,
                      burn_in=2000, thin=10, ref_eta_factor=0.25, ref_steps=12_000),
}


# the least value of a key, as (value, strict), in every preset that declares it and does
# not set its own in _CHECKS; other integer keys are counts or sizes, at least 1, and
# other float keys take any finite number
_LEAST = {"burn_in": (0, False), "eta": (0.0, False), "etas": (0.0, False),
          "beta": (0.0, True), "lam": (0.0, True), "R": (1.0, False), "noise": (0.0, False),
          "step": (0.0, True), "radii": (0.0, True), "ref_eta_factor": (0.0, True)}
# the most grid values per axis of a bernstein-suite radius, so at most 10^6 grid points
# per radius: any step >= 0.001 passes (the band is narrower than 1); the default 0.005
# gives at most 201 values
_BERNSTEIN_AXIS_CAP = 1000


@dataclass(frozen=True)
class _Checks:
    """One preset's entry of the rule table, as ``_merged`` reads it."""
    least: dict = field(default_factory=dict)
    records: tuple = ()
    rules: tuple = ()


_BETA_ABOVE_ETA = (("beta", "eta"), lambda p: p["beta"] > p["eta"], "'beta' > 'eta'")
_N_ABOVE_ETA = (("n", "eta"), lambda p: p["n"] > p["eta"],
                "'n' > 'eta' (the chain runs at beta = n)")
_D_IS_2 = (("d",), lambda p: p["d"] == 2,
           "be 2, the dimension of the unit disc its inputs are drawn from")
_CHECKS = {
    "posterior-validate": _Checks(records=(("kept", None, None, 2),), rules=(_N_ABOVE_ETA,)),
    "ou-moment": _Checks(records=(("steps", "burn_in", None, 2),)),
    "stepsize-bias": _Checks(
        records=(("kept", None, None, 2), ("ref_kept", None, None, 2)),
        rules=((("etas",), lambda p: len(p["etas"]) >= an.BIAS_FIT_MIN_POINTS,
                f"hold at least {an.BIAS_FIT_MIN_POINTS} step sizes for the bias fit"),
               (("beta", "etas"), lambda p: p["beta"] > max(p["etas"]),
                "'beta' > every step size of 'etas'"))),
    # it fits the decay of its gaps over its steps
    "ergodicity": _Checks(least={"steps": (an.DECAY_FIT_MIN_POINTS, False)},
                          rules=(_BETA_ABOVE_ETA,)),
    "grad-check": _Checks(),
    "lipschitz-suite": _Checks(),
    # a radius's grid holds floor((hi - lo) / step) + 1 values, at most the cap exactly when
    # (hi - lo) / step < cap; a float quotient turns a tiny step into inf, not an error
    "bernstein-suite": _Checks(rules=((
        ("step",), lambda p: max(float(hi - lo) for lo, hi in map(ls.feasible_band, p["radii"]))
        / p["step"] < _BERNSTEIN_AXIS_CAP,
        f"give at most {_BERNSTEIN_AXIS_CAP} grid values per axis at every radius of "
        "'radii' (10^6 grid points per radius; any step >= 0.001 does)"),)),
    # the oracle's covariance takes at least 2 samples
    "correlation-suite": _Checks(least={"n_samples": (2, False)}, rules=((
        ("max_dim",), lambda p: p["max_dim"] <= orc.CORRELATION_DIM_CAP,
        f"be <= {orc.CORRELATION_DIM_CAP}, the correlation oracle's dimension cap"),)),
    "regression-rate": _Checks(records=(("steps", "burn_in", "thin", 1),),
                               rules=(_D_IS_2, _N_ABOVE_ETA)),
    # the teacher sits on the second cosine mode
    "classification-rate": _Checks(least={"n_modes": (2, False)},
                                   records=(("steps", "burn_in", "thin", 1),),
                                   rules=(_BETA_ABOVE_ETA,)),
    "finite-width-demo": _Checks(records=(("max_steps", None, "check_every", 1),),
                                 rules=(_D_IS_2, _BETA_ABOVE_ETA)),
    "wasserstein-demo": _Checks(rules=((
        ("n_modes", "n_source"), lambda p: p["n_modes"] <= p["n_source"],
        "'n_modes' <= 'n_source' (its basis is built on the source points)"), _BETA_ABOVE_ETA)),
    # its reference chain runs at eta * ref_eta_factor, beta = n, and burns in 2 * burn_in
    "pac-bayes": _Checks(records=(("steps", "burn_in", "thin", 1),), rules=(
        (("n", "eta", "ref_eta_factor"), lambda p: p["n"] > p["eta"] * p["ref_eta_factor"],
         "'n' > 'eta' * 'ref_eta_factor'"),
        (("ref_steps", "burn_in", "thin"),
         lambda p: p["ref_steps"] - 2 * p["burn_in"] >= p["thin"],
         "'ref_steps' >= 2 * 'burn_in' + 'thin'"),
        _D_IS_2, _N_ABOVE_ETA)),
}


def _least(preset: str, key: str) -> tuple:
    """The least value of ``key`` in ``preset``, as (value, strict)."""
    fallback = (1, False) if isinstance(PRESET_DEFAULTS[preset][key], int) else (-math.inf, False)
    return _CHECKS[preset].least.get(key, _LEAST.get(key, fallback))


def _merged(preset: str, overrides: dict) -> dict:
    """The preset's defaults updated by overrides, checked against its entry of ``_CHECKS``.

    Unknown keys raise KeyError and bad values ValueError.  An override takes the type of
    its default: integer keys take integral numbers, float keys finite ones and list keys
    non-empty lists of finite numbers, each at least its ``_least``: the entry's ``least``,
    else ``_LEAST``.  Then each of the entry's ``rules`` (keys, holds, requirement) holds:
    ``holds(config)`` is true, and the requirement says what it asks of the one key
    ("must ...") or of the keys together ("need ...").  Last, each chain of its
    ``records``, as (steps, burn-in, thin) keys with None for no burn-in or no thinning,
    records at least the fewest samples named with it: 2 where the preset takes a
    batch-means stderr.
    """
    out, checks = dict(PRESET_DEFAULTS[preset]), _CHECKS[preset]
    for key, val in overrides.items():
        if key not in out:
            raise KeyError(f"unknown override key {key!r} for preset {preset!r}")
        out[key] = _coerced(preset, key, val)
    for keys, holds, requirement in checks.rules:
        if not holds(out):
            if len(keys) == 1:
                raise _refusal(preset, keys[0], f"must {requirement}, got {out[keys[0]]!r}")
            *given, last = [f"{k}={out[k]!r}" for k in keys]
            raise _refusal(preset, None, f"need {requirement}, got {', '.join(given)} and {last}")
    for steps, burn_in, thin, least in checks.records:
        records = max(out[steps] - out.get(burn_in, 0), 0) // out.get(thin, 1)
        if records < least:
            given = ", ".join(f"{k}={out[k]!r}" for k in (steps, burn_in, thin) if k)
            raise _refusal(preset, None, f"({given}) record {records} sample(s) of a chain, "
                                         f"fewer than the {least} it needs")
    return out


def _coerced(preset: str, key: str, val):
    """One override value as the type of its default, or the ValueError that refuses it."""
    if isinstance(PRESET_DEFAULTS[preset][key], list):
        if not (isinstance(val, (list, tuple)) and val and all(map(_is_number, val))):
            raise _refusal(preset, key, f"must be a non-empty list of numbers, got {val!r}")
        return [_number(preset, key, v) for v in val]
    return _number(preset, key, val)


def _number(preset: str, key: str, val):
    """A number of ``key``, an int where its default is one, at least its ``_least``."""
    if not _is_number(val):
        raise _refusal(preset, key, f"must be a number, got {val!r}")
    low, strict = _least(preset, key)
    try:
        number = float(val)
    except OverflowError:   # an integer no float holds
        number = math.inf
    if isinstance(PRESET_DEFAULTS[preset][key], int) and math.isfinite(number):
        if not number.is_integer() or number < low:
            raise _refusal(preset, key, f"must be an integer >= {low}, got {val!r}")
        return int(val)
    if not math.isfinite(number) or number < low or (strict and number == low):
        limit = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise _refusal(preset, key, f"must be a finite number{limit}, got {val!r}")
    return number


def _is_number(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


def _refusal(preset: str, key: Optional[str], clause: str) -> ValueError:
    """The error of a refused config: of one key, or of several with ``key`` None."""
    head = "overrides" if key is None else f"override {key!r}"
    return ValueError(f"{head} for preset {preset!r} {clause}")


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _linear_gaussian_setup(rng, p):
    """Coefficient-linear regression model on the unit interval, of ``p``'s n_modes, n
    and noise (0.2 where ``p`` has none)."""
    n_modes, n, noise = p["n_modes"], p["n"], p.get("noise", 0.2)
    basis = cosine_basis(n_modes, dim_in=1)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    base = np.array([0.9, 0.6, -0.45, 0.3, -0.22, 0.18, -0.12, 0.1, -0.08, 0.06])
    teacher = base[:n_modes] if n_modes <= base.size else np.resize(base, n_modes)
    x = rng.uniform(0, 1, (n, 1))
    f = eval_basis(basis, x) @ teacher
    y = f + rng.uniform(-noise, noise, n)
    return basis, model, md.Dataset(x=x, y=y), np.asarray(teacher, dtype=float)


def _disc_points(rng, n):
    """Uniform points in the unit disc."""
    r = np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _two_layer_setup(rng, M=8, d=2, R=2.0, D=1.0, bandwidth=1.0):
    cloud = md.finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M))
    model = md.ModelSpec(arch="two-layer", cloud=cloud,
                         clip=md.ClipConfig(R=R, input_bound_D=D))
    basis = gram_eigenbasis(cloud, bandwidth, M)
    return md.attach_basis(model, basis)


# ---------------------------------------------------------------------------
# preset: posterior-validate
# ---------------------------------------------------------------------------

def posterior_validate(seed, p):
    """Chain marginal against the exact conjugate posterior (linear-Gaussian case)."""
    rng = np.random.default_rng(seed)
    basis, model, data, _ = _linear_gaussian_setup(rng, p)
    beta, lam = float(p["n"]), 1.0 / p["n"]
    Phi = eval_basis(basis, data.x)
    post = orc.conjugate_posterior(basis, Phi, data.y, beta=beta, lam=lam)
    cfg = lg.DynamicsConfig(eta=p["eta"], beta=beta, lam=lam,
                            steps=p["burn_in"] + p["kept"], burn_in=p["burn_in"],
                            thin=1, seed=seed)
    # the chain's blocks feed the statistics as they are made: no record is kept
    steps, _, blocks = lg._record_blocks(cfg, [model], "squared", [data], [seed])
    stats = orc._BatchMeans(len(steps), p["n_modes"])
    for block in blocks:
        stats.add(block[0, :, :, 0])
    mean_vec, ses = stats.mean(), stats.stderr()
    header = ["mode", "chain_mean", "exact_mean", "stderr", "z"]
    rows, zs = [], []
    for k in range(p["n_modes"]):
        se = float(ses[k])
        z = (mean_vec[k] - post.mean[k, 0]) / se
        zs.append(abs(z))
        rows.append([k, mean_vec[k], post.mean[k, 0], se, z])
    rel = float(np.linalg.norm(mean_vec - post.mean[:, 0]) / np.linalg.norm(post.mean[:, 0]))
    criteria = [
        CriterionResult("posterior-mean-z", max(zs) <= 3.0, max(zs), "<= 3 per mode",
                        "batch-means z-scores against the conjugate posterior"),
        CriterionResult("posterior-mean-relerr", rel <= 0.05, rel, "<= 0.05",
                        "relative error of the chain mean vector"),
    ]
    return ExperimentResult("posterior-validate", seed, criteria, header, rows,
                            extras={"max_z": max(zs), "rel_err": rel})


# ---------------------------------------------------------------------------
# preset: ou-moment
# ---------------------------------------------------------------------------

def ou_moment(seed, p):
    """Noise-only recursion, the zero-gradient chain at 2*beta: MC vs closed-form E||Z||^2.

    Each config's squared norms past ``burn_in`` feed a running sum and batch means
    chunk by chunk as they are made (``langevin._ou_sq_norm_blocks``): no trace is kept.
    """
    rng = np.random.default_rng(seed)
    grid = [
        dict(eta=0.1, beta=1.0, lam=1.0, n_modes=1, c_mu=1.0),
        dict(eta=0.1, beta=2.0, lam=0.5, n_modes=4, c_mu=1.0),
        dict(eta=0.05, beta=1.0, lam=1.0, n_modes=8, c_mu=1.0),
        dict(eta=0.2, beta=4.0, lam=0.25, n_modes=4, c_mu=2.0),
        dict(eta=0.3, beta=1.5, lam=2.0, n_modes=6, c_mu=0.5),
        dict(eta=0.02, beta=0.5, lam=1.0, n_modes=3, c_mu=1.0),
        dict(eta=0.1, beta=8.0, lam=0.1, n_modes=8, c_mu=1.0),
        dict(eta=0.5, beta=2.0, lam=1.0, n_modes=2, c_mu=3.0),
        dict(eta=0.05, beta=0.8, lam=0.3, n_modes=5, c_mu=1.0),
        dict(eta=0.15, beta=3.0, lam=0.7, n_modes=7, c_mu=1.5),
    ]
    header = ["eta", "beta", "lam", "n_modes", "mc_mean", "stderr", "exact", "bound", "z"]
    rows, zs, bound_ok = [], [], True
    for g in grid:
        eigen = make_eigen_sequence(g["c_mu"], 2.0, g["n_modes"])
        cfg = lg.DynamicsConfig(eta=g["eta"], beta=2.0 * g["beta"], lam=g["lam"])
        stats = orc._BatchMeans(p["steps"] - p["burn_in"], 1)
        for start, norms in lg._ou_sq_norm_blocks(cfg, eigen, p["steps"], rng):
            stats.add(norms[max(0, p["burn_in"] - start):, None])
        exact = float(lg.gld_zero_grad_stationary_variance(cfg, eigen).sum())
        bound = eigen.c_mu / (g["beta"] * g["lam"])
        mc_mean, se = stats.mean()[0], float(stats.stderr()[0])
        z = (mc_mean - exact) / se
        zs.append(abs(z))
        bound_ok &= exact <= bound + 1e-15
        rows.append([g["eta"], g["beta"], g["lam"], g["n_modes"], mc_mean, se, exact, bound, z])
    criteria = [
        CriterionResult("ou-moment-z", max(zs) <= 3.0, max(zs), "<= 3 per config",
                        "MC mean vs closed form over the 10-config grid"),
        CriterionResult("ou-moment-bound", bound_ok, float(bound_ok), "exact <= c_mu/(beta*lam)"),
    ]
    return ExperimentResult("ou-moment", seed, criteria, header, rows,
                            extras={"max_z": max(zs)})


# ---------------------------------------------------------------------------
# preset: stepsize-bias
# ---------------------------------------------------------------------------

def stepsize_bias(seed, p):
    """Discretization bias of E||W||^2 against one small-step reference chain.

    The reference runs at eta_min/8; the biases over the eta grid are fitted
    log-log and the slope is the measured discretization order.
    """
    rng = np.random.default_rng(seed)
    _, model, data, _ = _linear_gaussian_setup(rng, p)

    def run(eta, steps, chain_seed):
        burn = int(min(steps // 5, 40.0 / max(eta, 1e-6)) + 2000)
        cfg = lg.DynamicsConfig(eta=eta, beta=p["beta"], lam=p["lam"],
                                steps=steps + burn, burn_in=burn, thin=1, seed=chain_seed)
        # each block's squared norms feed the statistics: no record is kept
        steps, _, blocks = lg._record_blocks(cfg, [model], "squared", [data], [chain_seed])
        stats = orc._BatchMeans(len(steps), 1)
        for block in blocks:
            stats.add(np.sum(np.square(block[0, :, :, 0]), axis=1)[:, None])
        return float(stats.mean()[0]), float(stats.stderr()[0])

    ref_mean, _ = run(min(p["etas"]) / 8.0, p["ref_kept"], seed + 1)
    rows = []
    for i, eta in enumerate(sorted(p["etas"], reverse=True)):
        m, se = run(eta, p["kept"], seed + 2 + i)
        rows.append([eta, m, se, abs(m - ref_mean)])
    _, _, slope, ok = _fit_row(_BIAS_FIT, [r[0] for r in rows], [r[3] for r in rows])
    crit = CriterionResult("stepsize-bias-slope", ok is True, slope,
                           "in [0.4, 1.2]", "log-log slope of |E||W||^2 - reference|")
    return ExperimentResult("stepsize-bias", seed, [crit],
                            ["eta", "mean_sq_norm", "stderr", "bias"], rows,
                            extras={"slope": slope})


# ---------------------------------------------------------------------------
# preset: ergodicity
# ---------------------------------------------------------------------------

def ergodicity(seed, p):
    """Coupled chains from distant starts: exponential decay of a test-function gap.

    Both chains of a pair have the same seed, so they read the same noise (a
    synchronous coupling) and the gap decays at the contraction rate of the drift;
    the ensemble-averaged gap of a bounded smooth test function is fitted
    log-linearly.  All pairs run as one stack of chains, whose blocks
    (``langevin._record_blocks``) are reduced to the gaps as they are made: no record
    is kept.
    """
    rng = np.random.default_rng(seed)
    basis, model, data, _ = _linear_gaussian_setup(rng, p)
    cfg = lg.DynamicsConfig(eta=p["eta"], beta=p["beta"], lam=p["lam"], steps=p["steps"])
    c_dir = rng.standard_normal(p["n_modes"])
    c_dir /= np.linalg.norm(c_dir)

    Wa = md.TransportMap(coeffs=md.identity_coeffs(model, basis), basis=basis)
    starts = []   # pair by pair: the chain from the identity map, then its distant start
    for _ in range(p["n_pairs"]):
        start_b = Wa.coeffs + 4.0 + rng.standard_normal(Wa.coeffs.shape)
        starts += [Wa, md.TransportMap(coeffs=start_b, basis=basis)]
    seeds = [seed * 1000 + pair for pair in range(p["n_pairs"]) for _ in range(2)]
    _, _, blocks = lg._record_blocks(cfg, [model] * len(starts), "squared",
                                     [data] * len(starts), seeds,
                                     init_states=[lg.ChainState(step=0, map=W) for W in starts])
    # every step is recorded: a block's rows are its steps, whose gaps are summed pair by
    # pair; matmul takes each member's products as that member's own (rows, n_modes) dot
    value_gaps = np.zeros(p["steps"])
    n_rec = 0
    for block in blocks:
        gaps = value_gaps[n_rec:n_rec + block.shape[1]]
        values = np.tanh(np.matmul(block[..., 0], c_dir))
        for pair_gap in np.abs(values[::2] - values[1::2]):
            gaps += pair_gap
        n_rec += block.shape[1]
    value_gaps /= p["n_pairs"]
    usable = value_gaps > p["gap_floor"]
    ks = np.arange(1, p["steps"] + 1)[usable]
    gaps = value_gaps[usable]
    if gaps.size >= an.DECAY_FIT_MIN_POINTS:
        rate, r2 = an.fit_geometric_decay(list(zip(ks, gaps)), eta=p["eta"])
    else:   # too few gaps above the floor to fit a decay: both criteria fail
        rate = r2 = float("nan")
    rows = [[int(k), g] for k, g in zip(ks, gaps)]
    criteria = [
        CriterionResult("ergodicity-r2", r2 >= 0.9, r2, ">= 0.9",
                        "log-linear fit quality of the coupled-gap decay"),
        CriterionResult("ergodicity-rate", rate > 0, rate, "> 0",
                        "decay rate in units of 1/(eta*k)"),
    ]
    return ExperimentResult("ergodicity", seed, criteria, ["step", "mean_gap"], rows,
                            extras={"rate": rate, "r2": r2})


# ---------------------------------------------------------------------------
# preset: grad-check
# ---------------------------------------------------------------------------

def _random_model_config(arch, rng):
    if arch == "two-layer":
        M, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        model = _two_layer_setup(rng, M=M, d=d, R=float(rng.uniform(1.0, 3.0)), D=3.0,
                                 bandwidth=float(rng.uniform(0.6, 1.6)))
        n = int(rng.integers(2, 9))
        data = md.Dataset(x=rng.standard_normal((n, d)) * 0.6, y=rng.standard_normal(n))
        gamma = float(rng.choice([0.0, 0.0, 1.0]))
        W = md.TransportMap(coeffs=rng.standard_normal((M, d + 1)), basis=model.basis, gamma=gamma)
        return model, W, data
    if arch == "identity":
        N = int(rng.integers(3, 10))
        basis = cosine_basis(N, dim_in=1)
        model = md.ModelSpec(arch="identity-map", basis=basis)
        n = int(rng.integers(2, 12))
        data = md.Dataset(x=rng.uniform(0, 1, (n, 1)), y=rng.standard_normal(n))
        gamma = float(rng.choice([0.0, 0.5]))
        W = md.TransportMap(coeffs=rng.standard_normal((N, 1)), basis=basis, gamma=gamma)
        return model, W, data
    if arch == "resnet":
        M, d, T = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
        cloud = md.finite_width_cloud(rng.standard_normal((M, d)), rng.uniform(-1, 1, M),
                                      a_vec=rng.standard_normal((M, d)) / np.sqrt(d))
        basis = gram_eigenbasis(cloud, 1.0, M, include_a=False)
        model = md.ModelSpec(arch="resnet", cloud=cloud,
                             clip=md.ClipConfig(R=2.0, input_bound_D=3.0),
                             basis=basis, resnet_blocks=T)
        n = int(rng.integers(2, 6))
        data = md.Dataset(x=rng.standard_normal((n, d)) * 0.5, y=rng.standard_normal(n))
        W = md.TransportMap(coeffs=rng.standard_normal((M, T * d)) * 0.7, basis=basis)
        return model, W, data
    raise ValueError(arch)


def grad_check(seed, p):
    """Analytic gradients against central finite differences, per architecture."""
    header = ["arch", "config", "rel_err"]
    rows, criteria = [], []
    # each architecture draws from its own stream, keyed by its position here
    for k, arch in enumerate(("two-layer", "identity", "resnet")):
        rng = np.random.default_rng([seed, k])
        worst = 0.0
        for i in range(p["n_configs"]):
            model, W, data = _random_model_config(arch, rng)
            loss = "squared" if i % 2 == 0 else "logistic"
            if loss == "logistic":
                data = md.Dataset(x=data.x, y=np.where(data.y >= 0, 1.0, -1.0))
            g = md.gradient(model, W, data, loss)
            fd = orc.finite_diff_grad(model, loss, data, W, step=p["step"])
            rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-10))
            worst = max(worst, rel)
            rows.append([arch, i, rel])
        criteria.append(CriterionResult(f"grad-check-{arch}", worst <= p["tol"], worst,
                                        f"<= {p['tol']:g}", "max relative error"))
    return ExperimentResult("grad-check", seed, criteria, header, rows,
                            extras={"max_rel_err": max(r[2] for r in rows)})


# ---------------------------------------------------------------------------
# preset: lipschitz-suite
# ---------------------------------------------------------------------------

def lipschitz_suite(seed, p):
    """Sup-norm/map-distance inequality on random clipped two-layer pairs."""
    rng = np.random.default_rng(seed)
    header = ["pair", "lhs", "rhs", "margin"]
    rows = []
    violations = 0
    worst_margin = -np.inf
    for i in range(p["n_pairs"]):
        M, d = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        D = float(rng.uniform(0.5, 2.0))
        model = _two_layer_setup(rng, M=M, d=d, R=float(rng.uniform(1.0, 3.0)), D=D,
                                 bandwidth=float(rng.uniform(0.6, 1.5)))
        Wa = md.TransportMap(coeffs=rng.standard_normal((M, d + 1)) * 2, basis=model.basis)
        Wb = md.TransportMap(coeffs=rng.standard_normal((M, d + 1)) * 2, basis=model.basis)
        grid = rng.standard_normal((p["n_grid"], d))
        norms = np.linalg.norm(grid, axis=1)
        grid *= (D * rng.uniform(0, 1, grid.shape[0]) ** (1.0 / d) / np.maximum(norms, 1e-12))[:, None]
        lhs, rhs = md.lipschitz_gap(model, Wa, Wb, grid)
        margin = lhs - rhs
        worst_margin = max(worst_margin, margin)
        if margin > p["slack"]:
            violations += 1
        rows.append([i, lhs, rhs, margin])
    crit = CriterionResult("lipschitz-violations", violations == 0, violations,
                           "= 0", f"worst margin {worst_margin:.3g} (slack {p['slack']:g})")
    return ExperimentResult("lipschitz-suite", seed, [crit], header, rows,
                            extras={"violations": violations, "worst_margin": worst_margin})


# ---------------------------------------------------------------------------
# preset: bernstein-suite
# ---------------------------------------------------------------------------

def bernstein_suite(seed, p):
    """Exhaustive grid check of the squared-log-ratio inequality."""
    header = ["R", "grid_points", "violations", "max_gap"]
    rows = []
    total_viol = 0
    for R in p["radii"]:
        lo, hi = ls.feasible_band(R)
        grid = np.arange(lo, hi + 1e-12, p["step"])
        grid = grid[(grid >= lo) & (grid <= hi)]
        P, Q = np.meshgrid(grid, grid, indexing="ij")
        lhs, rhs, ok = ls.bernstein_check(P.ravel(), Q.ravel(), R)
        viol = int(np.sum(~ok))
        total_viol += viol
        rows.append([R, P.size, viol, float(np.max(lhs - rhs))])
    crit = CriterionResult("bernstein-violations", total_viol == 0, total_viol, "= 0",
                           f"grids at step {p['step']:g} for R in {p['radii']}")
    return ExperimentResult("bernstein-suite", seed, [crit], header, rows,
                            extras={"violations": total_viol})


# ---------------------------------------------------------------------------
# preset: correlation-suite
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def correlation_suite(seed, p):
    """Monte-Carlo probe of the product inequality for centered ellipsoids.

    Every pair's ``(dim, a, b)`` is drawn first from ``default_rng(seed)``;
    pair i then samples from its own stream, child i of
    ``SeedSequence(seed).spawn(n_pairs)``.  The pairs run in a thread pool of
    one worker per usable CPU (most of their time is in random-number fills
    and reductions that release the interpreter lock) and are collected in
    pair order, so the rows depend on (seed, overrides) alone, whatever the
    worker count; a pair's config and estimate do not depend on ``n_samples``
    or ``n_pairs`` either.
    """
    # imported here: concurrent.futures loads logging, which the other presets never need
    from concurrent.futures import ThreadPoolExecutor

    n_pairs, n_samples = p["n_pairs"], p["n_samples"]
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        dim = int(rng.integers(1, p["max_dim"] + 1))
        a = rng.uniform(0, 8, dim) * rng.integers(0, 2, dim)
        b = rng.uniform(0, 8, dim)
        pairs.append((dim, a, b))
    streams = np.random.SeedSequence(seed).spawn(n_pairs)

    def estimate(pair, stream):
        dim, a, b = pair
        spec = GaussianMeasureSpec(beta=1.0, lam=1.0, eigen=make_eigen_sequence(1.0, 2.0, dim))
        return orc.gaussian_correlation_mc(spec, a, b, n_samples, np.random.default_rng(stream))

    with ThreadPoolExecutor(max_workers=min(n_pairs, _usable_cpus())) as pool:
        estimates = list(pool.map(estimate, pairs, streams))
    header = ["pair", "dim", "p_both", "p_product", "stderr", "margin_in_se"]
    rows = []
    ok_all = True
    for i, ((dim, _, _), est) in enumerate(zip(pairs, estimates)):
        margin = (est.p_both - est.p_product) / max(est.stderr, 1e-300)
        ok = est.p_both >= est.p_product - 3.0 * est.stderr
        ok_all &= ok
        rows.append([i, dim, est.p_both, est.p_product, est.stderr, margin])
    crit = CriterionResult("correlation-inequality", ok_all, float(ok_all),
                           "P(A&B) >= P(A)P(B) - 3se each pair")
    return ExperimentResult("correlation-suite", seed, [crit], header, rows,
                            extras={"all_ok": ok_all})


# ---------------------------------------------------------------------------
# preset: regression-rate
# ---------------------------------------------------------------------------

def _regression_task(seed, p):
    """Teacher-in-model clipped two-layer network of ``p``'s M, d and R; fixed across n."""
    model = _two_layer_setup(np.random.default_rng(seed), M=p["M"], d=p["d"], R=p["R"],
                             D=1.0, bandwidth=1.0)
    return model, md.TransportMap(coeffs=md.identity_coeffs(model, model.basis),
                                  basis=model.basis)


def _regression_data(rng, n, noise, model, teacher):
    """n noisy teacher values at uniform points of the unit disc."""
    x = _disc_points(rng, n)
    return md.Dataset(x=x, y=md.forward(model, teacher, x) + rng.uniform(-noise, noise, n))


def _regression_setup(seed, p):
    """regression-rate's network, its teacher and its n training points."""
    model, teacher = _regression_task(seed, p)
    data_rng = np.random.default_rng(seed + 10 * p["n"])
    return model, teacher, _regression_data(data_rng, p["n"], p["noise"], model, teacher)


def regression_rate(seed, p):
    """Excess risk of the chain-averaged posterior at one sample size."""
    model, teacher, data = _regression_setup(seed, p)
    test_x = _disc_points(np.random.default_rng(seed + 777), 2048)
    f_star = md.forward(model, teacher, test_x)
    beta, lam = float(p["n"]), 1.0 / p["n"]
    cfg = lg.DynamicsConfig(eta=p["eta"], beta=beta, lam=lam,
                            steps=p["steps"], burn_in=p["burn_in"], thin=p["thin"], seed=seed)
    traj = lg.run_chain(cfg, model, "squared", data, init="zero")
    # the squared loss against f* on the test points is the squared error of each record
    excess = float(np.mean(traj.risk(model, "squared", md.Dataset(x=test_x, y=f_star))))
    final = md.TransportMap(coeffs=traj.coeffs[-1], basis=model.basis)
    rows = [[p["n"], excess, md.empirical_risk(model, final, "squared", data)]]
    return ExperimentResult("regression-rate", seed, [],
                            ["n", "excess_risk", "final_train_loss"], rows,
                            extras={"excess_risk": excess, "n": p["n"]})


# ---------------------------------------------------------------------------
# preset: classification-rate
# ---------------------------------------------------------------------------

def _classification_task(seed, p):
    """Low-noise binary task on two bands of the unit interval, of ``p``'s n_modes,
    margin_amp and n."""
    basis = cosine_basis(p["n_modes"], dim_in=1)
    model = md.ModelSpec(arch="identity-map", basis=basis)
    teacher = np.zeros(p["n_modes"])
    teacher[1] = p["margin_amp"]  # f*(x) = margin_amp * sqrt(2) cos(pi x)
    rng = np.random.default_rng(seed)
    bands = [(0.05, 0.42), (0.58, 0.95)]

    def sample_x(m, r):
        side = r.integers(0, 2, m)
        u = r.uniform(0, 1, m)
        lo = np.where(side == 0, bands[0][0], bands[1][0])
        hi = np.where(side == 0, bands[0][1], bands[1][1])
        return (lo + u * (hi - lo))[:, None]

    x = sample_x(p["n"], rng)
    f_star = eval_basis(basis, x) @ teacher
    prob1 = 1.0 / (1.0 + np.exp(-f_star))
    y = np.where(rng.uniform(0, 1, p["n"]) < prob1, 1.0, -1.0)
    grid = np.concatenate([np.linspace(*bands[0], 200), np.linspace(*bands[1], 200)])[:, None]
    f_grid = eval_basis(basis, grid) @ teacher
    probs_grid = 1.0 / (1.0 + np.exp(-f_grid))
    bayes = lambda X: np.sign(eval_basis(basis, X) @ teacher)
    return model, md.Dataset(x=x, y=y), grid, probs_grid, bayes


def classification_rate(seed, p):
    """Misclassification probability of posterior samples at one temperature; the
    criterion audits the task's low-noise margin, min |P(Y=1|x) - 1/2| >= 0.3."""
    model, data, grid, probs_grid, bayes = _classification_task(seed, p)
    noise_gap = float(np.min(np.abs(probs_grid - 0.5)))
    beta = p["beta"]
    cfg = lg.DynamicsConfig(eta=p["eta"], beta=beta, lam=1.0 / beta,
                            steps=p["steps"], burn_in=p["burn_in"], thin=p["thin"], seed=seed)
    traj = lg.run_chain(cfg, model, "logistic", data, init="zero")
    maps = [md.TransportMap(coeffs=c, basis=model.basis) for c in traj.coeffs]
    err = an.classification_error_prob(maps, model, bayes, grid)
    rows = [[beta, err, noise_gap, len(maps)]]
    crit = CriterionResult("classification-low-noise-audit", noise_gap >= 0.3, noise_gap,
                           ">= 0.3", "min |P(Y=1|x) - 1/2| on the generator grid")
    return ExperimentResult("classification-rate", seed, [crit],
                            ["beta", "error_prob", "low_noise_gap", "n_samples"], rows,
                            extras={"error_prob": err, "beta": beta, "low_noise_gap": noise_gap})


# ---------------------------------------------------------------------------
# preset: finite-width-demo
# ---------------------------------------------------------------------------

def _finite_width_task(seed, p):
    """The network and its noiseless teacher data."""
    rng = np.random.default_rng(seed)
    model = _two_layer_setup(rng, M=p["M"], d=p["d"], R=p["R"], D=1.0)
    teacher_coeffs = rng.standard_normal((model.basis.n_modes, p["d"] + 1)) \
        * p["teacher_scale"] * np.sqrt(model.basis.mu)[:, None]
    teacher = md.TransportMap(coeffs=teacher_coeffs, basis=model.basis)
    x = _disc_points(rng, p["n"])
    return model, md.Dataset(x=x, y=md.forward(model, teacher, x))


def finite_width_demo(seed, p):
    """Fixed-width training: 8 particles, loss must fall to a tenth.

    The teacher is another map over the same cloud with coefficients scaled
    by sqrt(mu) so it has moderate RKHS norm (the regularized optimum then
    sits close to it); the step budget of the claim is 5*10^4 but the drop
    happens within the first few thousand steps.
    """
    model, data = _finite_width_task(seed, p)
    cfg = lg.DynamicsConfig(eta=p["eta"], beta=p["beta"], lam=p["lam"], steps=p["max_steps"],
                            burn_in=0, thin=p["check_every"], seed=seed)
    W0 = lg.initial_map(model, model.basis, "zero")
    init_loss = md.empirical_risk(model, W0, "squared", data)
    traj = lg.run_chain(cfg, model, "squared", data, init="zero")
    loss = traj.risk(model, "squared", data)
    below = np.nonzero(loss < 0.1 * init_loss)[0]
    steps_needed = int(traj.steps[below[0]]) if below.size else p["budget"] + 1
    crit = CriterionResult("finite-width-loss-drop",
                           below.size > 0 and steps_needed <= p["budget"],
                           float(steps_needed),
                           f"loss < 0.1x initial within {p['budget']} steps",
                           f"initial {init_loss:.4g}, final {loss[-1]:.4g}")
    rows = [[int(s), float(l)] for s, l in zip(traj.steps, loss)]
    return ExperimentResult("finite-width-demo", seed, [crit], ["step", "train_loss"], rows,
                            extras={"steps_needed": steps_needed, "init_loss": init_loss})


# ---------------------------------------------------------------------------
# preset: wasserstein-demo
# ---------------------------------------------------------------------------

def wasserstein_demo(seed, p):
    """Soft transport-map fit between two 1-d Gaussian samples."""
    rng = np.random.default_rng(seed)
    src = rng.standard_normal((p["n_source"], 1))
    tgt = p["target_scale"] * rng.standard_normal((p["n_source"], 1)) + p["target_shift"]
    cloud = md.finite_width_cloud(src, np.zeros(p["n_source"]))
    basis = gram_eigenbasis(cloud, 0.3, p["n_modes"], include_a=False)
    model = md.ModelSpec(arch="wasserstein", basis=basis, cloud=cloud,
                         wasserstein_penalty=p["penalty"], mmd_bandwidth=p["mmd_bandwidth"])
    data = md.Dataset(x=src, y=tgt)
    cfg = lg.DynamicsConfig(eta=p["eta"], beta=p["beta"], lam=p["lam"], steps=p["steps"],
                            burn_in=0, thin=max(p["steps"] // 40, 1), seed=seed)
    W0 = lg.initial_map(model, basis, "identity")
    init_obj = md.empirical_risk(model, W0, "squared", data)
    traj = lg.run_chain(cfg, model, "squared", data)
    objective = traj.risk(model, "squared", data)
    final_obj = float(objective[-1])
    crit = CriterionResult("wasserstein-objective-decrease", final_obj < 0.5 * init_obj,
                           final_obj, f"< 0.5x initial ({init_obj:.4g})",
                           "soft transport objective after training")
    rows = [[int(s), float(l)] for s, l in zip(traj.steps, objective)]
    return ExperimentResult("wasserstein-demo", seed, [crit], ["step", "objective"], rows,
                            extras={"init_obj": init_obj, "final_obj": final_obj})


# ---------------------------------------------------------------------------
# preset: pac-bayes (runs on the regression machinery)
# ---------------------------------------------------------------------------

def _pac_bayes_task(s, p):
    """Seed s's network, its n training points and 4n test points from one stream."""
    model, teacher = _regression_task(s, p)
    data_rng, n = np.random.default_rng(s + 5000), p["n"]
    return model, *(_regression_data(data_rng, m, p["noise"], model, teacher) for m in (n, 4 * n))


def pac_bayes(seed, p):
    """Bound vs observed train/test gap on seeds ``seed .. seed + n_seeds - 1``, with the
    optimization term replaced by the measured chain-vs-reference gap."""
    n, n_seeds = p["n"], p["n_seeds"]
    beta, lam, R_bar = float(n), 1.0 / n, ls.clipped_loss_range(p["R"], p["noise"])
    seeds = range(seed, seed + n_seeds)
    models, datas, tests = zip(*(_pac_bayes_task(s, p) for s in seeds))
    cfg = lg.DynamicsConfig(eta=p["eta"], beta=beta, lam=lam,
                            steps=p["steps"], burn_in=p["burn_in"], thin=p["thin"], seed=seed)
    cfg_ref = replace(cfg, eta=p["eta"] * p["ref_eta_factor"], steps=p["ref_steps"],
                      burn_in=p["burn_in"] * 2)
    # two stacks of one member per seed: the chains, then their references (seed s + 1)
    trajs = lg.run_chains(cfg, models, "squared", datas, list(seeds), init="zero")
    refs = lg.run_chains(cfg_ref, models, "squared", datas, [s + 1 for s in seeds], init="zero")
    rows = []
    for s, model, data, test, traj, ref in zip(seeds, models, datas, tests, trajs, refs):
        train = traj.risk(model, "squared", data)
        xi_hat = abs(float(train.mean()) - float(ref.risk(model, "squared", data).mean()))
        bound = an.pac_bayes_bound(R_bar, beta, n, delta=0.5, Xi_k=xi_hat)
        gap = float(traj.risk(model, "squared", test).mean() - train.mean())
        rows.append([s, gap, xi_hat, bound, int(bound >= gap)])
    ok_all = all(row[-1] for row in rows)
    crit = CriterionResult("pac-bayes-bound-holds", ok_all, float(ok_all),
                           "bound >= observed gap for every seed", f"{n_seeds} seeds at n={n}")
    return ExperimentResult("pac-bayes", seed, [crit],
                            ["seed", "observed_gap", "xi_hat", "bound", "ok"], rows,
                            extras={"all_ok": ok_all})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

PRESETS: dict[str, Callable] = {
    "posterior-validate": posterior_validate,
    "ou-moment": ou_moment,
    "stepsize-bias": stepsize_bias,
    "ergodicity": ergodicity,
    "grad-check": grad_check,
    "lipschitz-suite": lipschitz_suite,
    "bernstein-suite": bernstein_suite,
    "correlation-suite": correlation_suite,
    "regression-rate": regression_rate,
    "classification-rate": classification_rate,
    "finite-width-demo": finite_width_demo,
    "wasserstein-demo": wasserstein_demo,
    "pac-bayes": pac_bayes,
}

SWEEPABLE_AXES = ("n", "beta", "eta", "lam", "M", "n_modes")


def run_preset(name: str, seed: int = 0, overrides: Optional[dict] = None) -> ExperimentResult:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    return PRESETS[name](seed, _merged(name, overrides or {}))


def _audit_setup(preset: str, seed: int, overrides: dict):
    """(model, loss kind, dataset, class probabilities or None) that ``preset`` trains on at
    (seed, overrides), for the assumption audit; None for a preset with no such setup."""
    p = _merged(preset, overrides)
    if preset in ("posterior-validate", "stepsize-bias", "ergodicity"):
        _, model, data, _ = _linear_gaussian_setup(np.random.default_rng(seed), p)
    elif preset == "classification-rate":
        model, data, _, probs, _ = _classification_task(seed, p)
        return model, "logistic", data, probs
    elif preset == "regression-rate":
        model, _, data = _regression_setup(seed, p)
    elif preset == "finite-width-demo":
        model, data = _finite_width_task(seed, p)
    elif preset == "pac-bayes":   # the first seed's network and training set
        model, data, _ = _pac_bayes_task(seed, p)
    else:
        return None
    return model, "squared", data, None


# ---------------------------------------------------------------------------
# sweeps: one run loop, one fit per (preset, axis)
# ---------------------------------------------------------------------------

def _regression_rule(ns, risks):
    slope = an.excess_risk_rate_fit(ns, risks)
    return "excess-risk-slope", slope, slope <= -0.5


def _classification_rule(betas, errs):
    """Exactly zero error at the largest beta passes and zero error at a
    smaller beta only fails; otherwise log error must fall with beta."""
    betas, errs = np.asarray(betas, dtype=float), np.asarray(errs, dtype=float)
    if errs[np.argmax(betas)] == 0.0:
        return "log-error-beta", 0.0, True
    if np.any(errs == 0.0):
        return "zero-error-below-max-beta", float("nan"), False
    corr = float(np.corrcoef(betas, np.log(errs))[0, 1])
    return "log-error-beta-corr", corr, corr <= -0.9


def _bias_rule(etas, biases):
    slope = an.fit_stepsize_bias(etas, biases)
    return "bias-slope", slope, 0.4 <= slope <= 1.2


# a fit: (fewest values it needs, its name when there are fewer, rule
# (values, ys) -> (name, measured, verdict)).  stepsize-bias fits the biases of
# its own eta grid, and is no sweep.
_BIAS_FIT = (an.BIAS_FIT_MIN_POINTS, "bias-slope", _bias_rule)
# (preset, axis) -> (extras key of each run, *fit)
_SWEEP_FITS = {
    ("regression-rate", "n"): ("excess_risk", an.RATE_FIT_MIN_POINTS, "excess-risk-slope",
                               _regression_rule),
    ("classification-rate", "beta"): ("error_prob", 3, "log-error-beta-corr",
                                      _classification_rule),
}


def _sweep_run(preset: str, seed: int, overrides: dict) -> ExperimentResult:
    """One value of a sweep: a module-level function, so that a worker process can be
    handed it by name whatever ``run_preset`` is bound to."""
    return run_preset(preset, seed, overrides)


def sweep(preset: str, axis: str, values, seed: int = 0, overrides: Optional[dict] = None):
    """Run a preset once per value of one override key: (results, fit row).

    The values run in forked worker processes, one per usable CPU up to the number
    of values (in this process when that is one, or where there is no fork).  The
    results come back in value order, so they equal a serial run's, and the first
    error in value order is raised as the serial loop would raise it.  A worker's
    warnings print from the worker.
    """
    # imported here: concurrent.futures loads logging, which the other presets never need
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from contextlib import ExitStack

    runs = [{**(overrides or {}), axis: v} for v in values]
    workers = min(len(runs), _usable_cpus())
    # fork, not the platform's default start method: spawn and forkserver import the
    # package again in every worker, and lose whatever the caller has rebound in it
    fork = workers > 1 and "fork" in multiprocessing.get_all_start_methods()
    with ExitStack() as stack:   # leaving it shuts the pool down and joins its workers
        mapper = stack.enter_context(ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"))).map if fork else map
        results = list(mapper(_sweep_run, [preset] * len(runs), [seed] * len(runs), runs))
    return results, sweep_fit(preset, axis, values, results)


def sweep_fit(preset: str, axis: str, values, results: list[ExperimentResult]):
    """Fit row ``["fit", name, measured, verdict]``; the verdict is True or
    False, or a string when there is no fit or too few values for one."""
    if (preset, axis) not in _SWEEP_FITS:
        return ["fit", "none", float("nan"), "no fit defined for this preset/axis"]
    key, *fit = _SWEEP_FITS[preset, axis]
    return _fit_row(fit, values, [r.extras[key] for r in results])


def _fit_row(fit, values, ys) -> list:
    min_points, name, rule = fit
    if len(values) < min_points:
        return ["fit", name, float("nan"), "insufficient-points"]
    return ["fit", *rule(values, ys)]
