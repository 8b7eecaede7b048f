"""Theory diagnostics: convergence constants, generalization bound, rate fits.

The displayed constants of the geometric-ergodicity bound are evaluated
literally from their formulas; two of them (the overall prefactor and the
excess-risk constant) are unspecified in the underlying analysis, so every
quantity depending on them is reported up to that constant and never used as
a pass/fail threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .spectral import EigenSequence, _resolvent_factor

__all__ = [
    "Prop1Constants",
    "prop1_constants",
    "xi_k_bracket",
    "pac_bayes_bound",
    "fit_geometric_decay",
    "fit_stepsize_bias",
    "EpsilonStar",
    "epsilon_star",
    "ridge_bias_term",
    "truncation_for_bias",
    "excess_risk_rate_fit",
    "classification_error_prob",
    "AssumptionReport",
    "assumption_audit",
]


@dataclass(frozen=True)
class Prop1Constants:
    """Constants of the geometric-ergodicity bound.

    rho          per-step contraction 1/(1 + lam*eta/mu_0),
    b            (mu_0/lam)*B + c_mu/(beta*lam),
    b_bar        max(b, 1),
    kappa        b_bar + 1,
    V_bar        4*b_bar / (sqrt((1+rho^(1/eta))/2) - rho^(1/eta)),
                 with rho^(1/eta) replaced by exp(-lam/mu_1) at eta = 0,
    Lambda_star  min(lam/(2 mu_0), 1/2) * delta / (4 log(kappa (V_bar+1)/(1-delta))),
    C_W0         kappa (V_bar+1) + sqrt(2)(R_bar + b)/sqrt(delta).
    """

    rho: float
    b: float
    b_bar: float
    kappa: float
    V_bar: float
    Lambda_star: float
    C_W0: float
    delta_used: float


def prop1_constants(eta: float, beta: float, lam: float, mu_0: float, mu_1: float,
                    c_mu: float, B: float, R_bar: float, delta: float = 0.5) -> Prop1Constants:
    """Evaluate the displayed ergodicity constants at the given parameters.

    delta is caller-supplied: the theory only pins its order of magnitude, so
    a conventional default of 0.5 is used for diagnostics.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if min(beta, lam, mu_0, mu_1, c_mu) <= 0 or eta < 0:
        raise ValueError("beta, lam, mu_0, mu_1, c_mu must be positive and eta >= 0")
    if not beta > eta:
        raise ValueError("beta must exceed eta")
    rho = _resolvent_factor(eta, lam, mu_0)
    b = (mu_0 / lam) * B + c_mu / (beta * lam)
    b_bar = max(b, 1.0)
    kappa = b_bar + 1.0
    x = np.exp(-lam / mu_1) if eta == 0.0 else rho ** (1.0 / eta)
    denom = np.sqrt((1.0 + x) / 2.0) - x
    V_bar = 4.0 * b_bar / denom
    log_arg = kappa * (V_bar + 1.0) / (1.0 - delta)
    if log_arg <= 1.0:
        raise ValueError("delta incompatible with the constants: log argument <= 1")
    Lambda_star = min(lam / (2.0 * mu_0), 0.5) * delta / (4.0 * np.log(log_arg))
    C_W0 = kappa * (V_bar + 1.0) + np.sqrt(2.0) * (R_bar + b) / np.sqrt(delta)
    return Prop1Constants(rho=rho, b=b, b_bar=b_bar, kappa=kappa, V_bar=float(V_bar),
                          Lambda_star=float(Lambda_star), C_W0=float(C_W0), delta_used=delta)


def xi_k_bracket(const_eta: Prop1Constants, const_eta0: Prop1Constants,
                 eta: float, k: int, beta: float, a: float = 0.1) -> float:
    """Shape of the optimization-error term, up to the unspecified prefactor:

        C_W0 * exp(-Lambda_star * eta * k) + sqrt(beta)/Lambda_star(0) * eta^(1/2 - a).
    """
    if not (0.0 < a < 0.25):
        raise ValueError("a must lie in (0, 1/4)")
    return float(const_eta.C_W0 * np.exp(-const_eta.Lambda_star * eta * k)
                 + np.sqrt(beta) / const_eta0.Lambda_star * eta ** (0.5 - a))


def pac_bayes_bound(R_bar: float, beta: float, n: int, delta: float, Xi_k: float = 0.0) -> float:
    """Additive generalization-gap bound

        (R_bar^2/sqrt(n)) * [2*(1 + 2*beta/sqrt(n)) + log((1 + e^(R_bar^2/2))/delta)] + 2*Xi_k.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    rn = np.sqrt(n)
    log_term = np.logaddexp(0.0, R_bar ** 2 / 2.0) - np.log(delta)
    return float(R_bar ** 2 / rn * (2.0 * (1.0 + 2.0 * beta / rn) + log_term) + 2.0 * Xi_k)


# the fewest points each log-linear fit below takes
DECAY_FIT_MIN_POINTS = 4   # fit_geometric_decay's (k, gap) pairs
BIAS_FIT_MIN_POINTS = 3    # fit_stepsize_bias's step sizes
RATE_FIT_MIN_POINTS = 4    # excess_risk_rate_fit's sample sizes


def _loglinear_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ys against xs plus the r^2 of the fit."""
    A = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


def fit_geometric_decay(series, eta: float = 1.0) -> tuple[float, float]:
    """Fit gap_k ~ C * exp(-rate * eta * k); returns (rate, r_squared).

    ``series`` is a sequence of (k, gap) pairs with positive gaps.
    """
    arr = np.asarray(list(series), dtype=float)
    if arr.shape[0] < DECAY_FIT_MIN_POINTS:
        raise ValueError(f"need at least {DECAY_FIT_MIN_POINTS} points")
    ks, gaps = arr[:, 0], arr[:, 1]
    if np.any(gaps <= 0):
        raise ValueError("gaps must be positive")
    slope, r2 = _loglinear_fit(ks, np.log(gaps))
    return -slope / eta, r2


def fit_stepsize_bias(etas, biases) -> float:
    """Log-log slope of discretization bias against step size."""
    etas = np.asarray(etas, dtype=float)
    biases = np.asarray(biases, dtype=float)
    if etas.size < BIAS_FIT_MIN_POINTS:
        raise ValueError(f"need at least {BIAS_FIT_MIN_POINTS} step sizes")
    if np.any(etas <= 0) or np.any(biases <= 0):
        raise ValueError("step sizes and biases must be positive")
    slope, _ = _loglinear_fit(np.log(etas), np.log(biases))
    return slope


@dataclass(frozen=True)
class EpsilonStar:
    value: float
    floor: float
    floored: bool
    resolved: bool


def epsilon_star(phi: Callable[[float], float], beta: float, n: int, s: float,
                 grid=None) -> EpsilonStar:
    """Critical radius: smallest eps with phi(eps) <= beta*eps^2, floored.

    phi must be monotone non-increasing.  The crossing is located on the grid
    and refined by bisection; the result is floored at n^(-1/(2(2-s))) so
    that its square is at least n^(-1/(2-s)).  When the grid fails to bracket
    a crossing the result is flagged unresolved.
    """
    if not (0 < s <= 1):
        raise ValueError("s must lie in (0, 1]")
    if grid is None:
        grid = np.logspace(-6, 2, 200)
    grid = np.sort(np.asarray(grid, dtype=float))
    floor = float(n ** (-1.0 / (2.0 * (2.0 - s))))

    def gap(eps):
        return phi(eps) - beta * eps ** 2

    vals = np.array([gap(e) for e in grid])
    ok = vals <= 0
    if not np.any(ok):
        return EpsilonStar(value=float("nan"), floor=floor, floored=False, resolved=False)
    j = int(np.argmax(ok))
    if j == 0:
        sol = float(grid[0])
    else:
        lo, hi = grid[j - 1], grid[j]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        sol = float(hi)
    return EpsilonStar(value=max(sol, floor), floor=floor, floored=sol < floor, resolved=True)


def ridge_bias_term(teacher_coeffs, eigen: EigenSequence, gamma: float,
                    beta: float, lam: float, epsilon: float) -> float:
    """Upper bound on the regularized approximation cost at accuracy epsilon.

    Minimizes beta*lam * sum h_k^2 / mu_k^(gamma+1) over coefficient vectors
    h with ||h - teacher||^2 <= epsilon^2, by bisecting the ridge path; the
    minimizer shrinks each teacher mode by rho*m_k/(1 + rho*m_k) with
    m_k = mu_k^(gamma+1).
    """
    w = np.asarray(teacher_coeffs, dtype=float).ravel()
    m = eigen.mu[: w.size] ** (gamma + 1.0)
    target = epsilon ** 2

    def err(rho):
        return float(np.sum(w ** 2 / (1.0 + rho * m) ** 2))

    if err(0.0) <= target:
        return 0.0
    lo, hi = 0.0, 1.0
    while err(hi) > target:
        hi *= 2.0
        if hi > 1e300:
            return float("inf")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if err(mid) > target:
            lo = mid
        else:
            hi = mid
    h = w * (hi * m) / (1.0 + hi * m)
    return float(beta * lam * np.sum(h ** 2 / m))


def truncation_for_bias(epsilon: float, theta: float, gamma: float) -> int:
    """Mode count N = ceil(eps^(-1/(theta*(gamma+1)))) balancing the bias term."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha_tilde = 1.0 / (2.0 * (gamma + 1.0))
    if not (0.0 < theta < 1.0 - alpha_tilde):
        raise ValueError(f"theta must lie in (0, {1.0 - alpha_tilde:g}) for gamma={gamma:g}")
    return int(np.ceil(epsilon ** (-1.0 / (theta * (gamma + 1.0)))))


def excess_risk_rate_fit(ns, risks) -> float:
    """Log-log slope of excess risk against sample size."""
    ns = np.asarray(ns, dtype=float)
    risks = np.asarray(risks, dtype=float)
    if ns.size < RATE_FIT_MIN_POINTS:
        raise ValueError(f"need at least {RATE_FIT_MIN_POINTS} sample sizes")
    if np.any(risks <= 0):
        raise ValueError("risks must be positive")
    slope, _ = _loglinear_fit(np.log(ns), np.log(risks))
    return slope


def classification_error_prob(chain_maps, model, bayes_sign: Callable, x_grid) -> float:
    """Fraction of sampled maps whose sign disagrees with the reference
    classifier at one or more grid points."""
    from . import models as _models
    maps = list(chain_maps)
    if not maps:
        raise ValueError("need at least one sampled map")
    X = np.asarray(x_grid, dtype=float)
    ref = np.asarray(bayes_sign(X), dtype=float)
    bad = 0
    for W in maps:
        f = _models.forward(model, W, X)
        if np.any(np.sign(f) != ref):
            bad += 1
    return bad / len(maps)


@dataclass
class AssumptionReport:
    entries: list  # (name, status, margin, detail)

    def passed(self, name: str) -> bool:
        for n, status, *_ in self.entries:
            if n == name:
                return status == "pass"
        raise KeyError(name)

    def render(self) -> str:
        lines = []
        for name, status, margin, detail in self.entries:
            m = "" if margin is None else f" margin={margin:.6g}"
            lines.append(f"[{status.upper():>18}] {name}{m}  {detail}")
        return "\n".join(lines)


def assumption_audit(basis, model, loss_kind, dataset, *, n_probes: int = 8,
                     rng: Optional[np.random.Generator] = None,
                     class_probs=None) -> AssumptionReport:
    """Check the machine-checkable assumptions and report margins.

    Eigenvalue decay is checked exactly; gradient boundedness and loss range
    are probed empirically (lower bounds); the strong-low-noise margin is
    computed when the conditional class probabilities of the generator are
    supplied.  Conditions that cannot be decided numerically are listed as
    not machine-checkable.
    """
    from .losses import smoothness_audit
    entries = []
    mu = basis.eigen.mu
    envelope = basis.eigen.c_mu * np.arange(1, mu.size + 1, dtype=float) ** (-2.0)
    margin = float(np.min(envelope - mu))
    entries.append(("eigenvalue-decay", "pass" if margin >= -1e-12 else "fail", margin,
                    f"mu_k vs c_mu*(k+1)^-2 with c_mu={basis.eigen.c_mu:.6g}"))
    if rng is None:
        rng = np.random.default_rng(0)
    try:
        lb = smoothness_audit(model, loss_kind, dataset, n_probes, rng)
        entries.append(("gradient-bound", "pass", lb.B,
                        f"empirical max ||grad|| = {lb.B:.6g} (lower bound on B)"))
        entries.append(("loss-range", "pass", lb.R_bar,
                        f"empirical max loss = {lb.R_bar:.6g} (lower bound on R_bar)"))
    except ValueError as exc:
        entries.append(("gradient-bound", "fail", None, str(exc)))
    if class_probs is not None:
        gap = float(np.min(np.abs(np.asarray(class_probs, dtype=float) - 0.5)))
        entries.append(("strong-low-noise", "pass" if gap > 0 else "fail", gap,
                        "min_x |P(Y=1|x) - 1/2| on the generator grid"))
    entries.append(("third-order-smoothness", "not machine-checkable", None,
                    "its constants C_alpha' and alpha' are not probed"))
    entries.append(("predictor-condition", "not machine-checkable", None,
                    "verified only in the documented sufficient cases"))
    return AssumptionReport(entries=entries)
