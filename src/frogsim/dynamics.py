"""Deterministic limit systems of the two frog models and their long-run limits.

Geometric limit system (discrete Kermack-McKendrick with rate p):
    iota'  = iota * exp(-p * alpha)
    alpha' = p * alpha + iota * (1 - exp(-p * alpha))
    delta' = delta + (1 - p) * alpha
Nongeometric limit system:
    iota'  = iota * exp(-alpha)
    alpha' = iota * (alpha + 1 - exp(-alpha))
    delta' = delta + alpha * (1 - iota)
Both start from (N/(N+1), 1/(N+1), 0).

The long-run unvisited fraction of the geometric system is the unique
fixed point of tau_N(x) = (N/(N+1)) exp(-phi(p)(1-x)) in [0, 1), and its
large-N limit has the Lambert W0 closed form implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chain import GEOMETRIC, NONGEOMETRIC

DEFAULT_ALPHA_TOL = 1e-12
DEFAULT_MAX_STEPS = 10**7


@dataclass(frozen=True)
class DetState:
    iota: float
    alpha: float
    delta: float
    t: int = 0


@dataclass(frozen=True)
class LimitResult:
    iota_inf: float
    delta_inf: float
    steps_used: int
    converged: bool


@dataclass(frozen=True)
class PeakResult:
    """Peak index of the nongeometric active fraction and pattern diagnosis.

    completed is False when the orbit did not reach the alpha threshold
    within max_steps, leaving pattern_ok undetermined.
    """

    index: int
    pattern_ok: bool
    completed: bool


def det_initial(n: int) -> DetState:
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return DetState(n / (n + 1), 1 / (n + 1), 0.0, 0)


def det_step_geometric(s: DetState, p: float) -> DetState:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    e = math.exp(-p * s.alpha)
    return DetState(
        iota=s.iota * e,
        alpha=p * s.alpha + s.iota * (1.0 - e),
        delta=s.delta + (1.0 - p) * s.alpha,
        t=s.t + 1,
    )


def det_step_nongeometric(s: DetState) -> DetState:
    e = math.exp(-s.alpha)
    return DetState(
        iota=s.iota * e,
        alpha=s.iota * (s.alpha + 1.0 - e),
        delta=s.delta + s.alpha * (1.0 - s.iota),
        t=s.t + 1,
    )


def det_step(s: DetState, kind: str, p: float | None = None) -> DetState:
    if kind == GEOMETRIC:
        if p is None:
            raise ValueError("geometric stepper needs p")
        return det_step_geometric(s, p)
    if kind == NONGEOMETRIC:
        return det_step_nongeometric(s)
    raise ValueError(f"unknown model kind {kind!r}")


def det_orbit(n: int, kind: str, t_max: int, p: float | None = None) -> list[DetState]:
    """Orbit from det_initial(n) for t = 0..t_max."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    states = [det_initial(n)]
    for _ in range(t_max):
        states.append(det_step(states[-1], kind, p))
    return states


def iterate_limit(
    n: int,
    kind: str,
    p: float | None = None,
    alpha_tol: float = DEFAULT_ALPHA_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> LimitResult:
    """Iterate the limit system until alpha < alpha_tol or max_steps.

    Non-convergence is reported through the flag, not an exception: near
    p = 1/2 the geometric decay degrades to polynomial.
    """
    if not 0 < alpha_tol < math.inf:
        raise ValueError(f"alpha_tol must be finite and > 0, got {alpha_tol}")
    s = det_initial(n)
    steps = 0
    while s.alpha >= alpha_tol and steps < max_steps:
        s = det_step(s, kind, p)
        steps += 1
    return LimitResult(
        iota_inf=s.iota,
        delta_inf=s.delta,
        steps_used=steps,
        converged=s.alpha < alpha_tol,
    )


def phi(p: float) -> float:
    """Odds ratio p/(1-p) governing the geometric final-size equation."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return p / (1.0 - p)


_INV_E = math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, by Halley iteration.

    Valid for x >= -1/e; relative accuracy 1e-12.
    """
    if x < -_INV_E:
        if x < -_INV_E - 1e-15 * _INV_E:
            raise ValueError(f"lambert_w0 requires x >= -1/e, got {x}")
        x = -_INV_E
    if x == 0.0:
        return 0.0
    # Initial guess: branch-point series near -1/e, log asymptote for large x.
    if x < -0.3:
        q = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + q - q * q / 3.0 + 11.0 / 72.0 * q**3
    elif x < math.e:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if wp1 == 0.0:
            # Exactly at the branch point w = -1.
            break
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        delta = f / denom
        w -= delta
        if abs(delta) <= 1e-14 * (1.0 + abs(w)):
            break
    return w


def iota_infinity(p: float) -> float:
    """Large-N limit of the geometric long-run unvisited fraction."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p <= 0.5:
        return 1.0
    f = phi(p)
    return -lambert_w0(-f * math.exp(-f)) / f


def fixed_point_tauN(p: float, n: int, tol: float = 1e-13, max_iter: int = 10**6) -> float:
    """Unique fixed point in [0, 1) of tau_N(x) = (N/(N+1)) exp(-phi(p)(1-x)).

    Monotone iteration from 0 (tau_N is increasing and maps [0, 1] into
    [0, N/(N+1)], so iterates increase to the least fixed point), with
    Aitken delta-squared acceleration.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    f = phi(p)
    scale = n / (n + 1)

    def tau(x: float) -> float:
        return scale * math.exp(-f * (1.0 - x))

    x = 0.0
    for _ in range(max_iter):
        x1 = tau(x)
        if abs(x1 - x) <= tol:
            return x1
        x2 = tau(x1)
        d = x2 - 2.0 * x1 + x
        if d != 0.0:
            xa = x - (x1 - x) ** 2 / d
            if 0.0 <= xa <= 1.0 and abs(tau(xa) - xa) < abs(x2 - x1):
                x = xa
                continue
        x = x2
    raise RuntimeError(f"fixed_point_tauN did not converge in {max_iter} iterations")


def fixed_points_tau(p: float) -> tuple[float, ...]:
    """Fixed points of tau(x) = exp(-phi(p)(1-x)) in [0, 1], increasing."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p <= 0.5:
        return (1.0,)
    return (iota_infinity(p), 1.0)


def alpha_peak_index(n: int, max_steps: int = 10**6) -> PeakResult:
    """Peak of the nongeometric active fraction and its unimodality check.

    The orbit is run until alpha < DEFAULT_ALPHA_TOL; the sequence should
    increase strictly up to a unique peak (weak inequality allowed at the
    peak itself, resolved to the later index) and decrease strictly after.
    """
    alphas = []
    s = det_initial(n)
    alphas.append(s.alpha)
    completed = False
    for _ in range(max_steps):
        s = det_step_nongeometric(s)
        alphas.append(s.alpha)
        if s.alpha < DEFAULT_ALPHA_TOL:
            completed = True
            break

    peak = max(range(len(alphas)), key=lambda j: (alphas[j], j))
    ok = True
    for j in range(peak):
        lo, hi = alphas[j], alphas[j + 1]
        if j == peak - 1:
            if not lo <= hi:
                ok = False
        elif not lo < hi:
            ok = False
    for j in range(peak, len(alphas) - 1):
        if not alphas[j] > alphas[j + 1]:
            ok = False
    if not completed:
        return PeakResult(index=peak, pattern_ok=False, completed=False)
    return PeakResult(index=peak, pattern_ok=ok, completed=True)
