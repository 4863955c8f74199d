"""Deterministic limit systems of the two frog models and their long-run limits.

Both limit systems take one step law, `det_step`, with e = 1 - exp(-lam):
    iota'  = iota * (1 - e)
    alpha' = x + iota * e
    delta' = delta + alpha - x
lam = hit * alpha and x = survive * alpha, with (hit, survive) from
`chain.model_rates`: (p, p) geometric (discrete Kermack-McKendrick with
rate p), (1, iota) nongeometric.  Both start from (N/(N+1), 1/(N+1), 0),
and each takes its model as the chains do, as a `chain.ModelParams`.

The long-run unvisited fraction of the geometric system is the unique
fixed point of tau_N(x) = (N/(N+1)) exp(-phi(p)(1-x)) in [0, 1), with
phi(p) = p/(1-p).  Both it and its large-N limit have Lambert W0 closed forms:
    iota_inf_N = -W0(-phi (N/(N+1)) exp(-phi)) / phi
    iota_inf   = -W0(-phi exp(-phi)) / phi  for p > 1/2, and 1 for p <= 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chain import GEOMETRIC, NONGEOMETRIC, ModelParams, model_rates

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

    completed is False when alpha had not fallen below the threshold within
    max_steps, leaving pattern_ok undetermined.
    """

    index: int
    pattern_ok: bool
    completed: bool


def det_initial(params: ModelParams) -> DetState:
    return DetState(params.n / (params.n + 1), 1 / (params.n + 1), 0.0, 0)


def det_step(s: DetState, params: ModelParams) -> DetState:
    """One step of either limit system (module docstring), with lam = hit * alpha and
    x = survive * alpha from `chain.model_rates`.  e = -expm1(-lam), as
    1 - exp(-lam) cancels at alpha_0 = 1/(N+1)."""
    hit, survive = model_rates(params, s.iota)
    lam, x = hit * s.alpha, survive * s.alpha
    e = -math.expm1(-lam)
    return DetState(s.iota * (1.0 - e), x + s.iota * e, s.delta + s.alpha - x, s.t + 1)


def _settled(prev: DetState, s: DetState, alpha_tol: float) -> bool:
    """The limit's stop rule: alpha fell at the last step, to below alpha_tol."""
    return s.alpha < min(prev.alpha, alpha_tol)


def _orbit(params: ModelParams, alpha_tol: float, max_steps: float):
    """Pairs (previous, current) from (s0, s0), s0 = det_initial(params), one det_step at a
    time until _settled, t = max_steps or a fixed point (a step that returns its input, as
    every later one would); alpha may start below alpha_tol and rise first."""
    prev = s = det_initial(params)
    yield prev, s
    while not _settled(prev, s, alpha_tol) and s.t < max_steps:
        prev, s = s, det_step(s, params)
        yield prev, s
        if s.alpha == prev.alpha and s.iota == prev.iota and s.delta == prev.delta:
            return


def det_orbit(params: ModelParams, t_max: int) -> list[DetState]:
    """Orbit from det_initial(params) for t = 0..t_max; a fixed point repeats to t_max."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    *orbit, s = (s for _, s in _orbit(params, -math.inf, t_max))
    return orbit + [DetState(s.iota, s.alpha, s.delta, t) for t in range(s.t, t_max + 1)]


def iterate_limit(
    params: ModelParams, alpha_tol: float = DEFAULT_ALPHA_TOL, max_steps: int = DEFAULT_MAX_STEPS
) -> LimitResult:
    """Iterate the limit system until alpha has fallen below alpha_tol (converged), a fixed
    point or max_steps, reported by the flag: near p = 1/2 the geometric decay degrades
    to polynomial, and at p = 1 alpha settles at 1."""
    if not 0 < alpha_tol < math.inf:
        raise ValueError(f"alpha_tol must be finite and > 0, got {alpha_tol}")
    for prev, s in _orbit(params, alpha_tol, max_steps):
        pass
    return LimitResult(iota_inf=s.iota, delta_inf=s.delta, steps_used=s.t,
                       converged=_settled(prev, s, alpha_tol))


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


def _least_root(f: float, s: float) -> float:
    """Least root in [0, 1] of x = s exp(-f (1 - x)) (f > 0, 0 < s <= 1); +0.0 on underflow."""
    return 0.0 - lambert_w0(-f * s * math.exp(-f)) / f


def iota_infinity(p: float) -> float:
    """Large-N limit of the geometric long-run unvisited fraction."""
    f = phi(p)
    return 1.0 if p <= 0.5 else _least_root(f, 1.0)


def fixed_point_tauN(p: float, n: int) -> float:
    """Unique fixed point in [0, 1) of tau_N(x) = (N/(N+1)) exp(-phi(p)(1-x))."""
    f = phi(p)
    ModelParams(n, GEOMETRIC, p)  # rejects n < 3
    return _least_root(f, n / (n + 1))


def alpha_peak_index(n: int, max_steps: int = DEFAULT_MAX_STEPS) -> PeakResult:
    """Peak of the nongeometric active fraction and its unimodality check.

    The orbit is run until alpha has fallen below DEFAULT_ALPHA_TOL, or
    max_steps; the sequence should rise strictly up to the peak (the later
    index of a tie) and fall strictly after it.
    """
    pairs = list(_orbit(ModelParams(n, NONGEOMETRIC), DEFAULT_ALPHA_TOL, max_steps))
    alphas = [s.alpha for _, s in pairs]
    completed = _settled(*pairs[-1], DEFAULT_ALPHA_TOL)
    peak = max(range(len(alphas)), key=lambda j: (alphas[j], j))
    rising = all(a < b for a, b in zip(alphas[:peak], alphas[1 : peak + 1]))
    falling = all(a > b for a, b in zip(alphas[peak:], alphas[peak + 1 :]))
    return PeakResult(index=peak, pattern_ok=completed and rising and falling, completed=completed)
