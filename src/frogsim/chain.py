"""Markov-chain simulation of the two frog-model variants on K_{N+1}.

State is the integer triple (unvisited I, active A, dead D) with
I + A + D = N + 1.  The complete-graph symmetry makes this triple a
sufficient statistic, so no per-particle bookkeeping is needed.

Geometric step: X ~ Binomial(A, p) survivors, Z ~ Binomial(X, I/N) of
them pick unvisited vertices, I' ~ EmpBox(Z, I), A' = X + I - I'.
Nongeometric step: Z ~ Binomial(A, I/N), I' ~ EmpBox(Z, I),
A' = Z + I - I'.  In both, D' closes the sum to N + 1.  `transition` writes
this law once; `step`, the scalar step of both models, and the moment audit's
batched draws call it.  `_states` runs the scalar chain on plain ints for
trajectories and runs to absorption alike; a `ChainState` is built only for
what they return.  `moments` gives the closed-form conditional moments of a
caller's state, which it validates, from `model_rates`.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .occupancy import OccupancySpec, miss_variance, ratio_pow, sample_binomial, sample_empbox

GEOMETRIC = "geometric"
NONGEOMETRIC = "nongeometric"


@dataclass(frozen=True)
class ModelParams:
    """Graph size N, model kind, and per-jump survival probability p: one model, for
    its chain and its deterministic limit.  Only the geometric model reads p."""

    n: int
    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if self.kind not in (GEOMETRIC, NONGEOMETRIC):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if (self.p is None and self.kind == GEOMETRIC) or not 0.0 <= (self.p or 0.0) <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")


def model_rates(params: ModelParams, unvisited_frac: float) -> tuple[float, float]:
    """(hit, survive): an active frog reaches a given vertex with probability hit/N and
    stays active with probability survive; (p, p) geometric, (1, unvisited_frac)
    nongeometric.  `moments` and `dynamics.det_step` take their rates from here."""
    if params.kind == GEOMETRIC:
        return params.p, params.p
    return 1.0, unvisited_frac


@dataclass(frozen=True)
class ChainState:
    unvisited: int
    active: int
    dead: int
    t: int = 0


@dataclass(frozen=True)
class OneStepMoments:
    """Closed-form conditional moments of the next state given the current one."""

    e_unvisited: float
    e_active: float
    e_dead: float
    var_unvisited: float
    var_active: float
    var_dead: float
    cov_unvisited_aux: float


def validate_state(state: ChainState, params: ModelParams) -> None:
    n = params.n
    if min(state.unvisited, state.active, state.dead) < 0:
        raise ValueError(f"negative component in {state}")
    if state.unvisited > n:
        raise ValueError(f"unvisited={state.unvisited} exceeds n={n}")
    if state.unvisited + state.active + state.dead != n + 1:
        raise ValueError(f"components of {state} do not sum to n+1={n + 1}")


def initial_state(params: ModelParams) -> ChainState:
    """One awake particle, N sleeping: (I, A, D) = (N, 1, 0) at t = 0."""
    return ChainState(unvisited=params.n, active=1, dead=0, t=0)


def transition(i: int, a: int, params: ModelParams, rng: np.random.Generator, binomial, empbox):
    """The one step law from (I, A): (I', A', D', X, Z), with X = Z in the nongeometric model.

    Its only draws are `binomial(m, q, rng)` and `empbox(balls, boxes, rng)`:
    ints from `step`, arrays from the moment audit.  I = 0 forces
    Z = 0 = I', so `empbox` is called only for I > 0.
    """
    n = params.n
    if params.kind == GEOMETRIC:
        x = binomial(a, params.p, rng)
        z = binomial(x, i / n, rng)
    else:
        x = z = binomial(a, i / n, rng)
    i1 = empbox(z, i, rng) if i > 0 else z
    a1 = x + i - i1
    return i1, a1, n + 1 - i1 - a1, x, z


def _resolve_empbox(z: int, boxes: int, rng: np.random.Generator) -> int:
    # Zero balls leave the unvisited count untouched.
    return sample_empbox(OccupancySpec(z, boxes), rng) if z else boxes


def step(i: int, a: int, params: ModelParams, rng: np.random.Generator) -> tuple[int, int, int, int, int]:
    """One step of either model from (I, A): `transition`'s (I', A', D', X, Z).

    Raises ValueError for an (I, A) off the simplex 0 <= I <= N, 0 <= A <= N + 1 - I.
    """
    if not (0 <= i <= params.n and 0 <= a <= params.n + 1 - i):
        raise ValueError(f"(I, A) = ({i}, {a}) is off the simplex for n={params.n}")
    return transition(i, a, params, rng, sample_binomial, _resolve_empbox)


# perfbench/tracing.py wraps the step by these two names; `_states` calls the one its kind picks.
step_geometric = step_nongeometric = step


def _states(params: ModelParams, steps: int, rng: np.random.Generator):
    """(I, A, D, t) from `initial_state` until A = 0 or t = `steps`.  The step is looked up
    by the module name its kind picks once per run, so a wrapper set on that name sees every step."""
    step_kind = step_geometric if params.kind == GEOMETRIC else step_nongeometric
    i, a, d, t = astuple(initial_state(params))
    yield i, a, d, t
    while a and t < steps:
        i, a, d, _x, _z = step_kind(i, a, params, rng)
        t += 1
        yield i, a, d, t


def simulate_trajectory(params: ModelParams, t_max: int, rng: np.random.Generator) -> list[ChainState]:
    """States from t = 0 up to t_max, stopping early at absorption (A = 0)."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    return [ChainState(*s) for s in _states(params, t_max, rng)]


def run_to_absorption(params: ModelParams, rng: np.random.Generator) -> tuple[ChainState, bool]:
    """The last state of a run to A = 0 or 10 N steps (p = 1 never absorbs), and whether A = 0."""
    for final in _states(params, 10 * params.n, rng):
        pass
    final = ChainState(*final)
    return final, final.active == 0


def moments(state: ChainState, params: ModelParams) -> OneStepMoments:
    """Closed-form conditional moments of the next state, for either model.

    Of the A active frogs, X ~ Binomial(A, survive) stay active, and each frog
    reaches a given vertex with probability hit/N (`model_rates`), so
    q_k = (1 - k hit/N)^A is the chance that k given vertices are all missed.
    I' counts the unvisited vertices missed, A' = X + I - I', D' = D + A - X;
    `ratio_pow` gives q_1 and 1 - q_1 at full precision, and `miss_variance`
    gives Var I' = I^2 (q_2 - q_1^2) + I (q_1 - q_2) without cancellation.
    """
    validate_state(state, params)
    n = params.n
    i, a, d = state.unvisited, state.active, state.dead
    hit, survive = model_rates(params, i / n)
    q1 = ratio_pow(n, hit, a)
    e_i = i * q1
    e_a = survive * a - i * ratio_pow(n, hit, a, math.expm1)
    e_d = d + (1.0 - survive) * a
    var_i = miss_variance(i, n, hit, a)
    var_d = a * survive * (1.0 - survive)
    cov_ix = -hit * a * i * q1 * (1.0 - survive) / (n - hit)
    var_a = var_i + var_d - 2.0 * cov_ix
    return OneStepMoments(e_i, e_a, e_d, var_i, var_a, var_d, cov_ix)


# perfbench/workloads.py calls the closed form by these two names.
moments_geometric = moments_nongeometric = moments


def replication_rng(*key: int) -> np.random.Generator:
    """The stream for a key such as (seed, index) or (seed, cell, rep).

    A Generator seeded by SeedSequence(key); every seeded stream is built here.
    """
    return np.random.default_rng(np.random.SeedSequence(key))
