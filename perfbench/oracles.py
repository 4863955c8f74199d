"""Reference values computed apart from frogsim, for checking its outputs.

Nothing here imports frogsim: the one-step laws are enumerated from binomial
pmfs and every ball placement, the nongeometric limit is iterated from the
map as the paper states it, and the geometric limit comes from scipy's
Lambert W.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def binomial_pmf(n: int, q: float) -> list[float]:
    """P(Binomial(n, q) = k) for k = 0..n."""
    return [math.comb(n, k) * q**k * (1.0 - q) ** (n - k) for k in range(n + 1)]


@lru_cache(maxsize=None)
def empbox_enum_pmf(balls: int, boxes: int) -> tuple[float, ...]:
    """P(k empty boxes), k = 0..boxes, by listing all boxes**balls placements."""
    counts = [0] * (boxes + 1)
    for placement in itertools.product(range(boxes), repeat=balls):
        counts[boxes - len(set(placement))] += 1
    total = boxes**balls
    return tuple(c / total for c in counts)


def one_step_exact(
    n: int, unvisited: int, active: int, model: str, p: float
) -> dict[str, tuple[float, float]]:
    """Exact (mean, variance) of I', A', D' after one step from (I, A, D).

    Geometric: X ~ Bin(A, p), Z ~ Bin(X, I/N); nongeometric: X = Z ~ Bin(A, I/N).
    Then I' ~ EmpBox(Z, I), A' = X + I - I' and D' = N + 1 - I' - A'.
    """
    q = unvisited / n
    law: dict[tuple[int, int, int], float] = {}
    geometric = model == "geometric"
    for x, px in enumerate(binomial_pmf(active, p if geometric else q)):
        if px == 0.0:
            continue
        hits = enumerate(binomial_pmf(x, q)) if geometric else [(x, 1.0)]
        for z, pz in hits:
            if pz == 0.0:
                continue
            for i1, pe in enumerate(empbox_enum_pmf(z, unvisited)):
                a1 = x + unvisited - i1
                key = (i1, a1, n + 1 - i1 - a1)
                law[key] = law.get(key, 0.0) + px * pz * pe
    out = {}
    for idx, comp in enumerate(("unvisited", "active", "dead")):
        mean = sum(w * k[idx] for k, w in law.items())
        var = sum(w * (k[idx] - mean) ** 2 for k, w in law.items())
        out[comp] = (mean, var)
    return out


def simplex_states(n: int) -> list[tuple[int, int, int]]:
    """Every (I, A, D) with I <= N and I + A + D = N + 1."""
    return [(i, a, n + 1 - i - a) for i in range(n + 1) for a in range(n + 2 - i)]


def nongeometric_limit(n: int, alpha_tol: float = 1e-12) -> float:
    """Long-run unvisited fraction of the nongeometric limit system.

    iota' = iota exp(-alpha), alpha' = iota (alpha + 1 - exp(-alpha)),
    started from (N/(N+1), 1/(N+1)) and run until alpha < alpha_tol.
    """
    iota, alpha = n / (n + 1), 1 / (n + 1)
    while alpha >= alpha_tol:
        e = math.exp(-alpha)
        iota, alpha = iota * e, iota * (alpha + 1.0 - e)
    return iota


def geometric_limit(p: float) -> float:
    """Large-N unvisited fraction after a geometric outbreak, p > 1/2.

    The root below 1 of x = exp(-phi (1 - x)), phi = p / (1 - p), which is
    -W0(-phi exp(-phi)) / phi.
    """
    from scipy.special import lambertw

    phi = p / (1.0 - p)
    return float((-lambertw(-phi * math.exp(-phi)) / phi).real)
