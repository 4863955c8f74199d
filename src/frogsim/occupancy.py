"""Empty-boxes (occupancy) distribution and binomial sampling primitives.

EmpBox(b, c) is the law of the number of empty boxes after b balls are
thrown independently and uniformly into c boxes.  Its exact pmf, at any box
count, comes from the occupancy recursion, one ball at a time; its mean and
variance are closed forms that keep full precision at any b and c.

The sampler is exact: `sample_empbox` (one draw) and `sample_empbox_batch`
(many) throw the balls with ``rng.integers`` and count each draw's distinct
boxes.  The batch throws its balls in chunks of about _CHUNK_BALLS, cut only
between draws, so a call's memory is O(draws) plus one chunk (a draw with more
balls than a chunk is a chunk by itself), and calls on several threads hold
one chunk each.  Each draw of a chunk owns a row of boxes padded to a multiple
of 8, so a chunk of several draws with at most _MASK_BYTES_PER_BALL boxes per
ball counts its rows by popcount over a uint64 occupancy mask; other chunks,
and every single draw, sort their keys.  Keys are int32 whenever every key
of a chunk fits (`_key_dtype`), int64 otherwise.  Consecutive calls draw the
same integers as one call, and int32 the same as int64, so neither the
chunking nor the row padding nor the key type nor the count method touches
the random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK_BALLS = 2**16  # balls per rng.integers call of sample_empbox_batch
_MASK_BYTES_PER_BALL = 14  # mask/sort crossover of _count_distinct


@dataclass(frozen=True)
class OccupancySpec:
    """Ball/box counts parameterizing the empty-boxes distribution."""

    balls: int
    boxes: int

    def __post_init__(self):
        if self.balls < 0:
            raise ValueError(f"balls must be >= 0, got {self.balls}")
        if self.boxes < 1:
            raise ValueError(f"boxes must be >= 1, got {self.boxes}")


def ratio_pow(c: int, j: float, b: int, f=math.exp) -> float:
    # f(b*log1p(-j/c)), with 0^0 = 1: ((c-j)/c)^b for f = exp, that less 1 for f = expm1.
    if b == 0:
        return f(0.0)
    if c - j <= 0:
        return f(-math.inf)
    return f(b * math.log1p(-j / c))


def miss_variance(i: int, n: int, hit: float, a: int) -> float:
    """Var of how many of i given boxes all of a balls miss, each ball landing in a
    given box with probability hit/n and in at most one of them.

    That is i^2 (q_2 - q_1^2) + i (q_1 - q_2), q_k = (1 - k hit/n)^a, with both
    differences from `expm1`: q_1^2 ((1 - y^2)^a - 1) and -q_1 ((1 - y)^a - 1),
    y = hit / (n - hit).  So its error is a few ulps of i (q_1 - q_2), not of
    i^2 q_1^2; `ratio_pow` takes the edges y >= 1 and a = 0.
    """
    q1 = ratio_pow(n, hit, a)
    y = hit / (n - hit) if n > hit else math.inf
    return i * q1 * (i * q1 * ratio_pow(1, y * y, a, math.expm1) - ratio_pow(1, y, a, math.expm1))


def empbox_pmf(spec: OccupancySpec) -> np.ndarray:
    """Exact pmf of EmpBox(b, c), indexed x = 0..c, at any box count.

    From P_0 = delta_c, each ball takes P(x) to P(x) (c - x)/c + P(x + 1) (x + 1)/c:
    it lands in an occupied box or fills one of the x + 1 empty ones (the classical
    occupancy chain, Johnson & Kotz, Urn Models, 1977).  Every term is
    non-negative, so nothing cancels; the cost is b steps of length c + 1.
    """
    b, c = spec.balls, spec.boxes
    x = np.arange(c + 1)
    stay, fill = (c - x) / c, x[1:] / c
    pmf = np.zeros(c + 1)
    pmf[c] = 1.0
    for _ in range(b):
        filled = pmf[1:] * fill
        pmf *= stay
        pmf[:-1] += filled
    return pmf


def empbox_mean(spec: OccupancySpec) -> float:
    """E(X) = c ((c-1)/c)^b for X ~ EmpBox(b, c)."""
    b, c = spec.balls, spec.boxes
    return c * ratio_pow(c, 1, b)


def empbox_variance(spec: OccupancySpec) -> float:
    """Var(X) for X ~ EmpBox(b, c): c boxes each missed by b balls, from `miss_variance`."""
    return miss_variance(spec.boxes, spec.boxes, 1, spec.balls)


def _key_dtype(draws: int, stride: int):
    """int32 when every key draw * stride + box of `draws` draws fits, else int64."""
    return np.int32 if draws * stride <= 2**31 else np.int64


def _count_distinct(keys: np.ndarray, draws: int, stride: int):
    """Distinct boxes hit by each draw, from keys draw * stride + box.

    Several draws with at most _MASK_BYTES_PER_BALL boxes per ball scatter
    into a (draws, stride) occupancy mask of one byte per box, whose rows of
    stride // 8 uint64 words are counted by popcount in place.  14 is the
    highest crossover that keeps a chunk within 20 B per ball (4 for the keys,
    14 for the mask, and numpy's 64 kB index buffer); the popcount timed
    faster than the sort up to 12 to 20 B of mask per ball.  Otherwise the
    keys are sorted in place and the first key of each run counted; a single
    draw always sorts, which timed faster than its mask at every ratio a chain
    step reaches.  One draw gives an int, several an array.
    """
    if draws > 1 and draws * stride <= _MASK_BYTES_PER_BALL * keys.size:
        mask = np.zeros((draws, stride // 8), dtype=np.uint64)
        mask.view(bool).reshape(-1)[keys] = True
        return np.bitwise_count(mask, out=mask).sum(axis=1, dtype=np.int64)
    keys.sort()
    if draws == 1:
        return 1 + np.count_nonzero(keys[1:] != keys[:-1])
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    runs = keys[first]
    runs //= stride
    return np.bincount(runs, minlength=draws)


def sample_empbox(spec: OccupancySpec, rng: np.random.Generator) -> int:
    """One exact draw from EmpBox(b, c): b uniform boxes, distinct ones counted."""
    b, c = spec.balls, spec.boxes
    if b == 0:
        return c
    return c - int(_count_distinct(rng.integers(0, c, size=b, dtype=_key_dtype(1, c)), 1, c))


def sample_empbox_batch(balls: np.ndarray, boxes: int, rng: np.random.Generator) -> np.ndarray:
    """Independent EmpBox(balls[j], boxes) draws sharing one box count.

    Throws the balls in chunks of about _CHUNK_BALLS, cut only between draws;
    each chunk is one ``rng.integers`` call, whose integers are those of one
    call over all balls, so the stream is the same as for one draw per row.
    Draw j of a chunk has its boxes offset by j * stride, boxes rounded up to
    a multiple of 8, before each draw's distinct keys are counted.  Memory per
    call, so per thread, is O(draws) for the result plus at most about 19 B per
    ball of one chunk (measured with tracemalloc: 19.1 B for a mask at the
    crossover, 17.0 B for a sort), or of the largest draw when that is larger;
    the result has the shape of `balls`.
    """
    balls = np.asarray(balls, dtype=np.int64)
    if boxes < 1:
        raise ValueError("boxes must be >= 1")
    flat = balls.ravel()
    if flat.size and flat.min() < 0:
        raise ValueError("balls must be >= 0")
    out = np.full(flat.size, boxes, dtype=np.int64)
    ends = np.cumsum(flat)
    stride = -(-boxes // 8) * 8
    start = 0
    while start < flat.size:
        thrown = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, thrown + _CHUNK_BALLS, side="right")))
        total, draws = int(ends[stop - 1]) - thrown, stop - start
        if total:
            keys = rng.integers(0, boxes, size=total, dtype=_key_dtype(draws, stride))
            if draws > 1:
                keys += np.repeat(np.arange(draws, dtype=keys.dtype) * stride, flat[start:stop])
            out[start:stop] -= _count_distinct(keys, draws, stride)
        start = stop
    return out.reshape(balls.shape)


def sample_binomial(n: int, q: float, rng: np.random.Generator) -> int:
    """Exact Binomial(n, q) draw; degenerate for q in {0, 1}."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if q == 0.0:
        return 0
    if q == 1.0:
        return n
    return int(rng.binomial(n, q))
