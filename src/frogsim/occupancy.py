"""Empty-boxes (occupancy) distribution and binomial sampling primitives.

EmpBox(b, c) is the law of the number of empty boxes after b balls are
thrown independently and uniformly into c boxes.  Its exact pmf, at any box
count, comes from the occupancy recursion, one ball at a time, on the number
of distinct boxes hit; its mean and variance are closed forms that keep full
precision at any b and c.

Two exact samplers.  `sample_empbox`, one draw, is the chains' step.  Few
balls it throws with ``rng.integers``, and counts the distinct boxes by sorting
int32 keys (int64 above 2**31 boxes).  Many balls it splits over leaves of
_LEAF boxes: one multinomial draw gives each leaf its balls, and one double
each its empty boxes, searched in a table of the leaf's law that the process
keeps.  `sample_empbox_batch`, many draws, inverts the law the same way: one
``rng.random`` double per draw, in draw order, searched in the CDF row keyed
by its own ball count, no balls thrown.  Both are exact up to float64
rounding: the pmf is within 2e-14 relative of the rational law, and the
doubles lie on a 2**-53 grid, as with numpy's binomial.

Binomials likewise: `sample_binomial`, one draw, calls numpy's; and
`sample_binomial_batch`, many draws of one Binomial(n, q), inverts its CDF
with one guide array, one double per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLOCK_DRAWS = 8192  # draws per rng.random call of the batched samplers
_LEAF = 1024  # boxes per leaf of a split EmpBox draw (`sample_empbox`)


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


def _distinct_pmfs(balls: np.ndarray, boxes: int):
    """For each of the ascending ball counts `balls`, the pmf of the number of
    distinct boxes its balls hit, indexed 0..min(max balls, boxes), and a free
    scratch vector of the same length.

    From P_0 = delta_0, each ball takes P(d) to P(d) d/c + P(d - 1) (c - d + 1)/c:
    it lands in one of the d boxes already hit or in one of the c - d + 1 others
    (the classical occupancy chain, Johnson & Kotz, Urn Models, 1977).  Every
    term is non-negative, so nothing cancels; the cost is max balls steps of
    length min(max balls, c) + 1, whatever c is, in four vectors of that
    length.  Each pmf yielded is the one vector that the next step updates in
    place.
    """
    c = boxes
    width = min(int(balls[-1]), c) + 1
    hit = np.arange(width) / c
    fill = np.arange(c, c - width + 1, -1) / c
    pmf = np.zeros(width)
    pmf[0] = 1.0
    scratch = np.empty(width)
    filled = scratch[:-1]
    thrown = 0
    for b in balls:
        for _ in range(thrown, b):
            np.multiply(pmf[:-1], fill, out=filled)
            pmf *= hit
            pmf[1:] += filled
        thrown = b
        yield pmf, scratch


def empbox_pmf(spec: OccupancySpec) -> np.ndarray:
    """Exact pmf of EmpBox(b, c), indexed x = 0..c, at any box count: c - x is the
    number of distinct boxes hit, whose pmf comes from the occupancy recursion."""
    b, c = spec.balls, spec.boxes
    pmf = np.zeros(c + 1)
    hits = next(_distinct_pmfs(np.array([b]), c))[0]
    pmf[c + 1 - hits.size:] = hits[::-1]
    return pmf


def empbox_mean(spec: OccupancySpec) -> float:
    """E(X) = c ((c-1)/c)^b for X ~ EmpBox(b, c)."""
    b, c = spec.balls, spec.boxes
    return c * ratio_pow(c, 1, b)


def empbox_variance(spec: OccupancySpec) -> float:
    """Var(X) for X ~ EmpBox(b, c): c boxes each missed by b balls, from `miss_variance`."""
    return miss_variance(spec.boxes, spec.boxes, 1, spec.balls)


def sample_empbox(spec: OccupancySpec, rng: np.random.Generator) -> int:
    """One exact draw from EmpBox(b, c), b = spec.balls balls into c = spec.boxes boxes.

    Few balls are thrown (`_throw`).  Many balls, from 32 per leaf plus 2048
    up to one per box of the leaves, split the c boxes into L = c // _LEAF
    leaves of _LEAF boxes and a remainder (`_split_empties`), where that was
    the cheaper: per draw on a 2-core x86_64 VM the thrower took about 5 us +
    6.5 ns per ball and the split 15 us + 0.2 us per leaf, so (b, c) =
    (1.3e5, 6e5) took 0.16 ms split against 0.85 ms thrown.  Given the balls
    of each group of boxes, the groups fill independently (Johnson & Kotz,
    Urn Models, 1977), so both are exact up to float64 rounding.  Beside the
    leaf table's 2e-14, the split's leaf counts come from numpy's multinomial,
    which gives leaf j the probability (1/L) / remaining_p, remaining_p being
    1 less j terms 1/L subtracted one at a time: it stays within L 2**-53 of
    (L - j) / L, so the probability within L**2 2**-54 relative of 1 / (L - j),
    6e-11 at c = 1e6.
    """
    b, c = spec.balls, spec.boxes
    leaves = c // _LEAF
    if 32 * leaves + 2048 <= b <= _LEAF * leaves:
        return _split_empties(b, c, _LEAF, rng)
    return _throw(b, c, rng)


def _throw(b: int, c: int, rng: np.random.Generator) -> int:
    """c less the distinct boxes hit by b balls thrown with ``rng.integers``,
    counted by sorting int32 keys (int64 above 2**31 boxes)."""
    if b == 0:
        return c
    keys = rng.integers(0, c, size=b, dtype=np.int32 if c <= 2**31 else np.int64)
    keys.sort()
    return c - 1 - int(np.count_nonzero(keys[1:] != keys[:-1]))


def _split_empties(b: int, c: int, leaf: int, rng: np.random.Generator) -> int:
    """One EmpBox(b, c) draw over L = c // leaf leaves of `leaf` boxes and the
    rest = c - L leaf boxes after them.

    The rest gets r ~ Binomial(b, rest / c) balls, thrown.  The leaves' counts
    are one Multinomial(b - r, 1/L each), and each leaf's empty boxes are one
    double searched in the row of its count in the leaf's table
    (`_leaf_table`); a leaf of more than 2 leaf balls, past the table's last
    row, throws them.  The draws, in order: the binomial (none if rest = 0),
    the rest's balls, the multinomial, L doubles, and the balls of each leaf
    past the table.  Memory is a few words per leaf beside the table.
    """
    leaves, rest = divmod(c, leaf)
    r = int(rng.binomial(b, rest / c)) if rest else 0
    empty = _throw(r, rest, rng)
    counts = rng.multinomial(b - r, np.full(leaves, 1.0 / leaves))
    u = rng.random(leaves)
    for j in np.flatnonzero(counts > 2 * leaf).tolist():
        empty += _throw(int(counts[j]), leaf, rng) - leaf
        counts[j] = 0  # searched as an empty leaf: leaf empty boxes
    table, shift = _leaf_table(leaf, int(counts.max()))
    return empty + int(_invert(table, shift, counts, u).sum())


_leaf_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # leaf boxes -> its `_cdf_table`


def _leaf_table(leaf: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """`_cdf_table` of 0, 1, ... balls into `leaf` boxes, with a row for `rows`
    balls, at most 2 leaf.  One table per leaf size lives for the process; it
    is rebuilt, with the least power of two (at least 64) rows that holds
    `rows`, only when a draw needs more.  Row k does not depend on the rows
    after it, so a draw is the same from any table that holds its row: at
    2048 rows of 1024 boxes it took 12.6 MB and 51 ms to build.
    """
    cached = _leaf_tables.get(leaf)
    if cached is None or cached[1].size <= rows:
        size = min(2 * leaf, max(64, 1 << (rows - 1).bit_length()))
        cached = _leaf_tables[leaf] = _cdf_table(np.arange(size + 1), leaf)
    return cached


def _cdf_table(counts: np.ndarray, boxes: int) -> tuple[np.ndarray, np.ndarray]:
    """The CDFs of the distinct boxes hit at the ascending ball counts `counts`,
    each divided by its last entry, as (table, shift): the entries strictly
    between 0 and 1 of the row of b balls, as complex numbers b + i CDF, and
    shift[b], boxes plus the position of that row in the table less its number
    of entries equal to 0.  shift is indexed by ball count, up to counts[-1],
    and allocated once the recursion's vectors are free."""
    parts, starts, start = [], [], 0
    for pmf, cdf in _distinct_pmfs(counts, boxes):
        np.cumsum(pmf, out=cdf)
        cdf /= cdf[-1]
        lo, hi = np.searchsorted(cdf, 0.0, side="right"), np.searchsorted(cdf, 1.0)
        parts.append(cdf[lo:hi].copy())
        starts.append(boxes + start - lo)
        start += hi - lo
    shift = np.empty(int(counts[-1]) + 1, dtype=np.int64)
    shift[counts] = starts
    table = np.empty(start, dtype=np.complex128)
    table.real = np.repeat(counts, [part.size for part in parts])
    table.imag = np.concatenate(parts)
    return table, shift


def sample_empbox_batch(balls: np.ndarray, boxes: int, rng: np.random.Generator) -> np.ndarray:
    """Independent EmpBox(balls[j], boxes) draws sharing one box count, by inverse CDF.

    Draw j takes one double u = ``rng.random()``, in draw order, and returns
    boxes - D, D the number of entries at or below u in the CDF of the distinct
    boxes hit by balls[j] balls.  Each CDF is divided by its last entry, so
    D <= balls[j], D >= 1 for balls[j] >= 1, and zero balls give boxes.

    The CDFs of the distinct ball counts are tabled once (`_cdf_table`).  Every
    u is at or above the entries equal to 0 and below those equal to 1, so only
    the rest are searched.  numpy orders complex numbers by real part, then
    imaginary part, so one ``searchsorted`` of b + i u over the rows b + i CDF,
    b the draw's own ball count, finds each draw's D within its own row, and
    shift[b] less that position is the draw.  The doubles are drawn in blocks
    of _BLOCK_DRAWS, which give the doubles of one call, so the stream is one
    double per draw.  Memory per call, so per thread, is the int64 result, one
    block, the table, shift's max balls + 1 words, and the recursion's four
    vectors of min(max balls, boxes) + 1 doubles; the result has the shape of
    `balls`.  Time is O(max balls * min(max balls, boxes)) recursion steps, a
    few numpy calls each, plus one search per draw: callers with few draws of
    many balls into many boxes want `sample_empbox` (one draw of 1e5 balls into
    1e5 boxes took 24 s on a 2-core x86_64 VM, against a millisecond thrown).
    """
    balls = np.asarray(balls, dtype=np.int64)
    if boxes < 1:
        raise ValueError("boxes must be >= 1")
    flat = balls.ravel()
    out = np.empty(flat.size, dtype=np.int64)
    if not flat.size:
        return out.reshape(balls.shape)
    if flat.min() < 0:
        raise ValueError("balls must be >= 0")
    table, shift = _cdf_table(np.flatnonzero(np.bincount(flat)), boxes)
    for first in range(0, flat.size, _BLOCK_DRAWS):
        block = flat[first:first + _BLOCK_DRAWS]
        _invert(table, shift, block, rng.random(block.size), out=out[first:first + block.size])
    return out.reshape(balls.shape)


def _invert(table: np.ndarray, shift: np.ndarray, balls: np.ndarray, u: np.ndarray, out=None) -> np.ndarray:
    """shift[b] less the position of b + i u in `table`, for each ball count b
    and its double u: the draws of a `_cdf_table`, one search in all."""
    key = np.empty(balls.size, dtype=np.complex128)
    key.real = balls
    key.imag = u
    return np.subtract(shift[balls], table.searchsorted(key, side="right"), out=out)


def _check_binomial(n: int, q: float) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")


def sample_binomial(n: int, q: float, rng: np.random.Generator) -> int:
    """Exact Binomial(n, q) draw; degenerate for q in {0, 1}."""
    _check_binomial(n, q)
    if q == 0.0:
        return 0
    if q == 1.0:
        return n
    return int(rng.binomial(n, q))


def binomial_pmf(n: int, q: float) -> np.ndarray:
    """Pmf of Binomial(n, q), indexed 0..n: the ratios of successive terms,
    (n - k) q / ((k + 1)(1 - q)), multiplied outward from the mode
    floor((n + 1) q), and divided by their sum.  With no logarithms and no
    cancellation, every entry above 1e-290 is within 1e-13 relative of the
    rational law for n <= 1000; further out the products underflow."""
    _check_binomial(n, q)
    k = np.arange(n + 1.0)
    mode = min(int((n + 1) * q), n)
    pmf = np.empty(n + 1)
    pmf[mode] = 1.0
    up, down = k[mode:n], k[mode:0:-1]
    np.cumprod((n - up) * q / ((up + 1) * (1 - q)), out=pmf[mode + 1:])
    pmf[:mode] = np.cumprod(down * (1 - q) / ((n + 1 - down) * q))[::-1]
    return pmf / pmf.sum()


def sample_binomial_batch(n: int, q: float, draws: int, rng: np.random.Generator) -> np.ndarray:
    """`draws` i.i.d. Binomial(n, q) draws, as int64, by inverse CDF with a guide table.

    Draw j takes one double u = ``rng.random()``, in draw order, and returns the
    number of CDF entries at or below u; the CDF is the cumulative `binomial_pmf`
    divided by its last entry.  n = 0 and q in {0, 1} draw nothing, as
    `sample_binomial`.  The guide table (Chen & Asau 1974; Devroye 1986, III.2.4)
    splits [0, 1) into G equal buckets, G the least power of two >= max(64,
    2(n + 1)), so u G and g / G are exact.  One array answers bucket g =
    floor(u G): the count of entries at or below g / G, which is the draw, or
    -1 where an entry lies strictly inside the bucket.  At most n of the G
    buckets hold an entry, so over half the draws take one lookup; the rest
    take a binary search of the CDF.  The doubles are drawn in blocks of
    _BLOCK_DRAWS.
    """
    _check_binomial(n, q)
    if n == 0 or q in (0.0, 1.0):
        return np.full(draws, n if q == 1.0 else 0, dtype=np.int64)
    cdf = np.cumsum(binomial_pmf(n, q))
    cdf /= cdf[-1]
    buckets = 1 << max(6, (2 * n + 1).bit_length())
    edges = np.arange(buckets + 1) / buckets
    guide = cdf.searchsorted(edges[:-1], side="right")
    guide[cdf.searchsorted(edges[1:]) > guide] = -1
    out = np.empty(draws, dtype=np.int64)
    for first in range(0, draws, _BLOCK_DRAWS):
        u = rng.random(min(_BLOCK_DRAWS, draws - first))
        x = guide[(u * buckets).astype(np.intp)]
        inside = np.flatnonzero(x < 0)
        x[inside] = cdf.searchsorted(u[inside], side="right")
        out[first:first + u.size] = x
    return out
