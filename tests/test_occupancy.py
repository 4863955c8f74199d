import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats

import frogsim.occupancy as occupancy
from frogsim.occupancy import (
    OccupancySpec,
    binomial_pmf,
    empbox_mean,
    empbox_pmf,
    empbox_variance,
    sample_binomial,
    sample_binomial_batch,
    sample_empbox,
    sample_empbox_batch,
)


def enumerate_empbox_pmf(b: int, c: int) -> list[Fraction]:
    """Oracle: exact pmf by summing multinomial weights over all occupancy
    count vectors (equivalent to enumerating all c^b placements)."""
    pmf = [Fraction(0)] * (c + 1)
    total = Fraction(c) ** b
    fact = math.factorial
    for counts in _compositions(b, c):
        weight = Fraction(fact(b))
        for k in counts:
            weight /= fact(k)
        empty = sum(1 for k in counts if k == 0)
        pmf[empty] += weight / total
    return pmf


def _compositions(b, c):
    if c == 1:
        yield (b,)
        return
    for head in range(b + 1):
        for rest in _compositions(b - head, c - 1):
            yield (head,) + rest


def inclusion_exclusion_pmf(b: int, c: int) -> list[Fraction]:
    """Oracle: exact pmf from the alternating inclusion-exclusion sum,
    P(x) = sum_i (-1)^i C(x + i, i) C(c, x + i) ((c - x - i)/c)^b, in rationals."""
    terms = [[math.comb(x + i, i) * math.comb(c, x + i) * (c - x - i) ** b for i in range(c - x + 1)]
             for x in range(c + 1)]
    return [Fraction(sum(t[0::2]) - sum(t[1::2]), c**b) for t in terms]


def _chi_square_pvalue(obs, pmf):
    """p-value of the counts `obs` against the law `pmf`, over the bins expected >= 5."""
    exp = pmf * obs.sum()
    assert obs[exp == 0].sum() == 0
    keep = exp >= 5
    return scipy.stats.chisquare(obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum())[1]


class TestSpecValidation:
    def test_negative_balls_rejected(self):
        with pytest.raises(ValueError):
            OccupancySpec(-1, 3)

    def test_zero_boxes_rejected(self):
        with pytest.raises(ValueError):
            OccupancySpec(2, 0)

    def test_batch_zero_boxes_rejected(self):
        with pytest.raises(ValueError, match="^boxes must be >= 1$"):
            sample_empbox_batch([2], 0, np.random.default_rng(0))

    def test_batch_negative_balls_rejected_before_counting(self):
        # np.bincount would reject -1 too, but in numpy's words: the check runs first.
        with pytest.raises(ValueError, match="^balls must be >= 0$"):
            sample_empbox_batch([3, -1], 4, np.random.default_rng(0))


class TestPmf:
    def test_zero_balls_point_mass(self):
        pmf = empbox_pmf(OccupancySpec(0, 3))
        assert pmf[3] == pytest.approx(1.0, abs=1e-12)
        assert pmf[:3] == pytest.approx([0, 0, 0], abs=1e-12)

    def test_one_ball(self):
        pmf = empbox_pmf(OccupancySpec(1, 2))
        np.testing.assert_allclose(pmf, [0.0, 1.0, 0.0], atol=1e-12)

    def test_two_balls_two_boxes(self):
        pmf = empbox_pmf(OccupancySpec(2, 2))
        np.testing.assert_allclose(pmf, [0.5, 0.5, 0.0], atol=1e-12)

    @pytest.mark.parametrize("b", range(9))
    @pytest.mark.parametrize("c", range(1, 9))
    def test_matches_enumeration(self, b, c):
        pmf = empbox_pmf(OccupancySpec(b, c))
        oracle = [float(v) for v in enumerate_empbox_pmf(b, c)]
        np.testing.assert_allclose(pmf, oracle, atol=1e-10)

    @pytest.mark.parametrize("b,c", [(5, 4), (20, 8), (100, 16), (0, 64)])
    def test_sums_to_one(self, b, c):
        pmf = empbox_pmf(OccupancySpec(b, c))
        assert abs(pmf.sum() - 1.0) <= 1e-12
        assert (pmf >= -1e-12).all()

    @pytest.mark.parametrize("c", range(1, 65))
    def test_matches_inclusion_exclusion(self, c):
        # The occupancy recursion against the rational inclusion-exclusion sum, on
        # every atom that does not underflow.
        for b in (0, 1, 2, 5, 13, 39, 64, 200):
            pmf = empbox_pmf(OccupancySpec(b, c))
            oracle = np.array([float(v) for v in inclusion_exclusion_pmf(b, c)])
            atoms = oracle > 1e-300
            assert (pmf[~atoms] <= 1e-290).all()
            np.testing.assert_allclose(pmf[atoms], oracle[atoms], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("c", [65, 715, 1001])
    def test_wide_boxes(self, c):
        # Past the 64 boxes that the rational sum could afford: a law whose
        # moments are the closed forms.
        xs = np.arange(c + 1)
        for b in (2, c // 2, c, 3 * c):
            spec = OccupancySpec(b, c)
            pmf = empbox_pmf(spec)
            assert (pmf >= 0).all()
            assert abs(pmf.sum() - 1.0) <= 1e-12
            mean = float(pmf @ xs)
            assert mean == pytest.approx(empbox_mean(spec), rel=1e-9)
            assert float(pmf @ (xs - mean) ** 2) == pytest.approx(empbox_variance(spec), rel=1e-9)


class TestMoments:
    def test_mean_zero_balls(self):
        assert empbox_mean(OccupancySpec(0, 5)) == 5.0

    def test_mean_one_ball(self):
        assert empbox_mean(OccupancySpec(1, 2)) == pytest.approx(1.0)

    def test_mean_three_three(self):
        assert empbox_mean(OccupancySpec(3, 3)) == pytest.approx(8 / 9, abs=1e-12)

    def test_variance_deterministic_case(self):
        assert empbox_variance(OccupancySpec(0, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_variance_two_two(self):
        assert empbox_variance(OccupancySpec(2, 2)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("b", range(9))
    @pytest.mark.parametrize("c", range(1, 9))
    def test_moments_match_pmf(self, b, c):
        pmf = empbox_pmf(OccupancySpec(b, c))
        xs = np.arange(c + 1)
        mean = float(pmf @ xs)
        var = float(pmf @ (xs - mean) ** 2)
        assert empbox_mean(OccupancySpec(b, c)) == pytest.approx(mean, abs=1e-10)
        assert empbox_variance(OccupancySpec(b, c)) == pytest.approx(var, abs=1e-10)

    @pytest.mark.parametrize("c", [10**3, 10**6, 10**9, 10**12])
    def test_variance_against_high_precision(self, c):
        # Var = c^2 (q2 - q1^2) + c (q1 - q2), q_k = (1 - k/c)^b, against 60 digits, to
        # 1e-15 of c (q1 - q2); summed as c(c-1) q2 + c q1 - c^2 q1^2 it was 1.34e8
        # at (b, c) = (3, 1e12), where Var = 3.0e-12.
        rng = np.random.default_rng([c, 3])
        balls = [0, 1, 2, 3, c, 3 * c] + [int(v) for v in np.exp(rng.uniform(0, math.log(3 * c), 100))]
        with mpmath.workdps(60):
            for b in balls:
                got = empbox_variance(OccupancySpec(b, c))
                q1, q2 = (1 - mpmath.mpf(1) / c) ** b, (1 - mpmath.mpf(2) / c) ** b
                ref = c * c * (q2 - q1 * q1) + c * (q1 - q2)
                assert abs(got - ref) <= 1e-15 * c * (q1 - q2), b

    def test_stable_at_large_counts(self):
        # b ~ N regime: must not underflow or lose the mean entirely.
        m = empbox_mean(OccupancySpec(10**6, 10**6))
        assert m == pytest.approx(10**6 * math.exp(10**6 * math.log1p(-1e-6)), rel=1e-12)
        assert empbox_variance(OccupancySpec(10**6, 10**6)) >= 0.0


class TestEmpboxSampler:
    def test_zero_balls(self):
        rng = np.random.default_rng(0)
        assert sample_empbox(OccupancySpec(0, 7), rng) == 7

    def test_one_ball(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_empbox(OccupancySpec(1, 9), rng) == 8

    def test_support(self):
        rng = np.random.default_rng(1)
        for b, c in [(4, 3), (10, 4), (2, 6)]:
            lo = max(0, c - b)
            for _ in range(200):
                x = sample_empbox(OccupancySpec(b, c), rng)
                assert lo <= x <= c - 1

    def test_chi_square_against_pmf(self):
        # The scalar ball thrower; test_batch_matches_law checks the batch at this width.
        rng = np.random.default_rng(2)
        spec = OccupancySpec(4, 3)
        draws = np.array([sample_empbox(spec, rng) for _ in range(10**5)])
        obs = np.bincount(draws, minlength=4)
        exp = empbox_pmf(spec) * 10**5
        keep = exp > 5
        _, pval = scipy.stats.chisquare(obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum())
        assert pval > 0.001

    def test_batch_matches_law(self):
        rng = np.random.default_rng(3)
        balls = np.full(10**5, 4)
        draws = sample_empbox_batch(balls, 3, rng)
        obs = np.bincount(draws, minlength=4)
        exp = empbox_pmf(OccupancySpec(4, 3)) * 10**5
        keep = exp > 5
        _, pval = scipy.stats.chisquare(obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum())
        assert pval > 0.001

    def test_batch_mixed_ball_counts(self):
        rng = np.random.default_rng(4)
        balls = np.array([0, 1, 5, 0, 3])
        out = sample_empbox_batch(balls, 4, rng)
        assert out[0] == 4 and out[3] == 4
        assert all(max(0, 4 - b) <= v <= 4 for b, v in zip(balls, out))
        grid = np.array([[0, 1, 5], [0, 3, 2]])
        out = sample_empbox_batch(grid, 4, rng)
        assert out.shape == grid.shape
        assert (out[:, 0] == 4).all() and out[0, 1] == 3
        assert ((np.maximum(0, 4 - grid) <= out) & (out <= 4)).all()

    def test_batch_alternating_ball_counts_match_law(self):
        # Adjacent draws with different ball counts share run boundaries in
        # the sorted keys; each subgroup must still follow its own law.
        rng = np.random.default_rng(6)
        balls = np.tile([2, 8], 5 * 10**4)
        draws = sample_empbox_batch(balls, 4, rng)
        for b in (2, 8):
            obs = np.bincount(draws[balls == b], minlength=5)
            exp = empbox_pmf(OccupancySpec(b, 4)) * obs.sum()
            assert obs[exp == 0].sum() == 0
            keep = exp > 5
            _, pval = scipy.stats.chisquare(obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum())
            assert pval > 0.001


class TestEmpboxLawAtWidth:
    """Draws at the row widths the chains use, against the exact pmf: the
    single-draw sort, and two shapes of batch, the law's draws alone (mask) and
    each followed by 15 zero-ball draws (sort), which the batch must group
    apart from them."""

    @pytest.mark.parametrize("path", ["single", "mask", "sort"])
    @pytest.mark.parametrize("boxes", [9, 17, 64, 100, 715, 1001])
    def test_chi_square_against_pmf(self, boxes, path):
        balls, draws = boxes // 2 + 1, 20000
        rng = np.random.default_rng([boxes, len(path)])
        if path == "single":
            out = np.array([sample_empbox(OccupancySpec(balls, boxes), rng) for _ in range(draws)])
        else:
            # Each draw of the law alone (mask), or followed by 15 zero-ball
            # draws (sort), whose doubles the law's draws must not take.
            zeros = 0 if path == "mask" else 15
            rows = np.zeros((draws, zeros + 1), dtype=np.int64)
            rows[:, 0] = balls
            out = sample_empbox_batch(rows, boxes, rng)[:, 0]
        obs = np.bincount(out, minlength=boxes + 1)
        assert _chi_square_pvalue(obs, empbox_pmf(OccupancySpec(balls, boxes))) > 0.001


def _unique_reference(balls, boxes, seed):
    """EmpBox draws counted with np.unique over the sampler's own box draws."""
    flat = np.asarray(balls, dtype=np.int64).ravel()
    hits = np.random.default_rng(seed).integers(0, boxes, size=int(flat.sum()))
    parts = np.split(hits, np.cumsum(flat)[:-1])
    return np.array([boxes - np.unique(x).size for x in parts]).reshape(np.shape(balls))


def _stirling_rows(width: int):
    """S(b, d) for d = 0..width, the Stirling numbers of the second kind, at
    b = 0, 1, 2, ...; S(b, d) = d S(b - 1, d) + S(b - 1, d - 1) needs no
    column beyond d, so the rows are exact at any width."""
    row = [1] + [0] * width  # S(0, d)
    while True:
        yield row
        row = [0] + [d * row[d] + row[d - 1] for d in range(1, width + 1)]


def _exact_inverse_cdf(b: int, c: int, u: float, stirling=None) -> int:
    """Oracle: c - D, D the number of entries at or below u of the CDF of the
    distinct boxes hit by b balls in c boxes, from the rational law
    P(D = d) = S(b, d) c (c - 1) ... (c - d + 1) / c^b, S the Stirling numbers
    of the second kind; `stirling`, row b of `_stirling_rows` at a width of at
    least min(b, c), spares building it."""
    if stirling is None:
        stirling = next(itertools.islice(_stirling_rows(min(b, c)), b, None))
    num, den = float(u).as_integer_ratio()
    ways, falling, below = 0, 1, 0  # ways: c^b times the CDF at d
    for d in range(min(b, c) + 1):
        falling *= c - d + 1 if d else 1
        ways += stirling[d] * falling
        if ways * den > num * c**b:
            break
        below += 1
    return c - below


class TestEmpboxCount:
    """The single draw's sort count equals np.unique on the same stream; the
    batch equals the inverse CDF of the exact rational law on its doubles."""

    @pytest.mark.parametrize(
        "balls,boxes,via_pmf",
        [
            (np.full(50, 40), 100, True),
            (np.arange(300) % 5, 1000, False),
            ([7], 20, True),
            ([7], 10**4, False),
            ([[3, 0], [5, 9]], 4, True),
            ([[3, 0], [5, 9]], 10**3, False),
            ([5, 0, 4], 2**31, False),
            ([0, 6, 0, 2], 3, True),
            (np.zeros(5, dtype=int), 3, True),
        ],
    )
    def test_batch_matches_unique(self, balls, boxes, via_pmf):
        # The batch's draws, one per double u, equal the inverse CDF of the exact
        # rational law at u; where the boxes are few (via_pmf), they also equal
        # the inverse CDF of empbox_pmf, whose vector has boxes + 1 entries.
        out = sample_empbox_batch(balls, boxes, np.random.default_rng(11))
        assert out.shape == np.shape(balls)
        doubles = np.random.default_rng(11).random(np.size(balls))
        flat = np.ravel(balls).tolist()
        expected = [_exact_inverse_cdf(b, boxes, u) for b, u in zip(flat, doubles)]
        assert out.ravel().tolist() == expected
        if via_pmf:
            for b, u, x in zip(flat, doubles, expected):
                cdf = np.cumsum(empbox_pmf(OccupancySpec(b, boxes))[::-1])
                assert x == boxes - np.searchsorted(cdf / cdf[-1], u, side="right")

    def test_thousands_of_ball_counts_exact(self):
        # Ball counts 0..3000, 3001 rows of one search table: each draw is the
        # exact law's inverse CDF at its own double, and the call takes one
        # double per draw.
        balls, boxes = np.arange(3001), 13
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        out = sample_empbox_batch(balls, boxes, rng)
        rows = _stirling_rows(boxes)
        expected = [_exact_inverse_cdf(b, boxes, u, next(rows)) for b, u in zip(balls.tolist(), ref.random(balls.size))]
        assert out.tolist() == expected
        assert rng.integers(2**62) == ref.integers(2**62)

    def test_batch_stream_golden(self):
        # Frozen outputs of a narrow and a wide batch at a fixed seed; any change
        # to the doubles drawn, their order or the law's CDF shows here.
        rng = np.random.default_rng(2024)
        narrow_balls = [9, 0, 14, 7, 11, 20, 5, 16, 12, 3, 8, 18]
        wide_balls = [50, 0, 61, 38, 55, 47, 12, 59, 44, 30, 52, 40]
        assert sample_empbox_batch(narrow_balls, 13, rng).tolist() == [6, 13, 5, 7, 3, 4, 10, 5, 5, 11, 7, 3]
        assert sample_empbox_batch(wide_balls, 1001, rng).tolist() == [
            954, 1001, 946, 964, 946, 954, 989, 944, 959, 971, 951, 961]
        assert int(rng.integers(2**62)) == 983014751046431945

    @pytest.mark.parametrize("b,c", [(7, 20), (7, 10**4), (1, 1), (40, 3), (0, 5)])
    def test_scalar_matches_unique(self, b, c):
        rng = np.random.default_rng(12)
        draws = [sample_empbox(OccupancySpec(b, c), rng) for _ in range(50)]
        assert all(type(x) is int for x in draws)
        assert draws == list(_unique_reference(np.full(50, b), c, 12))

    @pytest.mark.parametrize(
        "draws,boxes,balls",
        [(2000, 715, 200), (2000, 10**4, 50), (1, 10**7, 10**4)],
        ids=["mask", "sort", "single-sort"],
    )
    def test_peak_memory_per_ball(self, draws, boxes, balls):
        # At most the int64 keys plus one more word per ball, never O(boxes).
        counts = np.full(draws, balls)
        rng = np.random.default_rng(13)
        tracemalloc.start()
        try:
            if draws == 1:
                sample_empbox(OccupancySpec(balls, boxes), rng)
            else:
                sample_empbox_batch(counts, boxes, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * draws * balls

    def test_peak_memory_per_leaf_of_a_split_draw(self):
        # 1e6 balls into 1e7 boxes split over 9765 leaves: a few words per leaf
        # once the leaf table is built, where throwing them took 5 MB.
        spec, leaves = OccupancySpec(10**6, 10**7), 10**7 // occupancy._LEAF
        rng = np.random.default_rng(13)
        sample_empbox(spec, rng)
        tracemalloc.start()
        try:
            sample_empbox(spec, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * leaves


class TestEmpboxSplit:
    """`sample_empbox` of many balls: the boxes split over leaves, each leaf's
    empty boxes searched in its law's table, which the process keeps."""

    @pytest.mark.parametrize("balls,boxes", [(20, 24), (20, 29), (45, 27)], ids=["no-rest", "rest", "past-table"])
    def test_chi_square_against_pmf(self, monkeypatch, balls, boxes):
        # Leaves of 8 boxes: 3 and no rest, 3 and a rest of 5, and 3 leaves of
        # 15 balls on average, about a third of them past the table's 16 rows.
        monkeypatch.setattr(occupancy, "_leaf_tables", {})
        rng = np.random.default_rng([balls, boxes])
        out = np.array([occupancy._split_empties(balls, boxes, 8, rng) for _ in range(20000)])
        obs = np.bincount(out, minlength=boxes + 1)
        assert _chi_square_pvalue(obs, empbox_pmf(OccupancySpec(balls, boxes))) > 0.001
        assert len(occupancy._leaf_tables[8][1]) == 17

    def test_moments_at_many_balls(self):
        spec, draws = OccupancySpec(2 * 10**5, 10**6), 2000
        rng = np.random.default_rng(30)
        out = np.array([sample_empbox(spec, rng) for _ in range(draws)], dtype=float)
        mean, var = empbox_mean(spec), empbox_variance(spec)
        assert abs(out.mean() - mean) / math.sqrt(var / draws) < 5
        assert abs(out.var(ddof=1) - var) / (var * math.sqrt(2 / (draws - 1))) < 5

    def test_split_stream_golden(self):
        # Frozen split draws at a fixed seed, one leaf row table or another:
        # any change to the draws taken, their order or the leaf law shows here.
        rng = np.random.default_rng(2024)
        cases = [(3000, 9000), (9216, 9216), (50000, 400000), (130000, 600003)]
        assert [sample_empbox(OccupancySpec(b, c), rng) for b, c in cases] == [6466, 3378, 352945, 483161]
        assert int(rng.integers(2**62)) == 3595140233774268883

    def test_cold_and_grown_tables_draw_alike(self, monkeypatch):
        # A table built for a draw's rows and one of 2048 rows give the same
        # draws: the smaller table is the start of the larger.
        specs = [OccupancySpec(b, c) for b, c in [(3000, 9000), (50000, 400000), (130000, 600000)]]
        monkeypatch.setattr(occupancy, "_leaf_tables", {})
        cold = [[sample_empbox(spec, np.random.default_rng([k, 9])) for k in range(10)] for spec in specs]
        table, shift = occupancy._leaf_tables[occupancy._LEAF]
        assert len(shift) == 513
        grown, grown_shift = occupancy._leaf_table(occupancy._LEAF, 2048)
        assert len(grown_shift) == 2049
        assert (grown[:table.size] == table).all() and (grown_shift[:shift.size] == shift).all()
        assert [[sample_empbox(spec, np.random.default_rng([k, 9])) for k in range(10)] for spec in specs] == cold

    def test_one_table_per_leaf_size_with_capped_rows(self, monkeypatch):
        # The densest split sample_empbox takes, one ball per box, and leaves of
        # 8 boxes with 40 balls each on average: no table outgrows 2 leaf rows.
        monkeypatch.setattr(occupancy, "_leaf_tables", {})
        rng = np.random.default_rng(33)
        sample_empbox(OccupancySpec(10 * occupancy._LEAF, 10 * occupancy._LEAF), rng)
        assert 0 <= occupancy._split_empties(1200, 240, 8, rng) <= 240
        assert {leaf: len(shift) - 1 for leaf, (_, shift) in occupancy._leaf_tables.items()} == {
            occupancy._LEAF: 2048, 8: 16}
        assert occupancy._leaf_tables[occupancy._LEAF][0].nbytes < 13 * 10**6

    @pytest.mark.parametrize("leaves", [2, 3, 976, 9765])
    def test_multinomial_remaining_p_drift(self, leaves):
        # numpy's multinomial gives leaf j the probability p / remaining_p and then
        # takes remaining_p -= p: remaining_p stays within leaves * 2**-53 of the
        # exact (leaves - j) / leaves, as sample_empbox's docstring states.
        p, remaining = 1.0 / leaves, 1.0
        for j in range(leaves - 1):
            assert abs(Fraction(remaining) - Fraction(leaves - j, leaves)) <= Fraction(leaves, 2**53)
            remaining -= p

    def test_multinomial_leaf_counts_chi_square(self):
        # The leaf counts, as sample_empbox draws them, summed over 50 draws of
        # 200 balls per leaf at c = 1e6, against equal cells; and the last two
        # leaves, whose split takes the most drifted remaining_p, half and half.
        leaves = 976
        rng = np.random.default_rng(34)
        counts = np.array([rng.multinomial(200 * leaves, np.full(leaves, 1.0 / leaves)) for _ in range(50)])
        assert scipy.stats.chisquare(counts.sum(axis=0))[1] > 0.001
        last, pair = counts[:, -1].sum(), counts[:, -2:].sum()
        assert abs(last - pair / 2) / math.sqrt(pair / 4) < 5


class _FixedDoubles:
    """A generator stub whose every double is `u`."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestEmpboxInverseCdfEdges:
    """The extreme doubles 0 and 1 - 2**-53 stay within the support."""

    @pytest.mark.parametrize(
        "balls,boxes",
        [(z, c) for c in (1, 2, 1001) for z in (1, c, 3 * c)] + [(1, 2**32), (1000, 2**32)],
    )
    def test_extreme_doubles(self, balls, boxes):
        lo, hi = max(boxes - balls, 0), boxes - 1
        at_zero, at_top = (sample_empbox_batch([balls], boxes, _FixedDoubles(u))[0]
                           for u in (0.0, np.nextafter(1.0, 0.0)))
        assert lo <= at_top <= at_zero <= hi
        if boxes <= 1001:
            # 0 takes the atom with the fewest boxes hit: the most empty boxes.
            pmf = empbox_pmf(OccupancySpec(balls, boxes))
            assert at_zero == np.flatnonzero(pmf)[-1]
        elif balls == 1:
            assert at_zero == at_top == hi

    def test_double_at_a_cdf_entry_counts_it(self):
        # 2 balls in 2 boxes hit D = 1 or 2 boxes with probability 1/2 each, so the
        # CDF is (0, 1/2, 1): u = 1/2 is at or above two entries, D = 2, no box empty.
        assert sample_empbox_batch([2], 2, _FixedDoubles(0.5)).tolist() == [0]
        assert sample_empbox_batch([2], 2, _FixedDoubles(np.nextafter(0.5, 0.0))).tolist() == [1]


class TestEmpboxChunks:
    """The batch's memory grows with its draws, not with its balls."""

    @pytest.mark.parametrize(
        "balls,boxes",
        [
            ([2, 3, 1, 4, 2, 6, 1], 7),  # an odd number of draws: blocks of 2, 2, 2 and 1
            ([1, 23, 2], 50),  # one draw with many more balls than the others
            ([0, 5, 0, 0, 5, 0, 3, 0], 6),  # zero-ball draws at the block edges
            ([[0, 4, 3], [9, 0, 2]], 10**3),  # 2-D balls
            ([3] * 30, 2**27),  # one ball count in 15 blocks
            ([1, 2, 0, 2, 4], 2**30 + 3),  # over 2**30 boxes
        ],
    )
    def test_tiny_chunks_match_unchunked_and_unique(self, monkeypatch, balls, boxes):
        # Chunks of 2 draws, each with its own rng.random call, give the output
        # of one chunk, and both equal the exact law's inverse CDF.
        rng_one, rng_tiny = np.random.default_rng(21), np.random.default_rng(21)
        one = sample_empbox_batch(balls, boxes, rng_one)
        monkeypatch.setattr(occupancy, "_BLOCK_DRAWS", 2)
        tiny = sample_empbox_batch(balls, boxes, rng_tiny)
        assert tiny.shape == np.shape(balls)
        assert (tiny == one).all()
        doubles = np.random.default_rng(21).random(np.size(balls))
        expected = [_exact_inverse_cdf(b, boxes, u) for b, u in zip(np.ravel(balls).tolist(), doubles)]
        assert tiny.ravel().tolist() == expected
        # Both consumed the same stream, so the next draws agree too.
        assert rng_one.integers(2**62) == rng_tiny.integers(2**62)

    @pytest.mark.parametrize("boxes", [100, 10**4], ids=["mask", "sort"])
    def test_peak_memory_bounded_in_balls(self, boxes):
        # From 4 to 16 times 2**16 balls, the peak grows by the O(draws) arrays
        # alone, not by the balls.
        per_draw = 64
        peaks, draws = [], []
        for chunks in (4, 16):
            counts = np.full(chunks * 2**16 // per_draw, per_draw)
            rng = np.random.default_rng(14)
            tracemalloc.start()
            try:
                sample_empbox_batch(counts, boxes, rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            draws.append(counts.size)
        assert peaks[1] - peaks[0] <= 24 * (draws[1] - draws[0])
        assert peaks[1] < 24 * draws[1] + 20 * 2**16

    @pytest.mark.parametrize("draws", [2, 2048])
    def test_peak_memory_mask_at_crossover(self, draws):
        # 2**16 balls, in 2 draws of 32768 or 2048 of 32, into about 14 boxes
        # per ball of a draw, keep the bound of test_peak_memory_bounded_in_balls.
        per_draw = 2**16 // draws
        stride = 14 * per_draw
        counts = np.full(draws, per_draw)
        rng = np.random.default_rng(15)
        tracemalloc.start()
        try:
            sample_empbox_batch(counts, stride - 7, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * draws + 20 * 2**16

    @pytest.mark.parametrize("boxes", [100, 10**4])
    def test_peak_memory_same_at_64_and_4096_balls(self, boxes):
        # Only the law's recursion, four vectors of min(balls, boxes) + 1
        # doubles, and the table's shift by ball count, max balls + 1 words,
        # grow with the balls; up to 10**4 boxes, 4096 draws of 4096 balls
        # peak within 64 kB of 4096 draws of 64.
        peaks = []
        for per_draw in (64, 4096):
            rng = np.random.default_rng(16)
            tracemalloc.start()
            try:
                sample_empbox_batch(np.full(4096, per_draw), boxes, rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024


class TestBinomialSampler:
    def test_degenerate_q(self):
        rng = np.random.default_rng(0)
        assert sample_binomial(10, 0.0, rng) == 0
        assert sample_binomial(10, 1.0, rng) == 10

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_binomial(-1, 0.5, rng)
        with pytest.raises(ValueError):
            sample_binomial(3, 1.5, rng)

    def test_clt_band(self):
        rng = np.random.default_rng(5)
        r = 10**5
        draws = np.array([sample_binomial(10, 0.3, rng) for _ in range(r)])
        band = 4 * math.sqrt(10 * 0.3 * 0.7 / r)
        assert abs(draws.mean() - 3.0) <= band


def mp_binomial_pmf(n: int, q: float) -> np.ndarray:
    """Oracle: C(n, k) q^k (1 - q)^(n - k), q taken exactly, in 40-digit
    arithmetic, each term rounded once to a double."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        return np.array([float(mpmath.binomial(n, k) * q**k * (1 - q) ** (n - k)) for k in range(n + 1)])


class _GivenDoubles:
    """A generator stub that hands out the doubles `values` in order."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def random(self, size):
        self.used += size
        return self.values[self.used - size:self.used]


def _float_cdf(n, q):
    cdf = np.cumsum(binomial_pmf(n, q))
    return cdf / cdf[-1]


class TestBinomialBatch:
    @pytest.mark.parametrize(
        "n,q",
        [(n, q) for n in (1, 7, 60, 300, 999, 1000) for q in (0.5, 0.1, 1 / 3, 0.97, 1e-3)],
    )
    def test_pmf_against_rational_law(self, n, q):
        # Entries below 1e-290 lose bits as the products of ratios underflow.
        exact = mp_binomial_pmf(n, q)
        pmf = binomial_pmf(n, q)
        keep = exact > 1e-290
        assert np.all(np.abs(pmf[keep] - exact[keep]) <= 1e-13 * exact[keep])
        assert np.all(pmf[~keep] < 1e-280)

    def test_pmf_degenerate(self):
        assert binomial_pmf(0, 0.4).tolist() == [1.0]
        assert binomial_pmf(3, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert binomial_pmf(3, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "n,q", [(1, 0.5), (7, 0.3), (60, 0.5), (300, 0.1), (300, 0.9), (1000, 0.03), (1000, 0.5)]
    )
    def test_chi_square_against_law(self, n, q):
        # n q = 30 at (60, 1/2), (300, 0.1) and (1000, 0.03): where numpy's own
        # binomial switches from inversion to its rejection sampler.
        draws = 200_000
        rng = np.random.default_rng([31, n, int(q * 1000)])
        x = sample_binomial_batch(n, q, draws, rng)
        assert x.dtype == np.int64 and x.shape == (draws,)
        exact = mp_binomial_pmf(n, q)
        assert _chi_square_pvalue(np.bincount(x, minlength=n + 1), exact) > 0.001

    @pytest.mark.parametrize("n,q,draws", [(5, 0.5, 1), (60, 0.5, 20_011), (1000, 0.03, 3), (40, 0.999, 100)])
    def test_one_double_per_draw_is_its_inverse_cdf(self, monkeypatch, n, q, draws):
        # Each draw is the count of CDF entries at or below its own double, and
        # the generator moves as far as random(draws), for any block size.
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        x = sample_binomial_batch(n, q, draws, rng)
        u = ref.random(draws)
        assert x.tolist() == _float_cdf(n, q).searchsorted(u, side="right").tolist()
        assert rng.integers(2**62) == ref.integers(2**62)
        monkeypatch.setattr(occupancy, "_BLOCK_DRAWS", 7)
        assert (sample_binomial_batch(n, q, draws, np.random.default_rng(8)) == x).all()

    @pytest.mark.parametrize("n,q", [(0, 0.5), (9, 0.0), (9, 1.0)])
    def test_degenerate_draws_nothing(self, n, q):
        rng = np.random.default_rng(3)
        assert sample_binomial_batch(n, q, 50, rng).tolist() == [n if q == 1.0 else 0] * 50
        assert rng.integers(2**62) == np.random.default_rng(3).integers(2**62)

    @pytest.mark.parametrize("n,q", [(1, 0.5), (6, 0.5), (100, 0.3), (1000, 0.001), (1000, 0.999)])
    def test_bucket_edges_and_extreme_doubles(self, n, q):
        # Every bucket edge g / G and its two neighbours, and the extreme
        # doubles: 0 gives the least atom with positive mass, 1 - 2**-53 the
        # atom at which the float CDF reaches 1.
        buckets = 1 << max(6, (2 * n + 1).bit_length())
        edges = np.arange(buckets) / buckets
        doubles = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
                                  [np.nextafter(1.0, 0.0)]])
        cdf = _float_cdf(n, q)
        x = sample_binomial_batch(n, q, doubles.size, _GivenDoubles(doubles))
        assert x.tolist() == cdf.searchsorted(doubles, side="right").tolist()
        pmf = binomial_pmf(n, q)
        assert x[0] == np.flatnonzero(pmf)[0]
        assert x[-1] == np.flatnonzero(cdf == 1.0)[0] and pmf[x[-1]] > 0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_binomial_batch(-1, 0.5, 4, rng)
        with pytest.raises(ValueError):
            sample_binomial_batch(3, 1.5, 4, rng)
        assert sample_binomial_batch(3, 0.5, 0, rng).shape == (0,)


class TestBinomialPgfIdentities:
    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.85])
    @pytest.mark.parametrize("s", [-0.5, 0.3, 0.9])
    def test_pgf_and_derivative(self, n, q, s):
        pmf = np.array([math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1)])
        ks = np.arange(n + 1)
        lhs1 = float((s**ks) @ pmf)
        lhs2 = float((ks * s**ks) @ pmf)
        assert lhs1 == pytest.approx((1 - q * (1 - s)) ** n, abs=1e-10)
        assert lhs2 == pytest.approx(n * q * s * (1 - q * (1 - s)) ** (n - 1), abs=1e-10)
