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
    empbox_mean,
    empbox_pmf,
    empbox_variance,
    sample_binomial,
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
        rng = np.random.default_rng(2)
        draws = sample_empbox_batch(np.full(10**5, 4), 3, rng)
        obs = np.bincount(draws, minlength=4)
        exp = empbox_pmf(OccupancySpec(4, 3)) * 10**5
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
    single-draw sort, and batches counted by popcount mask or by sort, on rows
    of 2 to 126 uint64 words."""

    @pytest.mark.parametrize("path", ["single", "mask", "sort"])
    @pytest.mark.parametrize("boxes", [9, 17, 64, 100, 715, 1001])
    def test_chi_square_against_pmf(self, boxes, path):
        balls, draws = boxes // 2 + 1, 20000
        stride = -(-boxes // 8) * 8
        rng = np.random.default_rng([boxes, len(path)])
        if path == "single":
            out = np.array([sample_empbox(OccupancySpec(balls, boxes), rng) for _ in range(draws)])
        else:
            # Each draw of the law alone, at under 4 B of mask per ball (mask), or
            # followed by 15 zero-ball draws, at over 30 (sort).  Zero-ball draws
            # draw no integers, so both batches count the same stream.
            zeros = 0 if path == "mask" else 15
            assert (stride * (zeros + 1) <= occupancy._MASK_BYTES_PER_BALL * balls) == (path == "mask")
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


class TestEmpboxCount:
    """The mask and sort counts both equal np.unique on the same stream."""

    @pytest.mark.parametrize(
        "balls,boxes,mask",
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
    def test_batch_matches_unique(self, balls, boxes, mask):
        total = int(np.sum(balls))
        stride = -(-boxes // 8) * 8
        assert (np.size(balls) * stride <= occupancy._MASK_BYTES_PER_BALL * total) == mask or total == 0
        out = sample_empbox_batch(balls, boxes, np.random.default_rng(11))
        assert out.shape == np.shape(balls)
        assert (out == _unique_reference(balls, boxes, 11)).all()

    @pytest.mark.parametrize("side", ["mask", "sort"])
    @pytest.mark.parametrize("boxes", [1, 3, 7, 9, 715, 1001])
    def test_padded_rows_either_side_of_crossover(self, monkeypatch, boxes, side):
        # 40 draws, many of them empty, with just enough balls for the padded
        # mask, or one ball too few; cut into chunks, they must still match.
        draws, stride = 40, -(-boxes // 8) * 8
        total = -(-draws * stride // occupancy._MASK_BYTES_PER_BALL) - (side == "sort")
        hits = np.random.default_rng([boxes, total]).integers(0, draws, size=total)
        hits[hits % 5 == 0] += 1  # draws 0, 5, ..., 35 throw no ball
        balls = np.bincount(hits, minlength=draws)
        assert (draws * stride <= occupancy._MASK_BYTES_PER_BALL * total) == (side == "mask")
        rng_whole, rng_chunked = np.random.default_rng(22), np.random.default_rng(22)
        whole = sample_empbox_batch(balls, boxes, rng_whole)
        assert (whole == _unique_reference(balls, boxes, 22)).all()
        monkeypatch.setattr(occupancy, "_CHUNK_BALLS", total // 3)
        assert (sample_empbox_batch(balls, boxes, rng_chunked) == whole).all()
        assert rng_chunked.bit_generator.state == rng_whole.bit_generator.state

    def test_batch_stream_golden(self):
        # Frozen outputs of one mask-counted and one sorted batch at a fixed
        # seed; any change to the integers drawn or their order shows here.
        rng = np.random.default_rng(2024)
        mask_balls = [9, 0, 14, 7, 11, 20, 5, 16, 12, 3, 8, 18]
        sort_balls = [50, 0, 61, 38, 55, 47, 12, 59, 44, 30, 52, 40]
        assert sample_empbox_batch(mask_balls, 13, rng).tolist() == [6, 13, 4, 7, 4, 4, 8, 4, 5, 10, 6, 3]
        assert sample_empbox_batch(sort_balls, 1001, rng).tolist() == [
            951, 1001, 940, 964, 951, 956, 989, 942, 959, 972, 950, 961]
        assert int(rng.integers(2**62)) == 1060783042283745951

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


class TestEmpboxChunks:
    """Chunked throwing draws the same integers as one call over all balls."""

    @pytest.mark.parametrize(
        "balls,boxes",
        [
            ([2, 3, 1, 4, 2, 6, 1], 7),  # odd cut points: chunks of 5, 5, 2, 6 and 1 balls
            ([1, 23, 2], 50),  # a single draw larger than a chunk is a chunk by itself
            ([0, 5, 0, 0, 5, 0, 3, 0], 6),  # zero-ball draws at the chunk edges
            ([[0, 4, 3], [9, 0, 2]], 10**3),  # 2-D balls
            ([3] * 30, 2**27),  # int32 keys in one-draw chunks; unchunked, int64
            ([1, 2, 0, 2, 4], 2**30 + 3),  # int64 keys in a chunk of four draws, int32 in one
        ],
    )
    def test_tiny_chunks_match_unchunked_and_unique(self, monkeypatch, balls, boxes):
        rng_whole, rng_chunked = np.random.default_rng(21), np.random.default_rng(21)
        whole = sample_empbox_batch(balls, boxes, rng_whole)
        monkeypatch.setattr(occupancy, "_CHUNK_BALLS", 5)
        chunked = sample_empbox_batch(balls, boxes, rng_chunked)
        assert chunked.shape == np.shape(balls)
        assert (chunked == whole).all()
        assert (chunked == _unique_reference(balls, boxes, 21)).all()
        # Both consumed the same stream, so the next draws agree too.
        assert rng_whole.integers(2**62) == rng_chunked.integers(2**62)

    @pytest.mark.parametrize("boxes", [100, 10**4], ids=["mask", "sort"])
    def test_peak_memory_bounded_in_balls(self, boxes):
        # From 4 to 16 chunks of balls, the peak grows by the O(draws) arrays
        # alone, not by the balls: the keys live one chunk at a time.
        per_draw = 64
        peaks, draws = [], []
        for chunks in (4, 16):
            counts = np.full(chunks * occupancy._CHUNK_BALLS // per_draw, per_draw)
            rng = np.random.default_rng(14)
            tracemalloc.start()
            try:
                sample_empbox_batch(counts, boxes, rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            draws.append(counts.size)
        assert peaks[1] - peaks[0] <= 24 * (draws[1] - draws[0])
        assert peaks[1] < 24 * draws[1] + 20 * occupancy._CHUNK_BALLS

    @pytest.mark.parametrize("draws", [2, 2048])
    def test_peak_memory_mask_at_crossover(self, draws):
        # One chunk of balls with the most mask per ball that is still counted
        # by mask keeps the per-chunk bound of test_peak_memory_bounded_in_balls.
        per_draw = occupancy._CHUNK_BALLS // draws
        stride = occupancy._MASK_BYTES_PER_BALL * per_draw
        assert stride % 8 == 0
        counts = np.full(draws, per_draw)
        rng = np.random.default_rng(15)
        tracemalloc.start()
        try:
            sample_empbox_batch(counts, stride - 7, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * draws + 20 * occupancy._CHUNK_BALLS


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
