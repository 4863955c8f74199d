import math

import mpmath
import numpy as np
import pytest

from frogsim.chain import GEOMETRIC, NONGEOMETRIC, ChainState, ModelParams, moments
from frogsim.dynamics import (
    DetState,
    PeakResult,
    alpha_peak_index,
    det_initial,
    det_orbit,
    det_step,
    fixed_point_tauN,
    iota_infinity,
    iterate_limit,
    lambert_w0,
    phi,
)

mpmath.mp.dps = 50


def hp_step_geometric(iota, alpha, delta, p):
    """High-precision independent evaluation of the geometric step."""
    i, a, d, p = map(mpmath.mpf, (iota, alpha, delta, p))
    e = mpmath.exp(-p * a)
    return (i * e, p * a + i * (1 - e), d + (1 - p) * a)


def hp_step_nongeometric(iota, alpha, delta):
    i, a, d = map(mpmath.mpf, (iota, alpha, delta))
    e = mpmath.exp(-a)
    return (i * e, i * (a + 1 - e), d + a * (1 - i))


def hp_orbit(params, t_max=math.inf, alpha_tol=None):
    """80-digit orbit (iota, alpha, delta) from (N/(N+1), 1/(N+1), 0) by the hp_step_*
    for t = 0..t_max; with alpha_tol, until alpha has fallen below it (iterate_limit's
    stop).  A float p enters at its float value, as in det_step."""
    n, p, geometric = params.n, params.p, params.kind == GEOMETRIC
    with mpmath.workdps(80):
        orbit = [(mpmath.mpf(n) / (n + 1), 1 / mpmath.mpf(n + 1), mpmath.mpf(0))]
        while len(orbit) <= t_max:
            prev = orbit[-1]
            orbit.append(hp_step_geometric(*prev, p) if geometric else hp_step_nongeometric(*prev))
            if alpha_tol is not None and orbit[-1][1] < min(prev[1], alpha_tol):
                break
    return orbit


class TestDetInitial:
    @pytest.mark.parametrize("n,expect", [(3, (0.75, 0.25, 0.0)), (99, (0.99, 0.01, 0.0))])
    def test_values(self, n, expect):
        s = det_initial(ModelParams(n, NONGEOMETRIC))
        assert (s.iota, s.alpha, s.delta) == pytest.approx(expect, abs=1e-15)
        assert s.iota + s.alpha + s.delta == pytest.approx(1.0, abs=1e-15)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            det_initial(ModelParams(2, NONGEOMETRIC))


def model(kind, p=None, n=3):
    """The model of a test; N = 3 where the test reads no N."""
    return ModelParams(n, kind, p)


class TestDetSteps:
    def test_geometric_alpha_zero_fixed_point(self):
        s = DetState(0.6, 0.0, 0.4)
        nxt = det_step(s, model(GEOMETRIC, 0.7))
        assert (nxt.iota, nxt.alpha, nxt.delta) == (0.6, 0.0, 0.4)

    def test_geometric_p_zero(self):
        s = DetState(0.5, 0.3, 0.2)
        nxt = det_step(s, model(GEOMETRIC, 0.0))
        assert (nxt.iota, nxt.alpha) == (0.5, 0.0)
        assert nxt.delta == pytest.approx(0.5, abs=1e-15)

    def test_geometric_against_high_precision(self):
        nxt = det_step(DetState(0.75, 0.25, 0.0), model(GEOMETRIC, 0.5))
        hi, ha, hd = hp_step_geometric("0.75", "0.25", "0", "0.5")
        assert nxt.iota == pytest.approx(float(hi), abs=1e-15)
        assert nxt.alpha == pytest.approx(float(ha), abs=1e-15)
        assert nxt.delta == pytest.approx(float(hd), abs=1e-15)

    def test_nongeometric_alpha_zero_fixed_point(self):
        s = DetState(0.4, 0.0, 0.6)
        nxt = det_step(s, model(NONGEOMETRIC))
        assert (nxt.iota, nxt.alpha, nxt.delta) == (0.4, 0.0, 0.6)

    def test_nongeometric_iota_zero(self):
        nxt = det_step(DetState(0.0, 0.3, 0.7), model(NONGEOMETRIC))
        assert nxt.alpha == 0.0
        assert nxt.delta == pytest.approx(1.0, abs=1e-15)

    def test_nongeometric_against_high_precision(self):
        nxt = det_step(DetState(0.75, 0.25, 0.0), model(NONGEOMETRIC))
        hi, ha, hd = hp_step_nongeometric("0.75", "0.25", "0")
        assert nxt.iota == pytest.approx(float(hi), abs=1e-15)
        assert nxt.alpha == pytest.approx(float(ha), abs=1e-15)
        assert nxt.delta == pytest.approx(float(hd), abs=1e-15)

    @pytest.mark.parametrize(
        "kind,p,message",
        [(GEOMETRIC, None, r"p must be in \[0, 1\], got None"),
         (GEOMETRIC, 1.5, r"p must be in \[0, 1\], got 1.5"),
         ("sir", 0.5, "unknown model kind 'sir'")],
        ids=["geometric-None", "geometric-1.5", "sir-0.5"],
    )
    def test_rejects_missing_p_or_unknown_kind(self, kind, p, message):
        # ModelParams checks every model for the steps, as for the chains.
        with pytest.raises(ValueError, match=message):
            det_step(DetState(0.75, 0.25, 0.0), ModelParams(3, kind, p))


def step_law_mean(kind, p, i, a, d, n):
    """E[(I', A', D')] of the chain's step law (chain module docstring), derived apart
    from `model_rates`: Z ~ Binomial(A, q) frogs land on the I unvisited vertices, with
    q = p I/N (geometric) or I/N; the X survivors are Binomial(A, p) (geometric) or Z.
    A given unvisited vertex is missed with probability E (1 - 1/I)^Z = (1 - q/I)^A."""
    q = p * i / n if kind == GEOMETRIC else i / n
    e_x = a * p if kind == GEOMETRIC else a * q
    e_i = i * (1.0 - q / i) ** a if i else 0.0
    return e_i, e_x + i - e_i, d + a - e_x


class TestChainDrift:
    """The chain's one-step conditional mean, scaled by 1/(N+1), is det_step to O(1/N)."""

    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.3), (GEOMETRIC, 0.8), (GEOMETRIC, 1.0),
                                        (NONGEOMETRIC, 1.0)])
    @pytest.mark.parametrize("n", [10**3, 10**6])
    def test_conditional_mean_is_det_step(self, kind, p, n):
        params = ModelParams(n=n, kind=kind, p=p)
        rng = np.random.default_rng([n, int(100 * p), len(kind)])
        for _ in range(300):
            i = int(rng.integers(0, n + 1))
            a = int(rng.integers(0, n + 2 - i))
            d = n + 1 - i - a
            s = det_step(DetState(i / (n + 1), a / (n + 1), d / (n + 1)), params)
            m = moments(ChainState(i, a, d), params)
            for mean in ((m.e_unvisited, m.e_active, m.e_dead), step_law_mean(kind, p, i, a, d, n)):
                drift = max(abs(e / (n + 1) - x) for e, x in zip(mean, (s.iota, s.alpha, s.delta)))
                assert n * drift <= 1.0, (i, a, d)


class TestOrbitInvariants:
    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.3), (GEOMETRIC, 0.8), (NONGEOMETRIC, None)])
    def test_simplex_and_monotone(self, kind, p):
        orbit = det_orbit(model(kind, p, 500), 300)
        for prev, cur in zip(orbit, orbit[1:]):
            assert abs(cur.iota + cur.alpha + cur.delta - 1.0) <= 1e-12
            assert cur.iota <= prev.iota + 1e-15
            assert cur.delta >= prev.delta - 1e-15

    def test_simplex_drift_long_run(self):
        params = model(GEOMETRIC, 0.55, 1000)
        s = det_initial(params)
        for _ in range(10**5):
            s = det_step(s, params)
        assert abs(s.iota + s.alpha + s.delta - 1.0) <= 1e-10

    def test_geometric_conservation_identity(self):
        # iota_t = iota_0 * exp(-phi(p) * delta_t) along geometric orbits.
        p = 0.65
        orbit = det_orbit(model(GEOMETRIC, p, 200), 400)
        i0 = orbit[0].iota
        for s in orbit:
            assert abs(s.iota - i0 * math.exp(-phi(p) * s.delta)) <= 1e-10

    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.8), (NONGEOMETRIC, None)])
    @pytest.mark.parametrize("n", [10**3, 10**6, 10**9, 10**13, 10**17, 10**30])
    def test_orbit_against_high_precision(self, kind, p, n):
        # Absolute error of every coordinate for t <= 300, against 80 digits.
        orbit = det_orbit(model(kind, p, n), 300)
        for s, ref in zip(orbit, hp_orbit(model(kind, p, n), t_max=300), strict=True):
            assert max(abs(x - float(r)) for x, r in zip((s.iota, s.alpha, s.delta), ref)) <= 1e-14

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_orbit_past_fixed_point(self, p):
        # p = 0 stops at (iota_0, 0, alpha_0) and p = 1 at (0, 1, 0) well before t = 2000;
        # det_orbit keeps t_max + 1 states, each that of a plain det_step loop.
        params = model(GEOMETRIC, p, 100)
        ref = [det_initial(params)]
        for _ in range(2000):
            ref.append(det_step(ref[-1], params))
        assert det_orbit(params, 2000) == ref

    def test_orbit_rejects_negative_tmax(self):
        assert len(det_orbit(model(NONGEOMETRIC, n=10), 0)) == 1
        with pytest.raises(ValueError, match="t_max must be >= 0"):
            det_orbit(model(NONGEOMETRIC, n=10), -1)


class TestPhi:
    @pytest.mark.parametrize("p,expect", [(0.5, 1.0), (2 / 3, 2.0), (0.6, 1.5)])
    def test_values(self, p, expect):
        assert phi(p) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            phi(p)


class TestLambertW0:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-13)

    def test_rumor_constant(self):
        w = lambert_w0(-2 * math.exp(-2))
        assert -w / 2 == pytest.approx(0.203188, abs=5e-7)

    def test_residual_on_log_grid(self):
        xs = np.concatenate(
            [
                [-1 / math.e + 1e-9, -0.25, -1e-6],
                np.logspace(-9, 6, 120),
            ]
        )
        for x in xs:
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
            assert w >= -1.0

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for x in [-0.35, -0.1, 0.5, 3.0, 1e4]:
            assert lambert_w0(x) == pytest.approx(
                float(scipy_special.lambertw(x).real), rel=1e-12, abs=1e-13
            )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0)

    def test_branch_point_rounding(self):
        # One ulp below -1/e is taken as -1/e; a relative 1e-14 below is an error.
        assert lambert_w0(math.nextafter(-1 / math.e, -math.inf)) == -1.0
        with pytest.raises(ValueError, match="requires x >= -1/e"):
            lambert_w0(-(1 / math.e) * (1 + 1e-14))


def bisect_iota_inf(p, tol=1e-12):
    """Oracle: lower root of x = exp(-phi(p)(1-x)) by bisection, p > 1/2."""
    f = lambda x: x - math.exp(-phi(p) * (1.0 - x))
    lo, hi = 0.0, 1.0 - 1e-9
    # f(0) < 0, and f > 0 somewhere below the upper fixed point at 1.
    while f(hi) <= 0:
        hi = 1.0 - (1.0 - hi) * 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestIotaInfinity:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.4, 0.5])
    def test_subcritical_is_one(self, p):
        assert iota_infinity(p) == 1.0

    def test_supercritical_matches_bisection(self):
        assert iota_infinity(0.6) == pytest.approx(bisect_iota_inf(0.6), abs=1e-10)
        assert iota_infinity(0.9) == pytest.approx(bisect_iota_inf(0.9), abs=1e-10)

    def test_remark_constant(self):
        assert iota_infinity(2 / 3) == pytest.approx(0.203188, abs=5e-7)

    def test_near_one_vanishes(self):
        assert iota_infinity(0.999) < 0.01

    def test_underflowed_root_is_positive_zero(self):
        # At p = 0.999, f exp(-f) underflows; the limits print "0", not "-0".
        assert math.copysign(1.0, iota_infinity(0.999)) == 1.0
        assert math.copysign(1.0, fixed_point_tauN(0.999, 1000)) == 1.0

    def test_continuous_at_half(self):
        assert iota_infinity(0.5 + 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            iota_infinity(0.0)


class TestFixedPoints:
    def test_tau_fixed_points_subcritical(self):
        # tau(x) = exp(-phi(p)(1-x)) has the one fixed point 1 in [0, 1].
        assert iota_infinity(0.4) == 1.0

    def test_tau_fixed_points_supercritical(self):
        # tau has two fixed points in [0, 1], iota_infinity(p) < 1 and 1.
        pts = (iota_infinity(0.6), 1.0)
        assert pts[0] < pts[1] == 1.0
        for x in pts:
            assert abs(math.exp(-phi(0.6) * (1 - x)) - x) <= 1e-10

    def test_lower_fixed_point_stable(self):
        for p in (0.55, 0.7, 0.9):
            x = iota_infinity(p)
            assert x < 1.0
            # tau'(x) = phi(p) * tau(x) = phi(p) * x at a fixed point.
            assert phi(p) * x < 1.0

    @pytest.mark.parametrize("p", [0.3, 0.55, 0.8])
    @pytest.mark.parametrize("n", [3, 100, 10**4])
    def test_tauN_is_a_fixed_point(self, p, n):
        x = fixed_point_tauN(p, n)
        tau_n = (n / (n + 1)) * math.exp(-phi(p) * (1 - x))
        assert 0.0 <= x < 1.0
        assert abs(tau_n - x) <= 1e-12

    def test_tauN_below_supercritical_bound(self):
        for p in (0.6, 0.8, 0.95):
            for n in (3, 100, 10**5):
                assert fixed_point_tauN(p, n) < 2 * (1 - p)

    def test_tauN_monotone_in_n(self):
        for p in (0.3, 0.55, 0.8):
            vals = [fixed_point_tauN(p, n) for n in (3, 10, 100, 1000, 10**4)]
            assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [0.499, 0.5, 0.501])
    @pytest.mark.parametrize("n", [10**5, 10**6, 10**8])
    def test_tauN_against_high_precision_lambert_w(self, p, n):
        # The least root of x = s exp(-f(1-x)) is -W0(-f s exp(-f)) / f.
        f = mpmath.mpf(p) / (1 - mpmath.mpf(p))
        s = mpmath.mpf(n) / (n + 1)
        ref = -mpmath.lambertw(-f * s * mpmath.exp(-f)).real / f
        assert abs(fixed_point_tauN(p, n) - float(ref)) <= 1e-11

    def test_tauN_converges_to_closed_form(self):
        for p in (0.55, 0.6, 0.8):
            assert abs(fixed_point_tauN(p, 10**8) - iota_infinity(p)) < 1e-6


class TestIterateLimit:
    def test_geometric_cross_oracle(self):
        res = iterate_limit(model(GEOMETRIC, 0.3, 1000))
        assert res.converged
        assert res.iota_inf == pytest.approx(fixed_point_tauN(0.3, 1000), abs=1e-9)

    def test_nongeometric_interval(self):
        res = iterate_limit(model(NONGEOMETRIC, n=1000))
        assert res.converged
        assert 0.17 < res.iota_inf < 0.18

    def test_conservation_of_limit(self):
        res = iterate_limit(model(GEOMETRIC, 0.7, 500), alpha_tol=1e-12)
        assert res.iota_inf + res.delta_inf == pytest.approx(1.0, abs=1e-11)

    def test_non_convergence_flagged(self):
        res = iterate_limit(model(NONGEOMETRIC, n=1000), alpha_tol=1e-12, max_steps=3)
        assert not res.converged and res.steps_used == 3

    def test_start_below_tolerance_waits_for_alpha_to_fall(self):
        # alpha_0 = 1/101 < 0.05, but alpha rises before it falls.
        res = iterate_limit(model(NONGEOMETRIC, n=100), alpha_tol=0.05)
        assert res.converged and res.steps_used == 11
        assert res.iota_inf == pytest.approx(0.18253265520996562, abs=1e-12)

    def test_start_below_default_tolerance_at_huge_n(self):
        # alpha_0 = 1/(1e13 + 1) is below the default 1e-12.
        res = iterate_limit(model(NONGEOMETRIC, n=10**13))
        assert res.converged and res.steps_used > 0
        assert res.iota_inf == pytest.approx(0.1745445407792918, abs=1e-12)
        ref = iterate_limit(model(NONGEOMETRIC, n=10**11)).iota_inf
        assert res.iota_inf == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.6), (GEOMETRIC, 0.8), (NONGEOMETRIC, None)])
    @pytest.mark.parametrize("n", [10**3, 10**6, 10**9, 10**13, 10**17, 10**30])
    def test_limit_against_high_precision(self, kind, p, n):
        # The 80-digit orbit run to the same stop rule ends at the same step.
        res = iterate_limit(model(kind, p, n))
        ref = hp_orbit(model(kind, p, n), alpha_tol=1e-12)
        assert res.converged and res.steps_used == len(ref) - 1
        assert res.iota_inf == pytest.approx(float(ref[-1][0]), rel=1e-14, abs=0)

    @pytest.mark.parametrize("n", [3, 100, 10**17])
    def test_stops_at_fixed_point(self, n):
        # At p = 1 alpha settles at 1, above any tolerance: the limit stops, unconverged,
        # at the first state that repeats the previous one, not after max_steps.
        params = model(GEOMETRIC, 1.0, n)
        prev, s = det_initial(params), det_step(det_initial(params), params)
        while (s.iota, s.alpha, s.delta) != (prev.iota, prev.alpha, prev.delta):
            prev, s = s, det_step(s, params)
        res = iterate_limit(params)
        assert not res.converged and res.steps_used == s.t < 1000
        assert (res.iota_inf, res.delta_inf) == (0.0, 0.0)
        assert s.alpha == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("max_steps", [0, 1, 5])
    def test_cap_before_alpha_falls_is_not_converged(self, max_steps):
        res = iterate_limit(model(NONGEOMETRIC, n=10**13), max_steps=max_steps)
        assert not res.converged and res.steps_used == max_steps

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.inf, math.nan])
    def test_rejects_tolerance_not_finite_positive(self, tol):
        with pytest.raises(ValueError, match="alpha_tol must be finite and > 0"):
            iterate_limit(model(GEOMETRIC, 0.8, 100), alpha_tol=tol)


class TestAlphaPeak:
    # At N = 1e16 and 1e17, alpha_0 is below 1.1e-16, where 1 - exp(-alpha) rounds to 0.
    @pytest.mark.parametrize("n,m", [(3, 2), (1000, 10), (10**16, 53), (10**17, 57)])
    def test_pattern_with_golden_index(self, n, m):
        res = alpha_peak_index(n)
        assert res.completed and res.pattern_ok
        assert res.index == m

    def test_peak_positive_across_sweep(self):
        for n in list(range(3, 50)) + [100, 500, 1000]:
            res = alpha_peak_index(n)
            assert res.completed and res.pattern_ok
            assert res.index >= 1

    def test_incomplete_flagged(self):
        res = alpha_peak_index(1000, max_steps=3)
        assert not res.completed and not res.pattern_ok

    def test_start_below_tolerance_finds_the_peak(self):
        res = alpha_peak_index(10**13)
        assert res.completed and res.pattern_ok
        assert res.index == 43

    @pytest.mark.parametrize("max_steps", [0, 1, 43])
    def test_cap_before_alpha_falls_is_incomplete(self, max_steps):
        res = alpha_peak_index(10**13, max_steps=max_steps)
        assert not res.completed and not res.pattern_ok

    def test_tie_at_the_top_is_not_strictly_rising(self, monkeypatch):
        # The peak is the later index of a tie, so the last rising pair,
        # alphas[1] < alphas[2], must be checked too.
        from frogsim import dynamics

        alphas = (0.1, 0.3, 0.3, 0.2, 1e-13)
        states = [DetState(0.5, a, 0.5 - a, t) for t, a in enumerate(alphas)]
        monkeypatch.setattr(dynamics, "_orbit", lambda *a: zip([states[0], *states], states))
        assert alpha_peak_index(100) == PeakResult(index=2, pattern_ok=False, completed=True)
