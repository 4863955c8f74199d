import math
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.stats

from frogsim import chain
from frogsim.chain import (
    GEOMETRIC,
    NONGEOMETRIC,
    ChainState,
    ModelParams,
    initial_state,
    moments,
    replication_rng,
    run_to_absorption,
    simulate_trajectory,
    step,
)
from frogsim.harness import ExperimentConfig, moment_panel, one_step_samples
from frogsim.occupancy import OccupancySpec, empbox_pmf


def binom_pmf(n, q):
    return [math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1)]


def geometric_joint_law(state, params):
    """Oracle: exact joint law of (X, Z, I') by summing over all outcomes."""
    n, p = params.n, params.p
    i, a = state.unvisited, state.active
    law = {}  # (x, z, i1) -> prob
    for x, px in enumerate(binom_pmf(a, p)):
        for z, pz in enumerate(binom_pmf(x, i / n)):
            if i == 0 or z == 0:
                law[(x, z, i)] = law.get((x, z, i), 0.0) + px * pz
                continue
            for i1, pi in enumerate(empbox_pmf(OccupancySpec(z, i))):
                if pi > 0:
                    law[(x, z, i1)] = law.get((x, z, i1), 0.0) + px * pz * pi
    return law


def nongeometric_joint_law(state, params):
    n = params.n
    i, a = state.unvisited, state.active
    law = {}
    for z, pz in enumerate(binom_pmf(a, i / n)):
        if i == 0 or z == 0:
            law[(z, i)] = law.get((z, i), 0.0) + pz
            continue
        for i1, pi in enumerate(empbox_pmf(OccupancySpec(z, i))):
            if pi > 0:
                law[(z, i1)] = law.get((z, i1), 0.0) + pz * pi
    return law


def law_moments(values, probs):
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs)
    mean = float(probs @ values)
    var = float(probs @ (values - mean) ** 2)
    return mean, var


class TestParamsAndState:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(n=2, kind=GEOMETRIC)
        with pytest.raises(ValueError):
            ModelParams(n=10, kind="bogus")
        with pytest.raises(ValueError):
            ModelParams(n=10, kind=GEOMETRIC, p=1.5)
        # The geometric model needs p; the nongeometric one reads none.
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\], got None"):
            ModelParams(n=10, kind=GEOMETRIC)
        assert ModelParams(n=10, kind=NONGEOMETRIC).p is None
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\], got 1.5"):
            ModelParams(n=10, kind=NONGEOMETRIC, p=1.5)

    @pytest.mark.parametrize("n", [3, 100, 12345])
    def test_initial_state(self, n):
        s = initial_state(ModelParams(n=n, kind=NONGEOMETRIC))
        assert (s.unvisited, s.active, s.dead, s.t) == (n, 1, 0, 0)
        assert s.unvisited + s.active + s.dead == n + 1

    def test_invalid_state_rejected(self):
        params = ModelParams(n=5, kind=GEOMETRIC, p=0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            step(5, 5, params, rng)  # (5, 5, 5) sums past N + 1
        with pytest.raises(ValueError):
            step(6, 0, params, rng)  # (6, 0, 0) has I > N

    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.5), (NONGEOMETRIC, None)])
    @pytest.mark.parametrize(
        "state",
        [(-1, 4, 3), (3, -1, 4), (3, 4, -1), (6, 0, 0), (2, 2, 3)],
        ids=["I<0", "A<0", "D<0", "I>N", "sum!=N+1"],
    )
    def test_moments_rejects_state_off_simplex(self, state, kind, p):
        with pytest.raises(ValueError):
            moments(ChainState(*state), ModelParams(n=5, kind=kind, p=p))


class TestSteps:
    def test_geometric_absorbing_when_no_actives(self):
        params = ModelParams(n=10, kind=GEOMETRIC, p=0.7)
        rng = np.random.default_rng(0)
        i1, a1, d1, x, z = step(4, 0, params, rng)
        assert (x, z) == (0, 0)
        assert (i1, a1, d1) == (4, 0, 7)

    def test_geometric_p1_first_step_deterministic(self):
        params = ModelParams(n=50, kind=GEOMETRIC, p=1.0)
        rng = np.random.default_rng(0)
        s = initial_state(params)
        i1, a1, d1, x, z = step(s.unvisited, s.active, params, rng)
        assert (x, z) == (1, 1)
        assert (i1, a1, d1) == (49, 2, 0)

    def test_nongeometric_first_step_deterministic(self):
        params = ModelParams(n=30, kind=NONGEOMETRIC)
        rng = np.random.default_rng(0)
        s = initial_state(params)
        i1, a1, d1, x, z = step(s.unvisited, s.active, params, rng)
        assert x == z == 1
        assert (i1, a1, d1) == (29, 2, 0)

    def test_geometric_p0_absorbs_immediately(self):
        params = ModelParams(n=20, kind=GEOMETRIC, p=0.0)
        rng = np.random.default_rng(0)
        traj = simulate_trajectory(params, 10, rng)
        assert len(traj) == 2
        assert traj[1].unvisited == 20 and traj[1].active == 0

    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.6), (GEOMETRIC, 0.95), (NONGEOMETRIC, 1.0)])
    def test_trajectory_invariants(self, kind, p):
        params = ModelParams(n=50, kind=kind, p=p)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            traj = simulate_trajectory(params, 200, rng)
            for prev, cur in zip(traj, traj[1:]):
                assert cur.unvisited + cur.active + cur.dead == 51
                assert cur.unvisited <= prev.unvisited
                assert cur.dead >= prev.dead
                assert cur.t == prev.t + 1

    def test_geometric_dead_increment_identity(self):
        # D_{t+1} - D_t equals the number of failed survival coins A_t - X.
        params = ModelParams(n=40, kind=GEOMETRIC, p=0.7)
        rng = np.random.default_rng(7)
        i, a, d = params.n, 1, 0
        for _ in range(100):
            if a == 0:
                break
            i1, a1, d1, x, _z = step(i, a, params, rng)
            assert d1 - d == a - x
            i, a, d = i1, a1, d1

    def test_absorption_is_permanent(self):
        params = ModelParams(n=15, kind=NONGEOMETRIC)
        rng = np.random.default_rng(3)
        final, absorbed = run_to_absorption(params, rng)
        assert absorbed and final.active == 0
        assert step(final.unvisited, final.active, params, rng)[:3] == (final.unvisited, 0, final.dead)


class TestTrajectoryPlumbing:
    def test_tmax_zero(self):
        params = ModelParams(n=10, kind=NONGEOMETRIC)
        rng = np.random.default_rng(0)
        traj = simulate_trajectory(params, 0, rng)
        assert len(traj) == 1 and traj[0] == initial_state(params)

    def test_determinism_golden(self):
        # Frozen final state for (nongeometric, N=1000, seed (2024, 0)).
        params = ModelParams(n=1000, kind=NONGEOMETRIC)
        traj = simulate_trajectory(params, 10**5, replication_rng(2024, 0))
        final = traj[-1]
        assert (final.unvisited, final.active, final.dead, final.t) == (157, 0, 844, 18)
        traj2 = simulate_trajectory(params, 10**5, replication_rng(2024, 0))
        assert traj == traj2

    def test_cap_reached_flag(self):
        params = ModelParams(n=10, kind=GEOMETRIC, p=1.0)
        rng = np.random.default_rng(1)
        final, absorbed = run_to_absorption(params, rng)
        # p = 1 never kills particles, so absorption is impossible.
        assert not absorbed and final.t == 100

    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.8), (GEOMETRIC, 1.0), (NONGEOMETRIC, None)])
    def test_absorption_run_is_trajectory_end(self, kind, p):
        # One loop runs both: a run to absorption ends where a trajectory of
        # the 10 N cap ends, drawing the same stream.
        params = ModelParams(n=12, kind=kind, p=p)
        for seed in range(20):
            final, absorbed = run_to_absorption(params, replication_rng(seed, 0))
            assert final == simulate_trajectory(params, 120, replication_rng(seed, 0))[-1]
            assert absorbed == (final.active == 0)
            if p == 1.0:
                assert not absorbed and final.t == 120


class TestTracedNames:
    """perfbench's tracer wraps `chain.step_geometric`, `step_nongeometric`,
    `sample_binomial` and `sample_empbox` by name, so every step of both runs
    goes through the names, and each EmpBox draw gets an `OccupancySpec`."""

    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.8), (NONGEOMETRIC, None)])
    def test_each_step_calls_the_wrapped_names(self, kind, p, monkeypatch):
        calls = Counter()

        def spy(name, check=None):
            real = getattr(chain, name)

            def wrapped(*args):
                calls[name] += 1
                if check is not None:
                    check(*args)
                return real(*args)

            monkeypatch.setattr(chain, name, wrapped)

        def check_spec(spec, _rng):
            assert isinstance(spec, OccupancySpec) and spec.balls >= 1

        for name in ("step_geometric", "step_nongeometric", "sample_binomial"):
            spy(name)
        spy("sample_empbox", check_spec)
        own, other = ("step_geometric", "step_nongeometric")
        if kind == NONGEOMETRIC:
            own, other = other, own
        draws_per_step = 2 if kind == GEOMETRIC else 1
        params = ModelParams(n=200, kind=kind, p=p)
        empbox_calls = 0
        for seed in range(5):
            for run in (
                lambda rng: run_to_absorption(params, rng)[0],
                lambda rng: simulate_trajectory(params, 2000, rng)[-1],
            ):
                calls.clear()
                final = run(replication_rng(seed, 0))
                assert calls[own] == final.t and calls[other] == 0
                assert calls["sample_binomial"] == draws_per_step * final.t
                assert calls["sample_empbox"] <= final.t
                empbox_calls += calls["sample_empbox"]
        assert empbox_calls > 0


class TestMomentsGeometric:
    def test_no_actives_degenerate(self):
        params = ModelParams(n=8, kind=GEOMETRIC, p=0.4)
        m = moments(ChainState(5, 0, 4), params)
        assert m.e_unvisited == 5.0
        assert m.var_unvisited == m.var_active == m.var_dead == 0.0

    def test_initial_expected_dead(self):
        p = 0.37
        params = ModelParams(n=12, kind=GEOMETRIC, p=p)
        m = moments(initial_state(params), params)
        assert m.e_dead == pytest.approx(1 - p, abs=1e-12)
        assert m.e_unvisited == pytest.approx(12 * (1 - p / 12), abs=1e-12)

    def test_brute_force_oracle(self):
        params = ModelParams(n=3, kind=GEOMETRIC, p=0.5)
        state = ChainState(2, 2, 0)
        law = geometric_joint_law(state, params)
        probs = list(law.values())
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        xs = [k[0] for k in law]
        i1s = [k[2] for k in law]
        a1s = [x + state.unvisited - i1 for x, i1 in zip(xs, i1s)]
        d1s = [params.n + 1 - i1 - a1 for i1, a1 in zip(i1s, a1s)]
        ei, vi = law_moments(i1s, probs)
        ea, va = law_moments(a1s, probs)
        ed, vd = law_moments(d1s, probs)
        mi = float(np.asarray(probs) @ np.asarray(i1s, dtype=float))
        mx = float(np.asarray(probs) @ np.asarray(xs, dtype=float))
        cov = float(
            np.asarray(probs)
            @ ((np.asarray(i1s, dtype=float) - mi) * (np.asarray(xs, dtype=float) - mx))
        )
        m = moments(state, params)
        assert m.e_unvisited == pytest.approx(ei, abs=1e-10)
        assert m.e_active == pytest.approx(ea, abs=1e-10)
        assert m.e_dead == pytest.approx(ed, abs=1e-10)
        assert m.var_unvisited == pytest.approx(vi, abs=1e-10)
        assert m.var_active == pytest.approx(va, abs=1e-10)
        assert m.var_dead == pytest.approx(vd, abs=1e-10)
        assert m.cov_unvisited_aux == pytest.approx(cov, abs=1e-10)


class TestMomentsNongeometric:
    def test_no_actives_degenerate(self):
        params = ModelParams(n=8, kind=NONGEOMETRIC)
        m = moments(ChainState(5, 0, 4), params)
        assert m.e_unvisited == 5.0
        assert m.var_unvisited == m.var_active == m.var_dead == 0.0

    def test_full_unvisited_makes_dead_deterministic(self):
        params = ModelParams(n=6, kind=NONGEOMETRIC)
        m = moments(ChainState(6, 1, 0), params)
        assert m.var_dead == 0.0
        assert m.e_unvisited == pytest.approx(6 * (1 - 1 / 6), abs=1e-12)

    def test_brute_force_oracle(self):
        params = ModelParams(n=3, kind=NONGEOMETRIC)
        state = ChainState(2, 2, 0)
        law = nongeometric_joint_law(state, params)
        probs = list(law.values())
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        zs = [k[0] for k in law]
        i1s = [k[1] for k in law]
        a1s = [z + state.unvisited - i1 for z, i1 in zip(zs, i1s)]
        d1s = [params.n + 1 - i1 - a1 for i1, a1 in zip(i1s, a1s)]
        ei, vi = law_moments(i1s, probs)
        ea, va = law_moments(a1s, probs)
        ed, vd = law_moments(d1s, probs)
        mi = float(np.asarray(probs) @ np.asarray(i1s, dtype=float))
        mz = float(np.asarray(probs) @ np.asarray(zs, dtype=float))
        cov = float(
            np.asarray(probs)
            @ ((np.asarray(i1s, dtype=float) - mi) * (np.asarray(zs, dtype=float) - mz))
        )
        m = moments(state, params)
        assert m.e_unvisited == pytest.approx(ei, abs=1e-10)
        assert m.e_active == pytest.approx(ea, abs=1e-10)
        assert m.e_dead == pytest.approx(ed, abs=1e-10)
        assert m.var_unvisited == pytest.approx(vi, abs=1e-10)
        assert m.var_active == pytest.approx(va, abs=1e-10)
        assert m.var_dead == pytest.approx(vd, abs=1e-10)
        assert m.cov_unvisited_aux == pytest.approx(cov, abs=1e-10)


class TestMomentsHighPrecision:
    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.8), (NONGEOMETRIC, 1.0)])
    @pytest.mark.parametrize("n", [10**6, 10**9])
    def test_means_against_high_precision(self, kind, p, n):
        # E I' = I q1 and E A' = survive A + I (1 - q1), q1 = (1 - hit/N)^A, against 50
        # digits over 300 random states; raising the float 1 - hit/N to the power A
        # would be off by up to 4e-8 relative at N = 1e9.
        params = ModelParams(n=n, kind=kind, p=p)
        rng = np.random.default_rng([n, len(kind)])
        with mpmath.workdps(50):
            for _ in range(300):
                i = int(rng.integers(0, n + 1))
                a = int(rng.integers(0, n + 2 - i))
                m = moments(ChainState(i, a, n + 1 - i - a), params)
                hit = mpmath.mpf(p) if kind == GEOMETRIC else mpmath.mpf(1)
                survive = mpmath.mpf(p) if kind == GEOMETRIC else mpmath.mpf(i) / n
                q1 = (1 - hit / n) ** a
                for got, ref in ((m.e_unvisited, i * q1), (m.e_active, survive * a + i * (1 - q1))):
                    assert abs(got - ref) <= 1e-15 * abs(ref), (i, a)

    @pytest.mark.parametrize("kind,p", [(GEOMETRIC, 0.8), (NONGEOMETRIC, 1.0)])
    @pytest.mark.parametrize("n", [10**3, 10**6, 10**9])
    def test_var_unvisited_against_high_precision(self, kind, p, n):
        # Var I' = I^2 (q2 - q1^2) + I (q1 - q2), against 60 digits over 200 random
        # states, to 1e-15 of the larger part I (q1 - q2); summed as
        # I ((I - 1) q2 - I q1^2 + q1) it was off by up to 1.5e-4 relative at N = 1e9.
        params = ModelParams(n=n, kind=kind, p=p)
        rng = np.random.default_rng([n, len(kind), 2])
        with mpmath.workdps(60):
            for _ in range(200):
                i = int(rng.integers(0, n + 1))
                a = int(rng.integers(0, n + 2 - i))
                got = moments(ChainState(i, a, n + 1 - i - a), params).var_unvisited
                hit = mpmath.mpf(p) if kind == GEOMETRIC else mpmath.mpf(1)
                q1, q2 = (1 - hit / n) ** a, (1 - 2 * hit / n) ** a
                ref = i * i * (q2 - q1 * q1) + i * (q1 - q2)
                assert abs(got - ref) <= 1e-15 * i * (q1 - q2), (i, a)


class TestOneStepLawEquivalence:
    """Empirical one-step law of (I', A') vs exhaustive enumeration."""

    @pytest.mark.parametrize(
        "kind,p,state,n",
        [
            (GEOMETRIC, 0.6, ChainState(3, 2, 0), 4),
            (GEOMETRIC, 0.4, ChainState(2, 2, 1), 4),
            (NONGEOMETRIC, 1.0, ChainState(3, 2, 0), 4),
            (NONGEOMETRIC, 1.0, ChainState(2, 1, 2), 4),
            (GEOMETRIC, 0.6, ChainState(9, 40, 16), 64),
            (NONGEOMETRIC, 1.0, ChainState(17, 30, 18), 64),
            (GEOMETRIC, 0.9, ChainState(64, 1, 0), 64),
        ],
    )
    def test_chi_square(self, kind, p, state, n):
        params = ModelParams(n=n, kind=kind, p=p)
        if kind == GEOMETRIC:
            law = geometric_joint_law(state, params)
            marginal = {}
            for (x, _z, i1), pr in law.items():
                key = (i1, x + state.unvisited - i1)
                marginal[key] = marginal.get(key, 0.0) + pr
        else:
            law = nongeometric_joint_law(state, params)
            marginal = {}
            for (z, i1), pr in law.items():
                key = (i1, z + state.unvisited - i1)
                marginal[key] = marginal.get(key, 0.0) + pr
        draws = 40000
        rng = np.random.default_rng([17, len(kind), int(p * 100), n, state.unvisited])
        scalar = [step(state.unvisited, state.active, params, rng)[:2] for _ in range(draws)]
        # The moment audit's batched draws of the same transition, in one call.
        i1, a1, _d1 = one_step_samples(state, params, draws, rng)
        keys = sorted(marginal)
        exp = np.array([marginal[k] * draws for k in keys])
        keep = exp >= 5
        for pairs in (scalar, zip(i1.tolist(), a1.tolist())):
            counts = Counter(pairs)
            obs = np.array([counts[k] for k in keys])
            _, pval = scipy.stats.chisquare(obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum())
            assert pval > 0.001

    @pytest.mark.parametrize("kind,cell", [(GEOMETRIC, 35), (NONGEOMETRIC, 38)])
    def test_unvisited_law_at_audit_cells(self, kind, cell):
        # I' at two N = 1000 cells of the moment audit (seed 2718, p = 0.5), drawn
        # as the audit draws them, against sum_z Bin(A, hit I/N)(z) EmpBox(z, I):
        # Z is a thinned binomial in both models.  Cell 35 is (707, 28, 266), about
        # 10 balls per draw; cell 38 is (715, 281, 5), about 200.
        draws = 20000
        cfg = ExperimentConfig(kind="moments", model=kind, p_values=(0.5,), replications=draws, seed=2718)
        state, params = moment_panel(cfg, replication_rng(2718, 999))[cell]
        assert params.n == 1000
        i, a = state.unvisited, state.active
        hit = params.p if kind == GEOMETRIC else 1.0
        law = np.zeros(i + 1)
        zs = np.arange(a + 1)
        for z, pz in zip(zs, scipy.stats.binom.pmf(zs, a, hit * i / params.n)):
            if pz > 1e-15:
                law += pz * empbox_pmf(OccupancySpec(int(z), i))
        i1, _a1, _d1 = one_step_samples(state, params, draws, replication_rng(2718, cell, 0))
        exp = law * draws
        obs = np.bincount(i1, minlength=i + 1)
        assert obs[exp == 0].sum() == 0
        keep = exp >= 5
        _, pval = scipy.stats.chisquare(obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum())
        assert pval > 0.001


class TestMonteCarloMomentAgreement:
    @pytest.mark.parametrize(
        "kind,p,state,n",
        [
            (GEOMETRIC, 0.5, ChainState(4, 2, 1), 6),
            (NONGEOMETRIC, 1.0, ChainState(4, 2, 1), 6),
        ],
    )
    def test_small_state_five_sigma(self, kind, p, state, n):
        params = ModelParams(n=n, kind=kind, p=p)
        m = moments(state, params)
        rng = np.random.default_rng(99)
        r = 2 * 10**5
        samples = np.empty((r, 3))
        for j in range(r):
            samples[j] = step(state.unvisited, state.active, params, rng)[:3]
        for col, (e_th, v_th) in zip(
            samples.T,
            [
                (m.e_unvisited, m.var_unvisited),
                (m.e_active, m.var_active),
                (m.e_dead, m.var_dead),
            ],
        ):
            se = col.std(ddof=1) / math.sqrt(r)
            if se > 0:
                assert abs(col.mean() - e_th) <= 5 * se
            else:
                assert col[0] == pytest.approx(e_th, abs=1e-9)
