import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from frogsim import harness
from frogsim.chain import ChainState, ModelParams, replication_rng, simulate_trajectory
from frogsim.cli import main
from frogsim.dynamics import det_orbit
from frogsim.harness import (
    KINDS,
    ExperimentConfig,
    fig1_data,
    fig3_data,
    final_fraction_experiment,
    format_value,
    lln_experiment,
    moment_audit,
    moment_panel,
    one_step_samples,
    peak_experiment,
    phase_sweep,
    run_experiment,
    summary_to_csv,
    summary_to_json,
)


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="nope")

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lln", n_values=(2,))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lln", p_values=(1.2,))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lln", replications=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="final", replications=1)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="moments", replications=399)
        for kind in ("lln", "fig1", "fig3"):
            with pytest.raises(ValueError, match="must not be empty"):
                ExperimentConfig(kind=kind, p_values=())
            with pytest.raises(ValueError, match="must not be empty"):
                ExperimentConfig(kind=kind, n_values=())
        for kind in ("lln", "final", "moments"):
            with pytest.raises(ValueError, match="takes one p value"):
                ExperimentConfig(kind=kind, p_values=(0.3, 0.6), replications=400)
        with pytest.raises(ValueError, match="takes one n value"):
            ExperimentConfig(kind="phase", n_values=(20, 30))
        with pytest.raises(ValueError, match="t_max must be >= 0"):
            ExperimentConfig(kind="lln", t_max=-1)
        for kind in ("fig1", "final"):
            with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
                ExperimentConfig(kind=kind, seed=-5)
        # The grid's model errors are ModelParams's own.
        with pytest.raises(ValueError, match=r"^n must be >= 3, got 2$"):
            ExperimentConfig(kind="final", n_values=(100, 2))
        with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got 1.5$"):
            ExperimentConfig(kind="phase", p_values=(1.5,))
        with pytest.raises(ValueError, match=r"^unknown model kind 'sir'$"):
            ExperimentConfig(kind="final", model="sir")
        ExperimentConfig(kind="moments", replications=400)
        with pytest.raises(ValueError, match="fig1 does not read replications, got 1"):
            ExperimentConfig(kind="fig1", replications=1)
        ExperimentConfig(kind="phase", p_values=(0.3, 0.6))
        ExperimentConfig(kind="final", n_values=(20, 30))


    def test_rejects_inputs_kind_does_not_read(self):
        for kwargs in (
            dict(kind="moments", n_values=(5000,), replications=400),
            dict(kind="fig1", n_values=(50,)),
            dict(kind="fig3", p_values=(0.3,)),
            dict(kind="peak", p_values=(0.3,)),
            *(dict(kind=kind, t_max=5, replications=400) for kind in KINDS if kind != "lln"),
        ):
            with pytest.raises(ValueError, match=f"{kwargs['kind']} does not read"):
                ExperimentConfig(**kwargs)
        for kind in ("lln", "final", "moments"):
            assert ExperimentConfig(kind=kind, replications=400).model == "nongeometric"
            with pytest.raises(ValueError, match=r"nongeometric model does not read p_values, got \(0.3,\)"):
                ExperimentConfig(kind=kind, p_values=(0.3,), replications=400)
            ExperimentConfig(kind=kind, model="geometric", replications=400, seed=9, t_max=20,
                             p_values=(0.5,), n_values=(100,))
        for kind, model, other in (
            ("phase", "geometric", "nongeometric"),
            ("fig1", "geometric", "nongeometric"),
            ("fig3", "nongeometric", "geometric"),
            ("peak", "nongeometric", "geometric"),
        ):
            assert ExperimentConfig(kind=kind).model == model
            ExperimentConfig(kind=kind, model=model, replications=100, seed=9, t_max=20,
                             p_values=(0.5,), n_values=(100,))
            if kind != "phase":  # phase reads replications
                with pytest.raises(ValueError, match=f"{kind} does not read replications, got 400"):
                    ExperimentConfig(kind=kind, replications=400)
            with pytest.raises(ValueError, match=f"{kind} computes the {model} model, got '{other}'"):
                ExperimentConfig(kind=kind, model=other)


class TestSerialization:
    def make_summary(self):
        cfg = ExperimentConfig(kind="fig1", p_values=(0.3, 0.7), seed=5)
        return run_experiment(cfg)

    def test_csv_reproducible(self):
        a = summary_to_csv(self.make_summary())
        b = summary_to_csv(self.make_summary())
        assert a == b

    def test_json_structure(self):
        payload = json.loads(summary_to_json(self.make_summary()))
        assert set(payload) == {"config", "rows", "metadata"}
        assert payload["metadata"]["seed"] == 5
        assert payload["config"]["kind"] == "fig1"
        assert len(payload["rows"]) == 2

    def test_json_is_strict_with_non_finite_z(self, tmp_path):
        # At p = 0.999 some audit cells draw 400 equal values of a law that is
        # not degenerate; their batched variance's se is 0, so z_var is nan,
        # written as "nan" in both formats.  z_mean takes the oracle's se.
        argv = ["experiment", "--kind", "moments", "--model", "geom", "--p", "0.999",
                "--reps", "400", "--seed", "0"]
        assert main(argv + ["--format", "json", "--out", str(tmp_path / "z.json")]) == 0
        assert main(argv + ["--out", str(tmp_path / "z.csv")]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        rows = json.loads((tmp_path / "z.json").read_text(), parse_constant=reject)["rows"]
        lines = (tmp_path / "z.csv").read_text().splitlines()
        columns = lines[2].split(",")
        assert [[format_value(row[c]) for c in columns] for row in rows] == [line.split(",") for line in lines[3:]]
        assert sum(row[z] == "nan" for row in rows for z in ("z_mean", "z_var")) == 21

    def test_csv_carries_seed_and_config(self):
        text = summary_to_csv(self.make_summary())
        assert "seed=5" in text
        assert "fig1" in text


class TestGoldenBytes:
    """Seeded experiment and CLI table outputs, pinned byte for byte.

    Criterion 10 reruns the same code; these digests pin the bytes across
    changes to the writers and reducers.  A digest may change only with a
    deliberate change of output format or of a sampler's stream.
    """

    CASES = {
        "lln_csv": (
            ["experiment", "--kind", "lln", "--model", "geom", "--p", "0.6", "--n", "20,40",
             "--tmax", "10", "--reps", "5", "--seed", "3"],
            "68ef6c1a6b07f8aa96d77ed55ec4915fb1d04f2d001a9f6ca3afe8b455a750a1",
        ),
        "lln_json": (
            ["experiment", "--kind", "lln", "--p", "0.5", "--n", "30", "--tmax", "8",
             "--reps", "4", "--seed", "4", "--format", "json"],
            "67c7cad8744db0af1df0972095333a95c751751aee132d9d7ed0202b3ddee531",
        ),
        "final": (
            ["experiment", "--kind", "final", "--model", "geom", "--p", "0.7", "--n", "20,50",
             "--reps", "6", "--seed", "5"],
            "bc4db976a769ffe48ae07dff522d7c0717f899ed2519536ccc10c20a2bce5417",
        ),
        "phase": (
            ["experiment", "--kind", "phase", "--p", "0.3,0.6,0.9", "--n", "30", "--reps", "5",
             "--seed", "11"],
            "34e3a79fad7c388c6dfd9a6de3a36bd86b5ea56e81187cf3842f1708d0fa8059",
        ),
        "simulate": (
            ["simulate", "--model", "geom", "--n", "50", "--p", "0.6", "--tmax", "15", "--seed", "2"],
            "f7ea73b375ec726b8fc0dad6c210a4f3432ca67ef6cb9e553151a389e638f766",
        ),
        "det_csv": (
            ["det", "--model", "nongeom", "--n", "50", "--tmax", "10"],
            "c7d94397fc088db983ca99bf89b1c714b017148ed29b008db8e2e8a77371fd3b",
        ),
        "det_json": (
            ["det", "--model", "geom", "--n", "50", "--p", "0.8", "--tmax", "10", "--format", "json"],
            "98f00ba3c22a60b872de57c5ca1112c84f41ed103543a938fa22251144614db9",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_output_digest(self, case, tmp_path):
        argv, digest = self.CASES[case]
        out = tmp_path / case
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestLln:
    def test_tmax_zero_gives_zero_deviation(self):
        cfg = ExperimentConfig(
            kind="lln", model="geometric", p_values=(0.6,), n_values=(50,), t_max=0,
            replications=10, seed=1,
        )
        s = lln_experiment(cfg)
        # Identical initial conditions: only float rounding of the scaling.
        assert s.rows[0][2] <= 1e-15

    @pytest.mark.parametrize("model,p", [("geometric", 0.3), ("nongeometric", 0.5)])
    def test_matches_per_step_loop_reference(self, model, p):
        # Small N and a long t_max, so most runs are absorbed and held frozen.
        cfg = ExperimentConfig(
            kind="lln", model=model, p_values=(p,), n_values=(10, 40), t_max=60,
            replications=20, seed=31,
        )
        rows = []
        for cell, n in enumerate(cfg.n_values):
            params = ModelParams(n=n, kind=model, p=p)
            orbit = det_orbit(params, cfg.t_max)
            devs = []
            for rep in range(cfg.replications):
                traj = simulate_trajectory(params, cfg.t_max, replication_rng(31, cell, rep))
                dev = 0.0
                for t, det in enumerate(orbit):
                    st = traj[min(t, len(traj) - 1)]
                    dev = max(
                        dev,
                        abs(st.unvisited / (n + 1) - det.iota),
                        abs(st.active / (n + 1) - det.alpha),
                        abs(st.dead / (n + 1) - det.delta),
                    )
                devs.append(dev)
            devs = np.array(devs)
            q = np.quantile(devs, [0.05, 0.5, 0.95])
            rows.append([n, 20, devs.mean(), devs.std(ddof=1), *q])
        assert lln_experiment(cfg).rows == rows

    def test_mean_deviation_decreases_in_n(self):
        cfg = ExperimentConfig(
            kind="lln", model="nongeometric", n_values=(100, 1000), t_max=10,
            replications=50, seed=2,
        )
        s = lln_experiment(cfg)
        means = [r[2] for r in s.rows]
        assert means[0] > means[1]

    def test_quantiles_ordered(self):
        cfg = ExperimentConfig(
            kind="lln", model="geometric", p_values=(0.6,), n_values=(100,), t_max=10,
            replications=30, seed=3,
        )
        s = lln_experiment(cfg)
        _, _, _, _, q05, q50, q95 = s.rows[0]
        assert q05 <= q50 <= q95


class TestFinalFraction:
    def test_subcritical_dies_early(self):
        cfg = ExperimentConfig(
            kind="final", model="geometric", p_values=(0.2,), n_values=(1000,),
            replications=50, seed=4,
        )
        s = final_fraction_experiment(cfg)
        row = dict(zip(s.columns, s.rows[0]))
        assert row["capped"] == 0
        assert row["mean_unvisited_frac"] > 0.95

    def test_nongeometric_near_limit(self):
        cfg = ExperimentConfig(
            kind="final", model="nongeometric", n_values=(10**4,), replications=40,
            seed=5,
        )
        s = final_fraction_experiment(cfg)
        row = dict(zip(s.columns, s.rows[0]))
        assert 0.16 < row["q50"] < 0.19

    def test_reports_capped_runs(self):
        # At p = 1 no frog dies, so every run stops at the 10 N step cap.
        cfg = ExperimentConfig(kind="final", model="geometric", p_values=(1.0,), n_values=(20, 40),
                               replications=3, seed=1)
        s = final_fraction_experiment(cfg)
        rows = [dict(zip(s.columns, row)) for row in s.rows]
        assert [(r["capped"], r["mean_absorption_time"]) for r in rows] == [(3, 200.0), (3, 400.0)]


class TestPhaseSweep:
    def test_requires_geometric(self):
        with pytest.raises(ValueError, match="phase computes the geometric model, got 'nongeometric'"):
            phase_sweep(ExperimentConfig(kind="phase", model="nongeometric"))

    def test_transition_endpoints(self):
        cfg = ExperimentConfig(
            kind="phase", model="geometric", p_values=(0.1, 0.9), n_values=(2000,),
            replications=40, seed=6,
        )
        s = phase_sweep(cfg)
        lo = dict(zip(s.columns, s.rows[0]))
        hi = dict(zip(s.columns, s.rows[1]))
        assert lo["mean_visited_frac"] < 0.05
        assert hi["mean_visited_frac"] > lo["mean_visited_frac"]


class TestMomentAudit:
    def test_z_scores_bounded_small_run(self):
        cfg = ExperimentConfig(
            kind="moments", model="nongeometric", replications=20000, seed=7,
        )
        s = moment_audit(cfg)
        for row in s.rows:
            d = dict(zip(s.columns, row))
            assert math.isfinite(d["z_mean"]) and abs(d["z_mean"]) <= 6
            assert math.isfinite(d["z_var"]) and abs(d["z_var"]) <= 6

    def test_degenerate_state_zero_z(self):
        cfg = ExperimentConfig(kind="moments", model="geometric", p_values=(0.5,),
                               replications=5000, seed=8)
        s = moment_audit(cfg)
        for row in s.rows:
            d = dict(zip(s.columns, row))
            if d["active"] == 0:
                assert d["z_mean"] == 0.0 and d["z_var"] == 0.0

    def test_constant_sample_of_a_law_that_is_not_degenerate_is_undetermined(self):
        # At N = 3, p = 0.999, state (I, A, D) = (0, 2, 2): I' = 0 always, but
        # A' = X ~ Bin(2, p), with Var 2p(1 - p) ~ 0.002, and D' = 4 - X.  All
        # 400 draws of this cell at seed 0 are X = 2, so the spread of A' and D'
        # is not seen: their z_var is nan, not inf.  Their z_mean takes the
        # oracle's se, sqrt(Var / 400): (2 - 2p) / sqrt(2p(1 - p) / 400) = 0.895
        # for A', and -0.895 for D'.  I' is degenerate and agrees: 0.
        cfg = ExperimentConfig(kind="moments", model="geometric", p_values=(0.999,), replications=400, seed=0)
        panel = moment_panel(cfg, replication_rng(0, 999))
        cell = panel.index((ChainState(0, 2, 2), ModelParams(3, "geometric", 0.999)))
        samples = one_step_samples(*panel[cell], cfg.replications, replication_rng(0, cell, 0))
        assert [set(x.tolist()) for x in samples] == [{0}, {2}, {2}]
        s = moment_audit(cfg)
        z = {r[6]: r[7:] for r in s.rows if r[1:6] == [3, 0.999, 0, 2, 2]}
        assert z["unvisited"] == [0.0, 0.0]
        assert z["active"][0] == pytest.approx(0.895, abs=1e-3)
        assert z["dead"][0] == pytest.approx(-0.895, abs=1e-3)
        assert math.isnan(z["active"][1]) and math.isnan(z["dead"][1])

    def test_audit_finds_a_biased_sampler(self, monkeypatch):
        # The geometric X drawn at 1.01 p in place of p: at 20,000 draws the
        # audit must flag it, with some |z| > 5 (unbiased, the largest is 2.8).
        # The workers are forked, so they draw with the biased sampler too.
        real = harness.sample_binomial_batch
        monkeypatch.setattr(harness, "sample_binomial_batch",
                            lambda n, q, draws, rng: real(n, q * 1.01, draws, rng))
        cfg = ExperimentConfig(kind="moments", model="geometric", p_values=(0.5,), replications=20_000, seed=2718)
        z = [abs(v) for row in moment_audit(cfg).rows for v in row[7:]]
        assert all(map(math.isfinite, z))
        assert max(z) > 5

    def test_threaded_peak_memory_one_cell_per_worker(self, monkeypatch):
        # A process reduces its cell's samples to z rows before it takes the
        # next cell, so its peak holds one cell, never the 54-cell panel: in
        # the plain loop (1 CPU), and in the parent, which holds only results,
        # beside 3 workers.  One cell: its samples, binomials and temporaries
        # in 64 B per draw, and a fixed 20 B x 2**16 for the EmpBox CDF table
        # and one block of doubles.
        draws = 20_000
        cfg = ExperimentConfig(kind="moments", model="geometric", replications=draws, seed=2718)
        for workers in (1, 3):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
            tracemalloc.start()
            try:
                moment_audit(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * draws + 20 * 2**16, workers

    @pytest.mark.parametrize("kind,bound", [("final", 64), ("phase", 64), ("lln", 32)])
    def test_peak_memory_per_replication(self, kind, bound):
        # A replication leaves only its numbers in its cell's array: (I, t,
        # absorbed) as 24 B for final and phase, a float as 8 B for lln.  At
        # geometric p = 0.1, N = 10 (lln with t_max = 1), the tracemalloc peak
        # may grow by at most `bound` bytes per replication from 2,000 to
        # 12,000 replications (41, 45 and 16 B at seed 1).
        def peak(replications):
            cfg = ExperimentConfig(kind=kind, model="geometric", p_values=(0.1,), n_values=(10,),
                                   t_max=1 if kind == "lln" else 20, replications=replications, seed=1)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2_000)  # keeps first-call costs (imports, caches) out of the measured pair
        assert (peak(12_000) - peak(2_000)) / 10_000 < bound

    @pytest.mark.parametrize("model,cell", [("geometric", 35), ("nongeometric", 38)])
    def test_integer_sums_match_two_pass(self, model, cell):
        # The audit's statistics from exact int64 power sums, at two N = 1000
        # cells, against float64 two-pass ones; 20011 draws leave 11 after the
        # last whole batch, which count in the mean alone.
        cfg = ExperimentConfig(kind="moments", model=model, p_values=(0.5,), replications=20_011, seed=2718)
        state, params = moment_panel(cfg, replication_rng(2718, 999))[cell]
        assert params.n == 1000
        batches = harness._VAR_BATCHES
        for x in one_step_samples(state, params, cfg.replications, replication_rng(2718, cell, 0)):
            y = x.astype(float)
            size = y.size // batches
            per_batch = y[: size * batches].reshape(batches, size).var(ddof=1, axis=1)
            reference = (y.mean(), per_batch.mean(), per_batch.std(ddof=1) / np.sqrt(batches))
            mean, (var, se_var) = harness._moment_estimates(x)
            assert np.allclose((mean, var, se_var), reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("state", [ChainState(500, 300, 201), ChainState(500, 0, 501)])
    def test_nongeometric_samples_take_one_double_per_draw_each(self, state):
        # Z ~ Bin(A, I/N) from sample_binomial_batch, one double per draw and
        # none at A = 0, then EmpBox(Z, I), one double per draw.  At A I/N = 150,
        # numpy's own binomial would take at least two doubles per draw.
        params = ModelParams(n=1000, kind="nongeometric")
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        one_step_samples(state, params, 500, rng)
        ref.random(500 * (1 + (state.active > 0)))
        assert rng.integers(2**62) == ref.integers(2**62)

    def test_one_step_samples_conservation(self):
        params = ModelParams(n=10, kind="geometric", p=0.6)
        state = ChainState(6, 3, 2)
        rng = np.random.default_rng(0)
        i1, a1, d1 = one_step_samples(state, params, 500, rng)
        assert (i1 + a1 + d1 == 11).all()
        assert (i1 <= 6).all() and (d1 >= 2).all()


class TestFigures:
    def test_fig1_schema_and_monotone(self):
        grid = tuple(round(0.05 * k, 2) for k in range(1, 20))
        cfg = ExperimentConfig(kind="fig1", p_values=grid)
        s = fig1_data(cfg)
        vals = [r[1] for r in s.rows]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0
        d = dict(s.rows)
        assert d[0.5] == 1.0

    def test_fig1_limit_near_one(self):
        cfg = ExperimentConfig(kind="fig1", p_values=(0.999,))
        s = fig1_data(cfg)
        assert s.rows[0][1] < 0.01

    def test_fig3_interval(self):
        cfg = ExperimentConfig(kind="fig3", n_values=(100, 1000))
        s = fig3_data(cfg)
        for row in s.rows:
            d = dict(zip(s.columns, row))
            assert d["converged"]
            assert 0.17 < d["iota_inf"] < 0.18

    def test_peak_rows(self):
        cfg = ExperimentConfig(kind="peak", n_values=(3, 100))
        s = peak_experiment(cfg)
        for row in s.rows:
            d = dict(zip(s.columns, row))
            assert d["pattern_ok"] and d["completed"]


class TestReplications:
    def test_streams_keyed_by_seed_cell_rep(self):
        from frogsim.chain import replication_rng

        a = replication_rng(7, 1, 2).integers(0, 2**62, size=4)
        b = np.random.default_rng(np.random.SeedSequence([7, 1, 2])).integers(0, 2**62, size=4)
        assert np.array_equal(a, b)


class _TwoArgumentError(Exception):
    def __init__(self, a, b):
        super().__init__(a)


class TestMapInOrder:
    """The one driver, `harness._map_in_order`, on forked workers (2 usable CPUs)."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def forked(self, monkeypatch):
        """The pids of the workers forked while the test runs."""
        pids, fork = [], os.fork

        def spy():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        return pids

    @staticmethod
    def assert_reaped(pids):
        # Every worker was waited for: none is left running or as a zombie.
        assert pids
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_results_in_key_order_no_worker_left(self, forked):
        results = harness._map_in_order(lambda k: (k, os.getpid()), range(6), True)
        assert [k for k, _ in results] == list(range(6))
        assert {pid for _, pid in results} <= set(forked)
        self.assert_reaped(forked)

    def test_more_keys_than_a_buffer_holds_come_back_in_order(self, forked):
        keys = range(50_000)
        results = harness._map_in_order(lambda k: (k, os.getpid()), keys, True)
        assert [k for k, _ in results] == list(keys)
        assert {pid for _, pid in results} <= set(forked)
        self.assert_reaped(forked)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_key_runs_exactly_once(self, tmp_path, monkeypatch, forked, workers):
        # Every call appends its key, 8 bytes in one write, to a file opened
        # with O_APPEND, so the file lists each call that ran, in any worker.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
        ran = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def fn(key):
            os.write(ran, key.to_bytes(8, "little"))
            return key

        try:
            results = harness._map_in_order(fn, range(20_000), True)
        finally:
            os.close(ran)
        calls = np.frombuffer((tmp_path / "ran").read_bytes(), dtype="<i8")
        assert np.array_equal(np.sort(calls), np.arange(20_000))
        assert results == list(range(20_000))
        assert len(forked) == workers
        self.assert_reaped(forked)

    def test_worker_error_reraised_no_worker_left(self, forked):
        def fn(key):
            if key == 3:
                raise ValueError(f"bad key {key}")
            return key

        with pytest.raises(ValueError, match="^bad key 3$") as info:
            harness._map_in_order(fn, range(6), True)
        assert type(info.value) is ValueError
        self.assert_reaped(forked)

    def test_lowest_failing_key_reraised(self, forked):
        def fn(key):
            if key in (2, 5):
                raise KeyError(key)
            return key

        with pytest.raises(KeyError) as info:
            harness._map_in_order(fn, range(8), True)
        assert info.value.args == (2,)
        self.assert_reaped(forked)

    def test_worker_that_dies_without_reporting_raises(self, forked):
        # A worker that ends without its report (here fn exits it on key 3)
        # makes the call raise, not wait; SIGALRM's default action ends the
        # test process if it hangs.
        parent = os.getpid()

        def fn(key):
            if key == 3 and os.getpid() != parent:
                os._exit(3)
            return key

        signal.alarm(60)
        try:
            with pytest.raises(ChildProcessError, match="exited with code 3 without reporting"):
                harness._map_in_order(fn, range(8), True)
        finally:
            signal.alarm(0)
        self.assert_reaped(forked)

    def test_result_that_cannot_be_pickled_raises(self, forked):
        with pytest.raises(TypeError, match="cannot pickle"):
            harness._map_in_order(lambda k: threading.Lock() if k == 4 else k, range(6), True)
        self.assert_reaped(forked)

    def test_error_that_cannot_be_pickled_raises_its_name(self, forked):
        def fn(key):
            if key == 4:
                raise ValueError(threading.Lock())
            return key

        with pytest.raises(RuntimeError, match="^ValueError: <unlocked _thread.lock object"):
            harness._map_in_order(fn, range(6), True)
        self.assert_reaped(forked)

    def test_error_that_cannot_be_rebuilt_raises_its_name(self, forked):
        # It pickles, but unpickling calls _TwoArgumentError("x") and fails.
        def fn(key):
            if key == 4:
                raise _TwoArgumentError("x", 1)
            return key

        with pytest.raises(RuntimeError, match="^_TwoArgumentError: x$"):
            harness._map_in_order(fn, range(6), True)
        self.assert_reaped(forked)

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_at_fork_waits_for_the_workers_handlers(self, monkeypatch, signum):
        # A worker signalled as soon as it is forked holds the signal until its
        # own handlers are set: it then ignores SIGINT and dies of SIGTERM.  Had
        # the signal reached the caller's handlers, the worker would leave
        # through os._exit(99) instead.
        pids, fork = [], os.fork

        def spy():
            pid = fork()
            if pid == 0:
                try:
                    os.kill(os.getpid(), signum)
                    time.sleep(0.05)
                except BaseException:
                    os._exit(99)
            else:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        if signum == signal.SIGINT:
            assert harness._map_in_order(lambda k: k, range(6), True) == list(range(6))
        else:
            with pytest.raises(ChildProcessError, match=f"exited with code {-signum} without"):
                harness._map_in_order(lambda k: k, range(6), True)
        self.assert_reaped(pids)

    def test_sigterm_at_fork_ends_the_worker_just_forked(self, monkeypatch):
        # A SIGTERM to the caller right after a fork returns waits until the
        # worker's pid is kept, so that worker is ended and reaped too.
        pids, fork = [], os.fork

        def spy():
            pid = fork()
            if pid:
                pids.append(pid)
                os.kill(os.getpid(), signal.SIGTERM)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        with pytest.raises(SystemExit) as info:
            harness._map_in_order(lambda k: time.sleep(10), range(4), True)
        assert info.value.code == 128 + signal.SIGTERM
        assert len(pids) == 1
        self.assert_reaped(pids)

    def test_workers_and_caller_keep_the_callers_signal_mask(self):
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGUSR1})
        try:
            results = harness._map_in_order(
                lambda k: signal.pthread_sigmask(signal.SIG_BLOCK, set()), range(4), True
            )
            assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == mask | {signal.SIGUSR1}
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        assert results == [mask | {signal.SIGUSR1}] * 4

    def test_workers_inherit_the_task_and_leave_ctrl_c_to_the_parent(self):
        results = harness._map_in_order(
            lambda k: (signal.getsignal(signal.SIGINT) is signal.SIG_IGN, os.getpid()), range(4), True
        )
        assert all(ignored for ignored, _ in results)
        assert os.getpid() not in {pid for _, pid in results}

    @pytest.mark.parametrize("fallback", ["no-fork", "other-thread"])
    def test_fallback_runs_in_process_same_bytes(self, tmp_path, monkeypatch, fallback):
        # Without `os.fork`, or while another thread runs (a
        # fork would copy only this one), the work runs in this process and
        # writes the same bytes as on forked workers.
        from frogsim import chain

        monkeypatch.setattr(harness, "_PARALLEL_MIN_N", 0)
        pids = tmp_path / "pids"
        real = chain.run_to_absorption

        def spy(*a):
            with open(pids, "a") as f:
                f.write(f"{os.getpid()}\n")
            return real(*a)

        monkeypatch.setattr(chain, "run_to_absorption", spy)
        cfg = ExperimentConfig(kind="final", model="geometric", p_values=(0.8,), n_values=(50, 80),
                               replications=6, seed=3)

        def run():
            pids.write_text("")
            out = summary_to_csv(final_fraction_experiment(cfg))
            return out, set(pids.read_text().split())

        forked, forked_in = run()
        if fallback == "no-fork":
            monkeypatch.delattr(os, "fork")
            plain, plain_in = run()
        else:
            stop = threading.Event()
            other = threading.Thread(target=stop.wait)
            other.start()
            try:
                plain, plain_in = run()
            finally:
                stop.set()
                other.join(timeout=10)
            assert not other.is_alive()
        assert forked_in - {str(os.getpid())}
        assert plain_in == {str(os.getpid())}
        assert plain == forked

    def test_sigterm_ends_busy_workers_quietly(self, tmp_path):
        # A `final` run whose replications go to 2 workers gets SIGTERM once
        # both workers have started a replication.  The pool must end the
        # workers before the process exits with 128 + 15: a worker that
        # outlives its parent finishes its task, then dies of BrokenPipeError
        # with a traceback.  Reading stderr to EOF waits for every worker.
        pids = tmp_path / "pids"
        pids.write_text("")
        script = (
            "import os, sys\n"
            "from frogsim import chain, cli, harness\n"
            "harness._usable_cpus = lambda: 2\n"
            "harness._PARALLEL_MIN_N = 0\n"
            "real = chain.run_to_absorption\n"
            "def spy(*a):\n"
            "    with open(sys.argv[1], 'a') as f:\n"
            "        f.write(f'{os.getpid()}\\n')\n"
            "    return real(*a)\n"
            "chain.run_to_absorption = spy\n"
            "sys.exit(cli.main(sys.argv[2:]))\n"
        )
        argv = ["experiment", "--kind", "final", "--model", "geom", "--p", "0.8", "--n", "2000",
                "--reps", "100000", "--seed", "3", "--out", str(tmp_path / "final.csv")]
        proc = subprocess.Popen([sys.executable, "-c", script, str(pids), *argv],
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30
            while len(set(pids.read_text().split()) - {str(proc.pid)}) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM
        assert "Traceback" not in err, err

    def test_sigterm_handler_restored(self):
        def own(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, own)
        try:
            assert harness._map_in_order(lambda k: k, range(4), True) == [0, 1, 2, 3]
            assert signal.getsignal(signal.SIGTERM) is own
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestDispatch:
    def test_all_kinds_dispatch(self):
        cfg = ExperimentConfig(kind="peak", n_values=(10,))
        s = run_experiment(cfg)
        assert s.columns[0] == "n"
