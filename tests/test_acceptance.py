"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from frogsim import chain, dynamics
from frogsim.harness import ExperimentConfig, fig3_data, lln_experiment, moment_audit
from frogsim.occupancy import (
    OccupancySpec,
    empbox_mean,
    empbox_pmf,
    empbox_variance,
    sample_empbox_batch,
)
from test_occupancy import enumerate_empbox_pmf


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_occupancy_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for b in range(9):
        for c in range(1, 9):
            pmf = empbox_pmf(OccupancySpec(b, c))
            oracle = np.array([float(v) for v in enumerate_empbox_pmf(b, c)])
            worst = max(worst, float(np.abs(pmf - oracle).max()))
            xs = np.arange(c + 1)
            mean = float(oracle @ xs)
            var = float(oracle @ (xs - mean) ** 2)
            worst = max(worst, abs(empbox_mean(OccupancySpec(b, c)) - mean))
            worst = max(worst, abs(empbox_variance(OccupancySpec(b, c)) - var))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: occupancy pmf/moments vs enumeration (b,c <= 8)",
        worst <= 1e-10 and elapsed < 10,
        f"max abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_sampler_fidelity():
    t0 = time.perf_counter()
    panels = [
        (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (8, 4),
        (3, 5), (10, 5), (6, 6), (12, 6), (7, 7), (10, 8),
    ]
    draws = 10**5
    worst_p = 1.0
    for idx, (b, c) in enumerate(panels):
        rng = np.random.default_rng([101, idx])
        sample = sample_empbox_batch(np.full(draws, b), c, rng)
        obs = np.bincount(sample, minlength=c + 1)
        exp = empbox_pmf(OccupancySpec(b, c)) * draws
        keep = exp >= 5
        _, pval = scipy.stats.chisquare(
            obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum()
        )
        worst_p = min(worst_p, pval)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2: chi-square sampler fidelity, 12 panels x 1e5 draws",
        worst_p > 0.001 and elapsed < 30,
        f"min p-value {worst_p:.4f}, {elapsed:.1f}s",
    )


def test_criterion_03_moment_oracle_audit():
    t0 = time.perf_counter()
    worst = 0.0
    for model in ("geometric", "nongeometric"):
        cfg = ExperimentConfig(
            kind="moments", model=model, p_values=(0.5,), replications=2 * 10**5,
            seed=2718,
        )
        s = moment_audit(cfg)
        for row in s.rows:
            d = dict(zip(s.columns, row))
            for z in (d["z_mean"], d["z_var"]):
                if not math.isfinite(z):
                    report("criterion 3: moment-oracle audit", False, f"non-finite z in {d}")
                worst = max(worst, abs(z))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3: Monte Carlo one-step moments vs analytic oracles",
        worst <= 5.0 and elapsed < 300,
        f"max |z| {worst:.2f}, {elapsed:.0f}s",
    )


def test_criterion_04_lambert_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    grid = np.concatenate([[-1 / math.e + 1e-9], np.logspace(-9, 6, 200)])
    for x in grid:
        w = dynamics.lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    remark_err = abs(dynamics.iota_infinity(2 / 3) - 0.203188)
    subcritical_ok = all(dynamics.iota_infinity(p) == 1.0 for p in (0.1, 0.3, 0.5))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 4: Lambert residuals and closed-form limits",
        worst <= 1e-12 and remark_err <= 5e-7 and subcritical_ok and elapsed < 1,
        f"residual {worst:.1e}, remark err {remark_err:.1e}, {elapsed:.2f}s",
    )


def test_criterion_05_cross_oracle_limits():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (0.3, 0.55, 0.8):
        for n in (10**2, 10**4):
            a = dynamics.iterate_limit(chain.ModelParams(n, chain.GEOMETRIC, p)).iota_inf
            b = dynamics.fixed_point_tauN(p, n)
            worst = max(worst, abs(a - b))
    bound_ok = all(
        dynamics.fixed_point_tauN(p, n) < 2 * (1 - p)
        for p in (0.6, 0.8, 0.95)
        for n in (10**2, 10**4)
    )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5: orbit limit vs fixed-point solver, supercritical bound",
        worst <= 1e-8 and bound_ok and elapsed < 30,
        f"max gap {worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_06_figure3_reproduction():
    t0 = time.perf_counter()
    grid = (10**2, 10**3, 10**4, 10**5, 10**6)
    s = fig3_data(ExperimentConfig(kind="fig3", n_values=grid))
    vals = [dict(zip(s.columns, row))["iota_inf"] for row in s.rows]
    in_interval = all(0.17 < v < 0.18 for v in vals)
    # The grid increase sits below float64 resolution of the orbit at large
    # N (genuine oscillation ~1e-11 between N=1e4 and 1e5), so monotonicity
    # is checked to 1e-9 rather than exactly.
    nondecreasing = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    final_err = abs(vals[-1] - 0.174545)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 6: nongeometric limit values across N (figure data)",
        in_interval and nondecreasing and final_err <= 5e-4 and elapsed < 120,
        f"values {[f'{v:.8f}' for v in vals]}, final err {final_err:.1e}, {elapsed:.1f}s",
    )


def test_criterion_07_unimodal_pattern():
    t0 = time.perf_counter()
    results = {n: dynamics.alpha_peak_index(n) for n in (3, 10, 10**2, 10**3, 10**4)}
    ok = all(r.completed and r.pattern_ok for r in results.values())
    elapsed = time.perf_counter() - t0
    peaks = {n: r.index for n, r in results.items()}
    report(
        "criterion 7: active-fraction unimodal pattern",
        ok and elapsed < 60,
        f"peaks {peaks}, {elapsed:.1f}s",
    )


def test_criterion_08_lln_decreasing_deviation():
    t0 = time.perf_counter()
    ok = True
    details = []
    for model, p in (("geometric", 0.6), ("nongeometric", 0.5)):
        cfg = ExperimentConfig(
            kind="lln", model=model, p_values=(p,), n_values=(10**2, 10**3, 10**4),
            t_max=20, replications=200, seed=31,
        )
        s = lln_experiment(cfg)
        means = [row[2] for row in s.rows]
        ok = ok and means[0] > means[1] > means[2] and means[2] < 0.05
        details.append(f"{model}: {[f'{m:.4f}' for m in means]}")
    elapsed = time.perf_counter() - t0
    report(
        "criterion 8: LLN deviation decreasing in N, small at N=1e4",
        ok and elapsed < 300,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


LLN_WHOLE_N = (10**2, 10**3, 10**4, 10**5)


def test_lln_whole_outbreak_nongeometric():
    # Criterion 8 beside the whole outbreak: by t = 80 the nongeometric orbit
    # has long settled at every N.  The deviation must fall at each N, at
    # about N^-1/2: sqrt(N) * mean_dev measured 1.03, 1.13, 1.26 and 1.37 at
    # this seed, so it must stay in the band [0.8, 2].
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="lln", model="nongeometric", n_values=LLN_WHOLE_N, t_max=80,
                           replications=200, seed=31)
    means = [row[2] for row in lln_experiment(cfg).rows]
    scaled = [math.sqrt(n) * m for n, m in zip(LLN_WHOLE_N, means)]
    report(
        "LLN over the whole nongeometric outbreak: mean_dev falls at about N^-1/2",
        all(a > b for a, b in zip(means, means[1:])) and all(0.8 <= s <= 2.0 for s in scaled),
        f"mean_dev {[f'{m:.4f}' for m in means]}, sqrt(N) mean_dev {[f'{s:.2f}' for s in scaled]}, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_lln_whole_outbreak_geometric_aligned():
    # Geometric p = 0.8 over the whole outbreak.  Compared at equal times,
    # the deviation does not fall in N: some outbreaks die out early (minor
    # ones), and the branching phase shifts the time at which the rest take
    # off.  So each run that reaches 5% visited (a major outbreak) is compared
    # with the orbit from the step at which each first reaches 5%, over the
    # next 40 steps, an absorbed run held at its final state.  Minor outbreaks
    # are counted and left out; the major ones' mean deviation must fall in N.
    t0 = time.perf_counter()
    horizon, t_max, reps, seed = 40, 200, 100, 5
    means, minors = [], []
    for cell, n in enumerate(LLN_WHOLE_N):
        params = chain.ModelParams(n, "geometric", 0.8)
        orbit = np.array([(s.iota, s.alpha, s.delta) for s in dynamics.det_orbit(params, t_max)])
        start = int(np.argmax(orbit[:, 0] <= 0.95))
        devs = []
        for rep in range(reps):
            traj = chain.simulate_trajectory(params, t_max, chain.replication_rng(seed, cell, rep))
            counts = np.array([(s.unvisited, s.active, s.dead) for s in traj]) / (n + 1)
            crossed = np.flatnonzero(counts[:, 0] <= 0.95)
            if not crossed.size:
                continue
            assert traj[-1].active == 0 or crossed[0] + horizon < len(traj)
            steps = np.minimum(crossed[0] + np.arange(horizon + 1), len(traj) - 1)
            devs.append(np.abs(counts[steps] - orbit[start : start + horizon + 1]).max())
        means.append(float(np.mean(devs)))
        minors.append(reps - len(devs))
    report(
        "LLN over the whole geometric outbreak, aligned at 5% visited: major-outbreak deviation falls",
        all(a > b for a, b in zip(means, means[1:])),
        f"aligned mean_dev {[f'{m:.4f}' for m in means]}, minor outbreaks {minors} of {reps}, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_09_phase_transition():
    t0 = time.perf_counter()
    n = 10**4
    reps = 200
    # Subcritical: p = 0.3, mean visited fraction < 0.02.
    params = chain.ModelParams(n=n, kind="geometric", p=0.3)
    visited = []
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([41, rep]))
        final, _ = chain.run_to_absorption(params, rng)
        visited.append((n + 1 - final.unvisited) / (n + 1))
    sub_ok = float(np.mean(visited)) < 0.02
    # Supercritical: p = 0.8, every run near 1 or near the fixed point.
    params = chain.ModelParams(n=n, kind="geometric", p=0.8)
    fp = dynamics.fixed_point_tauN(0.8, n)
    bad = 0
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([43, rep]))
        final, _ = chain.run_to_absorption(params, rng)
        frac = final.unvisited / (n + 1)
        if not (abs(frac - 1.0) <= 0.03 or abs(frac - fp) <= 0.03):
            bad += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 9: phase transition (subcritical mean, supercritical bimodality)",
        sub_ok and bad == 0 and elapsed < 300,
        f"mean visited(p=0.3) {np.mean(visited):.5f}, off-cluster runs {bad}, {elapsed:.0f}s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    import subprocess
    import sys

    t0 = time.perf_counter()
    cases = [
        ["simulate", "--model", "geom", "--n", "300", "--p", "0.7", "--tmax", "40", "--seed", "5"],
        ["det", "--model", "nongeom", "--n", "100", "--tmax", "30"],
        ["experiment", "--kind", "final", "--model", "nongeom", "--n", "100",
         "--reps", "10", "--seed", "6", "--format", "json"],
    ]
    ok = True
    for idx, args in enumerate(cases):
        a, b = tmp_path / f"{idx}a", tmp_path / f"{idx}b"
        for path in (a, b):
            res = subprocess.run(
                [sys.executable, "-m", "frogsim.cli", *args, "--out", str(path)],
                capture_output=True,
            )
            ok = ok and res.returncode == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    report("criterion 10: CLI byte-identical reruns", ok, f"{elapsed:.1f}s")
