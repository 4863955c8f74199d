"""The benchmark's workloads: `frogsim experiment` calls and their output checks.

A workload is a list of operations, each one `frogsim experiment` call.  The
benchmark seed fixes the frogsim seeds, so every round of a run repeats the
same calls and must write the same bytes.  Each check tests an output against
a value computed in `oracles` or against a property the method must have;
none compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles

# Criterion 3 of the acceptance suite audits seed 2718.  The audit keeps it for
# every benchmark seed: its 20 random N = 1000 panel cells change the work by
# about 30% from one seed to the next, and each call adds 324 z-tests, so a
# panel per seed would make the timing unsteady and a spurious |z| > 5 likely.
AUDIT_SEED = 2718
AUDIT_DRAWS = 20_000
Z_LIMIT = 5.0
N_GRID = (100, 1_000, 10_000)
REPLICAS = 200
LARGE_N = 1_000_000
LARGE_REPS_NONGEOM = 30
LARGE_REPS_GEOM = 300


class CheckError(Exception):
    """An output that fails a check."""


@dataclass
class Op:
    argv: list[str]
    samples: int
    check: Callable[[list[dict]], None]
    known_fault: str | None = None  # why this call fails until the program is fixed

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def parse_csv(text: str) -> list[dict]:
    """Rows of a frogsim CSV file (comment lines skipped), values typed."""
    lines = [row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]
    if not lines:
        raise CheckError("no header line")
    header = lines[0]
    return [dict(zip(header, (_value(v) for v in row))) for row in lines[1:]]


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _columns(rows, names):
    require(bool(rows), "no rows")
    missing = [c for c in names if c not in rows[0]]
    require(not missing, f"missing columns {missing}")


def _fractions(rows, names):
    for row in rows:
        for c in names:
            require(0.0 <= row[c] <= 1.0, f"{c}={row[c]} outside [0, 1]")


def _experiment(kind, model, seed, *, p=None, n=None, reps=None, tmax=None):
    argv = ["experiment", "--kind", kind, "--model", model, "--seed", str(seed)]
    for flag, value in (("--p", p), ("--n", n), ("--reps", reps), ("--tmax", tmax)):
        if value is not None:
            text = ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)
            argv += [flag, text]
    return argv


# ---------------------------------------------------------------- audit


def check_moments(model: str, p: float, oracle=None) -> Callable[[list[dict]], None]:
    """Moment audit: every z finite and small, one row per component per cell,
    the exhaustive N in {3, 4} cells present and their closed-form moments
    equal to the exact enumeration.  `oracle(state, n)` returns frogsim's
    closed-form one-step moments; by default it is read from frogsim.chain."""

    def check(rows):
        _columns(rows, ["model", "n", "unvisited", "active", "dead", "component", "z_mean", "z_var"])
        for row in rows:
            for c in ("z_mean", "z_var"):
                require(math.isfinite(row[c]) and abs(row[c]) <= Z_LIMIT, f"{c}={row[c]} in {row}")
        require(len(rows) % 3 == 0, f"{len(rows)} rows is not three per cell")
        cells = []
        for k in range(0, len(rows), 3):
            triple = rows[k : k + 3]
            require([r["component"] for r in triple] == ["unvisited", "active", "dead"],
                    f"components of cell {k // 3}: {[r['component'] for r in triple]}")
            require(all(r["model"] == model for r in triple), f"model column is not {model}")
            cells.append((triple[0]["n"], triple[0]["unvisited"], triple[0]["active"], triple[0]["dead"]))
        small = [c for c in cells if c[0] in (3, 4)]
        expected = [(n, *s) for n in (3, 4) for s in oracles.simplex_states(n)]
        require(sorted(small) == sorted(expected), "N in {3, 4} cells are not the whole simplex")
        big = [c for c in cells if c[0] not in (3, 4)]
        require(len(big) == 20 and all(n == 1000 and i >= 1 and a >= 1 and i + a + d == n + 1
                                       for n, i, a, d in big), f"large-N cells {big}")
        moments = oracle or _frogsim_moments(model, p)
        for n, i, a, d in small:
            exact = oracles.one_step_exact(n, i, a, model, p)
            closed = moments((i, a, d), n)
            for comp, (mean, var) in exact.items():
                e_th, v_th = closed[comp]
                require(abs(e_th - mean) <= 1e-9 and abs(v_th - var) <= 1e-9,
                        f"N={n} state {(i, a, d)} {comp}: closed form ({e_th}, {v_th}) "
                        f"!= enumeration ({mean}, {var})")

    return check


def _frogsim_moments(model, p):
    from frogsim import chain

    fn = chain.moments_geometric if model == "geometric" else chain.moments_nongeometric

    def moments(state, n):
        m = fn(chain.ChainState(*state), chain.ModelParams(n=n, kind=model, p=p))
        return {
            "unvisited": (m.e_unvisited, m.var_unvisited),
            "active": (m.e_active, m.var_active),
            "dead": (m.e_dead, m.var_dead),
        }

    return moments


def audit(seed: int) -> list[Op]:
    """Criterion 3's moment audit for both models at p = 0.5, with fewer draws."""
    cells = sum(len(oracles.simplex_states(n)) for n in (3, 4)) + 20
    return [
        Op(_experiment("moments", m, AUDIT_SEED, p=0.5, reps=AUDIT_DRAWS), AUDIT_DRAWS * cells,
           check_moments(model, 0.5))
        for m, model in (("geom", "geometric"), ("nongeom", "nongeometric"))
    ]


# ------------------------------------------------------------- replicas


def check_lln(n_values, reps):
    def check(rows):
        _columns(rows, ["n", "replications", "mean_dev", "sd_dev", "q05", "q50", "q95"])
        require([r["n"] for r in rows] == list(n_values), f"n column {[r['n'] for r in rows]}")
        require(all(r["replications"] == reps for r in rows), "replications column != request")
        _fractions(rows, ["mean_dev", "q05", "q50", "q95"])
        means = [r["mean_dev"] for r in rows]
        require(all(a > b for a, b in zip(means, means[1:])), f"mean deviation not decreasing: {means}")
        require(means[-1] < 0.05, f"mean deviation {means[-1]} at N={n_values[-1]} not below 0.05")

    return check


def check_final(model, p, n_values, reps):
    """Final size: no capped run; at the largest N the nongeometric mean lies
    within 1/sqrt(N) (twice a run's standard deviation) of the limit, and the
    geometric q05 within 2/sqrt(N) of the large-N limit with q95 within
    1/sqrt(N) of 1 (runs that die out early)."""

    def check(rows):
        _columns(rows, ["n", "replications", "capped", "mean_unvisited_frac", "q05", "q50", "q95"])
        require([r["n"] for r in rows] == list(n_values), f"n column {[r['n'] for r in rows]}")
        require(all(r["replications"] == reps for r in rows), "replications column != request")
        require(all(r["capped"] == 0 for r in rows), "a run hit the step cap")
        _fractions(rows, ["mean_unvisited_frac", "q05", "q50", "q95"])
        last = rows[-1]
        n = last["n"]
        if model == "nongeometric":
            limit = oracles.nongeometric_limit(n)
            require(abs(last["mean_unvisited_frac"] - limit) <= 1 / math.sqrt(n),
                    f"mean {last['mean_unvisited_frac']} vs limit {limit} at N={n}")
        else:
            limit = oracles.geometric_limit(p)
            require(abs(last["q05"] - limit) <= 2 / math.sqrt(n), f"q05 {last['q05']} vs limit {limit} at N={n}")
            require(last["q95"] >= 1 - 1 / math.sqrt(n), f"q95 {last['q95']} not near 1 at N={n}")

    return check


def check_phase(p_values, n, reps):
    def check(rows):
        _columns(rows, ["p", "n", "replications", "mean_visited_frac", "sd_visited_frac"])
        require([r["p"] for r in rows] == list(p_values), f"p column {[r['p'] for r in rows]}")
        require(all(r["n"] == n and r["replications"] == reps for r in rows), "n or replications != request")
        _fractions(rows, ["mean_visited_frac"])
        for r in rows:
            if r["p"] < 0.5:
                require(r["mean_visited_frac"] < 0.02, f"p={r['p']}: visited {r['mean_visited_frac']}")
            else:
                require(r["mean_visited_frac"] > 0.5, f"p={r['p']}: visited {r['mean_visited_frac']}")

    return check


def check_phase_capped(reps):
    """At p = 1 no frog dies, so every run must be reported as capped."""

    def check(rows):
        require(bool(rows) and "capped" in rows[0],
                f"phase output has no capped column, so the {reps} runs that all hit the cap look converged")
        require(all(r["capped"] == reps for r in rows), f"capped {[r['capped'] for r in rows]} != {reps}")

    return check


def replicas(seed: int) -> list[Op]:
    """The LLN, final-size and phase studies at N = 1e2..1e4 (scalar steps)."""
    rng = random.Random(f"replicas:{seed}")
    ops = []
    for m, model, p in (("geom", "geometric", 0.6), ("nongeom", "nongeometric", 0.5)):
        ops.append(Op(_experiment("lln", m, rng.randrange(1, 2**31), p=(p,), n=N_GRID, reps=REPLICAS, tmax=20),
                      REPLICAS * len(N_GRID), check_lln(N_GRID, REPLICAS)))
    for m, model, p in (("geom", "geometric", 0.8), ("nongeom", "nongeometric", 0.5)):
        ops.append(Op(_experiment("final", m, rng.randrange(1, 2**31), p=(p,), n=N_GRID, reps=REPLICAS),
                      REPLICAS * len(N_GRID), check_final(model, p, N_GRID, REPLICAS)))
    grid = (0.3, 0.8)
    ops.append(Op(_experiment("phase", "geom", rng.randrange(1, 2**31), p=grid, n=(N_GRID[-1],), reps=REPLICAS),
                  REPLICAS * len(grid), check_phase(grid, N_GRID[-1], REPLICAS)))
    ops.append(Op(_experiment("phase", "geom", 1, p=(1.0,), n=(20,), reps=2), 2, check_phase_capped(2),
                  known_fault="harness.phase_sweep drops the absorbed flag: at p = 1 every run hits "
                              "the 10 N step cap and the output cannot say so"))
    return ops


# -------------------------------------------------------------- large_n


def check_fig3(n):
    def check(rows):
        _columns(rows, ["n", "iota_inf", "delta_inf", "converged"])
        require(len(rows) == 1 and rows[0]["n"] == n and rows[0]["converged"] is True, f"rows {rows}")
        limit = oracles.nongeometric_limit(n)
        require(abs(rows[0]["iota_inf"] - limit) <= 1e-9, f"iota_inf {rows[0]['iota_inf']} vs {limit}")
        require(abs(rows[0]["iota_inf"] + rows[0]["delta_inf"] - 1.0) <= 1e-9, "iota + delta != 1")

    return check


def large_n(seed: int) -> list[Op]:
    """Final sizes at N = 1e6 beside the deterministic limit (O(N) EmpBox draws)."""
    rng = random.Random(f"large_n:{seed}")
    n = (LARGE_N,)
    return [
        Op(_experiment("final", "nongeom", rng.randrange(1, 2**31), n=n, reps=LARGE_REPS_NONGEOM),
           LARGE_REPS_NONGEOM, check_final("nongeometric", 0.5, n, LARGE_REPS_NONGEOM)),
        Op(_experiment("final", "geom", rng.randrange(1, 2**31), p=(0.8,), n=n, reps=LARGE_REPS_GEOM),
           LARGE_REPS_GEOM, check_final("geometric", 0.8, n, LARGE_REPS_GEOM)),
        Op(_experiment("fig3", "nongeom", rng.randrange(1, 2**31), n=n), 0, check_fig3(LARGE_N)),
    ]


WORKLOADS = {"audit": audit, "replicas": replicas, "large_n": large_n}
