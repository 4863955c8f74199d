"""Experiment runner tying the chains to their deterministic limits.

Experiment kinds:
  lln     sup-over-time max-norm deviation between scaled chain and orbit
  final   final unvisited fraction and absorption time
  phase   mean visited fraction across a p grid (geometric), runs capped
  moments Monte Carlo one-step moments vs the analytic oracles (z-scores; z_mean
          against the oracle's standard error, z_var nan if a constant sample hides a spread)
  fig1    closed-form limit curve p -> iota_infinity(p)
  fig3    nongeometric long-run unvisited fraction vs N
  peak    nongeometric active-fraction peak index vs N

`_DISPATCH` holds each kind's whole contract: the inputs it reads, the one
model of phase, fig1, fig3 and peak, its least replications and the grid it
takes one value of.  An input its kind, or its model (the nongeometric model
reads no p), does not read must keep its default; another model is rejected.

Every run is identified by (config, master seed).  Replication `rep` of
cell `cell` draws from its own stream, `chain.replication_rng(seed, cell,
rep)`, so output files are byte-identical across runs.

One driver, `_map_in_order`, runs every stochastic kind's independent work:
`fn(key)` for each key, in key order, on one forked worker process per usable
CPU (the affinity mask, so `taskset` limits them) when asked, else lazily in
this process.  Only key indices go to the workers and only results come back;
`fn` itself, a closure, is inherited through the fork.  Without `os.fork`, or
while another thread runs, the work runs in this process.  Workers pay only where
a call's work is long beside forking, handing out and reaping them, about
3.5 ms per call on two workers (2-core x86_64 VM).  A SIGTERM during a call
ends its workers and then exits 143.  Each caller decides from its input, never from the CPU count:
  lln, final and phase  a cell's replications, one array per cell (`_replicate`), at N >= _PARALLEL_MIN_N
  moments               the panel cells, always; a cell's samples are drawn and
                        reduced to its z rows in its own task, so only one cell
                        per worker is in memory
Every task draws from its own stream and results are gathered in key order,
so the output bytes do not depend on the number of workers.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import pickle
import sys
import threading
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import __version__, chain, dynamics
from .occupancy import sample_binomial_batch, sample_empbox_batch

VERSION = f"frogsim-{__version__}"

_VAR_BATCHES = 200  # batches in the moment audit's variance standard error
# The smallest N whose replications run on workers.  Timed on `final` with split
# EmpBox draws (2-core x86_64 VM): 300 geometric replications ran 1.8x faster on two
# workers than on one CPU at 2**18 and 1.3x at 1e6, but 30 nongeometric ones lost at
# 2**18 and broke even at 1e6, and runs of 2 or 8 lost 35 to 50 ms, as each worker
# forks and grows its own EmpBox leaf table (10 to 17 ms to 512 rows).  No N alone
# serves both; the large runs at 1e6 keep their workers.
_PARALLEL_MIN_N = 2**18


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: str | None = None  # the kind's own model (_DISPATCH), else nongeometric
    p_values: tuple[float, ...] = (0.5,)
    n_values: tuple[int, ...] = (100,)
    t_max: int = 20
    replications: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        _, reads, own_model, least, single = _DISPATCH[self.kind]
        if self.model is None:
            object.__setattr__(self, "model", own_model or chain.NONGEOMETRIC)
        if own_model not in (None, self.model):
            raise ValueError(f"{self.kind} computes the {own_model} model, got {self.model!r}")
        if least and self.replications < least:
            raise ValueError(f"{self.kind} needs replications >= {least}, got {self.replications}")
        if not self.p_values or not self.n_values:
            raise ValueError("p and n grids must not be empty")
        if single and len(getattr(self, single)) > 1:
            raise ValueError(f"{self.kind} takes one {single[0]} value, got {len(getattr(self, single))}")
        for n, p in itertools.product(self.n_values, self.p_values):
            chain.ModelParams(n, self.model, p)
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _KIND_INPUTS and value != f.default:
                if f.name not in reads:
                    raise ValueError(f"{self.kind} does not read {f.name}, got {value!r}")
                if f.name == "p_values" and self.model == chain.NONGEOMETRIC:
                    raise ValueError(f"the nongeometric model does not read p_values, got {value!r}")


@dataclass
class RunSummary:
    columns: list[str]
    rows: list[list]
    config: dict
    metadata: dict


def format_value(v) -> str:
    """One CSV cell: reals to 17 significant digits, so float64 round-trips."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def csv_text(columns, rows, comments=()) -> str:
    """One-field comment lines, the header, then the rows (format_value cells)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerows([c] for c in comments)
    w.writerow(columns)
    w.writerows([format_value(v) for v in row] for row in rows)
    return buf.getvalue()


def summary_to_csv(summary: RunSummary) -> str:
    head = f"# seed={summary.metadata['seed']} version={summary.metadata['version']}"
    config = f"# config={json.dumps(summary.config, sort_keys=True)}"
    return csv_text(summary.columns, summary.rows, (head, config))


def summary_to_json(summary: RunSummary) -> str:
    """Strict JSON (RFC 8259): a non-finite real goes out as its CSV text, "inf", "-inf" or "nan"."""
    rows = [[format_value(v) if isinstance(v, float) and not np.isfinite(v) else v for v in r] for r in summary.rows]
    payload = {
        "config": summary.config,
        "rows": [dict(zip(summary.columns, row)) for row in rows],
        "metadata": summary.metadata,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finish(cfg, columns, rows) -> RunSummary:
    metadata = {"seed": cfg.seed, "version": VERSION, "replications": cfg.replications}
    return RunSummary(columns=columns, rows=rows, config=asdict(cfg), metadata=metadata)


def _spread(x: np.ndarray) -> list[float]:
    """Mean, sd (ddof=1) and the 5/50/95% quantiles of one cell's replications, a float64 array."""
    return [float(x.mean()), float(x.std(ddof=1)), *map(float, np.quantile(x, [0.05, 0.5, 0.95]))]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_in_order(fn, keys, parallel: bool):
    """`fn(key)` for each key of the sequence `keys`, in key order.

    With `parallel`, a list from min(usable CPUs, len(keys)) forked worker processes
    (`_on_workers`); otherwise, with one CPU, without `os.fork`, or while another
    thread runs (a fork copies only this thread, and a lock another one holds stays
    held in the worker), an iterator that calls `fn` here as each result is taken.
    """
    workers = min(_usable_cpus(), len(keys)) if parallel else 1
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        return _on_workers(fn, keys, workers)
    return map(fn, keys)


def _on_workers(fn, keys, workers: int) -> list:
    """`fn(key)` for each key, in key order, on `workers` forked processes,
    every one of them ended and reaped before the call returns or raises.

    The key indices, 8 bytes each, go to one unlinked file before the first
    fork, and the workers read them in turn from the file descriptor they
    share: a read of a regular file moves the shared offset under a lock, so
    each index reaches exactly one worker, and its end means the keys are all
    taken.  Each worker reports on its own pipe (`_work`), and this process
    reads the pipes to their ends one after another; a worker waits only for
    its own pipe to be read, so no order of reading can deadlock.  The error
    of the lowest failing key is raised again here, as a RuntimeError with its
    type's name and message if it cannot be sent back, and a worker that ends
    without its report raises `ChildProcessError`.  A SIGTERM during the call
    ends the workers, then exits 128 + 15; the caller's handler is back when
    the call ends.  SIGINT and SIGTERM are held across each fork, so neither
    reaches a worker before its own handlers are set, nor this process before
    it has the worker's pid.
    """
    import signal  # lazy, as tempfile: keeps CLI start-up short
    import tempfile

    held = {signal.SIGINT, signal.SIGTERM}
    hand_out = tempfile.TemporaryFile(buffering=0)
    owner, reports = {}, {}  # a pipe's read end -> its worker's pid -> its report
    previous = signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        hand_out.write(np.arange(len(keys), dtype="<i8").tobytes())
        hand_out.seek(0)
        for _ in range(workers):
            read, write = os.pipe()
            owner[read] = None  # so the finally closes it even if the fork fails
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, held)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, keys, hand_out.fileno(), write, mask)
                owner[read], reports[pid] = pid, bytearray()
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for read, pid in owner.items():
            while chunk := os.read(read, 1 << 16):
                reports[pid] += chunk
    except BaseException:
        for pid in reports:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        codes = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in reports}
        signal.signal(signal.SIGTERM, previous)
        for fd in owner:
            os.close(fd)
        hand_out.close()
    results, failures = [None] * len(keys), []
    for pid, report in reports.items():
        if codes[pid] or not report:
            lost = ChildProcessError(f"worker {pid} exited with code {codes[pid]} without reporting")
            failures.append((len(keys), lost))
            continue
        done, failure = pickle.loads(report)
        for index, result in done:
            results[index] = pickle.loads(result)
        if failure:
            index, pickled, text = failure
            try:
                failures.append((index, pickle.loads(pickled)))
            except Exception:  # not sent (None), or sent but not rebuilt here
                failures.append((index, RuntimeError(text)))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _work(fn, keys, take, write, mask):
    """A forked worker's whole life, which ends in `os._exit`, never back in the
    caller's stack: `fn` of each key whose 8-byte index it reads from the
    shared file descriptor `take`, until the file's end or its first error,
    then one pickled report on the pipe `write`, its (index, pickled result)
    pairs and its error as (index, pickled error or None, "type: message"),
    or None.  It ignores SIGINT, which the caller handles, and dies of SIGTERM;
    the caller's signal `mask`, held across the fork, returns once both are
    set."""
    import signal

    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        done, failure = [], None
        while failure is None and (index := os.read(take, 8)):
            index = int.from_bytes(index, "little")
            try:
                done.append((index, pickle.dumps(fn(keys[index]))))
            except Exception as error:  # raised again in the caller, for the lowest failing key
                try:
                    pickled = pickle.dumps(error)
                except Exception:
                    pickled = None
                failure = (index, pickled, f"{type(error).__name__}: {error}")
        with open(write, "wb") as out:
            pickle.dump((done, failure), out)
        code = 0
    finally:
        os._exit(code)


def _replicate(cfg: ExperimentConfig, cell: int, n: int, fn, dtype) -> np.ndarray:
    """`fn(rng)`, a number or a tuple of them, for each replication of `cell` in rep order, put
    into one `dtype` array, a row per replication, as it comes; on workers at N >= _PARALLEL_MIN_N."""
    results = _map_in_order(
        lambda rep: fn(chain.replication_rng(cfg.seed, cell, rep)),
        range(cfg.replications),
        n >= _PARALLEL_MIN_N,
    )
    return np.fromiter(results, dtype=dtype, count=cfg.replications)


def _absorption_runs(cfg: ExperimentConfig, cell: int, n: int, p: float):
    """Final I and t of `cell`'s replications (`chain.run_to_absorption`), int64 arrays; capped count."""
    params = chain.ModelParams(n, cfg.model, p)

    def run(rng):
        final, absorbed = chain.run_to_absorption(params, rng)
        return final.unvisited, final.t, absorbed

    i, t, absorbed = _replicate(cfg, cell, n, run, "3i8").T
    return i, t, cfg.replications - int(absorbed.sum())


def lln_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Sup-over-t max-norm deviation between scaled chain and orbit, per N.

    The deterministic orbit is computed once per N and shared across
    replications; absorbed trajectories are held frozen for comparison.
    """
    p = cfg.p_values[0]
    rows = []
    for cell, n in enumerate(cfg.n_values):
        params = chain.ModelParams(n, cfg.model, p)
        states = dynamics.det_orbit(params, cfg.t_max)
        orbit = np.array([(s.iota, s.alpha, s.delta) for s in states])
        times = np.arange(cfg.t_max + 1)

        def deviation(rng):
            traj = chain.simulate_trajectory(params, cfg.t_max, rng)
            counts = np.array([(s.unvisited, s.active, s.dead) for s in traj])
            return float(np.abs(counts[np.minimum(times, len(traj) - 1)] / (n + 1) - orbit).max())

        rows.append([n, cfg.replications, *_spread(_replicate(cfg, cell, n, deviation, float))])
    cols = ["n", "replications", "mean_dev", "sd_dev", "q05", "q50", "q95"]
    return _finish(cfg, cols, rows)


def final_fraction_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Final unvisited fraction I_final/(N+1) and absorption time, per N."""
    p = cfg.p_values[0]
    rows = []
    for cell, n in enumerate(cfg.n_values):
        unvisited, times, capped = _absorption_runs(cfg, cell, n, p)
        rows.append([n, cfg.replications, capped, *_spread(unvisited / (n + 1)), float(times.mean())])
    cols = [
        "n",
        "replications",
        "capped",
        "mean_unvisited_frac",
        "sd_unvisited_frac",
        "q05",
        "q50",
        "q95",
        "mean_absorption_time",
    ]
    return _finish(cfg, cols, rows)


def phase_sweep(cfg: ExperimentConfig) -> RunSummary:
    """Mean final visited fraction across the p grid (geometric model).

    `capped` counts the runs that hit the step cap before absorbing.
    """
    n = cfg.n_values[0]
    rows = []
    for cell, p in enumerate(cfg.p_values):
        unvisited, _, capped = _absorption_runs(cfg, cell, n, p)
        visited = _spread((n + 1 - unvisited) / (n + 1))
        rows.append([p, n, cfg.replications, capped, *visited[:2]])
    cols = ["p", "n", "replications", "capped", "mean_visited_frac", "sd_visited_frac"]
    return _finish(cfg, cols, rows)


def one_step_samples(
    state: chain.ChainState,
    params: chain.ModelParams,
    draws: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`draws` i.i.d. next states (I', A', D') of `chain.transition`, drawn as arrays.

    A binomial of one n (the geometric X, the nongeometric Z) comes from
    `sample_binomial_batch`, one double per draw and none when degenerate; the
    geometric Z | X, whose n is the array X, from numpy's array binomial,
    which draws nothing at n = 0 or q = 0 but one double at q = 1.
    `sample_empbox_batch` takes one double per draw where `sample_empbox`
    takes one integer per ball; so these draws do not repeat the scalar
    step's stream.
    """

    def binomial(m, q, rng):
        if np.ndim(m):
            return rng.binomial(m, q, size=draws)
        return sample_binomial_batch(m, q, draws, rng)

    return chain.transition(
        state.unvisited, state.active, params, rng, binomial, sample_empbox_batch
    )[:3]


def _z(estimate: float, se: float, theory: float, tol: float, degenerate: bool) -> float:
    """(estimate - theory) / se, the mean's se being the oracle's sqrt(Var_th / n), 0 for a
    `degenerate` law.  se = 0 of a `degenerate` law gives 0 if it agrees within tol, else inf;
    of any other law (a constant sample's batched variance), nan: its spread is not seen."""
    if se == 0.0:
        if not degenerate:
            return float("nan")
        return 0.0 if abs(estimate - theory) <= tol else float("inf")
    return float((estimate - theory) / se)


def _moment_estimates(x: np.ndarray) -> tuple[float, tuple[float, float]]:
    """The mean and (batched variance, its standard error) of the integer draws
    `x`, from exact int64 power sums.

    A sample variance is (n sum x^2 - (sum x)^2) / (n (n - 1)), an exact
    integer over an integer, so it takes one rounding and a constant sample
    gives 0 exactly.  The batched variance is the mean of the sample variances
    of _VAR_BATCHES batches (at least 2 draws each), and its standard error
    their spread: per-batch sample variances are unbiased for the true
    variance and their batch-mean is CLT-normal for any underlying law,
    unlike the fourth-moment plug-in SE, which degenerates for symmetric
    two-point distributions.  A batch's numerator stays exact while
    (batch size * max x)^2 < 2**53.
    """
    b = min(_VAR_BATCHES, x.size)
    size = x.size // b
    batches = x[: b * size].reshape(b, size)
    s1, s2 = batches.sum(axis=1), np.einsum("ij,ij->i", batches, batches)
    per_batch = (size * s2 - s1 * s1) / (size * (size - 1))
    return int(x.sum()) / x.size, (per_batch.mean(), per_batch.std(ddof=1) / np.sqrt(b))


def moment_panel(cfg: ExperimentConfig, rng: np.random.Generator) -> list[tuple[chain.ChainState, chain.ModelParams]]:
    """Audit panel: exhaustive states at N in {3, 4} plus 20 random large-N states."""
    panel = []
    for n in (3, 4):
        for i in range(n + 1):
            for a in range(n + 2 - i):
                panel.append((chain.ChainState(i, a, n + 1 - i - a), n))
    big_n = 1000
    for _ in range(20):
        i = int(rng.integers(1, big_n + 1))
        a = int(rng.integers(1, big_n + 2 - i))
        panel.append((chain.ChainState(i, a, big_n + 1 - i - a), big_n))
    p = cfg.p_values[0]
    return [(st, chain.ModelParams(n=n, kind=cfg.model, p=p)) for st, n in panel]


def moment_audit(cfg: ExperimentConfig) -> RunSummary:
    """Standardized deviations of Monte Carlo one-step moments vs the oracles.

    Cell `cell` of the panel draws from `replication_rng(seed, cell, 0)`; the
    cells run on worker processes through `_map_in_order`.
    """
    panel_rng = chain.replication_rng(cfg.seed, 999)
    panel = moment_panel(cfg, panel_rng)

    def cell_rows(cell):
        state, params = panel[cell]
        rng = chain.replication_rng(cfg.seed, cell, 0)
        mom = chain.moments(state, params)
        samples = one_step_samples(state, params, cfg.replications, rng)
        analytic = [
            (mom.e_unvisited, mom.var_unvisited),
            (mom.e_active, mom.var_active),
            (mom.e_dead, mom.var_dead),
        ]
        head = [params.kind, params.n, params.p, state.unvisited, state.active, state.dead]
        rows = []
        for comp, x, (e_th, v_th) in zip(("unvisited", "active", "dead"), samples, analytic):
            tol = 1e-9 * max(1.0, abs(e_th))
            degenerate = abs(v_th) <= tol  # chain.moments leaves ~1e-16 where exact Var is 0
            mean, (var, se_var) = _moment_estimates(x)
            se_mean = 0.0 if degenerate else np.sqrt(v_th / x.size)  # the oracle's own
            z_mean, z_var = _z(mean, se_mean, e_th, tol, degenerate), _z(var, se_var, v_th, tol, degenerate)
            rows.append(head + [comp, z_mean, z_var])
        return rows

    per_cell = _map_in_order(cell_rows, range(len(panel)), True)
    cols = ["model", "n", "p", "unvisited", "active", "dead", "component", "z_mean", "z_var"]
    return _finish(cfg, cols, [row for rows in per_cell for row in rows])


def fig1_data(cfg: ExperimentConfig) -> RunSummary:
    """Closed-form limit curve (p, iota_infinity(p))."""
    rows = [[p, dynamics.iota_infinity(p)] for p in cfg.p_values]
    return _finish(cfg, ["p", "iota_infinity"], rows)


def fig3_data(cfg: ExperimentConfig) -> RunSummary:
    """Nongeometric long-run unvisited fraction, one row per N in the order given."""
    rows = []
    for n in cfg.n_values:
        res = dynamics.iterate_limit(chain.ModelParams(n, cfg.model))
        rows.append([n, res.iota_inf, res.delta_inf, res.steps_used, res.converged])
    cols = ["n", "iota_inf", "delta_inf", "steps_used", "converged"]
    return _finish(cfg, cols, rows)


def peak_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Nongeometric active-fraction peak index and unimodality check per N."""
    rows = []
    for n in cfg.n_values:
        res = dynamics.alpha_peak_index(n)
        rows.append([n, res.index, res.pattern_ok, res.completed])
    return _finish(cfg, ["n", "peak_index", "pattern_ok", "completed"], rows)


# Each kind's function, the inputs of _KIND_INPUTS it reads, the one model it
# computes (None: either), its least replications (None: it reads none) and the
# grid it takes one value of (None: any).  Every kind reads the seed.
_KIND_INPUTS = ("p_values", "n_values", "t_max", "replications")
_DISPATCH = {
    "lln": (lln_experiment, ("p_values", "n_values", "t_max", "replications"), None, 2, "p_values"),
    "final": (final_fraction_experiment, ("p_values", "n_values", "replications"), None, 2, "p_values"),
    "phase": (phase_sweep, ("p_values", "n_values", "replications"), chain.GEOMETRIC, 2, "n_values"),
    "moments": (moment_audit, ("p_values", "replications"), None, 2 * _VAR_BATCHES, "p_values"),
    "fig1": (fig1_data, ("p_values",), chain.GEOMETRIC, None, None),
    "fig3": (fig3_data, ("n_values",), chain.NONGEOMETRIC, None, None),
    "peak": (peak_experiment, ("n_values",), chain.NONGEOMETRIC, None, None),
}
KINDS = tuple(_DISPATCH)


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Run `cfg`; lln, final and phase at large N, and moments always, use a
    worker process per usable CPU (module docstring)."""
    return _DISPATCH[cfg.kind][0](cfg)
