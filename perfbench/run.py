"""frogsim benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 50 --trace 0

Runs whole rounds of the workload's `frogsim experiment` calls in this
process, through `frogsim.cli.main`, until `--seconds` have passed; every
round repeats the same calls, so every output must repeat byte for byte.
`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds and reports the per-layer metrics.  The last line of
standard output is one JSON object; results and spans go to perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = (5, 15)  # fewest and most; one is taken after each round, so they span the run


def setup_seconds(repeats: int) -> list[float]:
    """Times from starting a fresh interpreter to `frogsim.cli` imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import frogsim.cli, time; print(time.monotonic())"
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


@contextlib.contextmanager
def captured_stderr():
    """Collect everything written to stderr, at the file descriptor and above,
    with every warning shown each time it is raised."""
    sys.stderr.flush()
    saved = os.dup(2)
    buf = io.StringIO()
    with tempfile.TemporaryFile(dir=OUT) as sink:
        os.dup2(sink.fileno(), 2)
        try:
            with contextlib.redirect_stderr(buf), warnings.catch_warnings():
                warnings.simplefilter("always")
                yield buf
        finally:
            os.dup2(saved, 2)
            os.close(saved)
            sink.seek(0)
            buf.write(sink.read().decode(errors="replace"))


def run_round(ops, workdir, tracer=None):
    """Call each op once; return (wall seconds, [(exit code, stderr, output bytes)])."""
    from frogsim import cli

    wall, results = 0.0, []
    for k, op in enumerate(ops):
        path = workdir / f"op{k}.csv"
        path.unlink(missing_ok=True)
        with captured_stderr() as err, (tracer.installed() if tracer else contextlib.nullcontext()):
            start = time.perf_counter()
            try:
                code = cli.main(op.argv + ["--out", str(path)])
            except Exception as exc:  # an escaping exception is a failed call, like a traceback
                code = f"raised {exc!r}"
            wall += time.perf_counter() - start
        results.append((code, err.getvalue(), path.read_bytes() if path.exists() else None))
    return wall, results


class Verdicts:
    """Pass or fail of each op in each round; round one's output is the reference."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.reasons = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.failed_ops = {}

    def add(self, results):
        from workloads import parse_csv

        for k, (op, (code, err, data)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if code != 0:
                reason = f"exit {code}: {err.strip()[:300]}"
            elif err:
                reason = f"stderr: {err.strip()[:300]}"
            elif data is None:
                reason = "no output file"
            elif self.first[k] is None:
                self.first[k] = data
                try:
                    op.check(parse_csv(data.decode()))
                except Exception as exc:  # an unreadable file fails the call, as a wrong value does
                    self.reasons[k] = f"{type(exc).__name__}: {exc}"
                reason = self.reasons[k]
            elif data != self.first[k]:
                reason = "output differs from round one's with the same seed"
            else:
                reason = self.reasons[k]
            if reason is not None:
                self.failed += 1
                self.failed_ops.setdefault(op.label, reason)

    def correct(self) -> bool:
        """True when every failure is a known fault of the program."""
        known = {op.label for op in self.ops if op.known_fault}
        return all(label in known for label in self.failed_ops)


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "frogsim" / "__init__.py").is_file():
        print(f"perfbench: no frogsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    import tracing
    import frogsim.cli  # noqa: F401  (imported, and byte-compiled, before set-up is timed)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    samples = sum(op.samples for op in ops)
    setup = []

    verdicts = Verdicts(ops)
    plain, traced, layer_rounds, spans = [], [], [], None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        start = time.perf_counter()
        while True:
            tracer = tracing.Tracer() if args.trace and len(traced) < len(plain) else None
            wall, results = run_round(ops, workdir, tracer)
            verdicts.add(results)
            if tracer is None:
                plain.append(wall)
            else:
                traced.append(wall)
                spans = tracer.spans()
                layer_rounds.append(tracing.layer_metrics(spans, tracer.counts))
            if not args.trace and len(setup) < SETUP_SAMPLES[1]:
                setup += setup_seconds(1)
            if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
                break

    if not args.trace:
        setup += setup_seconds(SETUP_SAMPLES[0] - len(setup))
    wall_s = statistics.median(plain)
    if args.trace:
        metrics = {name: (statistics.median(r[name][0] for r in layer_rounds), unit)
                   for name, (_, unit) in layer_rounds[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(traced) - wall_s, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall_s, "s"),
            "samples_per_s": (samples / wall_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    machine = fingerprint()
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine,
        "round_walls_s": {"untraced": plain, "traced": traced},
        "attempted": verdicts.attempted, "failed": verdicts.failed, "failed_ops": verdicts.failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        report["self_time_shares"] = tracing.self_shares(spans)
        spans.save(OUT / f"{args.workload}-spans.npz")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced rounds, "
          f"{verdicts.attempted} operations attempted, {verdicts.failed} failed")
    for label, reason in verdicts.failed_ops.items():
        print(f"  failed: frogsim {label}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        print("  self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in report["self_time_shares"].items()))
    print(json.dumps({
        "correct": verdicts.correct(),
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
