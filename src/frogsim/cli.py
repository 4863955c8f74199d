"""Command-line front end: simulate, det, limits, experiment subcommands.

Data goes to --out (or stdout); diagnostics go to stderr.  Exit codes:
0 success (including flagged non-convergence), 1 I/O failure, 2 usage.  A SIGTERM
while worker processes run raises SystemExit(143), which `main` lets through.
FROGSIM_SEED provides simulate and experiment a default seed when --seed is absent.
experiment --config reads its key=value lines as the flags --key=value; flags override them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import chain, dynamics, harness
from .harness import format_value

_MODEL = {"geom": chain.GEOMETRIC, "nongeom": chain.NONGEOMETRIC}


def _seed(text: str) -> int:
    """A master seed: an integer >= 0, as `numpy.random.SeedSequence` takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _default_seed() -> int:
    try:
        return _seed(os.environ.get("FROGSIM_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"FROGSIM_SEED {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _table_text(columns: list[str], rows: list[tuple], fmt: str) -> str:
    """Rows under a header line (csv, reals to 17 digits) or as {"rows": [...]} (json)."""
    if fmt == "json":
        return json.dumps({"rows": [dict(zip(columns, r)) for r in rows]}, indent=2) + "\n"
    return harness.csv_text(columns, rows)


def _model_params(args) -> chain.ModelParams:
    if args.model == "nongeom" and args.p != 1.0:
        raise ValueError(f"the nongeometric model does not read p, got {args.p}")
    return chain.ModelParams(n=args.n, kind=_MODEL[args.model], p=args.p)


def cmd_simulate(args) -> int:
    params = _model_params(args)
    rng = chain.replication_rng(_default_seed() if args.seed is None else args.seed, 0)
    states = chain.simulate_trajectory(params, args.tmax, rng)
    rows = [(s.t, s.unvisited, s.active, s.dead) for s in states]
    _emit(_table_text(["t", "I", "A", "D"], rows, args.format), args.out)
    return 0


def cmd_det(args) -> int:
    params = _model_params(args)
    if args.until_alpha is not None:
        if args.format != "csv":
            raise ValueError("--until-alpha writes one key=value line; --format json is for --tmax")
        res = dynamics.iterate_limit(params, alpha_tol=args.until_alpha)
        _emit(
            f"iota_inf={format_value(res.iota_inf)} delta_inf={format_value(res.delta_inf)} "
            f"steps={res.steps_used} converged={format_value(res.converged)}\n",
            args.out,
        )
        return 0
    states = dynamics.det_orbit(params, args.tmax)
    rows = [(s.t, s.iota, s.alpha, s.delta) for s in states]
    _emit(_table_text(["t", "iota", "alpha", "delta"], rows, args.format), args.out)
    return 0


def cmd_limits(args) -> int:
    lines = []
    if args.n is not None:
        lines.append(f"iota_inf_N={format_value(dynamics.fixed_point_tauN(args.p, args.n))}")
    if args.closed_form or args.n is None:
        lines.append(f"iota_inf={format_value(dynamics.iota_infinity(args.p))}")
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


_CONFIG_KEYS = ("kind", "model", "p", "n", "tmax", "reps", "seed")


def _config_argv(path: str) -> list[str]:
    """The key=value lines of a --config file as the flags --key=value."""
    argv = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} in {path}")
            argv.append(f"--{key}={val.strip()}")
    return argv


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v)


def cmd_experiment(args) -> int:
    # Each experiment flag's dest is the ExperimentConfig field it sets; a flag
    # given neither on the command line nor in --config leaves its field at its default.
    names = [f.name for f in dataclasses.fields(harness.ExperimentConfig)]
    fields = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if "kind" not in fields:
        raise ValueError("experiment needs --kind, on the command line or in --config")
    if "model" in fields:
        fields["model"] = _MODEL[fields["model"]]
    fields.setdefault("seed", _default_seed())
    summary = harness.run_experiment(harness.ExperimentConfig(**fields))
    text = (
        harness.summary_to_csv(summary)
        if args.format == "csv"
        else harness.summary_to_json(summary)
    )
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frogsim",
        description="Frog-model chains on the complete graph, their "
        "deterministic limits, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_model(p):
        p.add_argument("--model", choices=tuple(_MODEL), required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--p", type=float, default=1.0)

    p_sim = sub.add_parser("simulate", help="sample one chain trajectory")
    add_model(p_sim)
    p_sim.add_argument("--tmax", type=int, required=True)
    add_output(p_sim)
    p_sim.add_argument("--seed", type=_seed, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("det", help="run a deterministic orbit")
    add_model(p_det)
    length = p_det.add_mutually_exclusive_group(required=True)
    length.add_argument("--tmax", type=int, default=None)
    length.add_argument("--until-alpha", type=float, default=None, dest="until_alpha")
    add_output(p_det)
    p_det.set_defaults(func=cmd_det)

    p_lim = sub.add_parser("limits", help="long-run unvisited-fraction limits")
    p_lim.add_argument("--p", type=float, required=True)
    p_lim.add_argument("--n", type=int, default=None)
    p_lim.add_argument("--closed-form", action="store_true", dest="closed_form")
    p_lim.add_argument("--out", default=None)
    p_lim.set_defaults(func=cmd_limits)

    p_exp = sub.add_parser("experiment", help="run a harness experiment")
    p_exp.add_argument("--kind", choices=harness.KINDS, default=None)
    p_exp.add_argument("--model", choices=tuple(_MODEL), default=None)
    p_exp.add_argument("--p", type=_float_list, dest="p_values", metavar="P", help="comma-separated")
    p_exp.add_argument("--n", type=_int_list, dest="n_values", metavar="N", help="comma-separated")
    p_exp.add_argument("--tmax", type=int, dest="t_max", metavar="TMAX")
    p_exp.add_argument("--reps", type=int, dest="replications", metavar="REPS")
    p_exp.add_argument("--config", default=None, help="key=value config file")
    add_output(p_exp)
    p_exp.add_argument("--seed", type=_seed, default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
            if getattr(args, "config", None):
                args = parser.parse_args(argv[:1] + _config_argv(args.config) + argv[1:])
        except SystemExit as exc:  # argparse's exit, for --help or bad flags
            return exc.code if isinstance(exc.code, int) else 2
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
