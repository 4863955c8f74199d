"""Command-line front end: simulate, det, limits, experiment subcommands.

Data goes to --out (or stdout); diagnostics go to stderr.  Exit codes:
0 success (including flagged non-convergence), 1 I/O failure, 2 usage.
FROGSIM_SEED provides simulate and experiment a default seed when --seed is absent.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import chain, dynamics, harness
from .harness import format_value

_MODEL = {"geom": "geometric", "nongeom": "nongeometric"}


def _default_seed() -> int:
    text = os.environ.get("FROGSIM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"FROGSIM_SEED must be an integer, got {text!r}") from None


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
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows([format_value(v) for v in r] for r in rows)
    return buf.getvalue()


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
    if not 0.0 < args.p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {args.p}")
    lines = []
    if args.n is not None:
        lines.append(f"iota_inf_N={format_value(dynamics.fixed_point_tauN(args.p, args.n))}")
    if args.closed_form or args.n is None:
        lines.append(f"iota_inf={format_value(dynamics.iota_infinity(args.p))}")
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in _EXPERIMENT_INPUTS:
                raise ValueError(f"unknown config key {key!r} in {path}")
            values[key] = val.strip()
    return values


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v)


# Each experiment flag, which is also its --config key: the ExperimentConfig
# field it sets and the parser of its --config value.  A key given neither way
# is left out, so the field keeps its ExperimentConfig default.
_EXPERIMENT_INPUTS = {
    "kind": ("kind", str),
    "model": ("model", str),
    "p": ("p_values", _float_list),
    "n": ("n_values", _int_list),
    "tmax": ("t_max", int),
    "reps": ("replications", int),
    "seed": ("seed", int),
}


def cmd_experiment(args) -> int:
    file_vals = _parse_config_file(args.config) if args.config else {}
    fields = {}
    for key, (field, parse) in _EXPERIMENT_INPUTS.items():
        if getattr(args, key) is not None:
            fields[field] = getattr(args, key)
        elif key in file_vals:
            fields[field] = parse(file_vals[key])
    if "kind" not in fields:
        print("experiment: missing kind", file=sys.stderr)
        return 2
    if "model" in fields:
        fields["model"] = _MODEL.get(fields["model"], fields["model"])
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

    p_sim = sub.add_parser("simulate", help="sample one chain trajectory")
    p_sim.add_argument("--model", choices=("geom", "nongeom"), required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=float, default=1.0)
    p_sim.add_argument("--tmax", type=int, required=True)
    add_output(p_sim)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("det", help="run a deterministic orbit")
    p_det.add_argument("--model", choices=("geom", "nongeom"), required=True)
    p_det.add_argument("--n", type=int, required=True)
    p_det.add_argument("--p", type=float, default=1.0)
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
    p_exp.add_argument("--model", choices=("geom", "nongeom"), default=None)
    p_exp.add_argument("--p", type=_float_list, default=None, help="comma-separated")
    p_exp.add_argument("--n", type=_int_list, default=None, help="comma-separated")
    p_exp.add_argument("--tmax", type=int, default=None)
    p_exp.add_argument("--reps", type=int, default=None)
    p_exp.add_argument("--config", default=None, help="key=value config file")
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
