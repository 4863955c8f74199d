import io
import json
import os
import shlex
import signal
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from frogsim import cli
from frogsim.chain import NONGEOMETRIC, ModelParams
from test_dynamics import hp_orbit


def run_cli(*args, env=None):
    """`frogsim *args` run in this process: its exit code, stdout and stderr.

    Every warning reaches stderr, as in a fresh interpreter, and `env` is
    applied to os.environ for the call only.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), warnings.catch_warnings():
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(args))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


@pytest.mark.parametrize(
    "args,code",
    [
        (["simulate", "--model", "geom", "--n", "30", "--p", "0.7", "--tmax", "5", "--seed", "2"], 0),
        (["det", "--model", "nongeom", "--n", "100", "--tmax", "3"], 0),
        (["limits", "--p", "0.4", "--closed-form"], 0),
        (["experiment", "--kind", "final", "--n", "20", "--reps", "3", "--seed", "1"], 0),
        (["experiment", "--kind", "lln", "--reps", "1"], 2),
    ],
    ids=["simulate", "det", "limits", "experiment", "exit-2"],
)
def test_module_entry_point(args, code):
    # `python -m frogsim.cli` in a new interpreter: the __main__ guard passes
    # main's exit code through, with the output of an in-process call.
    res = subprocess.run([sys.executable, "-m", "frogsim.cli", *args], capture_output=True, text=True)
    assert res.returncode == code
    here = run_cli(*args)
    assert (res.returncode, res.stdout, res.stderr) == (here.returncode, here.stdout, here.stderr)


def test_sigterm_ends_a_process_that_calls_main(tmp_path):
    # A script calls `cli.main` twice: a long `final` run on 2 workers, then
    # `limits`.  SIGTERM, sent once both workers have started a replication,
    # must end the script with 128 + 15, not become the first call's return
    # value while the script goes on to the second call.
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
        "for argv in (sys.argv[2:], ['limits', '--p', '0.5']):\n"
        "    cli.main(argv)\n"
        "sys.exit(0)\n"
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
    assert proc.returncode == 128 + signal.SIGTERM, err
    assert "Traceback" not in err, err


def _readme_cli_commands() -> list[list[str]]:
    """The `frogsim ...` commands of README's CLI block, `\\` continuations joined, as argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("frogsim ")]


README_COMMANDS = _readme_cli_commands()


def test_readme_cli_block_found():
    assert len(README_COMMANDS) >= 7
    assert {argv[0] for argv in README_COMMANDS} == {"simulate", "det", "limits", "experiment"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a) for a in README_COMMANDS])
def test_readme_command_runs(argv, tmp_path):
    """Each README command parses and runs, its --out (or a new one) under tmp_path."""
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv = [*argv[:i], str(tmp_path / argv[i]), *argv[i + 1:]]
    else:
        argv = [*argv, "--out", str(tmp_path / "out.txt")]
    assert run_cli(*argv).returncode == 0


class TestSimulate:
    def test_p1_first_transition(self, tmp_path):
        out = tmp_path / "traj.csv"
        res = run_cli(
            "simulate", "--model", "geom", "--n", "100", "--p", "1", "--tmax", "1",
            "--seed", "1", "--out", str(out),
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,I,A,D"
        assert lines[1] == "0,100,1,0"
        assert lines[2] == "1,99,2,0"

    def test_tmax_zero_initial_only(self, tmp_path):
        out = tmp_path / "traj.csv"
        res = run_cli(
            "simulate", "--model", "nongeom", "--n", "10", "--tmax", "0",
            "--seed", "3", "--out", str(out),
        )
        assert res.returncode == 0
        assert out.read_text().splitlines()[1:] == ["0,10,1,0"]

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--model", "nongeom", "--n", "500", "--tmax", "50", "--seed", "9"]
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self):
        res = run_cli(
            "simulate", "--model", "nongeom", "--n", "10", "--tmax", "0",
            "--seed", "1", "--format", "json",
        )
        payload = json.loads(res.stdout)
        assert payload["rows"][0] == {"t": 0, "I": 10, "A": 1, "D": 0}

    def test_bad_flags_exit_2(self):
        assert run_cli("simulate", "--model", "bogus", "--n", "10", "--tmax", "1").returncode == 2
        assert run_cli("simulate", "--model", "geom", "--n", "2", "--tmax", "1").returncode == 2

    def test_bad_env_seed_exit_2(self):
        res = run_cli("simulate", "--model", "nongeom", "--n", "10", "--tmax", "1",
                      env={"FROGSIM_SEED": "abc"})
        assert res.returncode == 2
        assert res.stderr.splitlines() == ["error: FROGSIM_SEED must be an integer, got 'abc'"]

    def test_env_seed_default(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--model", "nongeom", "--n", "200", "--tmax", "20"]
        run_cli(*args, "--out", str(a), env={"FROGSIM_SEED": "77"})
        run_cli(*args, "--out", str(b), "--seed", "77")
        assert a.read_bytes() == b.read_bytes()


class TestDet:
    def test_until_alpha_nongeometric(self):
        res = run_cli("det", "--model", "nongeom", "--n", "1000", "--until-alpha", "1e-12")
        assert res.returncode == 0
        val = float(res.stdout.split("iota_inf=")[1].split()[0])
        assert 0.17 < val < 0.18
        assert "converged=true" in res.stdout

    def test_geometric_matches_fixed_point(self):
        res = run_cli("det", "--model", "geom", "--p", "0.3", "--n", "1000",
                      "--until-alpha", "1e-12")
        val = float(res.stdout.split("iota_inf=")[1].split()[0])
        from frogsim.dynamics import fixed_point_tauN

        assert abs(val - fixed_point_tauN(0.3, 1000)) < 1e-9

    def test_until_alpha_above_initial_alpha_waits_for_fall(self):
        # alpha_0 = 1/101 is below 0.05; the limit is reached only after the peak.
        res = run_cli("det", "--model", "nongeom", "--n", "100", "--until-alpha", "0.05")
        assert res.returncode == 0
        val = float(res.stdout.split("iota_inf=")[1].split()[0])
        ref = hp_orbit(ModelParams(100, NONGEOMETRIC), alpha_tol=0.05)[-1][0]
        assert val == pytest.approx(float(ref), rel=1e-14, abs=0)
        assert "steps=11 converged=true" in res.stdout

    def test_until_alpha_at_n_where_one_minus_exp_cancels(self):
        # alpha_0 = 1/(1e17 + 1) is below 1.1e-16, where 1 - exp(-alpha) rounds to 0.
        res = run_cli("det", "--model", "nongeom", "--n", "100000000000000000",
                      "--until-alpha", "1e-12")
        assert res.returncode == 0
        fields = dict(kv.split("=") for kv in res.stdout.split())
        assert int(fields["steps"]) > 1 and fields["converged"] == "true"
        assert float(fields["iota_inf"]) == pytest.approx(0.17454454, abs=1e-8)

    def test_until_alpha_writes_out(self, tmp_path):
        out = tmp_path / "limit.txt"
        args = ["det", "--model", "nongeom", "--n", "100", "--until-alpha", "1e-12"]
        res = run_cli(*args, "--out", str(out))
        assert res.returncode == 0 and res.stdout == ""
        assert out.read_text() == run_cli(*args).stdout
        assert out.read_text().startswith("iota_inf=")

    def test_until_alpha_json_exit_2(self):
        res = run_cli("det", "--model", "nongeom", "--n", "100", "--until-alpha", "1e-12",
                      "--format", "json")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")

    def test_seed_not_accepted(self):
        # The orbit is deterministic; a seed would be read by nothing.
        res = run_cli("det", "--model", "nongeom", "--n", "100", "--tmax", "3", "--seed", "5")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "unrecognized arguments: --seed 5" in res.stderr

    def test_tmax_zero_initial_only(self):
        res = run_cli("det", "--model", "geom", "--p", "0.5", "--n", "3", "--tmax", "0")
        lines = res.stdout.splitlines()
        assert lines[0] == "t,iota,alpha,delta"
        assert lines[1].startswith("0,0.75,0.25,0")
        assert len(lines) == 2

    def test_requires_tmax_or_until_alpha(self):
        res = run_cli("det", "--model", "geom", "--p", "0.5", "--n", "3")
        assert res.returncode == 2

    def test_tmax_and_until_alpha_exclusive(self):
        res = run_cli("det", "--model", "nongeom", "--n", "100", "--tmax", "-3",
                      "--until-alpha", "1e-12")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "not allowed with argument" in res.stderr

    def test_until_alpha_stops_at_fixed_point(self):
        # At p = 1 alpha settles at 1; the state stops changing at t = 753.
        res = run_cli("det", "--model", "geom", "--p", "1.0", "--n", "100", "--until-alpha", "1e-12")
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout == "iota_inf=0 delta_inf=0 steps=753 converged=false\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--tmax", "3", "--seed", "1"],
            ["det", "--tmax", "3"],
            ["det", "--until-alpha", "1e-12"],
        ],
        ids=["simulate", "det-tmax", "det-until-alpha"],
    )
    def test_nongeometric_p_exit_2_unless_default(self, args):
        # The nongeometric model reads no p: --p runs only at its default, 1.
        model = [*args[:1], "--model", "nongeom", "--n", "10", *args[1:]]
        res = run_cli(*model, "--p", "0.3")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.splitlines() == ["error: the nongeometric model does not read p, got 0.3"]
        at_default = run_cli(*model, "--p", "1")
        assert at_default.returncode == 0 and at_default.stdout == run_cli(*model).stdout

    def test_p_out_of_range_exit_2(self):
        res = run_cli("det", "--model", "geom", "--n", "5", "--p", "7", "--tmax", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: p must be in [0, 1], got 7.0"]

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_until_alpha_not_finite_exit_2(self, tol):
        res = run_cli("det", "--model", "geom", "--p", "0.8", "--n", "100", "--until-alpha", tol)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [f"error: alpha_tol must be finite and > 0, got {tol}"]

    def test_negative_tmax_exit_2(self):
        res = run_cli("det", "--model", "nongeom", "--n", "100", "--tmax", "-1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: t_max must be >= 0"]

    def test_orbit_full_precision(self):
        res = run_cli("det", "--model", "nongeom", "--n", "3", "--tmax", "2")
        row = res.stdout.splitlines()[2].split(",")
        # 17 significant digits round-trip float64 exactly.
        assert float(row[1]) == 0.75 * 2.718281828459045 ** (-0.25)


class TestLimits:
    def test_closed_form_subcritical(self):
        res = run_cli("limits", "--p", "0.4", "--closed-form")
        assert res.returncode == 0
        assert res.stdout.strip() == "iota_inf=1"

    def test_remark_constant_digits(self):
        res = run_cli("limits", "--p", "0.6666666667", "--closed-form")
        val = res.stdout.split("iota_inf=")[1].strip()
        assert len(val.replace(".", "").lstrip("0")) >= 10
        assert abs(float(val) - 0.203188) < 1e-5

    def test_fixed_point_below_bound(self):
        res = run_cli("limits", "--p", "0.8", "--n", "100000")
        val = float(res.stdout.split("iota_inf_N=")[1].split()[0])
        assert val < 0.4

    def test_p_out_of_range_exit_2(self):
        res = run_cli("limits", "--p", "1.5")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: p must be in (0, 1), got 1.5"]

    @pytest.mark.parametrize(
        "args",
        [["det", "--model", "nongeom", "--n", "5", "--tmax", "1"], ["limits", "--p", "0.8", "--n", "1000"]],
        ids=["det", "limits"],
    )
    def test_env_seed_ignored_without_seed(self, args):
        # det and limits read no seed, so a bad FROGSIM_SEED is no error for them.
        res = run_cli(*args, env={"FROGSIM_SEED": "abc"})
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout == run_cli(*args).stdout


class TestExperiment:
    def test_fig1_default_grid_monotone(self, tmp_path):
        out = tmp_path / "fig1.csv"
        res = run_cli(
            "experiment", "--kind", "fig1", "--p",
            "0.1,0.3,0.5,0.6,0.7,0.8,0.9", "--out", str(out),
        )
        assert res.returncode == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        vals = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_fig3_grid(self):
        res = run_cli("experiment", "--kind", "fig3", "--n", "100,1000,10000")
        assert res.returncode == 0
        rows = [line.split(",") for line in res.stdout.splitlines()[3:]]
        assert len(rows) == 3
        for r in rows:
            assert 0.17 < float(r[1]) < 0.18

    def test_fig3_and_peak_at_n_above_inverse_tolerance(self):
        # At N = 1e13 the start alpha_0 = 1/(N+1) is below the default 1e-12.
        n = "10000000000000"
        fig3 = run_cli("experiment", "--kind", "fig3", "--n", n)
        assert fig3.returncode == 0
        row = fig3.stdout.splitlines()[3].split(",")
        ref = hp_orbit(ModelParams(10**13, NONGEOMETRIC), alpha_tol=1e-12)[-1][0]
        assert float(row[1]) == pytest.approx(float(ref), rel=1e-14, abs=0) and row[4] == "true"
        assert int(row[3]) > 0
        peak = run_cli("experiment", "--kind", "peak", "--n", n)
        assert peak.returncode == 0
        assert peak.stdout.splitlines()[3] == f"{n},43,true,true"

    def test_peak_at_n_where_one_minus_exp_cancels(self):
        res = run_cli("experiment", "--kind", "peak", "--n", "10000000000000000,100000000000000000")
        assert res.returncode == 0
        assert res.stdout.splitlines()[3:] == [
            "10000000000000000,53,true,true",
            "100000000000000000,57,true,true",
        ]

    @pytest.mark.parametrize(
        "kind,model,other,other_model",
        [
            ("phase", "geometric", "nongeom", "nongeometric"),
            ("fig1", "geometric", "nongeom", "nongeometric"),
            ("fig3", "nongeometric", "geom", "geometric"),
            ("peak", "nongeometric", "geom", "geometric"),
        ],
    )
    def test_figure_kinds_record_their_model(self, kind, model, other, other_model):
        res = run_cli("experiment", "--kind", kind, "--format", "json", "--seed", "3",
                      env={"FROGSIM_SEED": "8"})
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["config"]["model"] == model and payload["metadata"]["seed"] == 3
        env_seed = json.loads(run_cli("experiment", "--kind", kind, "--format", "json",
                                      env={"FROGSIM_SEED": "8"}).stdout)
        assert env_seed["metadata"]["seed"] == 8
        bad = run_cli("experiment", "--kind", kind, "--model", other)
        assert bad.returncode == 2
        assert bad.stdout == ""
        assert bad.stderr.splitlines() == [
            f"error: {kind} computes the {model} model, got '{other_model}'"
        ]

    def test_lln_smoke(self):
        res = run_cli(
            "experiment", "--kind", "lln", "--model", "geom", "--p", "0.6",
            "--n", "100", "--tmax", "5", "--reps", "5", "--seed", "1",
        )
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 4  # 2 comment lines + header + 1 row

    def test_unknown_kind_exit_2(self):
        assert run_cli("experiment", "--kind", "bogus").returncode == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind=fig3\nn=100\nseed=4\n")
        direct = run_cli("experiment", "--kind", "fig3", "--n", "1000", "--seed", "4")
        via_file = run_cli("experiment", "--config", str(cfg), "--n", "1000")
        assert via_file.returncode == 0
        assert via_file.stdout == direct.stdout

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "experiment", "--kind", "final", "--model", "nongeom", "--n", "200",
            "--reps", "10", "--seed", "3", "--format", "json",
        ]
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "kind,reps",
        [("lln", "1"), ("final", "1"), ("phase", "1"), ("moments", "300")],
    )
    def test_degenerate_replications_exit_2(self, kind, reps):
        res = run_cli(
            "experiment", "--kind", kind, "--model", "geom", "--p", "0.6",
            "--n", "100", "--tmax", "3", "--reps", reps, "--seed", "1",
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith(f"error: {kind} needs replications >= ")

    def test_negative_tmax_exit_2(self):
        res = run_cli("experiment", "--kind", "lln", "--model", "geom", "--p", "0.6",
                      "--n", "100", "--tmax", "-1", "--reps", "5", "--seed", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: t_max must be >= 0"]

    def test_bad_env_seed_exit_2(self):
        res = run_cli("experiment", "--kind", "fig1", env={"FROGSIM_SEED": "abc"})
        assert res.returncode == 2
        assert res.stderr.splitlines() == ["error: FROGSIM_SEED must be an integer, got 'abc'"]

    def test_phase_reports_capped_runs(self):
        res = run_cli(
            "experiment", "--kind", "phase", "--model", "geom", "--p", "1.0",
            "--n", "20", "--reps", "2", "--seed", "1",
        )
        assert res.returncode == 0
        header, row = res.stdout.splitlines()[2:]
        assert dict(zip(header.split(","), row.split(",")))["capped"] == "2"

    @pytest.mark.parametrize("key", ["repz", "cap"])
    def test_config_unknown_key_exit_2(self, tmp_path, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"kind=final\nmodel=geom\np=1.0\nn=50\nreps=3\n{key}=7\n")
        res = run_cli("experiment", "--config", str(cfg))
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert f"unknown config key '{key}'" in res.stderr

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--kind", "phase", "--model", "geom", "--n", ","], "p and n grids must not be empty"),
            (["--kind", "lln", "--p", ","], "p and n grids must not be empty"),
            (["--kind", "final", "--p", ","], "p and n grids must not be empty"),
            (["--kind", "moments", "--p", ",", "--reps", "400"], "p and n grids must not be empty"),
            (["--kind", "lln", "--p", "0.6,0.9"], "lln takes one p value, got 2"),
            (["--kind", "final", "--p", "0.6,0.9"], "final takes one p value, got 2"),
            (["--kind", "moments", "--p", "0.6,0.9", "--reps", "400"], "moments takes one p value, got 2"),
            (["--kind", "phase", "--model", "geom", "--n", "20,30"], "phase takes one n value, got 2"),
        ],
    )
    def test_empty_or_ignored_grid_exit_2(self, args, message):
        res = run_cli("experiment", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--kind", "moments", "--n", "5000,7000", "--reps", "400"],
             "moments does not read n_values, got (5000, 7000)"),
            (["--kind", "fig1", "--n", "50"], "fig1 does not read n_values, got (50,)"),
            (["--kind", "fig3", "--p", "0.3"], "fig3 does not read p_values, got (0.3,)"),
            (["--kind", "peak", "--p", "0.3,0.6"], "peak does not read p_values, got (0.3, 0.6)"),
            (["--kind", "final", "--tmax", "5"], "final does not read t_max, got 5"),
            (["--kind", "phase", "--model", "geom", "--tmax", "5"], "phase does not read t_max, got 5"),
            (["--kind", "moments", "--tmax", "5", "--reps", "400"], "moments does not read t_max, got 5"),
            (["--kind", "fig1", "--tmax", "5"], "fig1 does not read t_max, got 5"),
            (["--kind", "fig3", "--tmax", "0"], "fig3 does not read t_max, got 0"),
            (["--kind", "peak", "--tmax", "5"], "peak does not read t_max, got 5"),
            (["--kind", "fig1", "--reps", "7"], "fig1 does not read replications, got 7"),
            (["--kind", "fig3", "--reps", "7"], "fig3 does not read replications, got 7"),
            (["--kind", "peak", "--reps", "1"], "peak does not read replications, got 1"),
        ],
    )
    def test_unread_input_exit_2(self, args, message):
        res = run_cli("experiment", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--kind", "lln", "--n", "20", "--tmax", "3", "--reps", "3"],
            ["--kind", "final", "--n", "20", "--reps", "3"],
            ["--kind", "moments", "--reps", "400"],
        ],
        ids=["lln", "final", "moments"],
    )
    def test_nongeometric_p_exit_2_unless_default(self, args):
        # The nongeometric model, given or by default, reads no p: --p runs only at 0.5.
        for model in (["--model", "nongeom"], []):
            res = run_cli("experiment", *args, *model, "--p", "0.3")
            assert res.returncode == 2 and res.stdout == ""
            assert res.stderr.splitlines() == [
                "error: the nongeometric model does not read p_values, got (0.3,)"
            ]
        at_default = run_cli("experiment", *args, "--model", "nongeom", "--p", "0.5")
        assert at_default.returncode == 0
        assert at_default.stdout == run_cli("experiment", *args).stdout

    @pytest.mark.parametrize(
        "bad,args,env,named",
        [
            ("model=geometric", [], {}, "argument --model: invalid choice: 'geometric'"),
            ("reps=abc", [], {}, "argument --reps: invalid int value: 'abc'"),
            ("kind=bogus", [], {}, "argument --kind: invalid choice: 'bogus'"),
            ("seed=-5", [], {}, "argument --seed: must be >= 0, got -5"),
            (None, ["experiment", "--kind", "fig1", "--seed", "-5"], {}, "argument --seed: must be >= 0"),
            (None, ["experiment", "--kind", "final", "--n", "20", "--reps", "3", "--seed", "-5"], {},
             "argument --seed: must be >= 0"),
            (None, ["simulate", "--model", "nongeom", "--n", "10", "--tmax", "1", "--seed", "-5"], {},
             "argument --seed: must be >= 0"),
            (None, ["simulate", "--model", "nongeom", "--n", "10", "--tmax", "1"],
             {"FROGSIM_SEED": "-5"}, "error: FROGSIM_SEED must be >= 0, got -5"),
        ],
        ids=["config-model", "config-reps", "config-kind", "config-seed",
             "seed-fig1", "seed-final", "seed-simulate", "env-seed"],
    )
    def test_inputs_checked_alike_from_every_source(self, tmp_path, bad, args, env, named):
        # A --config line is read as its flag, and every seed must be >= 0.
        if bad is not None:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"kind=final\nmodel=geom\np=0.6\nn=50\nreps=3\n{bad}\n")
            args = ["experiment", "--config", str(cfg)]
        res = run_cli(*args, env=env)
        assert res.returncode == 2
        assert res.stdout == ""
        assert named in res.stderr and "Traceback" not in res.stderr

    def test_unread_input_in_config_file_exit_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind=fig3\nn=100\np=0.9\n")
        res = run_cli("experiment", "--config", str(cfg))
        assert res.returncode == 2
        assert res.stderr.splitlines() == ["error: fig3 does not read p_values, got (0.9,)"]

    def test_unread_input_at_default_accepted(self):
        # An unread input given at its default value, and the kind's own
        # model, change nothing.
        direct = run_cli("experiment", "--kind", "fig3", "--n", "100", "--seed", "4")
        padded = run_cli(
            "experiment", "--kind", "fig3", "--n", "100", "--seed", "4", "--p", "0.5",
            "--tmax", "20", "--model", "nongeom", "--reps", "100",
        )
        assert direct.returncode == padded.returncode == 0
        assert padded.stdout == direct.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ["--kind", "lln", "--model", "geom", "--p", "0.7", "--n", "50,80", "--tmax", "6", "--reps", "5"],
            ["--kind", "final", "--model", "nongeom", "--n", "40,60", "--reps", "7"],
            ["--kind", "phase", "--model", "geom", "--p", "0.3,0.8", "--n", "60", "--reps", "4"],
            ["--kind", "moments", "--model", "geom", "--p", "0.6", "--reps", "400"],
            ["--kind", "moments", "--model", "nongeom", "--p", "0.5", "--reps", "400"],
        ],
        ids=["lln", "final", "phase", "moments-geom", "moments-nongeom"],
    )
    def test_jobs_threaded_output_identical(self, tmp_path, monkeypatch, args):
        # Lower the N threshold so these small cells take the parallel path
        # (the audit always does), and stand in 1, 2 and 3 usable CPUs for
        # the affinity mask.  The spies append the pid of the process that
        # ran a replication or an audit cell to a file, which forked workers
        # share with this process.
        from frogsim import chain, harness

        monkeypatch.setattr(harness, "_PARALLEL_MIN_N", 0)
        pids = tmp_path / "pids"
        for module, name in (
            (chain, "simulate_trajectory"),
            (chain, "run_to_absorption"),
            (harness, "one_step_samples"),
        ):
            real = getattr(module, name)

            def spy(*a, _real=real):
                with open(pids, "a") as f:
                    f.write(f"{os.getpid()}\n")
                return _real(*a)

            monkeypatch.setattr(module, name, spy)
        outputs = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            pids.write_text("")
            out = tmp_path / f"cpus{cpus}.csv"
            assert cli.main(["experiment", *args, "--seed", "11", "--out", str(out)]) == 0
            outputs[cpus] = out.read_bytes()
            ran_in = set(pids.read_text().split())
            assert ran_in
            assert (ran_in == {str(os.getpid())}) == (cpus == 1)
        assert outputs[1] == outputs[2] == outputs[3]
