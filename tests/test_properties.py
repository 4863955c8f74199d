"""Property-based checks: chain invariants, the two EmpBox entry points and
their support, and the `experiment` command's exit codes on generated
argument lists."""

import contextlib
import dataclasses
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from frogsim import chain, cli, harness
from frogsim.occupancy import OccupancySpec, sample_empbox, sample_empbox_batch

# Fixed examples (derandomize) and no example database, so every run tests the
# same cases and leaves no files behind.
SETTINGS = settings(derandomize=True, deadline=None, database=None)


@SETTINGS
@given(
    kind=st.sampled_from([chain.GEOMETRIC, chain.NONGEOMETRIC]),
    n=st.integers(3, 400),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_invariants(kind, n, p, seed):
    params = chain.ModelParams(n=n, kind=kind, p=p)
    states = chain.simulate_trajectory(params, 60, chain.replication_rng(seed))
    for prev, cur in zip(states, states[1:]):
        assert cur.unvisited + cur.active + cur.dead == n + 1
        assert min(cur.unvisited, cur.active, cur.dead) >= 0
        assert cur.unvisited <= prev.unvisited
        assert cur.dead >= prev.dead
        assert cur.t == prev.t + 1


@SETTINGS
@given(
    balls=st.lists(st.integers(0, 300), max_size=40),
    boxes=st.integers(1, 2**32),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_uses_one_double_per_draw(balls, boxes, seed):
    # A batch takes exactly one double per draw, whatever its ball counts, and
    # each draw stays within max(c - b, 0) <= X <= c - 1, or X = c for no balls.
    rng, rng_doubles = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = sample_empbox_batch(np.array(balls, dtype=np.int64), boxes, rng)
    rng_doubles.random(len(balls))
    assert rng.bit_generator.state == rng_doubles.bit_generator.state
    for b, x in zip(balls, batch.tolist()):
        assert x == boxes if b == 0 else max(boxes - b, 0) <= x <= boxes - 1


@SETTINGS
@given(
    balls=st.lists(st.integers(0, 300), min_size=1, max_size=6),
    boxes=st.integers(1, 2**32),
    seed=st.integers(0, 2**32 - 1),
)
def test_empbox_support(balls, boxes, seed):
    # max(c - b, 0) <= X <= c - 1 for b >= 1 balls, and X = c for none.
    rng = np.random.default_rng(seed)
    batch = sample_empbox_batch(np.array(balls), boxes, rng)
    scalar = [sample_empbox(OccupancySpec(b, boxes), rng) for b in balls]
    for b, x, y in zip(balls, batch.tolist(), scalar):
        for v in (x, y):
            if b == 0:
                assert v == boxes
            else:
                assert max(boxes - b, 0) <= v <= boxes - 1


def _grid(values):
    """Comma-joined grids of 0-3 items, empty items included, so "," occurs."""
    return st.lists(st.sampled_from(values), max_size=3).map(",".join)


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(harness.ExperimentConfig)}


@SETTINGS
@given(
    kind=st.sampled_from(harness.KINDS + ("bogus",)),
    model=st.sampled_from(["geom", "nongeom", None]),
    p=st.one_of(st.none(), _grid(["", "0", "0.5", "0.9", "1", "1.5", "x"])),
    n=st.one_of(st.none(), _grid(["", "2", "3", "12", "100", "x"])),
    reps=st.sampled_from([None, "0", "1", "3", "400", "x"]),
    tmax=st.sampled_from([None, "0", "4", "20"]),
)
def test_experiment_exits_0_or_2(kind, model, p, n, reps, tmax):
    argv = ["experiment", "--kind", kind, "--seed", "5"]
    given_flags = {}
    for flag, value in (("--model", model), ("--p", p), ("--n", n), ("--reps", reps), ("--tmax", tmax)):
        if value is not None:
            argv += [flag, value]
            given_flags[flag] = value
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().strip(), argv
    known = kind in harness.KINDS
    # The model the run computes: --model, else the kind's own, else nongeometric.
    run_model = {"geom": chain.GEOMETRIC, "nongeom": chain.NONGEOMETRIC}.get(model) or (
        known and harness._DISPATCH[kind][2]) or chain.NONGEOMETRIC
    for flag, (field, parse) in {
        "--p": ("p_values", cli._float_list),
        "--n": ("n_values", cli._int_list),
        "--tmax": ("t_max", int),
    }.items():
        unread = known and (field not in harness._DISPATCH[kind][1]
                            or field == "p_values" and run_model == chain.NONGEOMETRIC)
        # An input the kind or its model does not read runs only at its default
        # value, and a rejection names an unread input that was given another value.
        if code == 0 and unread and flag in given_flags:
            assert parse(given_flags[flag]) == _DEFAULTS[field], argv
        if f"does not read {field}," in err.getvalue():
            assert unread and parse(given_flags[flag]) != _DEFAULTS[field], argv
