"""Tests of the benchmark itself: its oracles, output checks and span arithmetic.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402


@pytest.mark.parametrize("balls,boxes", [(0, 1), (1, 3), (3, 2), (4, 4), (5, 3), (6, 4)])
def test_empbox_enumeration_matches_closed_form_mean(balls, boxes):
    pmf = oracles.empbox_enum_pmf(balls, boxes)
    assert math.isclose(sum(pmf), 1.0)
    mean = sum(k * w for k, w in enumerate(pmf))
    assert math.isclose(mean, boxes * ((boxes - 1) / boxes) ** balls, abs_tol=1e-12)


def test_one_step_exact_conserves_and_matches_hand_case():
    # Nongeometric from (I, A, D) = (3, 1, 0) at N = 3: the frog hits an
    # unvisited vertex for sure, so I' = 2, A' = 1 + 3 - 2 = 2, D' = 0.
    law = oracles.one_step_exact(3, 3, 1, "nongeometric", 0.5)
    assert law == {"unvisited": (2.0, 0.0), "active": (2.0, 0.0), "dead": (0.0, 0.0)}
    law = oracles.one_step_exact(4, 2, 2, "geometric", 0.5)
    assert math.isclose(sum(m for m, _ in law.values()), 5.0)


def test_nongeometric_limit_matches_figure_value():
    assert abs(oracles.nongeometric_limit(10**6) - 0.174545) < 5e-6
    assert abs(oracles.geometric_limit(2 / 3) - 0.203188) < 5e-7


def test_self_time_on_synthetic_tree(tmp_path):
    # 1 root [0, 10] -> 2 [1, 4] (-> 4 [2, 3]) and 3 [5, 9] (-> 5 [5, 6], 6 [7, 9])
    parent = [0, 1, 1, 2, 3, 3]
    start = [0.0, 1.0, 5.0, 2.0, 5.0, 7.0]
    end = [10.0, 4.0, 9.0, 3.0, 6.0, 9.0]
    spans = tracing.Spans(["a", "b"], parent, [0, 1, 1, 0, 1, 1], start, end)
    assert spans.self_times().tolist() == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "total": 11.0, "self": 4.0}
    assert totals["b"] == {"calls": 4, "total": 10.0, "self": 6.0}
    assert sum(tracing.self_shares(spans).values()) == pytest.approx(1.0)
    shifted = tracing.Spans(["a", "b"], parent, [0, 1, 1, 0, 1, 1], np.add(start, 100.0), np.add(end, 100.0))
    shifted.save(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert saved["start"].tolist() == start and saved["parent"].tolist() == parent


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    from frogsim import chain, cli

    original = chain.sample_empbox
    tracer = tracing.Tracer()
    with tracer.installed():
        assert chain.sample_empbox is not original
        assert cli.main(["experiment", "--kind", "final", "--n", "20", "--reps", "3", "--seed", "1",
                         "--out", str(tmp_path / "final.csv")]) == 0
    assert chain.sample_empbox is original
    spans = tracer.spans()
    assert spans.parent[0] == 0 and spans.layers[spans.layer[0]] == "cli"
    assert (spans.parent[1:] >= 1).all()
    assert spans.self_times().sum() == pytest.approx(spans.end[0] - spans.start[0])
    metrics = tracing.layer_metrics(spans, tracer.counts)
    assert metrics["chain.runs"][0] == 3 and metrics["chain.capped_runs"][0] == 0
    assert metrics["chain.steps"][0] == metrics["occupancy.binomial_calls"][0] > 0


def _moment_rows(model, z=0.1):
    cells = [(n, *s) for n in (3, 4) for s in oracles.simplex_states(n)]
    cells += [(1000, 400, 300, 301)] * 20
    return [
        {"model": model, "n": n, "p": 0.5, "unvisited": i, "active": a, "dead": d,
         "component": comp, "z_mean": z, "z_var": -z}
        for n, i, a, d in cells
        for comp in ("unvisited", "active", "dead")
    ]


@pytest.mark.parametrize("model", ["geometric", "nongeometric"])
def test_moment_check_accepts_audit_and_rejects_large_z(model):
    check = workloads.check_moments(model, 0.5)
    check(_moment_rows(model))
    rows = _moment_rows(model)
    rows[7]["z_var"] = 6.0
    with pytest.raises(CheckError):
        check(rows)
    rows = _moment_rows(model)
    rows[4]["z_mean"] = float("nan")
    with pytest.raises(CheckError):
        check(rows)
    with pytest.raises(CheckError):
        check(_moment_rows(model)[3:])


def test_moment_check_rejects_wrong_closed_form():
    exact = oracles.one_step_exact

    def off(state, n):
        i, a, _ = state
        law = exact(n, i, a, "geometric", 0.5)
        return {**law, "active": (law["active"][0] + 1e-6, law["active"][1])}

    with pytest.raises(CheckError):
        workloads.check_moments("geometric", 0.5, oracle=off)(_moment_rows("geometric"))


def _final_rows(frac, q05=0.0198, q95=0.999999, n_values=(100, 10**4)):
    return [{"n": n, "replications": 50, "capped": 0, "mean_unvisited_frac": frac,
             "sd_unvisited_frac": 0.01, "q05": q05, "q50": frac, "q95": q95} for n in n_values]


def test_final_check_rejects_fraction_past_tolerance():
    limit = oracles.nongeometric_limit(10**4)
    check = workloads.check_final("nongeometric", 0.5, (100, 10**4), 50)
    check(_final_rows(limit + 0.009, q05=0.1, q95=0.3))
    with pytest.raises(CheckError):
        check(_final_rows(limit + 0.011, q05=0.1, q95=0.3))
    rows = _final_rows(limit, q05=0.1, q95=0.3)
    rows[0]["capped"] = 1
    with pytest.raises(CheckError):
        check(rows)


def test_geometric_final_check_wants_both_clusters():
    check = workloads.check_final("geometric", 0.8, (100, 10**4), 50)
    check(_final_rows(0.26))
    with pytest.raises(CheckError):
        check(_final_rows(0.26, q05=0.05))
    with pytest.raises(CheckError):
        check(_final_rows(0.26, q95=0.95))


def test_lln_and_phase_checks():
    lln = workloads.check_lln((100, 1000), 10)
    rows = [{"n": n, "replications": 10, "mean_dev": m, "sd_dev": 0.01, "q05": m, "q50": m, "q95": m}
            for n, m in ((100, 0.1), (1000, 0.03))]
    lln(rows)
    rows[1]["mean_dev"] = 0.1
    with pytest.raises(CheckError):
        lln(rows)
    phase = workloads.check_phase((0.3, 0.8), 1000, 10)
    rows = [{"p": p, "n": 1000, "replications": 10, "mean_visited_frac": v, "sd_visited_frac": 0.0}
            for p, v in ((0.3, 0.001), (0.8, 0.7))]
    phase(rows)
    rows[0]["mean_visited_frac"] = 0.03
    with pytest.raises(CheckError):
        phase(rows)
    capped = workloads.check_phase_capped(2)
    with pytest.raises(CheckError):
        capped([{"p": 1.0, "n": 20, "replications": 2, "mean_visited_frac": 1.0, "sd_visited_frac": 0.0}])
    capped([{"p": 1.0, "capped": 2}])


def test_fig3_check_to_1e9():
    n = 10**6
    limit = oracles.nongeometric_limit(n)
    check = workloads.check_fig3(n)
    check([{"n": n, "iota_inf": limit, "delta_inf": 1 - limit, "steps_used": 48, "converged": True}])
    with pytest.raises(CheckError):
        check([{"n": n, "iota_inf": limit + 2e-9, "delta_inf": 1 - limit - 2e-9, "converged": True}])


def test_parse_csv_reads_frogsim_output(tmp_path):
    from frogsim import cli

    out = tmp_path / "fig3.csv"
    op = workloads.large_n(1)[-1]
    assert cli.main(op.argv + ["--out", str(out)]) == 0
    rows = workloads.parse_csv(out.read_text())
    assert rows[0]["converged"] is True and rows[0]["n"] == 10**6
    op.check(rows)


def test_workloads_depend_on_seed_only_through_frogsim_seeds():
    for make in workloads.WORKLOADS.values():
        assert [op.label for op in make(3)] == [op.label for op in make(3)]
    assert [op.label for op in workloads.replicas(3)] != [op.label for op in workloads.replicas(4)]
    assert sum(op.known_fault is not None for op in workloads.replicas(3)) == 1
    assert np.all([op.samples > 0 for op in workloads.audit(1)])
