"""Spans around frogsim's layers, recorded from outside the program.

Each public function is wrapped at the name its caller looks it up by (so
`chain.sample_empbox`, not `occupancy.sample_empbox`, because `chain` imports
it by name).  A span is (id, parent id, layer, start, end); spans stay in
memory until the caller takes them.  Counters are added at the same
boundaries, after the span closes.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _batch(counts, args, result):
    counts["batch_balls"] += int(args[0].sum())
    counts["batch_hit"] += int((args[1] - result).sum())


def _empbox(counts, args, result):
    spec = args[0]
    counts["empbox_balls"] += spec.balls
    counts["empbox_boxes"] += spec.boxes
    counts["empbox_hit"] += spec.boxes - result


def _run(counts, args, result):
    counts["runs"] += 1
    counts["capped_runs"] += not result[1]


def _trajectory(counts, args, result):
    counts["runs"] += 1


def _draws(counts, args, result):
    counts["one_step_draws"] += args[2]


def _orbit(counts, args, result):
    counts["det_steps"] += len(result) - 1


def _limit(counts, args, result):
    counts["det_steps"] += result.steps_used


def targets():
    """(module, attribute, layer, counter) for every wrapped function."""
    from frogsim import chain, cli, dynamics, harness

    return [
        (cli, "main", "cli", None),
        (harness, "run_experiment", "harness", None),
        (harness, "summary_to_csv", "harness.emit", None),
        (harness, "summary_to_json", "harness.emit", None),
        (harness, "one_step_samples", "harness.one_step", _draws),
        (harness, "sample_empbox_batch", "occupancy.batch", _batch),
        (chain, "run_to_absorption", "chain.run", _run),
        (chain, "simulate_trajectory", "chain.run", _trajectory),
        (chain, "step_geometric", "chain.step", None),
        (chain, "step_nongeometric", "chain.step", None),
        (chain, "validate_state", "chain.validate", None),
        (chain, "sample_empbox", "occupancy.empbox", _empbox),
        (chain, "sample_binomial", "occupancy.binomial", None),
        (dynamics, "det_orbit", "dynamics", _orbit),
        (dynamics, "iterate_limit", "dynamics", _limit),
        (dynamics, "iota_infinity", "dynamics", None),
        (dynamics, "alpha_peak_index", "dynamics", None),
    ]


class Tracer:
    """Records spans and counters while installed; one per traced round.

    Span k (id k + 1) is parent[k], layer[k], start[k], end[k]; id 0 is the
    caller outside every span.  The columns are flat arrays so that a round
    of a million spans stays a few tens of MB.
    """

    def __init__(self):
        self.layers: list[str] = []
        self.parent = array("q")
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [0]

    def wrap(self, layer, fn, counter=None):
        if layer not in self.layers:
            self.layers.append(layer)
        code = self.layers.index(layer)
        parents, layers, starts, ends = self.parent, self.layer, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            k = len(starts)
            parents.append(stack[-1])
            layers.append(code)
            ends.append(0.0)
            stack.append(k + 1)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, layer, counter in targets():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(layer, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def spans(self) -> "Spans":
        return Spans(self.layers, self.parent, self.layer, self.start, self.end)


class Spans:
    """Span columns as numpy arrays; ids are 1 + the row index."""

    def __init__(self, layers, parent, layer, start, end):
        self.layers = list(layers)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.layer = np.asarray(layer, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its children cover.

        Every wrapped call runs to completion on one thread before its caller
        resumes, so children never overlap and the covered time is the sum of
        their durations.
        """
        dur = self.end - self.start
        covered = np.bincount(self.parent, weights=dur, minlength=dur.size + 1)[1:]
        return dur - covered

    def save(self, path) -> None:
        """Write the columns to an .npz file, times in seconds from the first start."""
        t0 = self.start.min() if self.start.size else 0.0
        np.savez_compressed(path, layers=np.array(self.layers), parent=self.parent,
                            layer=self.layer, start=self.start - t0, end=self.end - t0)


def layer_totals(spans: Spans) -> dict[str, dict[str, float]]:
    """Per layer: span count, summed duration and summed self time."""
    own = spans.self_times()
    dur = spans.end - spans.start
    n = len(spans.layers)
    calls = np.bincount(spans.layer, minlength=n)
    total = np.bincount(spans.layer, weights=dur, minlength=n)
    self_ = np.bincount(spans.layer, weights=own, minlength=n)
    return {name: {"calls": int(calls[k]), "total": float(total[k]), "self": float(self_[k])}
            for k, name in enumerate(spans.layers) if calls[k]}


def layer_metrics(spans, counts) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round: name -> (value, unit)."""
    lt = layer_totals(spans)

    def calls(layer):
        return lt.get(layer, {}).get("calls", 0)

    def own(layer):
        return lt.get(layer, {}).get("self", 0.0)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    steps = calls("chain.step")
    balls = counts["batch_balls"] + counts["empbox_balls"]
    return {
        "occupancy.batch_calls": (calls("occupancy.batch"), "count"),
        "occupancy.batch_s": (own("occupancy.batch"), "s"),
        "occupancy.batch_balls": (counts["batch_balls"], "count"),
        "occupancy.batch_ns_per_ball": (per(own("occupancy.batch"), counts["batch_balls"], 1e9), "ns"),
        "occupancy.empbox_calls": (calls("occupancy.empbox"), "count"),
        "occupancy.empbox_s": (own("occupancy.empbox"), "s"),
        "occupancy.empbox_us_per_call": (per(own("occupancy.empbox"), calls("occupancy.empbox"), 1e6), "us"),
        "occupancy.empbox_balls": (counts["empbox_balls"], "count"),
        "occupancy.empbox_boxes": (counts["empbox_boxes"], "count"),
        "occupancy.new_box_ratio": (per(counts["batch_hit"] + counts["empbox_hit"], balls, 1.0), "ratio"),
        "occupancy.binomial_calls": (calls("occupancy.binomial"), "count"),
        "occupancy.binomial_s": (own("occupancy.binomial"), "s"),
        "chain.steps": (steps, "count"),
        "chain.step_self_s": (own("chain.step"), "s"),
        "chain.us_per_step": (per(lt.get("chain.step", {}).get("total", 0.0), steps, 1e6), "us"),
        "chain.validate_s": (own("chain.validate"), "s"),
        "chain.run_self_s": (own("chain.run"), "s"),
        "chain.runs": (counts["runs"], "count"),
        "chain.capped_runs": (counts["capped_runs"], "count"),
        "harness.self_s": (own("harness"), "s"),
        "harness.one_step_samples_s": (own("harness.one_step"), "s"),
        "harness.one_step_draws": (counts["one_step_draws"], "count"),
        "harness.emit_s": (own("harness.emit"), "s"),
        "cli.self_s": (own("cli"), "s"),
        "dynamics.calls": (calls("dynamics"), "count"),
        "dynamics.s": (own("dynamics"), "s"),
        "dynamics.det_steps": (counts["det_steps"], "count"),
    }


def self_shares(spans) -> dict[str, float]:
    """Each layer's share of the summed self time, largest first."""
    lt = layer_totals(spans)
    total = sum(t["self"] for t in lt.values()) or 1.0
    return dict(sorted(((k, t["self"] / total) for k, t in lt.items()), key=lambda kv: -kv[1]))
