"""Span tracer for the benchmark's traced run.

The traced run replaces, for its duration only, the names that each
roughvol module looks up when it calls into another layer (for example
``roughvol.whittle.f_h_dense`` or ``roughvol.harness.simulate_fou_price``)
with wrappers that record one span per call: name, start, end and the
enclosing span. Nothing in the package changes; the originals are put back
when the traced round ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans plus the time outside every span
add up to the traced wall time.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

CLOCK = time.perf_counter

# Every span name the wrap table can produce. Each gets a ``<name>.self_s``
# metric (the harness entry points share ``harness.self_s``), so the printed
# self times add up to ``trace.wall_s`` together with ``trace.other_s``.
SPAN_NAMES = (
    "cli.dispatch",
    "ingest.read_rv_csv",
    "proxy.log_rv_increments",
    "proxy.realized_variance",
    "proxy.integrated_variance",
    "proxy.error_zscores",
    "fracsim.simulate_fou_price",
    "scaling.fit_scaling",
    "whittle.estimate",
    "whittle.minimize",
    "whittle.value",
    "whittle.corrections",
    "spectral.f_h_dense",
    "spectral.periodogram",
    "spectral.autocovariance_hat",
    "harness.run_mc_table",
    "harness.run_zscore_experiment",
    "harness.run_illusion_experiment",
)
HARNESS_SPANS = tuple(name for name in SPAN_NAMES if name.startswith("harness."))


def _self_metric(span: str) -> str:
    return "harness.self_s" if span in HARNESS_SPANS else f"{span}.self_s"


SELF_METRICS = tuple(dict.fromkeys(_self_metric(name) for name in SPAN_NAMES))

# Per-layer metrics of one traced round, in the order BENCHMARK.json lists
# them (the self-time metrics are inserted after the counters).
LAYER_METRICS = (
    ("whittle.value.calls", "count"),
    ("whittle.value.p50_s", "s"),
    ("whittle.value.tail_s", "s"),
    ("whittle.minimize.calls", "count"),
    ("whittle.minimize.nit", "count"),
    ("whittle.minimize.nfev", "count"),
    ("whittle.failed_starts", "count"),
    ("whittle.useful_eval_ratio", "ratio"),
    ("spectral.f_h_dense.calls", "count"),
    ("spectral.periodogram.calls", "count"),
    ("spectral.periodogram.nodes", "count"),
    ("fracsim.simulate_fou_price.calls", "count"),
    ("fracsim.simulate_fou_price.first_s", "s"),
    ("fracsim.simulate_fou_price.p50_s", "s"),
    ("fracsim.steps", "count"),
) + tuple((name, "s") for name in SELF_METRICS) + (
    ("harness.parallel_efficiency", "ratio"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans in memory; one tracer covers one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: dict[int, object] = {}
        self.raised: set[int] = set()
        self._stack = [-1]

    def wrapper(self, original, name, note=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        notes, raised, stack = self.notes, self.raised, self._stack

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(index)
            starts.append(CLOCK())
            try:
                result = original(*args, **kwargs)
            except BaseException:
                raised.add(index)
                raise
            finally:
                ends[index] = CLOCK()
                stack.pop()
            if note is not None:
                notes[index] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, points):
        """Swap every (owner, attribute) in ``points`` for a traced wrapper."""
        saved = []
        try:
            for owner, attr, name, note in points:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrapper(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _note_minimize(args, res):
    return {
        "fun": float(res.fun), "h": float(res.x[0]), "nit": int(res.nit),
        "nfev": int(res.nfev), "success": bool(res.success),
    }


def _note_fit(args, fit):
    return {"h_hat": fit.h_hat, "eta_hat": fit.eta_hat, "objective": fit.objective}


def _note_simulation(args, result):
    spec = args[0]
    return (spec.hurst, spec.n_days * spec.m * spec.substeps)


def _note_nodes(args, result):
    return int(np.size(args[1]))


def wrap_points(cli, harness, whittle):
    """The calls between layers, named as the calling module looks them up."""
    objective = whittle.WhittleObjective
    return [
        (cli, "dispatch", "cli.dispatch", None),
        (cli, "read_rv_csv", "ingest.read_rv_csv", None),
        (cli, "log_rv_increments", "proxy.log_rv_increments", None),
        (cli, "estimate", "whittle.estimate", _note_fit),
        (harness, "run_mc_table", "harness.run_mc_table", None),
        (harness, "run_zscore_experiment", "harness.run_zscore_experiment", None),
        (harness, "run_illusion_experiment", "harness.run_illusion_experiment", None),
        (harness, "simulate_fou_price", "fracsim.simulate_fou_price", _note_simulation),
        (harness, "realized_variance", "proxy.realized_variance", None),
        (harness, "integrated_variance", "proxy.integrated_variance", None),
        (harness, "error_zscores", "proxy.error_zscores", None),
        (harness, "log_rv_increments", "proxy.log_rv_increments", None),
        (harness, "fit_scaling", "scaling.fit_scaling", None),
        (harness, "estimate", "whittle.estimate", _note_fit),
        (whittle, "minimize", "whittle.minimize", _note_minimize),
        (objective, "value", "whittle.value", None),
        (objective, "corrections", "whittle.corrections", None),
        (whittle, "f_h_dense", "spectral.f_h_dense", None),
        (whittle, "periodogram", "spectral.periodogram", _note_nodes),
        (whittle, "autocovariance_hat", "spectral.autocovariance_hat", None),
    ]


def tail(samples) -> float:
    """Highest sample with at least ten samples above it (the maximum when
    there are fewer than eleven; 0 when there are none)."""
    if len(samples) == 0:
        return 0.0
    ordered = np.sort(np.asarray(samples, dtype=float))
    return float(ordered[-11] if len(ordered) >= 11 else ordered[-1])


def median(samples) -> float:
    return float(np.median(samples)) if len(samples) else 0.0


def round_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer figures of one traced round whose timed wall time is ``wall``."""
    names = np.asarray(tracer.names, dtype=object)
    parents = np.asarray(tracer.parents, dtype=int)
    durations = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    child_time = np.zeros(len(durations))
    nested = parents >= 0
    np.add.at(child_time, parents[nested], durations[nested])
    self_times = durations - child_time
    if np.any(self_times < -1e-9):
        raise RuntimeError("spans do not nest: a child outlasts its parent")

    by_name = {name: np.flatnonzero(names == name) for name in SPAN_NAMES}
    out = {metric: 0.0 for metric in SELF_METRICS}
    for name, idx in by_name.items():
        out[_self_metric(name)] += float(self_times[idx].sum())

    value = by_name["whittle.value"]
    out["whittle.value.calls"] = len(value)
    out["whittle.value.p50_s"] = median(durations[value])
    out["whittle.value.tail_s"] = tail(durations[value])

    minimize = by_name["whittle.minimize"]
    evals = np.bincount(parents[value][parents[value] >= 0], minlength=len(names))
    out["whittle.minimize.calls"] = len(minimize)
    out["whittle.minimize.nit"] = sum(tracer.notes[i]["nit"] for i in minimize if i in tracer.notes)
    out["whittle.minimize.nfev"] = sum(tracer.notes[i]["nfev"] for i in minimize if i in tracer.notes)
    out["whittle.failed_starts"] = sum(
        1 for i in minimize
        if i in tracer.raised
        or not (tracer.notes[i]["success"] and math.isfinite(tracer.notes[i]["fun"]))
    )
    useful = 0
    for fit in by_name["whittle.estimate"]:
        if fit in tracer.raised:
            continue
        best = tracer.notes[fit]
        for i in minimize[parents[minimize] == fit]:
            note = tracer.notes.get(i)
            if note and note["fun"] == best["objective"] and note["h"] == best["h_hat"]:
                useful += int(evals[i])
                break
    all_evals = int(evals[minimize].sum()) if len(minimize) else 0
    out["whittle.useful_eval_ratio"] = useful / all_evals if all_evals else 0.0

    out["spectral.f_h_dense.calls"] = len(by_name["spectral.f_h_dense"])
    periodogram = by_name["spectral.periodogram"]
    out["spectral.periodogram.calls"] = len(periodogram)
    out["spectral.periodogram.nodes"] = sum(tracer.notes[i] for i in periodogram)

    simulations = [i for i in by_name["fracsim.simulate_fou_price"] if i in tracer.notes]
    first_call = {}
    for i in simulations:
        first_call.setdefault(tracer.notes[i], i)
    out["fracsim.simulate_fou_price.calls"] = len(by_name["fracsim.simulate_fou_price"])
    out["fracsim.simulate_fou_price.first_s"] = median(durations[list(first_call.values())])
    out["fracsim.simulate_fou_price.p50_s"] = median(durations[simulations])
    out["fracsim.steps"] = sum(tracer.notes[i][1] for i in simulations)

    covered = float(durations[parents < 0].sum())
    out["trace.spans"] = len(names)
    out["trace.wall_s"] = wall
    out["trace.other_s"] = wall - covered
    return out


def combine_rounds(rounds: list[dict]) -> dict:
    """Mean over traced rounds, which keeps the self-time sum exact."""
    return {key: float(np.mean([r[key] for r in rounds])) for key in rounds[0]}


def check_additivity(metrics: dict) -> str | None:
    """Self times plus time outside spans must equal the traced wall time."""
    total = sum(metrics[name] for name in SELF_METRICS) + metrics["trace.other_s"]
    wall = metrics["trace.wall_s"]
    if abs(total - wall) > 1e-9 * max(wall, 1.0):
        return f"self times sum to {total!r}, traced wall time is {wall!r}"
    return None
