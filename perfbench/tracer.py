"""Per-layer timing of the game loop, taken from outside the package.

`acnbounds.game` looks its five layers up as module globals at call time,
so swapping those names for timing wrappers traces every trial without
editing the package. Wrapped layers never call each other, so a solve's
time not covered by their spans is the game's own: seed hashing, RNG
construction, tallies and the Fraction sums of exact enumeration.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

from acnbounds import game
from acnbounds.protocols import ENUM_LIMIT

# name in acnbounds.game -> layer name in the metrics
LAYERS = {
    "sample_outcome": "protocols.sample_outcome",
    "build_trace": "protocols.build_trace",
    "filter_trace": "core.filter_trace",
    "decide": "adversaries.decide",
    "enumerate_outcomes": "protocols.enumerate_outcomes",
}
_INDEX = {name: i for i, name in enumerate(LAYERS)}

# name -> (unit, better); the order is the order they are printed in
METRICS = {
    "trace.overhead_ratio": ("ratio", "lower"),
    "protocols.build_trace.busy_s": ("s", "lower"),
    "protocols.build_trace.share": ("ratio", "lower"),
    "protocols.build_trace.calls": ("count", "lower"),
    "protocols.build_trace.events": ("events/trace", "lower"),
    "core.filter_trace.busy_s": ("s", "lower"),
    "core.filter_trace.share": ("ratio", "lower"),
    "core.filter_trace.events_out": ("events/trace", "lower"),
    "core.filter_trace.keep_ratio": ("ratio", "higher"),
    "protocols.outcomes.busy_s": ("s", "lower"),
    "protocols.outcomes.share": ("ratio", "lower"),
    "protocols.sample_outcome.calls": ("count", "lower"),
    "adversaries.decide.busy_s": ("s", "lower"),
    "adversaries.decide.share": ("ratio", "lower"),
    "adversaries.decide.tie_rate": ("ratio", "lower"),
    "protocols.enumerate_outcomes.leaves": ("count", "lower"),
    "protocols.enumerate_outcomes.leaves_vs_limit": ("ratio", "lower"),
    "game.self_s": ("s", "lower"),
    "game.self_share": ("ratio", "lower"),
}


class LayerTracer:
    """Context manager that wraps the game's layers and keeps their spans.

    A span is (layer, solve, start, end); spans stay in memory until
    `write_spans`. Counts are taken at the same boundaries: events built,
    events kept by the filter, tied verdicts and enumerated leaves.
    """

    def __init__(self):
        self.span_layer = array("b")
        self.span_solve = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.solve_spans = []
        self.calls = [0] * len(LAYERS)
        self.busy = [0.0] * len(LAYERS)
        self.events_built = 0
        self.events_in = 0
        self.events_out = 0
        self.ties = 0
        self.leaves = 0
        self.max_leaves = 0
        self._saved = {}

    def __enter__(self):
        for name in LAYERS:
            self._saved[name] = getattr(game, name)
            setattr(game, name, self._wrap(name, self._saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(game, name, fn)
        self._saved.clear()

    def add_solve(self, start: float, end: float):
        """Close the solve whose layer spans were recorded since the last."""
        self.solve_spans.append((start, end))

    def _wrap(self, name, fn):
        i = _INDEX[name]
        calls, busy = self.calls, self.busy
        layers, solves = self.span_layer.append, self.span_solve.append
        starts, ends = self.span_start.append, self.span_end.append
        count = getattr(self, "_count_" + name, None)

        def traced(*args):
            t0 = perf_counter()
            out = fn(*args)
            t1 = perf_counter()
            layers(i)
            solves(len(self.solve_spans))
            starts(t0)
            ends(t1)
            calls[i] += 1
            busy[i] += t1 - t0
            if count is not None:
                count(args, out)
            return out

        return traced

    def _count_build_trace(self, args, trace):
        self.events_built += len(trace.events)

    def _count_filter_trace(self, args, trace):
        self.events_in += len(args[0].events)
        self.events_out += len(trace.events)

    def _count_decide(self, args, verdict):
        self.ties += verdict is None

    def _count_enumerate_outcomes(self, args, leaves):
        self.leaves += len(leaves)
        self.max_leaves = max(self.max_leaves, len(leaves))

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metrics over the solves traced so far, per solve."""
        solves = len(self.solve_spans)
        total = sum(end - start for start, end in self.solve_spans)
        calls = dict(zip(LAYERS, self.calls))
        busy = dict(zip(LAYERS, self.busy))
        self_s = total - sum(self.busy)
        values = {
            "trace.overhead_ratio": overhead_ratio,
            "protocols.build_trace.calls": calls["build_trace"] / solves,
            "protocols.build_trace.events":
                _ratio(self.events_built, calls["build_trace"]),
            "core.filter_trace.events_out":
                _ratio(self.events_out, calls["filter_trace"]),
            "core.filter_trace.keep_ratio":
                _ratio(self.events_out, self.events_in),
            "protocols.sample_outcome.calls":
                calls["sample_outcome"] / solves,
            "adversaries.decide.tie_rate": _ratio(self.ties, calls["decide"]),
            "protocols.enumerate_outcomes.leaves": self.leaves / solves,
            "protocols.enumerate_outcomes.leaves_vs_limit":
                self.max_leaves / ENUM_LIMIT,
            "game.self_s": self_s / solves,
            "game.self_share": self_s / total,
        }
        # a workload draws outcomes by one of the two routes, so their time
        # is one layer that is nonzero on every workload
        timed = {
            "protocols.build_trace": busy["build_trace"],
            "core.filter_trace": busy["filter_trace"],
            "protocols.outcomes":
                busy["sample_outcome"] + busy["enumerate_outcomes"],
            "adversaries.decide": busy["decide"],
        }
        for layer, seconds in timed.items():
            values[layer + ".busy_s"] = seconds / solves
            values[layer + ".share"] = seconds / total
        return {name: values[name] for name in METRICS}

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "layers": list(LAYERS.values()),
                "solves": self.solve_spans,
                "spans": {
                    "layer": self.span_layer.tolist(),
                    "solve": self.span_solve.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
            }, fh)


def _ratio(num, den):
    return num / den if den else 0.0
