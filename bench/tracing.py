"""Span tracing around seqgame's public functions, and per-layer metrics.

`Tracer.install` replaces each public function listed in `WRAPPED` with a
timing wrapper in every seqgame module that holds it, so calls between
modules and within a module are both recorded. Spans stay in memory and
are written out once, when the traced run ends. Nothing here runs unless a
benchmark child is started with tracing on.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time

# Public function -> layer. Calls within one layer nest (a common-channel
# minimum delegates to the channel min-max solve); only the outermost span
# of a nest counts as a call of its layer.
WRAPPED = {
    "parse_run_config": "cli.parse",
    "build_scenario": "cli.build_scenario",
    "run_replication": "simharness.replication",
    "sample_through_channel": "simharness.sample",
    "threshold_constant": "seqtest.threshold_constant",
    "evidence_statistics": "seqtest.evidence",
    "run_aware": "seqtest.run",
    "run_nonaware": "seqtest.run",
    "min_divergence_to_ball": "divopt.reach",
    "pairwise_min_divergence": "divopt.pair",
    "min_max_divergence_over_channel": "divopt.minmax",
    "min_divergence_over_common_channels": "divopt.minmax",
    "solve_aware_equilibrium": "equilibrium.solve",
    "solve_nonaware_adversary": "equilibrium.nonaware_search",
    "nonaware_achievable": "equilibrium.bounds",
    "nonaware_converse": "equilibrium.bounds",
}

# Spans the benchmark opens around its own steps.
BENCH_LAYERS = {"setup": "bench", "timed": "bench", "report_write": "cli.report_write"}

def _replication_key(bound: inspect.BoundArguments) -> tuple[int, int, int]:
    args = bound.arguments
    return (args["config"].alpha_index(args["alpha"]), args["hypothesis"],
            args["replication_index"])


class Tracer:
    """Records one span per traced call: name, layer, start, end, parent,
    replication id, and the solver health fields of the returned object."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # (alpha index, hypothesis, replication) of the enclosing replication
        self.replication: tuple[int, int, int] | None = None

    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name, "layer": layer, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "replication": self.replication,
        })
        self._stack.append(index)
        return index

    def _close(self, index: int, result=None) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        self._stack.pop()
        for field in ("iterations", "converged", "stopping_time"):
            value = getattr(result, field, None)
            if value is not None:
                span[field] = int(value)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own steps."""
        index = self._open(name, BENCH_LAYERS[name])
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def replication_id(self, key: tuple[int, int, int]):
        """Tag spans opened inside with a replication the benchmark drives."""
        outer, self.replication = self.replication, key
        try:
            yield
        finally:
            self.replication = outer

    def _wrap(self, name: str, fn):
        layer = WRAPPED[name]
        signature = inspect.signature(fn) if name == "run_replication" else None
        # a memoised function: tag the calls that missed its cache
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self.replication
            if signature is not None:
                self.replication = _replication_key(signature.bind(*args, **kwargs))
            misses = cache_info().misses if cache_info else None
            index = self._open(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, result)
                if cache_info:
                    self.spans[index]["cold"] = int(cache_info().misses > misses)
                self.replication = outer

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED wherever a seqgame module holds it.

        Raises LookupError when a name is missing from the package, so a
        renamed or removed public function cannot go silently untraced.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "seqgame" or name.startswith("seqgame.")]
        for name in WRAPPED:
            originals = {id(getattr(m, name)): getattr(m, name)
                         for m in modules if callable(getattr(m, name, None))}
            if not originals:
                raise LookupError(f"traced function seqgame.*.{name} does not exist")
            wrappers = {key: self._wrap(name, fn) for key, fn in originals.items()}
            for module in modules:
                held = getattr(module, name, None)
                if held is not None and id(held) in wrappers:
                    setattr(module, name, wrappers[id(held)])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# Aggregation


def _percentile_ms(durations: list[float], pct: float) -> float:
    """Nearest-rank percentile, in milliseconds; 0 when there are no calls."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e3 * ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _duration(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Layers:
    """Per-layer view of the spans of one traced run."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.by_layer: dict[str, list[dict]] = {}
        child_time = [0.0] * len(spans)
        for span in spans:
            self.by_layer.setdefault(span["layer"], []).append(span)
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, inner in zip(spans, child_time):
            span["self"] = span["end"] - span["start"] - inner

    def outer(self, layer: str) -> list[dict]:
        """Spans of the layer not nested directly in a span of the same layer."""
        return [s for s in self.by_layer.get(layer, [])
                if s["parent"] is None or self.spans[s["parent"]]["layer"] != layer]

    def total_s(self, layer: str) -> float:
        return _duration(self.outer(layer))

    def inside(self, span: dict, layer: str) -> bool:
        """Whether a span of `layer` encloses `span`."""
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
            if span["layer"] == layer:
                return True
        return False

    def self_s(self, layer: str) -> float:
        return sum(s["self"] for s in self.by_layer.get(layer, []))

    def p_ms(self, layer: str, pct: float) -> float:
        return _percentile_ms([s["end"] - s["start"] for s in self.outer(layer)], pct)

    def field_sum(self, layer: str, field: str) -> int:
        return sum(s.get(field, 0) for s in self.outer(layer))

    def field_count(self, layer: str, field: str, value: int) -> int:
        return sum(s.get(field) == value for s in self.outer(layer))

    def missing(self, expected: tuple[str, ...]) -> list[str]:
        return [layer for layer in expected if layer not in self.by_layer]

    def shares(self) -> dict[str, float]:
        """Share of the traced wall that each layer's spans cover."""
        wall = self.total_s("bench")
        return {layer: _covered([(s["start"], s["end"]) for s in self.outer(layer)]) / wall
                for layer in sorted(self.by_layer) if layer != "bench"}

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric the spans give, by name."""
        runs = self.outer("simharness.replication") or self.outer("seqtest.run")
        # only calls that computed the constant; cache hits cost next to nothing
        cold = [s for s in self.outer("seqtest.threshold_constant") if s.get("cold", 1)]
        # the search evaluates the bounds itself; that time is in nonaware_search_s
        bounds = [s for s in self.outer("equilibrium.bounds")
                  if not self.inside(s, "equilibrium.nonaware_search")]
        out = {
            "simharness.samples_per_replication":
                sum(s.get("stopping_time", 0) for s in runs) / len(runs) if runs else 0.0,
            "seqtest.threshold_constant_s": _duration(cold),
            "equilibrium.solve_s": self.total_s("equilibrium.solve"),
            "equilibrium.solve_converged": self.field_count("equilibrium.solve", "converged", 1),
            "equilibrium.nonaware_search_s": self.total_s("equilibrium.nonaware_search"),
            "equilibrium.bounds_s": _duration(bounds),
            "divopt.pair_s": self.total_s("divopt.pair"),
            # self time: the pairwise minima that spec construction runs are in divopt.pair_s
            "cli.parse_s": self.self_s("cli.parse"),
            "cli.build_scenario_s": self.self_s("cli.build_scenario"),
            "cli.report_write_s": self.self_s("cli.report_write"),
            "trace.spans": len(self.spans),
            "trace.overhead_ratio": overhead_ratio,
        }
        for layer in ("simharness.replication", "simharness.sample", "seqtest.evidence",
                      "seqtest.run", "divopt.reach", "divopt.pair", "divopt.minmax"):
            out[f"{layer}_calls"] = len(self.outer(layer))
            out[f"{layer}_self_s"] = self.self_s(layer)
            out[f"{layer}_iterations"] = self.field_sum(layer, "iterations")
            out[f"{layer}_nonconverged"] = self.field_count(layer, "converged", 0)
            for pct in (50, 99):
                out[f"{layer}_p{pct}_ms"] = self.p_ms(layer, pct)
        return out
