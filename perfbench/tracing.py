"""Outside-in layer tracing for the benchmark's traced run.

The tracer replaces the entry points of each cvarsearch layer, as they are
looked up from the ``cvarsearch.engine`` and ``cvarsearch.harness`` module
namespaces (plus ``BenchmarkLoss.simulate``), with timing wrappers, and
puts the originals back on ``uninstall``.  Nothing under ``src/`` changes:
a wrapped call behaves exactly like the original, it is only timed and
counted.

A span's self time is its duration minus the time covered by the wrapped
calls it made, so the self times of all spans add up to the time spent
inside top-level spans; the rest of the traced wall time is unattributed
(benchmark glue, and program code between layer calls that no wrapper
covers).
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter

from cvarsearch import engine, harness
from cvarsearch.benchmarks import BenchmarkLoss

# layer -> (namespace, attribute name) of every wrapped entry point
LAYERS = {
    "streams": [(engine, "substream"), (engine, "generator"),
                (harness, "substream"), (harness, "generator")],
    "sampling": [(engine, "sample"), (engine, "sufficient_statistics"),
                 (engine, "expected_sufficient_statistics"),
                 (engine, "to_natural"), (engine, "_project_raw_natural")],
    "benchmarks": [(BenchmarkLoss, "simulate")],
    "risk": [(engine, "empirical_cvar")],
    "shaping": [(engine, "sample_quantile_threshold"), (engine, "shape"),
                (engine, "normalized_weights")],
    "schedule": [(engine, "update_risk_level"), (engine, "inner_sample_size"),
                 (harness, "inner_sample_size")],
    "engine": [(harness, "run_gass_cvar"), (harness, "run_gass_cvar_arl"),
               (engine, "_run_search"), (engine, "newton_step_vector"),
               (engine, "evaluate_candidates")],
    "harness": [(harness, "run_experiment"), (harness, "run_replication"),
                (harness, "emit_reference_run"), (harness, "_aggregate"),
                (harness, "emit_csv")],
}

# entry points whose individual call durations are reported
_KEEP_DURATIONS = ("run_replication", "emit_reference_run")


class Tracer:
    """Span and count accumulator over the wrapped layer entry points."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = defaultdict(float)
        self.top_s = 0.0
        self._stack: list[float] = []
        self._search_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, entries in LAYERS.items():
            for owner, name in entries:
                original = vars(owner)[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, name, original))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, name: str, fn):
        key = (layer, name)
        count = getattr(self, "_count_" + name.lstrip("_"), None)
        in_search = name == "_run_search"
        keep = name in _KEEP_DURATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            if in_search:
                self._search_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if in_search:
                    self._search_depth -= 1
                child = stack.pop()
                self.self_s[key] += dt - child
                self.total_s[key] += dt
                self.calls[key] += 1
                if keep:
                    self.durations[name].append(dt)
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    # -- counters at layer boundaries, keyed by entry-point name ----------

    def _count_simulate(self, args, kwargs, result):
        self.counts["draws"] += result.size
        if self._search_depth:
            self.counts["search_draws"] += result.size

    def _count_generator(self, args, kwargs, result):
        self.counts["streams_built"] += 1

    def _count_empirical_cvar(self, args, kwargs, result):
        losses = args[0]
        self.counts["elements"] += losses.size
        self.counts["bytes"] += losses.nbytes
        if self._search_depth:
            self.counts["m_sum"] += losses.shape[-1]
            self.counts["m_iters"] += 1

    def _count_normalized_weights(self, args, kwargs, result):
        self.counts["ess_sum"] += 1.0 / float(result @ result) / result.size
        self.counts["ess_iters"] += 1

    def _count_run_search(self, args, kwargs, result):
        self.counts["iterations"] += len(result[0])

    def _count_run_gass_cvar(self, args, kwargs, result):
        values = result.record_values
        self.counts["runs"] += 1
        self.counts["reevaluated"] += 1 if values is None else values.size

    def _count_run_gass_cvar_arl(self, args, kwargs, result):
        self._count_run_gass_cvar(args, kwargs, result)
        self.counts["ramp_runs"] += 1
        self.counts["alpha_final_sum"] += result.records[-1].alpha

    def _count_emit_csv(self, args, kwargs, result):
        self.counts["emit_bytes"] += sum(os.path.getsize(p) for p in result.values())

    # -- reporting ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), t in self.self_s.items():
            out[layer] += t
        return out

    def _layer_calls(self, layer: str) -> int:
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def _named(self, table, name: str):
        return sum(v for (_, n), v in table.items() if n == name)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run whose wall time was wall_s."""
        c = self.counts
        self_s = self.layer_self_s()
        stream_calls = self._layer_calls("streams")
        refs = self.durations["emit_reference_run"]
        return {
            "streams.calls": stream_calls,
            "streams.self_s": self_s["streams"],
            "streams.us_per_call": 1e6 * self_s["streams"] / stream_calls,
            "streams.sims_per_stream": c["draws"] / c["streams_built"],
            "benchmarks.calls": self._layer_calls("benchmarks"),
            "benchmarks.draws": int(c["draws"]),
            "benchmarks.self_s": self_s["benchmarks"],
            "benchmarks.ns_per_draw": 1e9 * self_s["benchmarks"] / c["draws"],
            "risk.calls": self._layer_calls("risk"),
            "risk.elements": int(c["elements"]),
            "risk.self_s": self_s["risk"],
            "risk.ns_per_element": 1e9 * self_s["risk"] / c["elements"],
            "risk.bytes_computed": int(c["bytes"]),
            "engine.iterations": int(c["iterations"]),
            "engine.self_s": self_s["engine"],
            "engine.newton_s": self._named(self.total_s, "newton_step_vector"),
            "engine.final_eval_s": self._named(self.total_s, "evaluate_candidates"),
            "engine.final_sims_share": (c["draws"] - c["search_draws"]) / c["draws"],
            "engine.final_evals_used_frac": c["runs"] / c["reevaluated"],
            "schedule.self_s": self_s["schedule"],
            "schedule.m_k_mean": c["m_sum"] / c["m_iters"],
            "schedule.alpha_final": c["alpha_final_sum"] / c["ramp_runs"],
            "shaping.self_s": self_s["shaping"],
            "shaping.ess_frac": c["ess_sum"] / c["ess_iters"],
            "sampling.calls": self._layer_calls("sampling"),
            "sampling.self_s": self_s["sampling"],
            "harness.replication_s_p50": statistics.median(self.durations["run_replication"]),
            "harness.reference_s": refs[0],
            "harness.reference_hit_s": refs[1],
            "harness.aggregate_s": self._named(self.total_s, "_aggregate"),
            "harness.emit_s": self._named(self.total_s, "emit_csv"),
            "harness.emit_bytes": int(c["emit_bytes"]),
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - self.top_s,
        }
