"""Span tracing from outside the program.

`install` wraps rydsim's public functions, patching each name where its
caller looks it up, so a traced run goes through the same code as an
untraced one.  Spans (name, start, end, parent, run id) and work counters
are kept in memory and written out when the run ends; `layer_metrics`
derives each layer's self time from them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Spans and work counters of one traced call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a wrapper recording span `name`;
        `count(counts, args, result)` updates the work counters."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, traced)


def _calls(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _steps(key):
    def count(counts, args, result):
        counts[key] += len(result.times) - 1
    return count


def _trajectory(counts, args, result):
    counts["classical.kmc_trajectories"] += 1
    counts["classical.kmc_events"] += len(result.events)


def _table(counts, args, result):
    table, network = args[0], args[1]
    counts["table_pairs"] += int(table.indptr[-1])
    counts["table_atoms"] += network.n_atoms


def install(tracer: Tracer) -> None:
    """Trace every layer a benchmark workload calls into.  Time in code
    that is not wrapped counts as self time of the nearest wrapped caller."""
    from rydsim import (classical, cli, experiments, geometry, model,
                        quantum, timeseries)

    patch = tracer.patch
    patch(cli, "main", "cli.write_s")
    patch(cli, "run_experiment", "experiments.self_s")
    patch(experiments, "evolve_quantum", "quantum.evolve_s",
          _steps("quantum.rk4_steps"))
    patch(quantum, "build_hamiltonian", "quantum.hamiltonian_s")
    patch(classical, "classical_generator", "classical.generator_s",
          _calls("classical.generator_calls"))
    patch(classical, "evolve_classical_exact", "classical.propagate_s",
          _steps("classical.rk4_steps"))
    patch(classical, "gillespie_run", "classical.kmc_s", _trajectory)
    patch(classical, "ensemble_average", "classical.average_s")
    patch(classical.NeighborTable, "__init__", "classical.table_s", _table)
    patch(model.AtomNetwork, "__post_init__", "model.network_init_s")
    patch(model.AtomNetwork, "interaction_matrix", "model.interaction_matrix_s",
          _calls("model.interaction_matrix_calls"))
    patch(geometry, "sample_cylinder", "geometry.sample_cylinder_s")
    for name in dir(experiments):
        if name.startswith("build_"):
            patch(experiments, name, "devices.build_s", _calls("devices.builds"))
    patch(timeseries.TimeSeries, "resample", "timeseries.resample_s")
    patch(timeseries.TimeSeries, "to_csv", "timeseries.to_csv_s")


def self_times(spans) -> dict:
    """Span name -> summed duration not covered by its child spans."""
    covered = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += end - start - covered[index]
    return totals


TIMES = ("quantum.evolve_s", "quantum.hamiltonian_s", "classical.generator_s",
         "classical.propagate_s", "classical.kmc_s", "classical.average_s",
         "classical.table_s", "model.network_init_s",
         "model.interaction_matrix_s", "geometry.sample_cylinder_s",
         "devices.build_s", "experiments.self_s", "timeseries.resample_s",
         "timeseries.to_csv_s", "cli.write_s")
COUNTS = ("quantum.rk4_steps", "classical.generator_calls",
          "classical.rk4_steps", "classical.kmc_trajectories",
          "classical.kmc_events", "model.interaction_matrix_calls",
          "devices.builds")


def _per(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans, counts) -> dict:
    """Per-layer values of one traced run: self times in s, counts, and
    per-unit costs (0 where the layer did no work)."""
    spans = [tuple(s) for s in spans]
    selfs = self_times(spans)
    out = {name: selfs.get(name, 0.0) for name in TIMES}
    out.update({name: counts.get(name, 0.0) for name in COUNTS})
    out["quantum.step_ms"] = _per(out["quantum.evolve_s"],
                                  out["quantum.rk4_steps"], 1e3)
    out["classical.step_us"] = _per(out["classical.propagate_s"],
                                    out["classical.rk4_steps"], 1e6)
    out["classical.kmc_us_per_event"] = _per(out["classical.kmc_s"],
                                             out["classical.kmc_events"], 1e6)
    out["classical.table_mean_degree"] = _per(counts.get("table_pairs", 0.0),
                                              counts.get("table_atoms", 0.0), 1)
    out["trace.spans"] = len(spans)
    return out
