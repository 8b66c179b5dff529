"""Span tracer for the traced benchmark pass.

The tracer replaces each public function of a trailcounts module with a
wrapper, at every name a caller looks it up under: a module global bound to
the function (``reports.walk_count`` as well as ``graphs.walk_count``) or a
class attribute for methods. Each call records a span (layer, start, end,
parent) in memory; per-layer self time is a span's duration minus the part
its child spans cover. The untraced passes import the same modules and never
call ``install``, so they run the program exactly as shipped.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from trailcounts import corpus, fock, graphs, nilpotent, oracle, reports, verify

# layer -> (owner, attribute) pairs. A call nested inside a span of the same
# layer (euler -> trail count, is_hamiltonian -> f_matrix_amplitude) adds
# self time but not a call.
LAYERS: dict[str, list[tuple[object, str]]] = {
    "oracle.count_walks": [(oracle, "count_walks")],
    "oracle.enumerate_walks": [(oracle, "enumerate_walks")],
    "oracle.table": [(oracle, "_walk_table"), (oracle, "_trail_tables"), (oracle, "_dni_tables")],
    "oracle.other": [
        (oracle, "count_hamiltonian_cycles_through"),
        (oracle, "count_closed_euler_trails"),
        (oracle, "trail_edge_set_histogram"),
    ],
    "nilpotent.row_power": [
        (nilpotent, "trail_count_symbolic"),
        (nilpotent, "euler_trail_count_symbolic"),
        (nilpotent, "path_count_symbolic"),
        (nilpotent, "cycle_count_symbolic"),
    ],
    "nilpotent.build": [(nilpotent, "formal_adjacency_edges"), (nilpotent, "vertex_observable_matrix")],
    "nilpotent.matrix_mul": [(nilpotent.PolyMatrix, "mul"), (nilpotent, "matrix_power_nilpotent")],
    "nilpotent.other": [(nilpotent, "guarded_sum_from_literal")],
    "graphs.walk_count": [(graphs, "walk_count"), (graphs, "matrix_power")],
    "graphs.other": [
        (graphs, "adjacency_matrix"),
        (graphs, "identity_matrix"),
        (graphs, "parse_edge_list"),
        (graphs, "graph_signature"),
        (graphs, "occupation_string"),
    ],
    "fock.table": [(fock, "normal_ordered_expectation_table"), (fock, "annihilation_form_table")],
    "fock.reference_state": [(fock, "graph_state"), (fock.StateVector, "basis_index")],
    "fock.query": [
        (fock, "normal_ordered_expectation"),
        (fock, "walk_count_expectation"),
        (fock, "d_matrix_quadratic_form"),
        (fock, "f_matrix_amplitude"),
        (fock, "is_hamiltonian"),
    ],
    "fock.other": [
        (fock, "expand_walk_terms"),
        (fock, "apply_ladder"),
        (fock, "normal_ordered_term_expectation"),
    ],
    "corpus.connected_graphs": [(corpus, "connected_graphs")],
    "corpus.other": [
        (corpus, "all_connected_up_to"),
        (corpus, "random_graphs"),
        (corpus, "named_graphs"),
        (corpus, "is_connected"),
        (corpus, "mask_to_graph"),
    ],
    "verify": [
        (verify, "run_sweep"),
        (verify, "build_corpus"),
        (verify, "reference_example_checks"),
        (verify, "random_property_checks"),
    ],
    "reports": [(reports, "run_count_query"), (reports.CountReport, "to_json")],
}

class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # layer, start, end, parent
        self._open: list[int] = []  # slots of the spans still running
        self.epoch = 0  # operation number; set by the workload between operations
        self.counters: Counter = Counter()
        self._table_epoch: dict[tuple, int] = {}

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                _rebind(owner, attr, original, self._wrap(layer, original, _HOOKS.get(attr)))
        init = fock.StateVector.__init__
        post = fock.Register.__post_init__

        def state_init(state, register, amplitudes):
            init(state, register, amplitudes)
            self.counters["fock.dense_state_bytes"] += amplitudes.nbytes

        def register_post_init(register):
            post(register)
            width = register.width
            if width > self.counters["fock.register_width_max"]:
                self.counters["fock.register_width_max"] = width

        fock.StateVector.__init__ = state_init
        fock.Register.__post_init__ = register_post_init

    def _wrap(self, layer, fn, hook):
        spans, opened = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = opened[-1] if opened else -1
            slot = len(spans)
            spans.append(None)
            opened.append(slot)
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                opened.pop()
                spans[slot] = (layer, start, clock(), parent)

        return traced

    def summary(self, window_start: float, window_end: float) -> dict:
        """Per-layer calls and self time over every span recorded, plus the
        part of [window_start, window_end] no top-level span covers."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        covered = 0.0
        for i, (layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += end - start - child_time[i]
            if parent < 0 or self.spans[parent][0] != layer:
                calls[layer] += 1
            if parent < 0 and start >= window_start:
                covered += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        lookups = self.counters["oracle.table.lookups"]
        cross = self.counters["oracle.table.cross_op_hits"]
        out["oracle.table.lookups"] = lookups
        out["oracle.table.cache_hit_ratio"] = cross / lookups if lookups else 0.0
        out["oracle.table.in_op_hits"] = self.counters["oracle.table.in_op_hits"]
        out["nilpotent.matrix_mul.terms_out"] = self.counters["nilpotent.matrix_mul.terms_out"]
        out["fock.dense_state_mb"] = self.counters["fock.dense_state_bytes"] / 2**20
        out["fock.register_width_max"] = self.counters["fock.register_width_max"]
        out["trace.unattributed_s"] = (window_end - window_start) - covered
        return out


def _rebind(owner, attr, original, wrapper) -> None:
    """Point every name the program resolves to ``original`` at ``wrapper``."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name != "trailcounts" and not name.startswith("trailcounts."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _table_hook(tracer: Tracer, fn, args, kwargs):
    """Classify an oracle table lookup: computed now, reused within the
    current operation, or served from a table an earlier operation filled."""
    hits = fn.cache_info().hits
    result = fn(*args, **kwargs)
    key = (fn.__name__, *args, *sorted(kwargs.items()))
    tracer.counters["oracle.table.lookups"] += 1
    if fn.cache_info().hits > hits:
        if tracer._table_epoch.get(key, -1) < tracer.epoch:
            tracer.counters["oracle.table.cross_op_hits"] += 1
        else:
            tracer.counters["oracle.table.in_op_hits"] += 1
    else:
        tracer._table_epoch[key] = tracer.epoch
    return result


def _mul_hook(tracer: Tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.counters["nilpotent.matrix_mul.terms_out"] += result.total_terms()
    return result


# attribute -> hook(tracer, fn, args, kwargs) that calls fn and counts
_HOOKS = {"mul": _mul_hook, "_walk_table": _table_hook, "_trail_tables": _table_hook, "_dni_tables": _table_hook}
