"""Outside-in span tracer for the fockladder package.

The tracer never edits the package.  It replaces, in the namespaces of
the calling modules, every name bound to a public function of a layer
module with a wrapper that records one span per call: the function's
name, the span that was open when it was called, and its start and end
on perf_counter.  Spans stay in memory until the run ends.  uninstall()
puts every original binding back.

Layers are named after the package modules.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because the traced run is single-threaded (FOCKLADDER_THREADS
unset), so self times of all spans add up to the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
from time import perf_counter

# Modules whose public functions are traced, and the modules in whose
# namespaces their names are looked up at call time.
LAYER_MODULES = ("floquet", "lattice", "observables", "meanfield", "experiments")
CALLER_MODULES = ("cli", "experiments", "floquet", "observables")
LAYERS = ("cli",) + LAYER_MODULES
# The span the benchmark opens around fockladder.cli.main.
ROOT_SPAN = "cli.main"

# Computed cost of one floquet.spectrum call on a d-dimensional operator:
# the Cayley solve (zgetrf 8/3 d^3 plus zgetrs with d right-hand sides
# 8 d^3) and a Hermitian eigensolve with vectors (about 4 x 9 d^3).
SPECTRUM_FLOP_PER_DIM3 = 8.0 / 3.0 + 8.0 + 36.0


def _spectrum_dim(args, kwargs):
    op = args[0] if args else kwargs["floquet_op"]
    entries = getattr(op, "entries", op)
    return int(entries.shape[0])


class Tracer:
    """Records parent-linked spans around the package's public functions."""

    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end, tag)
        self._stack = []
        self._next_id = 0
        self._bindings = []  # (namespace module, attribute, original)

    def _modules(self, names):
        return {name: importlib.import_module(f"fockladder.{name}") for name in names}

    def wrap(self, name, fn, tag=None):
        """fn wrapped so that each call records a span called name."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            label = tag(args, kwargs) if tag else None
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, label))

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self):
        """Wrap every caller-namespace binding of a layer's public function."""
        layers = self._modules(LAYER_MODULES)
        callers = self._modules(CALLER_MODULES)
        tolerance = layers["floquet"].DEGENERACY_TOL

        def doublet(args, kwargs):
            eps = (args[0] if args else kwargs["spec"]).quasienergies
            return bool(eps.size > 1 and eps[1] - eps[0] <= tolerance)

        tags = {"floquet.spectrum": _spectrum_dim, "floquet.ground_state": doublet}
        for layer_name, layer in layers.items():
            for attr in layer.__all__:
                original = getattr(layer, attr)
                if not inspect.isfunction(original):
                    continue
                span_name = f"{layer_name}.{attr}"
                for caller in callers.values():
                    if getattr(caller, attr, None) is original:
                        setattr(caller, attr, self.wrap(span_name, original, tags.get(span_name)))
                        self._bindings.append((caller, attr, original))
        return self

    def uninstall(self):
        """Restore every binding install() replaced."""
        for caller, attr, original in reversed(self._bindings):
            setattr(caller, attr, original)
        self._bindings.clear()

    def wrapped_bindings(self):
        """Names in the caller namespaces that still hold a tracer wrapper."""
        left = []
        for name, caller in self._modules(CALLER_MODULES).items():
            for attr, value in vars(caller).items():
                if getattr(value, "__wrapped_by_tracer__", False):
                    left.append(f"{name}.{attr}")
        return left

    def dump(self, path):
        """Write the spans as JSON: one [id, parent, name, start, end, tag] per span."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([list(span) for span in sorted(self.spans)], handle)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child_time = {}
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {span_id: (end - start) - child_time.get(span_id, 0.0)
            for span_id, _, _, start, end, _ in spans}


def layer_metrics(spans):
    """Per-layer counts and self times from one traced run's spans.

    Returns a flat dict of metric name to value.  The self times of the
    six layers sum to traced_wall_s, the duration of the root span.
    """
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
    metrics = {}
    roots = by_name.get(ROOT_SPAN, [])
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span, found {len(roots)}")
    metrics["traced_wall_s"] = roots[0][4] - roots[0][3]

    for layer in LAYERS:
        members = [s for s in spans if s[2].split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = sum(own[s[0]] for s in members)
        if layer != "cli":
            metrics[f"{layer}.calls"] = len(members)

    def count_and_self(name):
        members = by_name.get(name, [])
        return members, len(members), sum(own[s[0]] for s in members)

    solves, calls, busy = count_and_self("floquet.spectrum")
    durations_ms = sorted((s[4] - s[3]) * 1e3 for s in solves)
    gflop = sum(SPECTRUM_FLOP_PER_DIM3 * s[5] ** 3 for s in solves) / 1e9
    metrics["floquet.spectrum.calls"] = calls
    metrics["floquet.spectrum.self_s"] = busy
    metrics["floquet.spectrum.p50_ms"] = statistics.median(durations_ms) if solves else 0.0
    metrics["floquet.spectrum.p99_ms"] = _percentile(durations_ms, 0.99) if solves else 0.0
    metrics["floquet.spectrum.gflop"] = gflop
    metrics["floquet.spectrum.gflops"] = gflop / busy if busy > 0 else 0.0

    _, calls, busy = count_and_self("floquet.build_floquet")
    metrics["floquet.build_floquet.calls"] = calls
    metrics["floquet.build_floquet.self_s"] = busy

    grounds, calls, busy = count_and_self("floquet.ground_state")
    metrics["floquet.ground_state.calls"] = calls
    metrics["floquet.ground_state.self_s"] = busy
    metrics["floquet.ground_state.doublet_share"] = (
        sum(1 for s in grounds if s[5]) / calls if calls else 0.0
    )

    _, calls, busy = count_and_self("lattice.parity_operator")
    metrics["lattice.parity_operator.calls"] = calls
    metrics["lattice.parity_operator.self_s"] = busy

    metrics["experiments.solves"] = len(solves)
    return metrics


def _percentile(sorted_values, q):
    # Nearest-rank percentile of an ascending list.
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
