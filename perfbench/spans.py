"""Span recording around heatlab's public entry points, for the traced run.

A span has a name, a start, an end and the index of the span that caused
it.  Spans stay in memory and the worker writes them out when it ends.
Wrapping happens only in the traced worker; the worker that produces the
end-to-end numbers never installs it.

A wrapper replaces the function in every heatlab module namespace that
binds it: ``assemble_scaled`` and ``assemble_model`` are bound in both
``operators`` and ``semigroup``, ``morse_bound`` in ``geometry`` and
``torus``, and the ``cli`` runners import lazily at call time, so they
pick up whatever the defining module holds.
"""

import functools
import importlib
import sys
import time


def _operator_counts(op):
    return {"operators.nnz": op.matrix.nnz, "operators.dim_max": op.dim}


# (module, function, span name, work counts read from the returned object).
# Each span feeds the end-to-end metric named beside it, on the workload named.
ENTRY_POINTS = (
    # wall_s on every workload; self time is validation, dispatch, CSV, manifest
    ("heatlab.cli", "run_experiment", "cli.run_experiment",
     lambda path: {"cli.csv_bytes": path.stat().st_size}),
    # wall_s on converge
    ("heatlab.operators", "assemble_scaled", "operators.assemble_scaled", _operator_counts),
    # wall_s on model
    ("heatlab.operators", "assemble_model", "operators.assemble_model", _operator_counts),
    # wall_s on converge, a little on model
    ("heatlab.semigroup", "kernel_diagonal", "semigroup.kernel_diagonal", None),
    ("heatlab.semigroup", "heat_apply", "semigroup.heat_apply", None),
    # wall_s on model
    ("heatlab.semigroup", "heat_trace", "semigroup.heat_trace",
     lambda est: {"semigroup.heat_trace.probes": est.probes}),
    ("heatlab.semigroup", "spectral_bound_check", "semigroup.spectral_bound_check", None),
    # wall_s on oracle
    ("heatlab.torus", "validate_landau_levels", "torus.validate_landau_levels",
     lambda val: {"torus.validate_landau_levels.levels": len(val.levels)}),
    ("heatlab.torus", "magnetic_torus_operator", "torus.magnetic_torus_operator", None),
    ("heatlab.torus", "landau_spectrum", "torus.closed_form", None),
    ("heatlab.torus", "morse_trace_inequality", "torus.closed_form", None),
    ("heatlab.torus", "product_torus_morse", "torus.closed_form", None),
    ("heatlab.model_kernels", "model_diagonal", "model_kernels.model_diagonal", None),
    ("heatlab.geometry", "morse_bound", "geometry.morse_bound", None),
)

# Per-layer metrics of one traced pass, with their units.  ``import_s`` and
# the ``trace.*`` figures are added by run.py from the worker reports.
LAYER_METRICS = {
    "operators.assemble_scaled.calls": "count",
    "operators.assemble_scaled.busy_s": "s",
    "operators.assemble_model.calls": "count",
    "operators.assemble_model.busy_s": "s",
    "operators.nnz": "count",
    "operators.dim_max": "count",
    "semigroup.kernel_diagonal.calls": "count",
    "semigroup.kernel_diagonal.busy_s": "s",
    "semigroup.kernel_diagonal.self_s": "s",
    "semigroup.heat_apply.calls": "count",
    "semigroup.heat_apply.busy_s": "s",
    "semigroup.heat_trace.calls": "count",
    "semigroup.heat_trace.busy_s": "s",
    "semigroup.heat_trace.probes": "count",
    "semigroup.spectral_bound_check.calls": "count",
    "semigroup.spectral_bound_check.busy_s": "s",
    "torus.validate_landau_levels.calls": "count",
    "torus.validate_landau_levels.busy_s": "s",
    "torus.validate_landau_levels.self_s": "s",
    "torus.validate_landau_levels.levels": "count",
    "torus.magnetic_torus_operator.calls": "count",
    "torus.magnetic_torus_operator.busy_s": "s",
    "torus.closed_form.busy_s": "s",
    "model_kernels.model_diagonal.calls": "count",
    "model_kernels.model_diagonal.busy_s": "s",
    "geometry.morse_bound.busy_s": "s",
    "cli.run_experiment.calls": "count",
    "cli.run_experiment.self_s": "s",
    "cli.csv_bytes": "bytes",
}


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index, work counts]``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A recursive call (landau_spectrum on a negative degree) stays
            # inside its outer span, so busy time is not counted twice.
            if any(self.spans[i][0] == name for i in self._stack):
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span[4] = observe(result)
            return result

        return traced

    def install(self):
        """Replace every entry point in every heatlab namespace binding it."""
        for module_name, attr, name, observe in ENTRY_POINTS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self._wrap(original, name, observe)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "heatlab" or mod_name.startswith("heatlab.")) \
                        and getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

    def summary(self, first: int) -> dict:
        """Per-layer metrics of the spans recorded from index ``first`` on,
        plus ``top_busy_s``, the busy time of spans without a parent."""
        busy, child, calls, counts = {}, {}, {}, {}
        top = 0.0
        for i in range(first, len(self.spans)):
            name, start, end, parent, work = self.spans[i]
            dur = end - start
            busy[name] = busy.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                top += dur
            else:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + dur
            for key, value in work.items():
                old = counts.get(key, 0)
                counts[key] = max(old, value) if key.endswith("_max") else old + value
        out = {}
        for metric in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(layer, 0)
            elif field == "busy_s":
                out[metric] = busy.get(layer, 0.0)
            elif field == "self_s":
                out[metric] = busy.get(layer, 0.0) - child.get(layer, 0.0)
            else:
                out[metric] = counts.get(metric, 0)
        out["top_busy_s"] = top
        return out

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "work": w}
                for n, s, e, p, w in self.spans]
