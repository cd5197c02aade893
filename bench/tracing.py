"""Span recorder for the traced benchmark run.

The recorder wraps every public function of each hopslab layer at run
time, so the program itself carries no tracing code and the untraced
run executes it unmodified. A wrapper is installed on the defining
module and on every `hopslab.*` module that imported the same function
object (for example `cli` imports `evolve` from `dpa`), so a call is
traced whichever namespace it goes through.

Each span keeps its name, layer, start, end and parent index in
memory; the spans are written out once, when the pass ends. Self time
is a span's duration minus the durations of its direct children
(calls are single-threaded, so children never overlap). Allocation
peaks come from tracemalloc: the peak between two span boundaries is
charged to the innermost open span and handed to its parent when it
closes, so every span knows the highest traced allocation reached
while it was open.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

LAYERS = ("fock", "polarization", "dpa", "classical", "squeezing",
          "reporting", "cli")
CERTIFICATE_FLOOR = 1e-8     # as in the oracle-closed-equivalence gate
CERTIFICATE_FACTOR = 10.0

# span fields
NAME, LAYER, START, END, PARENT, BASE, PEAK, OUTERMOST, RAISED = range(9)


class SpanRecorder:
    """Wraps hopslab's public functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth = {layer: 0 for layer in LAYERS}

    def install(self, hooks: dict | None = None) -> None:
        """Replace each public function with a tracing wrapper.

        `hooks` maps a qualified name such as `hopslab.dpa.oracle_moments`
        to a callback(args, kwargs, result) run after the span closes.
        """
        hooks = hooks or {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hopslab" or name.startswith("hopslab.")]
        for layer in LAYERS:
            module = sys.modules[f"hopslab.{layer}"]
            for name, fn in vars(module).copy().items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                qualified = f"{module.__name__}.{name}"
                wrapper = self._wrap(layer, qualified, fn,
                                     hooks.get(qualified))
                for other in modules:
                    for attr, value in vars(other).copy().items():
                        if value is fn:
                            setattr(other, attr, wrapper)

    def _wrap(self, layer, qualified, fn, hook):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            if stack:
                parent = spans[stack[-1]]
                parent[PEAK] = max(parent[PEAK], peak)
            span = [qualified, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    current, current, depth[layer] == 0, False]
            stack.append(len(spans))
            spans.append(span)
            depth[layer] += 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                depth[layer] -= 1
                stack.pop()
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                span[PEAK] = max(span[PEAK], peak)
                if stack:
                    parent = spans[stack[-1]]
                    parent[PEAK] = max(parent[PEAK], span[PEAK])
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s, peak_alloc_mb and errors for every layer."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals = {layer: {"calls": 0, "self_s": 0.0, "peak_alloc_mb": 0.0,
                          "errors": 0} for layer in LAYERS}
        for span, children in zip(self.spans, child_time):
            entry = totals[span[LAYER]]
            entry["calls"] += 1
            entry["self_s"] += span[END] - span[START] - children
            entry["errors"] += span[RAISED]
            if span[OUTERMOST]:
                entry["peak_alloc_mb"] = max(
                    entry["peak_alloc_mb"], (span[PEAK] - span[BASE]) / 1e6)
        return totals

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span[NAME], "layer": span[LAYER],
                    "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "peak_alloc_bytes": span[PEAK] - span[BASE],
                    "raised": span[RAISED]}) + "\n")


class RowAudit:
    """Counts oracle rows and checks them against the closed forms.

    Observes `dpa.oracle_moments` results. The initial state of each row
    is recognized as a Fock basis state or a diagonal product thermal
    state, and the row is compared with `heisenberg_moments` or
    `thermal_heisenberg_moments`. A row the program marked valid that
    deviates by more than max(1e-8, 10 * leakage) is beyond its
    certificate; this is reported as a count, never as a failure.
    Construct it before the recorder is installed, so the closed forms
    it calls are the unwrapped ones and add no spans.
    """

    def __init__(self) -> None:
        from hopslab.dpa import heisenberg_moments, thermal_heisenberg_moments

        self._fock = heisenberg_moments
        self._thermal = thermal_heisenberg_moments
        self._state = None
        self._reference = None
        self.rows = 0
        self.invalid = 0
        self.beyond_certificate = 0

    def observe(self, args, kwargs, report) -> None:
        state = args[0] if args else kwargs["state"]
        if state is not self._state:
            self._state = state
            self._reference = _closed_form(state, self._fock, self._thermal)
        self.rows += 1
        if not report.valid:
            self.invalid += 1
            return
        if self._reference is None:
            return
        closed = self._reference(report.kt)
        tol = max(CERTIFICATE_FLOOR, CERTIFICATE_FACTOR * report.leakage)
        deviation = max(abs(got - want) for got, want in zip(
            report.means + report.variances,
            closed.means + closed.variances))
        if not deviation <= tol:
            self.beyond_certificate += 1


def _closed_form(state, fock_moments, thermal_moments):
    """Closed-form moment function of kt for a recognized initial state."""
    # imported here: run.py imports this module for LAYERS and otherwise
    # needs only the standard library
    import numpy as np

    cut = state.cutoff
    if state.vector is not None:
        index = int(np.argmax(np.abs(state.vector)))
        if abs(abs(state.vector[index]) - 1.0) > 1e-12:
            return None
        n_x, n_y = divmod(index, cut.d_y)
        return lambda kt: fock_moments(n_x, n_y, kt)
    rho = state.density
    diagonal = np.diag(rho).real
    if np.count_nonzero(rho) != np.count_nonzero(diagonal):
        return None
    populations = diagonal.reshape(cut.d_x, cut.d_y)
    marginals = (populations.sum(axis=1), populations.sum(axis=0))
    if not np.allclose(populations, np.outer(*marginals), rtol=1e-9, atol=0):
        return None
    nbar = []
    for marginal in marginals:
        ratio = marginal[1] / marginal[0]
        if not np.allclose(marginal[1:], ratio * marginal[:-1],
                           rtol=1e-9, atol=0):
            return None
        nbar.append(ratio / (1.0 - ratio))
    return lambda kt: thermal_moments(nbar[0], nbar[1], kt)
