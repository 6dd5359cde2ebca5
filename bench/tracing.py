"""Spans around calls into wigscale's public functions, recorded from outside.

The traced run replaces module attributes with wrappers, so a public call
that makes another public call (``sample_to_grid`` -> ``eval_fock_wigner``,
``separability_scan`` -> ``partial_scale``) records a child span. Spans stay
in memory and are written out when the run ends. Only the standard library
is imported here, so a traced CLI child can load this module before it times
``import wigscale.cli``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc

#: the traced functions as "module.function", which also names their metrics;
#: only a traced CLI child reaches cli.main
LAYERS = (
    "cli.main",
    "phase_space.sample_to_grid",
    "phase_space.eval_fock_wigner",
    "phase_space.overlap",
    "phase_space.apply_scaling",
    "phase_space.apply_partial_scaling",
    "phase_space.wigner_to_density",
    "phase_space.density_to_wigner",
    "moments.moments_from_grid",
    "moments.is_psd",
    "fock_space.project_state",
    "fock_space.spectrum",
    "gaussian_cv.separability_scan",
    "gaussian_cv.is_valid_state",
    "gaussian_cv.partial_scale",
)

#: functions whose tracemalloc peak per call is recorded as well
PEAK_TRACED = ("phase_space.wigner_to_density", "phase_space.density_to_wigner")

#: field order of a span; parent is an index into the same list, or -1
SPAN_FIELDS = ("name", "start", "end", "parent", "op", "peak_bytes")


class Tracer:
    """Keeps spans as lists in SPAN_FIELDS order; `op` tags the spans of the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, peak):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(span)
        self._stack.append(index)
        if peak:
            tracemalloc.start()
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            if peak:
                span[5] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def add(self, spans, op):
        """Append spans recorded elsewhere (a CLI child), re-basing parents and tagging `op`."""
        base = len(self.spans)
        for name, start, end, parent, _, peak in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, peak])


def install(tracer: Tracer):
    """Wrap every function in LAYERS; returns a function that puts the originals back."""
    originals = []
    for name in LAYERS:
        module_name, fn_name = name.split(".")
        module = importlib.import_module(f"wigscale.{module_name}")
        fn = getattr(module, fn_name)
        originals.append((module, fn_name, fn))
        setattr(module, fn_name, _wrap(tracer, name, fn, name in PEAK_TRACED))

    def uninstall():
        for module, fn_name, fn in originals:
            setattr(module, fn_name, fn)

    return uninstall


def _wrap(tracer, name, fn, peak):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, peak)

    return wrapper


def layer_metrics(spans, ops: int, names) -> dict[str, float]:
    """Median self time (ms) and calls per operation of each name; peak MiB where recorded.

    A span's self time is its duration minus the durations of its children,
    which run one after another inside it. A name never called reports 0
    for both.
    """
    self_time = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)
    metrics = {}
    for name in names:
        indices = by_name.get(name, [])
        metrics[f"{name}_ms"] = (
            1e3 * statistics.median(self_time[i] for i in indices) if indices else 0.0
        )
        metrics[f"{name}_calls"] = len(indices) / ops
        if name in PEAK_TRACED:
            peaks = [spans[i][5] for i in indices if spans[i][5] is not None]
            metrics[f"{name}_peak_mb"] = statistics.median(peaks) / 2**20 if peaks else 0.0
    return metrics
