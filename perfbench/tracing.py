"""Span tracing of polsim's public functions, installed from outside the library.

``Tracer.install`` replaces each function in ``TRACED`` with a recording
wrapper in every polsim namespace that holds it: the defining module, each
module that imported it by name (``polsim.cli.solve_bvp``,
``polsim.fidelity.solve_bvp``, ...) and the package itself.  A call is
therefore recorded whichever name it is looked up by.  No library file is
edited.

A span is ``[name, start, end, parent, extra]``; ``parent`` is the index of
the enclosing span (-1 at top level) and ``extra`` holds per-call counts such
as array points.  Spans stay in memory until the run writes them out.  The
recorder assumes one thread, which holds because the benchmark leaves
``POLSIM_THREADS`` unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

import numpy as np

# layer (package module) -> public functions traced in it
TRACED = {
    "core_model": ("derive_scales",),
    "susceptibility": ("susceptibilities", "free_susceptibilities", "nu"),
    "polariton_spectrum": ("spectrum", "build_bloch_matrix"),
    "propagation": ("solve_bvp", "propagation_matrix", "t0_spectrum", "cw_analytic"),
    "spinwave": ("evolve_cw", "retrieval_eta"),
    "fidelity": ("reflection_spectrum", "pulse_router_fidelity"),
    "cli": ("run",),
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# per-call counts recorded on a span, from the call's arguments and result
_EXTRAS = {
    "susceptibility.susceptibilities":
        lambda a, k, r: {"points": int(np.size(_arg(a, k, 0, "dz")))},
    "propagation.propagation_matrix":
        lambda a, k, r: {"points": int(np.size(_arg(a, k, 0, "z")))},
    "propagation.t0_spectrum":
        lambda a, k, r: {"points": int(np.size(_arg(a, k, 0, "omega_grid")))},
    "propagation.solve_bvp": lambda a, k, r: {"segments": int(r.segments)},
    "spinwave.evolve_cw":
        lambda a, k, r: {"n": int(_arg(a, k, 0, "rho0").grid.size)},
}

# (metric, unit) in report order; every traced run reports all of them
LAYER_METRICS = (
    ("core_model.derive_scales.calls", "count"),
    ("susceptibility.susceptibilities.calls", "count"),
    ("susceptibility.susceptibilities.points", "count"),
    ("susceptibility.susceptibilities.s", "s"),
    ("susceptibility.free_susceptibilities.calls", "count"),
    ("susceptibility.nu.calls", "count"),
    ("susceptibility.nu.s", "s"),
    ("polariton_spectrum.spectrum.s", "s"),
    ("polariton_spectrum.build_bloch_matrix.calls", "count"),
    ("polariton_spectrum.build_bloch_matrix.s", "s"),
    ("propagation.solve_bvp.calls", "count"),
    ("propagation.solve_bvp.s", "s"),
    ("propagation.solve_bvp.self_s", "s"),
    ("propagation.propagation_matrix.calls", "count"),
    ("propagation.propagation_matrix.points", "count"),
    ("propagation.propagation_matrix.s", "s"),
    ("propagation.useful_points_frac", "fraction"),
    ("propagation.refinements_mean", "count"),
    ("propagation.shooting_frac", "fraction"),
    ("propagation.t0_spectrum.points", "count"),
    ("propagation.t0_spectrum.s", "s"),
    ("propagation.cw_analytic.calls", "count"),
    ("propagation.cw_analytic.s", "s"),
    ("spinwave.evolve_cw.s", "s"),
    ("spinwave.evolve_cw.self_s", "s"),
    ("spinwave.pairs", "count"),
    ("spinwave.retrieval_eta.s", "s"),
    ("fidelity.reflection_spectrum.s", "s"),
    ("fidelity.reflection_spectrum.self_s", "s"),
    ("fidelity.pulse_router_fidelity.s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.artifacts", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans around polsim's public functions once installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.patched: dict[str, list[str]] = {}

    def _wrap(self, name, fn):
        extra = _EXTRAS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED in every namespace that holds it."""
        package = importlib.import_module("polsim")
        namespaces = {"polsim": package}
        for layer in TRACED:
            namespaces[f"polsim.{layer}"] = importlib.import_module(f"polsim.{layer}")
        for layer, functions in TRACED.items():
            home = namespaces[f"polsim.{layer}"]
            for fname in functions:
                original = inspect.unwrap(getattr(home, fname))
                name = f"{layer}.{fname}"
                patched = []
                for ns_name, ns in namespaces.items():
                    current = ns.__dict__.get(fname)
                    if current is not None and inspect.unwrap(current) is original:
                        setattr(ns, fname, self._wrap(name, current))
                        patched.append(ns_name)
                self.patched[name] = patched

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, extra) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "extra": extra,
                }) + "\n")


def pass_metrics(spans, first: int) -> dict[str, float]:
    """Per-layer metrics of one pass from ``spans[first:]``.

    Self time is a span's duration minus the time its direct child spans
    cover; calls are strictly nested, so children never overlap.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    child: dict[int, float] = {}
    points: dict[str, int] = {}
    for i in range(first, len(spans)):
        name, start, end, parent, extra = spans[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        if parent >= first:
            child[parent] = child.get(parent, 0.0) + (end - start)
        if extra and "points" in extra:
            points[name] = points.get(name, 0) + extra["points"]

    def self_time(name):
        return sum(
            (spans[i][2] - spans[i][1]) - child.get(i, 0.0)
            for i in range(first, len(spans)) if spans[i][0] == name
        )

    # propagation_matrix calls grouped by the solve that made them
    solves: dict[int, list[int]] = {}
    segments = []
    for i in range(first, len(spans)):
        name, _, _, parent, extra = spans[i]
        if name == "propagation.solve_bvp":
            solves.setdefault(i, [])
            if extra is not None:
                segments.append(extra["segments"])
        elif (name == "propagation.propagation_matrix" and extra is not None
              and parent >= first and spans[parent][0] == "propagation.solve_bvp"):
            solves.setdefault(parent, []).append(extra["points"])
    evaluated = sum(sum(p) for p in solves.values())
    # the last three calls of a solve build the accepted Richardson grid
    useful = sum(sum(p[-3:]) for p in solves.values())
    refinements = [len(p) / 3 - 1 for p in solves.values()]

    evolve_sizes = [
        spans[i][4]["n"] for i in range(first, len(spans))
        if spans[i][0] == "spinwave.evolve_cw" and spans[i][4] is not None
    ]

    out = {}
    for metric, _ in LAYER_METRICS:
        layer_fn, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer_fn, 0)
        elif kind == "s":
            out[metric] = total.get(layer_fn, 0.0)
        elif kind == "self_s":
            out[metric] = self_time(layer_fn)
        elif kind == "points":
            out[metric] = points.get(layer_fn, 0)
    out["propagation.useful_points_frac"] = useful / evaluated if evaluated else 0.0
    out["propagation.refinements_mean"] = statistics.fmean(refinements) if refinements else 0.0
    out["propagation.shooting_frac"] = (
        sum(1 for s in segments if s > 1) / len(segments) if segments else 0.0
    )
    out["spinwave.pairs"] = sum(n * (n - 1) // 2 for n in evolve_sizes)
    return out
