"""Span tracing of the program from outside it.

``Tracer.install`` wraps every module-level function that a ``poroseis``
module defines, except the ``branch_math`` helpers (they run once per Newton
iteration; their time stays in the caller's self time and wrapper overhead
stays low), and puts the wrapper in every ``poroseis`` namespace that holds a
reference to the function.  The program itself carries no tracing.

Spans are aggregated in memory by (phase, parent, name) into count, total
and child time, since one operation makes up to millions of calls.  A
layer's self time is the total of its functions minus the time their
wrapped callees took.  ``layer_metrics`` turns the aggregate into the
per-layer metrics; a function named there that the program no longer
defines is listed as absent instead of failing the run, and the module
totals (``cagniard.s``, ...) stay comparable across refactors.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter

import numpy as np

SKIPPED_MODULES = ("branch_math",)
# Layers timed in the run phase; media runs only at set-up (media.setup.s).
LAYERS = ("cagniard", "coefficients", "green", "oracle", "seismogram", "cli")

# Sub-layer groups: self time of the named functions.
GROUPS = {
    "cagniard.xi_zero": ("_xi_zero", "_t0_vec", "_p0_vec", "snell_time"),
    "cagniard.window": ("q0_of_t", "_q0_scalar", "_q0_vec", "head_window",
                        "volume_window", "q1_of_t"),
    "cagniard.contour": ("_gamma_vec", "_upsilon_vec", "gamma", "upsilon",
                         "phase_time", "_plane_search"),
    "cagniard.arrivals": ("arrival_times", "fictitious_arrival", "_head_time"),
    "coefficients.assemble": ("_assemble_batch", "assemble_system"),
    "coefficients.solve": ("_solve_batch", "solve_coefficients"),
    "oracle.grid": ("_grid_solution",),
    "oracle.integrate": ("_integrate", "_channel_parts", "_gauss_nodes",
                         "laplace_reference"),
    "cli.write": ("_write_trace", "_write_green", "_format_row", "_media_hash"),
}


# Work counts read off a call's arguments: function -> (argument, metric).
SIZE_COUNTERS = {
    "cagniard._xi_zero": ("q", "cagniard.xi_zero.q"),
    "cagniard._gamma_vec": ("q", "cagniard.contour.points"),
    "cagniard._upsilon_vec": ("q", "cagniard.contour.points"),
    "coefficients._assemble_batch": ("qq", "coefficients.systems"),
}

# Call counts: metric -> function.
CALL_COUNTS = {
    "cagniard.plane_search.calls": "cagniard._plane_search",
    "cagniard.arrivals.calls": "cagniard.arrival_times",
    "green.quadrature.calls": "green.quadrature",
}
# Every function the metrics name; those the program lacks are reported.
NAMED = ({f"{group.split('.')[0]}.{name}"
          for group, names in GROUPS.items() for name in names}
         | set(SIZE_COUNTERS) | set(CALL_COUNTS.values())
         | {"oracle._grid_solution"})


def _size(value) -> int:
    return int(np.size(value))


def _getter(fn, name):
    """Fetch argument ``name`` of a call to ``fn`` from (args, kwargs)."""
    params = list(inspect.signature(fn).parameters)
    if name not in params:
        return lambda args, kwargs: None
    index = params.index(name)
    return lambda args, kwargs: kwargs.get(
        name, args[index] if index < len(args) else None)


class Tracer:
    """Aggregated spans and counts of one process."""

    def __init__(self):
        self.phase = "setup"
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, child
        self.counts = defaultdict(float)
        self.wrapped: set[str] = set()     # "module.function"
        self._stack: list[list] = []       # [name, child time]
        self._grid_results: dict[int, object] = {}

    # -- counters taken at the layer boundaries -------------------------
    def _counter(self, key: str, fn):
        """Count hook of one function, or None when it has no counter."""
        counts = self.counts
        if key in SIZE_COUNTERS:
            arg, metric = SIZE_COUNTERS[key]
            get = _getter(fn, arg)

            def count(args, kwargs, result):
                counts[metric] += _size(get(args, kwargs))
            return count
        if key == "oracle._grid_solution":
            get_n = _getter(fn, "n")
            handed_out = self._grid_results

            def grid(args, kwargs, result):
                # A cache hit hands back an object it handed out before.
                if id(result) in handed_out:
                    counts["oracle.grid.hits"] += 1
                    return
                counts["oracle.grid.systems"] += (get_n(args, kwargs) or 0) ** 2
                handed_out[id(result)] = result
                while len(handed_out) > 16:
                    handed_out.pop(next(iter(handed_out)))
            return grid
        return None

    def _wrap(self, module: str, fn):
        key = f"{module}.{fn.__name__}"
        stack = self._stack
        spans = self.spans
        counter = self._counter(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                rec = spans[(self.phase, parent[0] if parent else None, key)]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "poroseis") -> None:
        pkg = importlib.import_module(package)
        modules = [pkg] + [importlib.import_module(f"{package}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        replace = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            if mod is pkg or short in SKIPPED_MODULES:
                continue
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._wrap(short, obj)
                    self.wrapped.add(f"{short}.{name}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    setattr(mod, name, replace[id(obj)])

    # -- reduction -------------------------------------------------------
    def self_times(self, phase: str) -> dict[str, float]:
        out = defaultdict(float)
        for (ph, _parent, key), (_n, total, child) in self.spans.items():
            if ph == phase:
                out[key] += total - child
        return dict(out)

    def calls(self, phase: str) -> dict[str, int]:
        out = defaultdict(int)
        for (ph, _parent, key), (n, _total, _child) in self.spans.items():
            if ph == phase:
                out[key] += n
        return dict(out)


def layer_metrics(tracer: Tracer, live_samples: int) -> tuple[dict, list]:
    """Per-layer metrics of the run phase, and the absent function names."""
    self_run = tracer.self_times("run")
    calls = tracer.calls("run")
    self_setup = tracer.self_times("setup")
    c = tracer.counts

    def layer_self(layer, table):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    m = {f"{layer}.s": layer_self(layer, self_run) for layer in LAYERS}
    for group, names in GROUPS.items():
        layer = group.split(".")[0]
        m[f"{group}.s"] = sum(self_run.get(f"{layer}.{n}", 0.0) for n in names)
    for metric in ("cagniard.xi_zero.q", "cagniard.contour.points",
                   "coefficients.systems"):
        m[metric] = c[metric]
    for metric, key in CALL_COUNTS.items():
        m[metric] = calls.get(key, 0)
    m["green.nodes_per_live_sample"] = (
        c["cagniard.contour.points"] / live_samples if live_samples else 0.0)
    grid_calls = calls.get("oracle._grid_solution", 0)
    m["oracle.grid.systems"] = c["oracle.grid.systems"]
    m["oracle.grid.cache_hit_ratio"] = (
        c["oracle.grid.hits"] / grid_calls if grid_calls else 0.0)
    m["cli.setup.s"] = layer_self("cli", self_setup)
    m["media.setup.s"] = layer_self("media", self_setup)
    m["trace.layer_sum_s"] = sum(self_run.values())
    return m, sorted(NAMED - tracer.wrapped)
