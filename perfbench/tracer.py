"""In-memory span and counter recorder, installed from outside the library.

``Tracer.install()`` replaces each public function of the library's modules
with a wrapper that records a span (name, start, end, parent, operation id),
and also replaces every other module's imported reference to it (so
``conditions.integrate`` or ``cli.picard_solve`` are traced too).
``Expr.eval``/``Expr.eval_array`` are wrapped as leaf timers, and the
callables handed to the quadrature are wrapped to count integrand points.
``uninstall()`` restores the originals, so untraced runs pay nothing.

A span's self time is its duration minus the time its children cover; one
thread runs everything, so children never overlap and that cover is the sum
of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
import types

import numpy as np

MODULES = ("config", "exprlang", "grid", "kernel", "weights", "quadrature",
           "conditions", "solver", "oracle", "reproduce")
STATUSES = ("converged", "divergent_suspected", "cutoff_limited")

_clock = time.perf_counter


def library(package) -> types.SimpleNamespace:
    """The library's modules by short name (the package namespace itself
    shadows the ``reproduce`` module with the function of that name)."""
    mods = {name: importlib.import_module(f"{package.__name__}.{name}")
            for name in MODULES + ("cli",)}
    return types.SimpleNamespace(package=package, **mods)


class Recorder:
    """Spans and counters of one traced stretch of operations."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent, op, child_s]
        self.stack: list = []   # indices of open spans
        self.open_names: dict = {}
        self.counts: dict = {}
        self.times: dict = {}   # leaf timers and outermost inclusive times
        self.op = None
        self._raised: list = []

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def add_time(self, key, dt):
        self.times[key] = self.times.get(key, 0.0) + dt

    def inside(self, name) -> bool:
        return self.open_names.get(name, 0) > 0

    def inside_module(self, module) -> bool:
        return any(self.spans[i][0].split(".", 1)[0] == module for i in self.stack)

    def enter(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, _clock(), 0.0, parent, self.op, 0.0])
        self.stack.append(idx)
        self.open_names[name] = self.open_names.get(name, 0) + 1
        return idx

    def leave(self, idx) -> float:
        span = self.spans[idx]
        span[2] = _clock()
        self.stack.pop()
        self.open_names[span[0]] -= 1
        dur = span[2] - span[1]
        if self.stack:
            self.spans[self.stack[-1]][5] += dur
        if not self.open_names[span[0]]:  # outermost call of this name
            self.add_time(span[0], dur)
        return dur

    def leaf(self, dur):
        if self.stack:
            self.spans[self.stack[-1]][5] += dur

    def error(self, module, exc):
        """Count an exception once, in the innermost module it left."""
        if not any(e is exc for e in self._raised):
            self._raised.append(exc)
            self.add(f"{module}.errors")

    def self_times(self) -> dict:
        out: dict = {}
        for name, start, end, _, _, child in self.spans:
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (end - start) - child
        out["exprlang"] = out.get("exprlang", 0.0) + self.times.get("exprlang.eval", 0.0)
        return out

    def module_inclusive(self, module) -> float:
        """Time inside the module's outermost spans (nested calls counted once)."""
        total = 0.0
        for name, start, end, parent, _, _ in self.spans:
            if name.split(".", 1)[0] != module:
                continue
            p = parent
            while p is not None and self.spans[p][0].split(".", 1)[0] != module:
                p = self.spans[p][3]
            if p is None:
                total += end - start
        return total

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op, child) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent, op,
                                     (end - start) - child]) + "\n")


class Tracer:
    """Wraps the library's public functions while installed."""

    def __init__(self, lib: types.SimpleNamespace):
        self.lib = lib
        self.rec = Recorder()
        self._mods = {name: getattr(lib, name) for name in MODULES}
        self._installed = False
        self._build()

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, module, after=None, before=None, naming=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.rec
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = rec.enter(naming(args, kwargs) if naming else name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec.leave(idx)
                rec.error(module, exc)
                raise
            dur = rec.leave(idx)
            if after is not None:
                after(args, kwargs, out, dur)
            return out

        return wrapper

    def _counted(self, f, key):
        def counted(x):
            self.rec.add(key, int(np.size(x)))
            return f(x)

        return counted

    def _with_counted_integrand(self, key):
        def before(args, kwargs):
            if args:
                return (self._counted(args[0], key),) + tuple(args[1:]), kwargs
            kwargs = dict(kwargs)
            kwargs["f"] = self._counted(kwargs["f"], key)
            return args, kwargs

        return before

    def _quad_status(self, name):
        def after(args, kwargs, out, dur):
            rec = self.rec
            # results of nested ladder calls (p_norm -> integrate) count once
            if not rec.inside_module("quadrature"):
                rec.add(f"quadrature.status.{out.status}")
            rec.add(f"{name}.calls")

        return after

    def _build(self):
        special = {
            ("quadrature", "integrate"): dict(
                before=self._with_counted_integrand("quadrature.integrand_evals"),
                after=self._quad_status("quadrature.integrate")),
            ("quadrature", "p_norm"): dict(after=self._quad_status("quadrature.p_norm")),
            ("quadrature", "endpoint_supremum"): dict(
                before=self._with_counted_integrand("quadrature.extremum_points"),
                after=self._quad_status("quadrature.endpoint_supremum")),
            ("quadrature", "endpoint_infimum"): dict(
                before=self._with_counted_integrand("quadrature.extremum_points"),
                after=self._quad_status("quadrature.endpoint_infimum")),
            ("solver", "picard_solve"): dict(after=self._picard_done),
            ("solver", "recover_components"): dict(naming=_recover_name),
        }
        originals = {}  # id(original function) -> wrapper
        for short, mod in self._mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                opts = special.get((short, attr), {})
                if (short, attr) == ("kernel", "verify_kernel_bounds"):
                    wrapper = self._certify_wrapper(fn)
                else:
                    wrapper = self._span(fn, f"{short}.{attr}", short, **opts)
                originals[id(fn)] = wrapper
        # every module that imported one of these names sees the wrapper
        self._targets = []
        for mod in [self.lib.package, self.lib.cli, *self._mods.values()]:
            for attr, val in list(vars(mod).items()):
                if id(val) in originals:
                    self._targets.append((mod, attr, val, originals[id(val)]))
        Expr = self._mods["exprlang"].Expr
        self._expr_class = Expr
        self._expr_orig = (Expr.eval, Expr.eval_array)
        self._expr_wrapped = (self._eval_wrapper(Expr.eval, False),
                              self._eval_wrapper(Expr.eval_array, True))

    def _eval_wrapper(self, fn, array):
        @functools.wraps(fn)
        def wrapper(self_, x):
            rec = self.rec
            t0 = _clock()
            try:
                return fn(self_, x)
            except Exception as exc:
                rec.error("exprlang", exc)
                raise
            finally:
                dur = _clock() - t0
                rec.leaf(dur)
                rec.add_time("exprlang.eval", dur)
                if array:
                    rec.add("exprlang.array_evals")
                    rec.add("exprlang.array_points", int(np.size(x)))
                else:
                    rec.add("exprlang.scalar_evals")
                    if rec.inside("conditions.window_extremum"):
                        rec.add("conditions.window_scalar_evals")

        return wrapper

    def _certify_wrapper(self, fn):
        def after(args, kwargs, out, dur):
            rec = self.rec
            cells = int(out.grid_size) ** 2
            rec.add("kernel.certify_cells", cells)
            rec.add("kernel.certify_bytes_computed", 8 * cells)

        inner = self._span(fn, "kernel.verify_kernel_bounds", "kernel", after=after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                if started:
                    tracemalloc.stop()
                rec = self.rec
                rec.counts["kernel.certify_peak_bytes"] = max(
                    rec.counts.get("kernel.certify_peak_bytes", 0), peak)

        return wrapper

    def _picard_done(self, args, kwargs, out, dur):
        spec = args[0] if args else kwargs["spec"]
        iters = int(out[1].iterates)
        self.rec.add("solver.picard_iterations", iters)
        self.rec.add("solver.node_steps", spec.n * spec.grid_size * iters)
        # each layer fold reads phi, psi, the weighted input and writes the
        # output and two cumulative sums: six float64 vectors of m values
        self.rec.add("solver.fold_bytes_computed", 6 * 8 * spec.n * spec.grid_size * iters)

    # -- switching ---------------------------------------------------------

    def install(self, rec: Recorder | None = None):
        self.rec = rec or Recorder()
        if not self._installed:
            for mod, attr, _, wrapper in self._targets:
                setattr(mod, attr, wrapper)
            self._expr_class.eval, self._expr_class.eval_array = self._expr_wrapped
            self._installed = True
        return self.rec

    def uninstall(self):
        if self._installed:
            for mod, attr, orig, _ in self._targets:
                setattr(mod, attr, orig)
            self._expr_class.eval, self._expr_class.eval_array = self._expr_orig
            self._installed = False


def _recover_name(args, kwargs):
    ext = kwargs.get("extended_precision", args[3] if len(args) > 3 else False)
    return "solver.recover_components.longdouble" if ext else "solver.recover_components"


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer figures of one traced cycle, keyed by metric name."""
    c, t = rec.counts, rec.times
    selfs = rec.self_times()
    picard_s = t.get("solver.picard_solve", 0.0)
    out = {
        "config.parse_s": rec.module_inclusive("config"),
        "exprlang.scalar_evals": c.get("exprlang.scalar_evals", 0),
        "exprlang.array_evals": c.get("exprlang.array_evals", 0),
        "exprlang.array_points": c.get("exprlang.array_points", 0),
        "exprlang.s": t.get("exprlang.eval", 0.0),
        "weights.calls": sum(1 for s in rec.spans if s[0].startswith("weights.")),
        "weights.s": rec.module_inclusive("weights"),
        "quadrature.integrate_calls": c.get("quadrature.integrate.calls", 0),
        "quadrature.integrate_s": t.get("quadrature.integrate", 0.0),
        "quadrature.integrand_evals": c.get("quadrature.integrand_evals", 0),
        "quadrature.extremum_s": t.get("quadrature.endpoint_supremum", 0.0)
        + t.get("quadrature.endpoint_infimum", 0.0),
        "quadrature.extremum_points": c.get("quadrature.extremum_points", 0),
        "kernel.certify_s": t.get("kernel.verify_kernel_bounds", 0.0),
        "kernel.certify_cells": c.get("kernel.certify_cells", 0),
        "kernel.certify_bytes_computed": c.get("kernel.certify_bytes_computed", 0),
        "kernel.certify_peak_mb": c.get("kernel.certify_peak_bytes", 0) / 2 ** 20,
        "conditions.constants_s": t.get("conditions.compute_constants", 0.0),
        "conditions.window_s": t.get("conditions.window_extremum", 0.0),
        "conditions.window_scalar_evals": c.get("conditions.window_scalar_evals", 0),
        "conditions.contraction_s": t.get("conditions.contraction_constant", 0.0),
        "conditions.lipschitz_s": t.get("conditions.lipschitz_estimate", 0.0),
        "solver.picard_s": picard_s,
        "solver.picard_iterations": c.get("solver.picard_iterations", 0),
        "solver.node_steps_per_s": c.get("solver.node_steps", 0) / picard_s if picard_s else 0.0,
        "solver.fold_bytes_computed": c.get("solver.fold_bytes_computed", 0),
        "solver.recover_s": t.get("solver.recover_components", 0.0),
        "solver.recover_longdouble_s": t.get("solver.recover_components.longdouble", 0.0),
        "solver.residual_s": t.get("solver.residual_check", 0.0),
        "oracle.fd_s": t.get("oracle.solve_linear_fd", 0.0),
        "oracle.green_consistency_s": t.get("oracle.green_consistency", 0.0),
        "reproduce.s": t.get("reproduce.reproduce", 0.0),
    }
    for status in STATUSES:
        out[f"quadrature.status.{status}"] = c.get(f"quadrature.status.{status}", 0)
    for module in MODULES:
        out[f"{module}.errors"] = c.get(f"{module}.errors", 0)
        out[f"{module}.self_s"] = selfs.get(module, 0.0)
    return out


# counts that must repeat exactly from one traced cycle to the next
EXACT = tuple(
    ["exprlang.scalar_evals", "exprlang.array_evals", "exprlang.array_points",
     "weights.calls", "quadrature.integrate_calls", "quadrature.integrand_evals",
     "quadrature.extremum_points", "kernel.certify_cells",
     "kernel.certify_bytes_computed", "conditions.window_scalar_evals",
     "solver.picard_iterations", "solver.fold_bytes_computed"]
    + [f"quadrature.status.{s}" for s in STATUSES]
    + [f"{m}.errors" for m in MODULES]
)
