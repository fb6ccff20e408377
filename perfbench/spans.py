"""Spans around the calls into each kinfront layer, recorded from outside.

`Tracer.install()` replaces the public functions of each layer module,
the constructor and public methods of its public classes (those in
CLASSES), and the few private helpers that the per-layer counts need
(EXTRA), with wrappers that record a span: layer, name, parent span,
start and end. A name that another module imported with ``from ...
import`` is replaced there too, since the wrapper is installed wherever
the original object is bound in a kinfront module. `uninstall()` puts
the originals back, so untraced rounds run the program unchanged.

Spans stay in memory until `take()` hands them over; `per_layer()`
folds a batch into the metrics and `dump()` writes one out. The program
is single-threaded, so spans nest: a span's self time is its duration
minus the durations of its direct children, and a layer's self time is
the sum over its spans.
"""

import inspect
import json
import sys
from time import perf_counter

LAYERS = {
    "cli": "kinfront.cli",
    "engine": "kinfront.sim.engine",
    "kernels": "kinfront.sim.kernels",
    "propagation": "kinfront.propagation",
    "dispersion": "kinfront.dispersion",
    "models": "kinfront.models",
    "quadrature": "kinfront.quadrature",
}
# public classes whose construction and methods are layer work
CLASSES = {"models": ("VelocityModel",), "quadrature": ("GradedGrid",)}
# the stepping lane is re-exported by kernels from the lane module it picked;
# the H-solve helpers are private but every H solve goes through one of them
EXTRA = {"kernels": ("strang_step",), "dispersion": ("_h_value", "_discrete_h")}


def _targets(mod, layer):
    """(owner, attribute, span name) for each callable traced in one layer."""
    out = []
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == mod.__name__:
            out.append((mod, name, "%s.%s" % (layer, name)))
    for name in EXTRA.get(layer, ()):
        out.append((mod, name, "%s.%s" % (layer, name)))
    for cname in CLASSES.get(layer, ()):
        cls = getattr(mod, cname)
        out.append((cls, "__init__", "%s.%s" % (layer, cname)))
        for name, obj in sorted(vars(cls).items()):
            if not name.startswith("_") and inspect.isfunction(obj):
                out.append((cls, name, "%s.%s.%s" % (layer, cname, name)))
    return out


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id
        self._ids = {}  # name id per span name, stable across installs
        self.layer_of = []  # layer per name id
        self.spans = []  # [name id, parent index, start, end, arg]
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, fn, name, layer, arg=None):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, stack[-1] if stack else -1, perf_counter(), 0.0,
                    arg(args) if arg else 0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every traced callable wherever a kinfront module binds it."""
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "kinfront" or n.startswith("kinfront.")) and m is not None]
        args = {
            # cells per step: the state array g is the first argument
            "kernels.strang_step": lambda a: a[0].shape[0] * a[0].shape[1],
            # discrete H solves are batched: one per row of projections
            "dispersion._discrete_h": lambda a: 1 if a[1].ndim == 1 else a[1].shape[0],
            "dispersion._h_value": lambda a: 0 if a[0].is_discrete else 1,
        }
        for layer, modname in LAYERS.items():
            for owner, attr, name in _targets(sys.modules[modname], layer):
                orig = inspect.getattr_static(owner, attr)
                wrapper = self._wrap(orig, name, layer, args.get(name))
                if inspect.isclass(owner):
                    self._patches.append((owner, attr, orig))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, key, orig))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def take(self):
        """Remove and return the spans recorded so far."""
        spans = self.spans[:]
        del self.spans[:]  # in place: installed wrappers hold this list
        return spans

    def per_layer(self, spans):
        """Per-layer numbers for one batch of spans (as returned by take)."""
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child_time[span[1]] += span[3] - span[2]
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {}
        total = {}
        argsum = {}
        argmax = {}
        for i, (nid, _, start, end, arg) in enumerate(spans):
            name = self.names[nid]
            dur = end - start
            self_s[self.layer_of[nid]] += dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            argsum[name] = argsum.get(name, 0) + arg
            argmax[name] = max(argmax.get(name, 0), arg)
        # kernel_integral calls made inside continuum H solves
        h_id = self._ids["dispersion._h_value"]
        k_id = self._ids["quadrature.GradedGrid.kernel_integral"]
        in_h = 0
        for nid, parent, _, _, _ in spans:
            if nid != k_id:
                continue
            while parent >= 0 and spans[parent][0] != h_id:
                parent = spans[parent][1]
            in_h += parent >= 0
        continuum_h = argsum.get("dispersion._h_value", 0)
        kernel_self = self_s["kernels"]
        cells = argsum.get("kernels.strang_step", 0)
        return {
            "self_s": self_s,
            "calls": calls,
            "h_solves": continuum_h + argsum.get("dispersion._discrete_h", 0),
            "kernel_calls_per_h_solve": in_h / continuum_h if continuum_h else 0.0,
            "kernel_cell_updates_per_s": cells / kernel_self if kernel_self > 0 else 0.0,
            "kernel_state_mb": argmax.get("kernels.strang_step", 0) * 8 / 1e6,
            "initial_state_s": total.get("engine.initial_front_state", 0.0),
        }

    def dump(self, path, spans):
        """Write spans as names plus [name id, parent, start, end] rows, times from 0."""
        t0 = spans[0][2] if spans else 0.0
        rows = [[s[0], s[1], s[2] - t0, s[3] - t0] for s in spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))
