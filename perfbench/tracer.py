"""Outside-in layer tracer for the benchmark's traced run.

Nothing in `rosenau` knows about it: `install` replaces every public
module-level function of every loaded `rosenau.*` module (a superset of each
module's `__all__`), plus `MomentDecomposition.from_profile`, by a wrapper
that records a span (name, start, end, parent).  Originals are collected from
every module before any attribute is replaced and matched by identity, so a
name re-imported into another module (`from .quadrature import
panel_integrals`) is replaced at that import site too.

Integrand callables passed into `panel_integrals` and `integrate_adaptive`
are wrapped as `<defining module>.integrand`, so integrand time is charged to
the layer that supplied it and the panel rule keeps only its own arithmetic.
`scipy.integrate.quad` calls and their callback evaluations are counted per
calling module.

A span's self time is its duration minus the durations of the wrapped calls
nested directly inside it.  Inclusive times (`incl`) count only spans not
nested in a span of the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_PACKAGE = "rosenau"


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1] if module_name else "unknown"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.layer_incl: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.maxima: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._active: Counter = Counter()
        self._active_layer: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> list:
        # span id, name, layer, start, time in wrapped children, panel_integrals
        # calls made directly (used for integrate_adaptive's rounds)
        frame = [next(self._ids), name, layer, 0.0, 0.0, 0]
        self._active[name] += 1
        self._active_layer[layer] += 1
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, layer, start, child, _ = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self._active[name] -= 1
        if not self._active[name]:
            self.incl[name] += duration
        self._active_layer[layer] -= 1
        if not self._active_layer[layer]:
            self.layer_incl[layer] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.spans.append((span_id, name, start, end, parent[0] if parent else -1))

    def wrap(self, name: str, fn, before=None, after=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, layer)
            try:
                if before is not None:
                    args = before(frame, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(frame, args, result)
                return result
            finally:
                self._exit(frame)

        wrapper.perfbench_traced = True
        return wrapper

    def wrap_integrand(self, fn):
        if getattr(fn, "perfbench_traced", False):
            return fn
        return self.wrap(f"{_layer(getattr(fn, '__module__', ''))}.integrand", fn)

    # -- layer hooks -----------------------------------------------------------

    def _hooks(self, gl_order: int) -> dict:
        counts, maxima = self.counts, self.maxima

        def points(key, index):
            def before(frame, args):
                counts[key] += _size(args[index])
                return args
            return before

        def panels_before(frame, args):
            fn, lo = args[0], args[1]
            nodes = gl_order * _size(lo)
            counts["quadrature.nodes"] += nodes
            parent = self._stack[-2] if len(self._stack) > 1 else None
            if parent is not None and parent[1] == "quadrature.integrate_adaptive":
                parent[5] += 1
            if self._active["quadrature.integrate_adaptive"]:
                counts["quadrature.adaptive_nodes"] += nodes
            return (self.wrap_integrand(fn),) + tuple(args[1:])

        def adaptive_before(frame, args):
            counts["quadrature.initial_panels"] += _size(args[1]) - 1
            return (self.wrap_integrand(args[0]),) + tuple(args[1:])

        def adaptive_after(frame, args, result):
            value, err = result
            if value:
                maxima["quadrature.err_rel_max"] = max(
                    maxima["quadrature.err_rel_max"], abs(err / value)
                )
            # one coarse panel_integrals call, then two (left, right) per round
            maxima["quadrature.rounds_max"] = max(
                maxima["quadrature.rounds_max"], (frame[5] - 1) // 2
            )

        def edges_after(frame, args, result):
            counts["quadrature.phase_resolved_edges.panels"] += _size(result) - 1

        return {
            "model.eval_dispersion": (points("model.eval_dispersion.points", 1), None),
            "model.dispersion_derivatives": (
                points("model.dispersion_derivatives.points", 1),
                None,
            ),
            "evolution.sinc": (points("evolution.sinc.points", 0), None),
            "quadrature.panel_integrals": (panels_before, None),
            "quadrature.integrate_adaptive": (adaptive_before, adaptive_after),
            "quadrature.phase_resolved_edges": (None, edges_after),
        }

    def install(self) -> None:
        """Wrap every public function of the loaded rosenau modules, and quad."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == _PACKAGE or name.startswith(_PACKAGE + ".")
        ]
        originals = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (f"{_layer(mod.__name__)}.{attr}", obj)

        gl_order = sys.modules[_PACKAGE + ".quadrature"].GL_ORDER
        hooks = self._hooks(gl_order)
        wrappers = {
            key: self.wrap(name, fn, *hooks.get(name, (None, None)))
            for key, (name, fn) in originals.items()
        }
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

        decomposition = sys.modules[_PACKAGE + ".moments"].MomentDecomposition
        from_profile = decomposition.__dict__["from_profile"].__func__
        decomposition.from_profile = classmethod(self.wrap("moments.from_profile", from_profile))
        self._count_quad()

    def _count_quad(self) -> None:
        from scipy import integrate

        original = integrate.quad
        counts = self.counts

        def quad(func, *args, **kwargs):
            layer = _layer(sys._getframe(1).f_globals.get("__name__", ""))
            counts[f"{layer}.quad_calls"] += 1
            key = f"{layer}.quad_evals"

            def counted(*a):
                counts[key] += 1
                return func(*a)

            return original(counted, *args, **kwargs)

        integrate.quad = quad

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self_s": dict(self.self_s),
            "layer_incl": dict(self.layer_incl),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """Write the spans as gzip'd CSV: id, name, start, end, parent id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent}\n")


def _size(x) -> int:
    return int(np.size(x))
