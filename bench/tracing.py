"""Span recorder and counting metric proxy for the traced benchmark run.

Spans are recorded from the benchmark's side: the public functions each
layer's callers use are wrapped where those callers look them up (every
``hawking_lab`` module attribute bound to the function, or the class
attribute for methods), and restored afterwards.  The package itself is not
changed.  Each span records its name, layer, start, end, parent span and op
id; spans stay in memory until the run writes them out.

The counting proxy wraps the metric object the CLI builds from the config and
counts chart points per derivative order.  The counts depend only on the
inputs, so they repeat exactly for a seed.
"""

import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("manifold", "geodesics", "surface", "harmonics", "expansion", "optimizer", "cli")

# (module, attribute, layer, span name).  Layer boundaries as callers see
# them; the helpers ``_fd`` and ``errors`` are not layers.
SPAN_TABLE = (
    ("manifold", "curvature_packet", "manifold", "packet"),
    ("manifold", "metric_at", "manifold", "metric_at"),
    ("manifold", "christoffel_at", "manifold", "christoffel_at"),
    ("manifold", "ricci_at", "manifold", "ricci_at"),
    ("geodesics", "GeodesicFan.__init__", "geodesics", "fan"),
    ("geodesics", "GeodesicFan.positions_at", "geodesics", "interp"),
    ("geodesics", "GeodesicFan.velocities_at", "geodesics", "interp"),
    ("geodesics", "surface_tangents", "geodesics", "tangents"),
    ("geodesics", "geodesic_sphere_surface", "geodesics", "sphere_surface"),
    ("surface", "build_grid", "surface", "grid"),
    ("surface", "extrinsic_geometry", "surface", "geometry"),
    ("surface", "hawking_mass", "surface", "mass"),
    ("harmonics", "optimal_perturbation", "harmonics", "perturbation"),
    ("harmonics", "willmore_el_residual", "harmonics", "el"),
    ("expansion", "radius_ladder", "expansion", "ladder"),
    ("expansion", "fit_coefficients", "expansion", "fit"),
    ("optimizer", "maximize_hawking", "optimizer", "run"),
    ("optimizer", "closed_form_reference", "optimizer", "reference"),
    ("optimizer", "_SurfaceEvaluator.area_of", "optimizer", "area"),
    ("cli", "RunConfig.from_file", "cli", "config"),
    ("cli", "_emit", "cli", "emit"),
)

# span id, parent id, op id, layer, name, start, end
_ID, _PARENT, _OP, _LAYER, _NAME, _START, _END = range(7)


class SpanRecorder:
    """In-memory spans and per-op counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> key -> count
        self._attributed = []  # exceptions already charged to a layer

    def count(self, key, n=1):
        self.counts[self.op][key] += n

    def inside(self, name):
        return any(self.spans[s][_NAME] == name for s in self.stack)

    def innermost(self):
        return self.spans[self.stack[-1]][_NAME] if self.stack else None

    def open(self, layer, name):
        span = [len(self.spans), self.stack[-1] if self.stack else None, self.op,
                layer, name, time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span[_ID])
        return span

    def close(self, span):
        span[_END] = time.perf_counter()
        self.stack.pop()

    def charge(self, layer, exc):
        if not any(e is exc for e in self._attributed):
            self._attributed.append(exc)
            self.count(f"{layer}.errors")

    def wrap(self, fn, layer, name):
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.charge(layer, exc)
                raise
            finally:
                self.close(span)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        keys = ("id", "parent", "op", "layer", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class CountingMetric:
    """Proxy around a metric kind that counts chart points per derivative
    order and the geodesic right-hand-side evaluations of a fan build."""

    def __init__(self, inner, recorder):
        self._inner = inner
        self._rec = recorder

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _points(self, key, x):
        shape = np.shape(x)
        self._rec.count(key, int(np.prod(shape[:-1], dtype=np.int64)))

    def metric(self, x):
        self._points("manifold.g_points", x)
        return self._inner.metric(x)

    def metric_deriv(self, x):
        self._points("manifold.dg_points", x)
        if self._rec.innermost() == "fan":
            self._rec.count("geodesics.rhs_evals")
        return self._inner.metric_deriv(x)

    def metric_deriv2(self, x):
        self._points("manifold.ddg_points", x)
        return self._inner.metric_deriv2(x)


def _call_hooks(rec, name, args):
    """Counters taken at span boundaries."""
    if name == "packet":
        rec.count("manifold.packet_calls")
    elif name == "fan":
        rec.count("geodesics.fan_builds")
    elif name == "interp":
        rec.count("geodesics.interp_calls")
    elif name == "geometry":
        rec.count("surface.geometry_calls")
        rec.count("surface.nodes", args[1].n_nodes)
        if rec.inside("run"):
            rec.count("optimizer.surface_evals")
    elif name == "area" and rec.inside("run"):
        rec.count("optimizer.area_evals")


def _count_optimizer_result(rec, result):
    """Iterations and accepted iterates of a ``maximize_hawking`` result.

    An iterate is accepted when the mass changes between trace entries (the
    last entry is followed by the returned mass).
    """
    masses = [row["mass"] for row in result.trace] + [result.m_H_star]
    rec.count("optimizer.iterations", result.iterations)
    rec.count("optimizer.accepted", sum(a != b for a, b in zip(masses, masses[1:])))


class Instrumentation:
    """Installs the wrappers and the metric proxy; ``remove`` restores them."""

    def __init__(self, recorder):
        self.rec = recorder
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _hooked(self, fn, layer, name):
        rec = self.rec
        traced = rec.wrap(fn, layer, name)

        def hooked(*args, **kwargs):
            _call_hooks(rec, name, args)
            value = traced(*args, **kwargs)
            if name == "run":
                _count_optimizer_result(rec, value)
            return value

        return hooked

    def install(self):
        import hawking_lab.cli as cli

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "hawking_lab" or k.startswith("hawking_lab.")]
        for mod_name, attr, layer, name in SPAN_TABLE:
            owner = sys.modules[f"hawking_lab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._hooked(raw.__func__, layer, name)))
                else:
                    self._set(cls, meth, self._hooked(raw, layer, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._hooked(original, layer, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for command, fn in list(cli._COMMANDS.items()):
            self._undo.append((cli._COMMANDS, command, fn))
            cli._COMMANDS[command] = self.rec.wrap(fn, "cli", "command")
        from_config = cli.metric_from_config
        self._set(cli, "metric_from_config",
                  lambda spec: CountingMetric(from_config(spec), self.rec))
        return self

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time per span: its duration minus the time its children cover."""
    own = [s[_END] - s[_START] for s in spans]
    for s in spans:
        if s[_PARENT] is not None:
            own[s[_PARENT]] -= s[_END] - s[_START]
    return own


_SHARE_SPANS = (
    ("geodesics", "fan"), ("geodesics", "interp"), ("geodesics", "tangents"),
    ("surface", "geometry"), ("surface", "mass"), ("harmonics", "perturbation"),
    ("harmonics", "el"), ("expansion", "ladder"), ("expansion", "fit"),
    ("optimizer", "run"), ("optimizer", "reference"),
)


def layer_figures(spans, ops):
    """Per-layer time figures of the traced ops.

    ``ops`` maps op id -> wall seconds.  Times are per-op means in seconds
    for the spans every op crosses, and shares of the total op time for the
    rest, so a layer that does no work on a workload reads 0 as a share.
    """
    total = sum(ops.values())
    n_ops = len(ops)
    own = self_times(spans)
    layer_self = defaultdict(float)
    inclusive = defaultdict(float)
    for s, self_s in zip(spans, own):
        if s[_OP] not in ops:
            continue
        layer_self[s[_LAYER]] += self_s
        # inclusive time, skipping spans nested in a span of the same name
        parent, nested = s[_PARENT], False
        while parent is not None:
            if spans[parent][_NAME] == s[_NAME]:
                nested = True
                break
            parent = spans[parent][_PARENT]
        if not nested:
            inclusive[(s[_LAYER], s[_NAME])] += s[_END] - s[_START]
    out = {f"{layer}.self_share": layer_self[layer] / total for layer in LAYERS}
    for layer, name in (("manifold", "packet"), ("cli", "config"), ("cli", "emit"),
                        ("cli", "command")):
        out[f"{layer}.{name}_s"] = inclusive[(layer, name)] / n_ops
    for layer, name in _SHARE_SPANS:
        out[f"{layer}.{name}_share"] = inclusive[(layer, name)] / total
    return out


COUNT_KEYS = (
    "manifold.packet_calls", "manifold.g_points", "manifold.dg_points",
    "manifold.ddg_points", "geodesics.fan_builds", "geodesics.rhs_evals",
    "geodesics.interp_calls", "surface.geometry_calls", "surface.nodes",
    "optimizer.iterations", "optimizer.surface_evals", "optimizer.area_evals",
)


def count_figures(counts, ops, error_ops):
    """Per-op means of the counters over ``ops``, the optimizer's accepted
    iterates per surface evaluation, and error totals per layer over
    ``error_ops``."""
    totals = defaultdict(int)
    for op in ops:
        for key, n in counts.get(op, {}).items():
            totals[key] += n
    out = {key: totals[key] / len(ops) for key in COUNT_KEYS}
    evals = totals["optimizer.surface_evals"]
    out["optimizer.accept_ratio"] = totals["optimizer.accepted"] / evals if evals else 0.0
    errors = defaultdict(int)
    for op in error_ops:
        for key, n in counts.get(op, {}).items():
            errors[key] += n
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[f"{layer}.errors"]
    return out
