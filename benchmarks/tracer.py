"""Per-layer tracing for the traced benchmark run (``--trace 1``).

The program is not changed: each traced callable is replaced, after import,
by a wrapper that counts calls and measures busy time.  A wrapper is
installed in every namespace that bound the original object, because
several modules import names directly (``suites``, ``fields`` and ``cli``
bind ``relative_winding``; ``suites`` and ``fields`` also reach
``causally_separated``; ``suites._SUITE_FUNCS`` holds the suite functions).

Per traced name the tracer records calls, inclusive time (``ms``, counted
once for recursive calls) and self time (``self_ms``, inclusive time minus
the time of directly nested traced calls), plus spans (name, start, end,
parent) kept in memory up to a cap.  Recording happens only while an
operation is being timed, so input generation and checks are not counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

SPAN_CAP = 50_000

# (layer name, module, attribute); a dotted attribute names a method.
TARGETS = (
    ("minkowski.cover_compose", "minkowski", "cover_compose"),
    ("minkowski.cover_inverse", "minkowski", "cover_inverse"),
    ("minkowski.LorentzMatrix", "minkowski", "LorentzMatrix.__init__"),
    ("cones.causally_separated", "cones", "causally_separated"),
    ("cones.relative_winding", "cones", "relative_winding"),
    ("cones.act", "cones", "act"),
    ("cones.find_causal_pair", "cones", "find_causal_pair"),
    ("cones.cone_path", "cones", "cone_path"),
    ("suites.random_separated_pair", "suites", "random_separated_pair"),
    ("suites.geometry", "suites", "geometry_suite"),
    ("suites.braid", "suites", "braid_suite"),
    ("suites.twist", "suites", "twist_suite"),
    ("suites.cpt", "suites", "cpt_suite"),
    ("suites.tomita", "suites", "tomita_suite"),
    ("suites.wigner", "suites", "wigner_suite"),
    ("fields.exchange", "fields", "exchange"),
    ("sectors.r_phase", "sectors", "r_phase"),
    ("wigner.wigner_rotation", "wigner", "wigner_rotation"),
    ("wigner.shell_norm2", "wigner", "shell_norm2"),
    ("lattice.ClockShiftLattice", "lattice", "ClockShiftLattice.__init__"),
    ("lattice.word_matrix", "lattice", "ClockShiftLattice.word_matrix"),
    ("lattice.lattice_oracle", "lattice", "lattice_oracle"),
    ("scenes.load_scene", "scenes", "load_scene"),
    ("report.Report.to_json", "report", "Report.to_json"),
    ("cli.main", "cli", "main"),
)

# Per-layer metrics reported per operation: (metric, unit, better).
METRICS = (
    ("minkowski.cover_compose.calls", "count", "lower"),
    ("minkowski.cover_compose.ms", "ms", "lower"),
    ("minkowski.cover_inverse.calls", "count", "lower"),
    ("minkowski.cover_inverse.ms", "ms", "lower"),
    ("minkowski.LorentzMatrix.calls", "count", "lower"),
    ("minkowski.LorentzMatrix.ms", "ms", "lower"),
    ("cones.causally_separated.calls", "count", "lower"),
    ("cones.causally_separated.ms", "ms", "lower"),
    ("cones.causally_separated.raised", "count", "lower"),
    ("cones.relative_winding.calls", "count", "lower"),
    ("cones.relative_winding.self_ms", "ms", "lower"),
    ("cones.act.calls", "count", "lower"),
    ("cones.act.ms", "ms", "lower"),
    ("cones.find_causal_pair.calls", "count", "lower"),
    ("cones.find_causal_pair.ms", "ms", "lower"),
    ("cones.cone_path.calls", "count", "lower"),
    ("cones.cone_path.ms", "ms", "lower"),
    ("suites.random_separated_pair.calls", "count", "lower"),
    ("suites.random_separated_pair.candidates", "count", "lower"),
    ("suites.random_separated_pair.yield", "ratio", "higher"),
    ("suites.geometry.ms", "ms", "lower"),
    ("suites.braid.ms", "ms", "lower"),
    ("suites.twist.ms", "ms", "lower"),
    ("suites.cpt.ms", "ms", "lower"),
    ("suites.tomita.ms", "ms", "lower"),
    ("suites.wigner.ms", "ms", "lower"),
    ("fields.exchange.calls", "count", "lower"),
    ("fields.exchange.self_ms", "ms", "lower"),
    ("sectors.r_phase.calls", "count", "lower"),
    ("sectors.r_phase.ms", "ms", "lower"),
    ("wigner.wigner_rotation.calls", "count", "lower"),
    ("wigner.wigner_rotation.points", "count", "lower"),
    ("wigner.wigner_rotation.ms", "ms", "lower"),
    ("wigner.shell_norm2.calls", "count", "lower"),
    ("wigner.shell_norm2.ms", "ms", "lower"),
    ("lattice.ClockShiftLattice.ms", "ms", "lower"),
    ("lattice.word_matrix.calls", "count", "lower"),
    ("lattice.word_matrix.ms", "ms", "lower"),
    ("lattice.lattice_oracle.calls", "count", "lower"),
    ("lattice.lattice_oracle.ms", "ms", "lower"),
    ("scenes.load_scene.ms", "ms", "lower"),
    ("report.Report.to_json.ms", "ms", "lower"),
    ("cli.main.ms", "ms", "lower"),
)


class LayerStat:
    __slots__ = ("calls", "inclusive", "self", "raised", "points", "depth", "children")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self = 0.0
        self.raised = 0
        self.points = 0
        self.depth = 0
        self.children: Counter = Counter()


def _shell_point_count(args, kwargs) -> int:
    pts = kwargs.get("p", args[1] if len(args) > 1 else None)
    shape = getattr(pts, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self.stack: list[list] = []  # [name, stat, nested seconds, span index]
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.active = False
        self.op = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from plektonlab.cones import SeparationError

        raising = {"cones.causally_separated": SeparationError}
        counting = {"wigner.wigner_rotation": _shell_point_count}
        # import every traced module first, so that all their namespaces are scanned
        for _layer, mod_name, _attr in TARGETS:
            importlib.import_module(f"plektonlab.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "plektonlab" or name.startswith("plektonlab.")]
        for layer, mod_name, attr in TARGETS:
            module = sys.modules[f"plektonlab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(layer, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(layer, original, raising.get(layer), counting.get(layer))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is original:
                                value[key] = wrapper

    def wrap(self, layer: str, fn, raises=None, count_points=None):
        stat = self.stats.setdefault(layer, LayerStat())
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if stack:
                stack[-1][1].children[layer] += 1
            stat.calls += 1
            if count_points is not None:
                stat.points += count_points(args, kwargs)
            frame = [layer, stat, 0.0, -1]
            if len(tracer.spans) < SPAN_CAP:
                frame[3] = len(tracer.spans)
                tracer.spans.append(None)
            else:
                tracer.spans_dropped += 1
            stack.append(frame)
            stat.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if raises is not None and isinstance(exc, raises):
                    stat.raised += 1
                raise
            finally:
                end = time.perf_counter()
                elapsed = end - start
                stack.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.inclusive += elapsed
                stat.self += elapsed - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += elapsed
                if frame[3] >= 0:
                    tracer.spans[frame[3]] = (tracer.op, layer, start, end,
                                              parent[3] if parent is not None else -1)

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-operation values of every metric in METRICS."""
        out = {}
        for metric, _unit, _better in METRICS:
            layer, field = metric.rsplit(".", 1)
            stat = self.stats.get(layer, LayerStat())
            if field == "calls":
                value = stat.calls
            elif field == "ms":
                value = stat.inclusive * 1e3
            elif field == "self_ms":
                value = stat.self * 1e3
            elif field == "raised":
                value = stat.raised
            elif field == "points":
                value = stat.points
            elif field == "candidates":
                value = stat.children["cones.causally_separated"]
            elif field == "yield":
                cand = stat.children["cones.causally_separated"]
                out[metric] = stat.calls / cand if cand else 0.0
                continue
            else:
                raise KeyError(metric)
            out[metric] = value / ops
        return out

    def dump(self) -> dict:
        """Raw per-layer totals and the recorded spans, for the trace file."""
        layers = {
            name: {"calls": s.calls, "ms": s.inclusive * 1e3, "self_ms": s.self * 1e3,
                   "raised": s.raised, "points": s.points, "children": dict(s.children)}
            for name, s in self.stats.items()
        }
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][2] if spans else 0.0
        return {
            "layers": layers,
            "span_fields": ["op", "name", "start_ms", "end_ms", "parent"],
            "spans": [(op, name, (a - t0) * 1e3, (b - t0) * 1e3, parent)
                      for op, name, a, b, parent in spans],
            "spans_dropped": self.spans_dropped,
        }
