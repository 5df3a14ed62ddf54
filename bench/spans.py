"""Span tracing of filmhomog's layers for the benchmark's traced run.

``hooks(tracer)`` rebinds each traced function, in every ``filmhomog`` module
that binds it, to a wrapper that records a span (name, start, end, parent)
and the work it was handed; leaving the ``with`` block restores the original
bindings.  A target that no longer exists is skipped and reported, so its
layer's metrics are absent instead of the run failing.  Nothing here is
installed by the untraced run.

Quadrature panels are counted by wrapping the integrand handed to
``adaptive_*``: one integrand call is one panel, the number of values it
returns is the number of kernel evaluations, and a panel's depth is log2 of
the widest panel of the same call over its own width.
"""

from __future__ import annotations

import fnmatch
import importlib
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one traced call, kept in memory in the order they opened."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, self.clock(), math.nan, parent)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "counts": s.counts}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, reach = 0.0, lo
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_time(spans: list[Span], index: int) -> float:
    """Duration of a span minus the part of it its child spans cover."""
    s = spans[index]
    children = [(c.start, c.end) for c in spans if c.parent == index]
    return s.duration - covered(children, s.start, s.end)


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans of ``name`` with no ancestor of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# hooks
# ---------------------------------------------------------------------------


def _points(x_p) -> int:
    return int(np.prod(np.shape(x_p)[:-1]))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


@dataclass(frozen=True)
class Hook:
    """One traced target: ``attr`` in ``module`` (``Class.method`` and globs allowed)."""

    module: str
    attr: str
    layer: str
    counts: Optional[Callable] = None  # (args, kwargs, result) -> dict
    integrand_dims: int = 0  # 1 or 2 for adaptive quadrature: wrap args[0]


HOOKS = (
    Hook("filmhomog.config", "build_config", "config.build"),
    Hook(
        "filmhomog.potential",
        "ObservationGrid.from_points",
        "potential.grid",
        counts=lambda a, k, r: {"grid_points": r.n_points},
    ),
    Hook(
        "filmhomog.lattice",
        "tessellate",
        "lattice.tessellate",
        counts=lambda a, k, r: {
            "cells": len(r.full_cells) + len(r.partial_cells),
            "cells_partial": len(r.partial_cells),
        },
    ),
    Hook("filmhomog.charge", "realize", "charge.realize", counts=lambda a, k, r: {"charges": r.n_charges}),
    Hook("filmhomog.moments", "moment_fields", "moments.fields"),
    Hook("filmhomog.moments", "moment_table", "moments.table", counts=lambda a, k, r: {"rows": len(r)}),
    Hook(
        "filmhomog.geometry",
        "surface_frame",
        "geometry.frame",
        counts=lambda a, k, r: {"points": _points(_arg(a, k, 1, "x_p"))},
    ),
    Hook("filmhomog.quadrature", "adaptive_rectangle", "quadrature.rect", integrand_dims=2),
    Hook("filmhomog.quadrature", "adaptive_segment", "quadrature.segment", integrand_dims=1),
    Hook(
        "filmhomog.potential",
        "direct_potential",
        "potential.direct",
        counts=lambda a, k, r: {"pairs": _arg(a, k, 0, "dist").n_charges * r.grid.n_points},
    ),
    Hook("filmhomog.potential", "homogenized_*", "potential.homog"),
)


def _add(counts: dict, key: str, n) -> None:
    counts[key] = counts.get(key, 0) + n


def _counting_integrand(f, counts: dict, dims: int):
    root = [0.0]

    def integrand(x):
        values = f(x)
        width = float(np.ptp(np.asarray(x)[:, 0] if dims == 2 else x))
        root[0] = max(root[0], width)
        _add(counts, "panels", 1)
        _add(counts, "kernel_evals", int(np.size(values)))
        if width > 0.0:
            counts["depth_max"] = max(counts.get("depth_max", 0), round(math.log2(root[0] / width)))
        return values

    return integrand


def _wrap(fn, hook: Hook, tracer: Tracer):
    def traced(*args, **kwargs):
        with tracer.span(hook.layer) as s:
            if hook.integrand_dims:
                args = (_counting_integrand(args[0], s.counts, hook.integrand_dims),) + args[1:]
            result = fn(*args, **kwargs)
            if hook.counts is not None:
                s.counts.update(hook.counts(args, kwargs, result))
            return result

    traced.__wrapped__ = fn
    return traced


def _targets(hook: Hook):
    """(owner, attribute name, original) triples the hook resolves to."""
    try:
        module = importlib.import_module(hook.module)
    except ImportError:
        return []
    if "." in hook.attr:
        cls_name, meth = hook.attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        if cls is None or meth not in vars(cls):
            return []
        return [(cls, meth, vars(cls)[meth])]
    names = [n for n in vars(module) if fnmatch.fnmatchcase(n, hook.attr)]
    return [
        (module, n, getattr(module, n))
        for n in sorted(names)
        if callable(getattr(module, n)) and getattr(getattr(module, n), "__module__", None) == hook.module
    ]


@contextmanager
def hooks(tracer: Tracer, table=HOOKS):
    """Trace every target of ``table`` into ``tracer`` while the block runs."""
    restore = []
    try:
        for hook in table:
            targets = _targets(hook)
            if not targets:
                tracer.missing.add(hook.layer)
                continue
            tracer.installed.add(hook.layer)
            for owner, name, original in targets:
                if isinstance(original, classmethod):
                    restore.append((owner, name, original))
                    setattr(owner, name, classmethod(_wrap(original.__func__, hook, tracer)))
                    continue
                wrapped = _wrap(original, hook, tracer)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "filmhomog":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_total(tracer: Tracer, layer: str, what: str):
    """Seconds ("time"), call count ("calls"), or a summed/maxed span count."""
    spans = tracer.spans
    if what == "time":
        return sum(s.duration for s in outermost(spans, layer))
    if what == "calls":
        return len(outermost(spans, layer))
    values = [s.counts.get(what, 0) for s in spans if s.name == layer]
    if what.endswith("_max"):
        return max(values, default=0)
    return sum(values)


# metric name -> (unit, layer, what); a metric is absent when its layer's
# hook found no target.
SETUP_METRICS = {
    "config.build_s": ("s", "config.build", "time"),
    "potential.grid_s": ("s", "potential.grid", "time"),
    "potential.grid_points": ("count", "potential.grid", "grid_points"),
}
STUDY_METRICS = {
    "lattice.tessellate_s": ("s", "lattice.tessellate", "time"),
    "lattice.tessellate_calls": ("count", "lattice.tessellate", "calls"),
    "lattice.cells": ("count", "lattice.tessellate", "cells"),
    "lattice.cells_partial": ("count", "lattice.tessellate", "cells_partial"),
    "charge.realize_s": ("s", "charge.realize", "time"),
    "charge.charges": ("count", "charge.realize", "charges"),
    "moments.fields_s": ("s", "moments.fields", "time"),
    "moments.table_s": ("s", "moments.table", "time"),
    "moments.table_rows": ("count", "moments.table", "rows"),
    "geometry.frame_s": ("s", "geometry.frame", "time"),
    "geometry.frame_calls": ("count", "geometry.frame", "calls"),
    "geometry.frame_points": ("count", "geometry.frame", "points"),
    "quadrature.rect_s": ("s", "quadrature.rect", "time"),
    "quadrature.panels_2d": ("count", "quadrature.rect", "panels"),
    "quadrature.depth_max_2d": ("count", "quadrature.rect", "depth_max"),
    "quadrature.segment_s": ("s", "quadrature.segment", "time"),
    "quadrature.segment_calls": ("count", "quadrature.segment", "calls"),
    "quadrature.panels_1d": ("count", "quadrature.segment", "panels"),
    "potential.direct_s": ("s", "potential.direct", "time"),
    "potential.direct_pairs": ("count", "potential.direct", "pairs"),
    "potential.homog_s": ("s", "potential.homog", "time"),
}
DERIVED_UNITS = {
    "geometry.points_per_frame_call": "count/call",
    "quadrature.kernel_evals": "count",
    "potential.direct_pairs_per_s": "1/s",
    "study.s": "s",
    "study.self_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def setup_metrics(tracer: Tracer) -> dict:
    return {
        name: layer_total(tracer, layer, what)
        for name, (_, layer, what) in SETUP_METRICS.items()
        if layer in tracer.installed
    }


def study_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced study call made inside ``tracer.span("study")``."""
    out = {
        name: layer_total(tracer, layer, what)
        for name, (_, layer, what) in STUDY_METRICS.items()
        if layer in tracer.installed
    }
    if "geometry.frame" in tracer.installed:
        out["geometry.points_per_frame_call"] = _ratio(out["geometry.frame_points"], out["geometry.frame_calls"])
    quad = [q for q in ("quadrature.rect", "quadrature.segment") if q in tracer.installed]
    if quad:
        out["quadrature.kernel_evals"] = sum(layer_total(tracer, q, "kernel_evals") for q in quad)
    if "potential.direct" in tracer.installed:
        out["potential.direct_pairs_per_s"] = _ratio(out["potential.direct_pairs"], out["potential.direct_s"])
    (index,) = [i for i, s in enumerate(tracer.spans) if s.name == "study"]
    out["study.s"] = tracer.spans[index].duration
    out["study.self_s"] = self_time(tracer.spans, index)
    return out


def metric_unit(name: str) -> str:
    for table in (SETUP_METRICS, STUDY_METRICS):
        if name in table:
            return table[name][0]
    return DERIVED_UNITS[name]
