"""Scenario configuration: JSON schema, defaults, and cross-field validation.

A scenario file fixes the map, motif, unit-cell choice(s), regime, (l, h)
schedule, observation grid and quadrature settings.  Validation collects
*all* violations before reporting, so a bad file round-trips in one edit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .charge import Modulation, Motif, MotifPoint, Regime
from .errors import ParseError, StandoffViolation, UnsupportedModulation, ValidationError
from .geometry import ParametricMap, Rectangle
from .lattice import UnitCellChoice
from .potential import ObservationGrid
from .quadrature import DEFAULT_MAX_DEPTH, DEFAULT_TOL
from .study import DEFAULT_ORDER_THRESHOLD, make_schedule

DEFAULT_GRID_N = (5, 5)
DEFAULT_GRID_DISTANCE = 1.0


@dataclass
class Thresholds:
    order_min: float = DEFAULT_ORDER_THRESHOLD
    gauge_phi_tol: float = 1e-6
    gauge_moment_min: float = 0.1


@dataclass
class ScenarioConfig:
    """Validated, fully-built scenario."""

    pmap: ParametricMap
    motif: Motif
    choice_a: UnitCellChoice
    choice_b: Optional[UnitCellChoice]
    regime: Regime
    schedule: list
    grid: ObservationGrid
    tol: float
    max_depth: int
    out_dir: Path
    thresholds: Thresholds
    green_4pi: bool
    scenario_hash: str


def check_tol(tol: float) -> float:
    """Quadrature tolerance must be finite and positive (JSON admits NaN)."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    return tol


def _build_map(spec: dict, domain: Rectangle) -> ParametricMap:
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return ParametricMap.identity(domain)
    if kind == "cylinder":
        return ParametricMap.cylinder(domain, float(spec["radius"]), spec.get("h_max"))
    if kind == "disk":
        return ParametricMap.polar_disk(float(spec.get("radius", 1.0)))
    if kind == "scaled":
        return ParametricMap.scaled(domain, [float(v) for v in spec["factors"]])
    raise ValueError(f"unknown map kind {kind!r} (expected identity/cylinder/disk/scaled)")


def _build_modulation(spec) -> Modulation:
    if spec is None:
        return Modulation()
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UnsupportedModulation(f"modulation spec must be an object with 'kind': {spec!r}")
    kind = spec["kind"]
    return Modulation(
        kind=kind,
        value=float(spec.get("value", 1.0)),
        coef=tuple(float(v) for v in spec.get("coef", (0.0, 0.0))),
        phase=float(spec.get("phase", 0.0)),
    )


def _build_points(entries) -> tuple[MotifPoint, ...]:
    pts = []
    for e in entries:
        pts.append(
            MotifPoint(
                w=float(e["w"]),
                y=(float(e["y"][0]), float(e["y"][1])),
                z=float(e.get("z", 0.0)),
                modulation=_build_modulation(e.get("modulation")),
            )
        )
    return tuple(pts)


def _build_choice(spec: dict) -> UnitCellChoice:
    return UnitCellChoice(
        e1=tuple(float(v) for v in spec.get("e1", (1.0, 0.0))),
        e2=tuple(float(v) for v in spec.get("e2", (0.0, 1.0))),
        f=tuple(float(v) for v in spec.get("f", (0.0, 0.0))),
        origin=tuple(float(v) for v in spec.get("origin", (0.0, 0.0))),
    )


def _build_grid(spec: dict, pmap: ParametricMap) -> ObservationGrid:
    kind = spec.get("kind", "offset_surface")
    n = spec.get("n", DEFAULT_GRID_N)
    if kind == "offset_surface":
        return ObservationGrid.offset_surface(
            pmap, int(n[0]), int(n[1]), float(spec.get("distance", DEFAULT_GRID_DISTANCE))
        )
    if kind == "plane":
        extent = spec.get("extent")
        rect = (
            Rectangle(tuple(extent[0]), tuple(extent[1]))
            if extent is not None
            else pmap.domain
        )
        return ObservationGrid.plane(pmap, int(n[0]), int(n[1]), rect, float(spec["height"]))
    if kind == "points":
        return ObservationGrid.from_points(np.asarray(spec["points"], float), pmap)
    raise ValueError(f"unknown grid kind {kind!r} (expected offset_surface/plane/points)")


def parse_config(path, tol: Optional[float] = None) -> ScenarioConfig:
    """Load and validate a scenario file; a given ``tol`` is validated and hashed as if the file set it.

    Raises ParseError for unreadable/malformed files, ValidationError with
    the full violation list otherwise.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config {path} must contain a JSON object")
    if tol is not None and isinstance(raw.get("quadrature", {}), dict):
        raw["quadrature"] = {**raw.get("quadrature", {}), "tol": tol}
    return build_config(raw)


def build_config(raw: dict) -> ScenarioConfig:
    violations: list[str] = []

    def attempt(label, fn, default=None):
        try:
            return fn()
        except Exception as exc:  # collect everything, report once
            violations.append(f"{label}: {exc}")
            return default

    domain = attempt(
        "domain",
        lambda: Rectangle(
            tuple(raw.get("domain", [[0.0, 0.0], [1.0, 1.0]])[0]),
            tuple(raw.get("domain", [[0.0, 0.0], [1.0, 1.0]])[1]),
        ),
        default=Rectangle((0.0, 0.0), (1.0, 1.0)),
    )
    pmap = attempt("map", lambda: _build_map(raw.get("map", {}), domain))

    def build_motif():
        spec = raw["motif"]
        motif = Motif(
            points=_build_points(spec.get("points", [])),
            free_points=_build_points(spec.get("free_points", [])),
            free_charge_order=tuple(int(v) for v in spec.get("free_charge_order", (1, 0))),
        )
        motif.validate_interior()
        return motif

    motif = attempt("motif", build_motif)
    choice_a = attempt("cell", lambda: _build_choice(raw.get("cell", {})))
    choice_b = (
        attempt("cell_b", lambda: _build_choice(raw["cell_b"])) if "cell_b" in raw else None
    )

    regime = attempt(
        "regime",
        lambda: Regime(
            kind=raw.get("regime", {}).get("kind", "R2"),
            alpha=raw.get("regime", {}).get("alpha"),
        ),
    )

    def build_schedule():
        spec = raw.get("schedule", {})
        sched = make_schedule(regime, spec.get("l"), spec.get("h"))
        if not sched:
            raise ValueError("schedule is empty")
        for l, h in sched:
            if not (0.0 < l <= 1.0):
                raise ValueError(f"schedule scale l={l} outside (0, 1]")
            if h <= 0.0:
                raise ValueError(f"schedule thickness h={h} must be positive")
            if pmap is not None and h > pmap.h_max:
                raise ValueError(f"schedule thickness h={h} exceeds map h_max={pmap.h_max}")
            if regime is not None:
                regime.check_pair(l, h)  # R2: h = alpha * l exactly
        return sched

    schedule = attempt("schedule", build_schedule) if regime is not None else None

    grid = None
    if pmap is not None:
        def build_grid():
            try:
                return _build_grid(raw.get("grid", {}), pmap)
            except StandoffViolation as exc:
                raise ValueError(
                    f"{exc} (standoff rule: observation points must keep a positive "
                    "distance from the film)"
                ) from exc

        grid = attempt("grid", build_grid)

    quad = raw.get("quadrature", {})
    tol = attempt("quadrature", lambda: check_tol(float(quad.get("tol", DEFAULT_TOL))))
    def build_max_depth():
        depth = int(quad.get("max_depth", DEFAULT_MAX_DEPTH))
        if depth < 1:
            raise ValueError("max_depth must be >= 1")
        return depth

    max_depth = attempt("quadrature", build_max_depth)

    def build_thresholds():
        spec = raw.get("thresholds", {})
        values = {f.name: float(spec.get(f.name, f.default)) for f in fields(Thresholds)}
        nan = [name for name, value in values.items() if math.isnan(value)]
        if nan:
            raise ValueError(f"{', '.join(nan)} must not be NaN (every comparison with NaN is false)")
        return Thresholds(**values)

    thresholds = attempt("thresholds", build_thresholds)

    def build_out_dir():
        spec = raw.get("output", {})
        out = spec.get("dir", "out") if isinstance(spec, dict) else None
        if not isinstance(out, str):
            raise ValueError(f'must be an object with a string "dir", got {spec!r}')
        return Path(out)

    out_dir = attempt("output", build_out_dir)

    def build_green_4pi():
        flag = raw.get("green_4pi", False)
        if not isinstance(flag, bool):
            raise ValueError(f"must be true or false, got {flag!r}")
        return flag

    green_4pi = attempt("green_4pi", build_green_4pi)

    if violations:
        raise ValidationError(violations)

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    scenario_hash = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    return ScenarioConfig(
        pmap=pmap,
        motif=motif,
        choice_a=choice_a,
        choice_b=choice_b,
        regime=regime,
        schedule=schedule,
        grid=grid,
        tol=tol,
        max_depth=max_depth,
        out_dir=out_dir,
        thresholds=thresholds,
        green_4pi=green_4pi,
        scenario_hash=scenario_hash,
    )
