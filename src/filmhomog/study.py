"""Numerical studies: convergence to the limit potentials, and invariance of
the limit under change of unit cell while per-cell moments change.

The convergence study realizes the microscopic distribution along an (l, h)
schedule, evaluates its exact potential on a fixed grid, compares against
the matching homogenized potential (computed once), and fits an empirical
order as the least-squares slope of log(error) against log(l) over the last
few steps.

The gauge study analyzes one fixed physical charge structure with two
admissible unit-cell choices.  The second choice is handled by exact
re-binning: the periodic structure generated by choice A is re-collected,
in one array pass, into one reference cell of choice B (the weight-modulation
catalog is closed under translation, so this is exact even for modulated
motifs).  The choices must be commensurate: B's cells at its two basis steps
from the reference cell must collect the same motif.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .charge import Motif, MotifPoint, Regime, ScaledChargeDistribution, realize
from .geometry import ParametricMap
from .lattice import _UNIT_SQUARE, UnitCellChoice, cell_index, tessellate
from .moments import MomentTable, moment_fields, moment_table
from .potential import (
    TAYLOR_STANDOFF,
    FieldSample,
    ObservationGrid,
    direct_potential,
    homogenized_potential,
)
from .quadrature import DEFAULT_MAX_DEPTH, DEFAULT_TOL

DEFAULT_ORDER_THRESHOLD = 0.9
FIT_POINTS = 3  # schedule steps in the order fit, counted from the finest


def make_schedule(
    regime: Regime,
    l_values: Optional[Sequence[float]] = None,
    h_values: Optional[Sequence[float]] = None,
) -> list[tuple[float, float]]:
    """Default (l, h) couplings per regime: R1 h=l^2, R2 h=alpha*l, R3 l=h^2.

    Supply both lists for an explicit (possibly degenerate) schedule.
    """
    if l_values is not None and h_values is not None:
        if len(l_values) != len(h_values):
            raise ValueError("l and h schedules differ in length")
        return [(float(l), float(h)) for l, h in zip(l_values, h_values)]
    if regime.kind == "R1":
        if l_values is None:
            raise ValueError("R1 schedule needs l values")
        return [(float(l), float(l) ** 2) for l in l_values]
    if regime.kind == "R2":
        if l_values is None:
            raise ValueError("R2 schedule needs l values")
        return [(float(l), regime.alpha * float(l)) for l in l_values]
    if h_values is None:
        raise ValueError("R3 schedule needs h values")
    return [(float(h) ** 2, float(h)) for h in h_values]


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceStep:
    l: float
    h: float
    err_max: float
    err_rms: float
    taylor_ok: bool  # standoff >= TAYLOR_STANDOFF * max(l, h) at this step


@dataclass
class ConvergenceReport:
    regime: Regime
    steps: list[ConvergenceStep]
    fitted_order: float
    homogenized: FieldSample
    micro: list[FieldSample]
    order_threshold: float = DEFAULT_ORDER_THRESHOLD

    @property
    def errors_decrease(self) -> bool:
        errs = [s.err_max for s in self.steps]
        return all(b < a for a, b in zip(errs, errs[1:]))

    @property
    def converged(self) -> bool:
        return self.errors_decrease and self.fitted_order >= self.order_threshold


def fit_order(ls: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) vs log(l) over the last FIT_POINTS points."""
    ls = np.asarray(ls, float)[-FIT_POINTS:]
    errors = np.asarray(errors, float)[-FIT_POINTS:]
    if len(ls) < 2 or np.any(errors <= 0.0):
        return math.nan
    logl = np.log(ls)
    if np.ptp(logl) < 1e-12:  # degenerate schedule: no scale variation to fit
        return math.nan
    slope, _ = np.polyfit(logl, np.log(errors), 1)
    return float(slope)


def run_convergence(
    motif: Motif,
    pmap: ParametricMap,
    choice: UnitCellChoice,
    regime: Regime,
    schedule: Sequence[tuple[float, float]],
    grid: ObservationGrid,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    order_threshold: float = DEFAULT_ORDER_THRESHOLD,
) -> ConvergenceReport:
    """Compare the exact microscopic potentials along a schedule to the limit.

    The homogenized reference is computed once from the closed-form limit
    fields; the finest step's l fixes only the phase at which each domain
    edge cuts the lattice (see :func:`moment_fields`).
    """
    schedule = list(schedule)
    if not schedule:
        raise ValueError("empty schedule")
    finest = min(schedule, key=lambda lh: max(lh))
    fields = moment_fields(motif, choice, pmap, finest[0])
    homog = homogenized_potential(fields, regime, pmap, grid, tol, max_depth)

    steps: list[ConvergenceStep] = []
    micro_samples: list[FieldSample] = []
    for l, h in schedule:
        dist = realize(motif, tessellate(pmap.domain, l, choice), pmap, l, h, regime)
        # coarse steps sit inside the Taylor standoff on purpose (taylor_ok records it)
        sample = direct_potential(dist, grid, standoff_factor=0.0)
        diff = sample.values - homog.values
        steps.append(
            ConvergenceStep(
                l=l,
                h=h,
                err_max=float(np.max(np.abs(diff))),
                err_rms=float(np.sqrt(np.mean(diff**2))),
                taylor_ok=grid.standoff >= TAYLOR_STANDOFF * max(l, h),
            )
        )
        micro_samples.append(sample)

    p_hat = fit_order([s.l for s in steps], [s.err_max for s in steps])
    return ConvergenceReport(
        regime=regime,
        steps=steps,
        fitted_order=p_hat,
        homogenized=homog,
        micro=micro_samples,
        order_threshold=order_threshold,
    )


# ---------------------------------------------------------------------------
# gauge (unit-cell choice) study
# ---------------------------------------------------------------------------


def rebin_motif(
    motif: Motif,
    choice_a: UnitCellChoice,
    choice_b: UnitCellChoice,
    l: float,
) -> Motif:
    """Re-collect the periodic structure generated on choice A into B's cell.

    One array pass per B cell places every motif point of every A cell in
    the cell's bounding box, keeps those that :func:`cell_index` puts in the
    cell, and re-anchors their weights and modulations there (the catalog is
    closed under translation, so this is exact).  B cell (0, 0) is compared
    with (1, 0) and (0, 1), the two basis steps that generate B's lattice;
    raises ValueError if either collects a different motif, i.e. if the two
    choices are not commensurate.
    """

    def collect(b_index: tuple[int, int]) -> list[tuple[MotifPoint, ...]]:
        corner_b = choice_b.corner(b_index, l)
        coords = choice_a.basis_coords(corner_b + choice_b.planar(_UNIT_SQUARE, l), l)
        m_lo = np.floor(coords.min(axis=0)).astype(int) - 1
        m_hi = np.ceil(coords.max(axis=0)).astype(int) + 1
        m1, m2 = np.meshgrid(np.arange(m_lo[0], m_hi[0] + 1), np.arange(m_lo[1], m_hi[1] + 1), indexing="ij")
        corners = choice_a.corner(np.column_stack([m1.ravel(), m2.ravel()]), l)  # (K, 2)
        out = []
        for pts in (motif.points, motif.free_points):
            pos = corners[:, None] + choice_a.planar(np.array([pt.y for pt in pts], float).reshape(-1, 2), l)
            k, j = np.nonzero(np.all(cell_index(pos, l, choice_b) == b_index, axis=-1))
            y_new = choice_b.basis_coords(pos[k, j], l) - np.asarray(b_index, float)
            y_new = np.clip(y_new, 0.0, np.nextafter(1.0, 0.0))
            hits = [
                replace(pts[jj], y=tuple(y), modulation=pts[jj].modulation.shifted(corners[kk] - corner_b))
                for kk, jj, y in zip(k, j, y_new.tolist())
            ]
            out.append(tuple(sorted(hits, key=lambda p: (p.y[0], p.y[1], p.z, p.w))))
        return out

    ref = collect((0, 0))
    for step in ((1, 0), (0, 1)):
        for got, exp in zip(ref, collect(step)):
            got, exp = (np.array([p.y + (p.z, p.w) for p in g], float).reshape(-1, 4) for g in (got, exp))
            if got.shape != exp.shape or not np.allclose(got, exp, atol=1e-12, rtol=0.0):
                raise ValueError("unit-cell choices are not commensurate; cannot re-bin the motif")
    return Motif(points=ref[0], free_points=ref[1], free_charge_order=motif.free_charge_order)


@dataclass
class GaugeReport:
    moments_a: MomentTable
    moments_b: MomentTable
    field_a: FieldSample
    field_b: FieldSample
    max_moment_diff: float
    max_potential_diff: float
    atoms_consistent: bool


def _atoms_match(a: ScaledChargeDistribution, b: ScaledChargeDistribution, tol: float = 1e-12) -> bool:
    if a.n_charges != b.n_charges:
        return False
    if a.n_charges == 0:
        return True

    def sort_key(d):
        data = np.column_stack([d.positions, d.magnitudes])
        return data[np.lexsort(data.T[::-1])]

    return bool(np.allclose(sort_key(a), sort_key(b), atol=tol, rtol=0.0))


def run_gauge(
    motif: Motif,
    pmap: ParametricMap,
    choice_a: UnitCellChoice,
    choice_b: UnitCellChoice,
    l: float,
    h: float,
    regime: Regime,
    grid: ObservationGrid,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> GaugeReport:
    """Homogenized potentials from two unit-cell analyses of one structure.

    The physical atoms are generated once from the motif on choice A; choice
    B sees them through exact re-binning.  The report carries both per-cell
    moment tables (demonstrating that the moments differ) and both limit
    potentials on the grid (demonstrating that the potential does not).
    """
    if regime.kind == "R3":
        raise ValueError("the gauge study compares the R1/R2 limit forms")

    fields_a = moment_fields(motif, choice_a, pmap, l)
    field_a = homogenized_potential(fields_a, regime, pmap, grid, tol, max_depth)

    motif_b = rebin_motif(motif, choice_a, choice_b, l)
    fields_b = moment_fields(motif_b, choice_b, pmap, l)
    field_b = homogenized_potential(fields_b, regime, pmap, grid, tol, max_depth)

    tess_a = tessellate(pmap.domain, l, choice_a)
    tess_b = tessellate(pmap.domain, l, choice_b)

    atoms_ok = _atoms_match(
        realize(motif, tess_a, pmap, l, h, regime),
        realize(motif_b, tess_b, pmap, l, h, regime),
    )

    rows_a = moment_table(tess_a, motif, pmap)
    rows_b = moment_table(tess_b, motif_b, pmap)
    defined = ~np.isnan(rows_b.p_p[:, 0])  # full rows with a surface frame at the corner
    diffs = np.linalg.norm(fields_a.p_p(rows_b.corners[defined]) - rows_b.p_p[defined], axis=-1)
    max_moment = float(np.max(diffs, initial=0.0))
    max_potential = float(np.max(np.abs(field_a.values - field_b.values)))
    return GaugeReport(
        moments_a=rows_a,
        moments_b=rows_b,
        field_a=field_a,
        field_b=field_b,
        max_moment_diff=max_moment,
        max_potential_diff=max_potential,
        atoms_consistent=atoms_ok,
    )
