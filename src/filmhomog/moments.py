"""Per-cell homogenized descriptors: free charge, polarization, boundary charge.

With atomic motifs every moment is an exact finite sum over the cell's
points, weighted by the modulation at the cell corner and normalized by the
surface Jacobian at the same corner:

    q     = sum(w) / (l^a h^b J0)        full cells, free charge of order (a, b)
    p_p   = sum(w * y_param) / J0        planar polarization, parameter components
    p_3   = sum(w * z) / J0              normal polarization
    sigma = sum(w over clipped part)/J0  partial cells only

The continuum fields returned by :func:`moment_fields` are the l -> 0 limits
of these sums; they come J0-premultiplied as well (the form every
homogenized integral actually consumes), so no Jacobian division appears in
the quadrature path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .charge import Motif
from .geometry import ParametricMap, surface_divergence_term, surface_frame
from .lattice import Cell, Tessellation, UnitCellChoice


@dataclass(frozen=True)
class CellMoments:
    """Moment row for one cell; sigma is None on full cells."""

    index: tuple[int, int]
    corner: np.ndarray
    is_full: bool
    q: Optional[float]
    p_p: Optional[np.ndarray]
    p3: Optional[float]
    sigma: Optional[float]
    j0: float


def _j0_at(pmap: ParametricMap, x_p: np.ndarray) -> np.ndarray:
    return np.asarray(surface_frame(pmap, x_p).j0)


def _cell_weights(motif: Motif, corner: np.ndarray, l: Optional[float], h: Optional[float]):
    """(weight, y, z) triples at a corner; imbalance included only with (l, h)."""
    out = [(float(pt.weight_at(corner)), pt.y, pt.z) for pt in motif.points]
    if l is not None and h is not None and motif.free_points:
        eps = motif.imbalance_factor(l, h)
        out += [(eps * float(pt.weight_at(corner)), pt.y, pt.z) for pt in motif.free_points]
    return out


def cell_free_charge(
    cell: Cell,
    motif: Motif,
    pmap: ParametricMap,
    order: tuple[int, int],
    l: float,
    h: float,
) -> float:
    """Net cell charge normalized by l^a h^b and the corner Jacobian."""
    if not cell.is_full:
        raise ValueError("free charge is defined on full cells")
    a, b = order
    total = sum(w for w, _, _ in _cell_weights(motif, cell.corner, l, h))
    return total / (l**a * h**b * float(_j0_at(pmap, cell.corner)))


def cell_polarization(
    cell: Cell,
    motif: Motif,
    pmap: ParametricMap,
    choice: UnitCellChoice,
    l: Optional[float] = None,
    h: Optional[float] = None,
) -> tuple[np.ndarray, float]:
    """First in-plane and out-of-plane moments of the cell's reference charge.

    y enters in parameter components (basis matrix applied), measured from
    the cell corner.  Independent of the regime prefactor by construction.
    """
    if not cell.is_full:
        raise ValueError("polarization is defined on full cells")
    j0 = float(_j0_at(pmap, cell.corner))
    B = choice.basis
    p_p = np.zeros(2)
    p3 = 0.0
    for w, y, z in _cell_weights(motif, cell.corner, l, h):
        p_p += w * (B @ np.asarray(y, float))
        p3 += w * z
    return p_p / j0, p3 / j0


def partial_cell_sigma(
    cell: Cell,
    motif: Motif,
    tess: Tessellation,
    pmap: ParametricMap,
    l: Optional[float] = None,
    h: Optional[float] = None,
) -> float:
    """Boundary charge of a partial cell: weights of points kept by the clip."""
    if cell.is_full:
        raise ValueError("sigma is defined on partial cells")
    B = tess.choice.basis
    keep_tol = 1e-12 * max(1.0, tess.domain.diameter)
    total = 0.0
    for w, y, z in _cell_weights(motif, cell.corner, l, h):
        planar = cell.corner + tess.l * (B @ np.asarray(y, float))
        if bool(tess.domain.contains(planar, tol=keep_tol)):
            total += w
    return total / float(_j0_at(pmap, cell.corner))


def moment_table(
    tess: Tessellation,
    motif: Motif,
    pmap: ParametricMap,
    order: Optional[tuple[int, int]] = None,
    l: Optional[float] = None,
    h: Optional[float] = None,
) -> list[CellMoments]:
    """Moments for every cell: q/p on full cells, sigma on partial cells.

    Without (l, h) the rows carry the limit values (imbalance enters q only,
    through its stated order).
    """
    order = order if order is not None else motif.free_charge_order
    rows = []
    for cell in tess.full_cells:
        j0 = float(_j0_at(pmap, cell.corner))
        if l is not None and h is not None:
            q = cell_free_charge(cell, motif, pmap, order, l, h)
        else:
            # limit value: only the imbalance part survives the normalization
            q = sum(float(pt.weight_at(cell.corner)) for pt in motif.free_points) / j0
        p_p, p3 = cell_polarization(cell, motif, pmap, tess.choice, l, h)
        rows.append(CellMoments(cell.index, cell.corner, True, q, p_p, p3, None, j0))
    for cell in tess.partial_cells:
        j0 = float(_j0_at(pmap, cell.corner))
        sigma = partial_cell_sigma(cell, motif, tess, pmap, l, h)
        rows.append(CellMoments(cell.index, cell.corner, False, None, None, None, sigma, j0))
    return rows


# ---------------------------------------------------------------------------
# continuum fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaSegment:
    """Piece of a domain edge carrying a constant limit boundary charge."""

    s_lo: float
    s_hi: float
    value: float


@dataclass(frozen=True)
class MomentFields:
    """Closed-form continuum moment fields plus boundary-charge segment data.

    The *_weighted callables are premultiplied by J0 (exact catalog sums with
    no Jacobian in them); the plain q/p_p/p3 accessors divide by J0 of the
    supplied map.  ``sigma_segments`` holds the limit boundary density used
    by the homogenized boundary integral (corner-cell spans inherit their
    edge's nearest interior value).
    """

    pmap: ParametricMap
    charge_weighted: Callable[[np.ndarray], np.ndarray]
    pol_planar_weighted: Callable[[np.ndarray], np.ndarray]
    pol_normal_weighted: Callable[[np.ndarray], np.ndarray]
    div_pol_planar_weighted: Callable[[np.ndarray], np.ndarray]
    sigma_segments: dict

    def q(self, x_p: np.ndarray) -> np.ndarray:
        return self.charge_weighted(x_p) / _j0_at(self.pmap, x_p)

    def p_p(self, x_p: np.ndarray) -> np.ndarray:
        return self.pol_planar_weighted(x_p) / _j0_at(self.pmap, x_p)[..., None]

    def p3(self, x_p: np.ndarray) -> np.ndarray:
        return self.pol_normal_weighted(x_p) / _j0_at(self.pmap, x_p)


def moment_fields(
    tess: Tessellation,
    motif: Motif,
    pmap: ParametricMap,
) -> MomentFields:
    """Continuum limit of the per-cell moments for catalog-modulated motifs.

    Bulk fields are closed forms (moments are linear in the weights, and the
    catalog is differentiable in closed form).  The boundary charge density
    is assembled from the tessellation's partial cells: each edge is split
    into the spans its cells cover; spans of corner-straddling cells, whose
    weight vanishes in the limit, inherit the nearest interior value of the
    same edge.
    """
    B = tess.choice.basis
    y_param = [B @ np.asarray(pt.y, float) for pt in motif.points]

    def charge_weighted(x_p):
        x_p = np.asarray(x_p, float)
        total = np.zeros(x_p.shape[:-1])
        for pt in motif.free_points:
            total = total + pt.w * pt.modulation(x_p)
        return total

    def pol_planar_weighted(x_p):
        x_p = np.asarray(x_p, float)
        total = np.zeros(x_p.shape[:-1] + (2,))
        for pt, yv in zip(motif.points, y_param):
            total = total + (pt.w * pt.modulation(x_p))[..., None] * yv
        return total

    def pol_normal_weighted(x_p):
        x_p = np.asarray(x_p, float)
        total = np.zeros(x_p.shape[:-1])
        for pt in motif.points:
            total = total + pt.w * pt.modulation(x_p) * pt.z
        return total

    def div_pol_planar_weighted(x_p):
        x_p = np.asarray(x_p, float)
        total = np.zeros(x_p.shape[:-1])
        for pt, yv in zip(motif.points, y_param):
            total = total + pt.w * (pt.modulation.gradient(x_p) @ yv)
        return total

    corrected: dict = {}
    corner_idx = tess.corner_touching_indices()
    for edge in tess.domain.edges():
        spans = []
        for s_lo, s_hi, cell in tess.boundary_spans(edge):
            value = 0.0 if cell.is_full else partial_cell_sigma(cell, motif, tess, pmap)
            spans.append((s_lo, s_hi, value, cell.index in corner_idx))
        interior = [(a, b, v) for a, b, v, is_corner in spans if not is_corner]
        fixed = []
        for a, b, v, is_corner in spans:
            if is_corner and interior:
                mid = 0.5 * (a + b)
                _, _, v = min(interior, key=lambda t: abs(0.5 * (t[0] + t[1]) - mid))
            fixed.append(SigmaSegment(a, b, v))
        corrected[edge.name] = fixed

    return MomentFields(
        pmap=pmap,
        charge_weighted=charge_weighted,
        pol_planar_weighted=pol_planar_weighted,
        pol_normal_weighted=pol_normal_weighted,
        div_pol_planar_weighted=div_pol_planar_weighted,
        sigma_segments=corrected,
    )


def prescribed_fields(
    pmap: ParametricMap,
    q: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    p_p: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    p3: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    sigma_segments: Optional[dict] = None,
    div_step: Optional[float] = None,
) -> MomentFields:
    """Moment fields from raw callables instead of a motif and tessellation.

    ``q``, ``p3`` map (..., 2) parameter points to scalars, ``p_p`` to planar
    vectors, all in the un-weighted (per-area) normalization; the Jacobian
    factor is applied here.  The bound-charge divergence of a prescribed
    planar polarization is central-differenced by ``surface_divergence_term``
    (default step 1e-5 * diam(T)).
    """

    def zero_scalar(x_p):
        return np.zeros(np.asarray(x_p, float).shape[:-1])

    def weighted_scalar(fn):
        def inner(x_p):
            return fn(x_p) * _j0_at(pmap, x_p)

        return inner

    def pol_planar_weighted(x_p):
        x_p = np.asarray(x_p, float)
        if p_p is None:
            return np.zeros(x_p.shape[:-1] + (2,))
        return np.asarray(p_p(x_p), float) * _j0_at(pmap, x_p)[..., None]

    def div_pol_planar_weighted(x_p):
        if p_p is None:
            return zero_scalar(x_p)
        return surface_divergence_term(pmap, p_p, x_p, step=div_step) * _j0_at(pmap, x_p)

    edge_names = [e.name for e in pmap.domain.edges()]
    segments = sigma_segments if sigma_segments is not None else {name: [] for name in edge_names}
    return MomentFields(
        pmap=pmap,
        charge_weighted=weighted_scalar(q) if q is not None else zero_scalar,
        pol_planar_weighted=pol_planar_weighted,
        pol_normal_weighted=weighted_scalar(p3) if p3 is not None else zero_scalar,
        div_pol_planar_weighted=div_pol_planar_weighted,
        sigma_segments=segments,
    )


def moments_to_csv(rows: list[CellMoments], fileobj, comment: Optional[str] = None) -> None:
    """Write a moment table as CSV (empty fields where a moment is undefined)."""
    if comment:
        fileobj.write(f"# {comment}\n")
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["index1", "index2", "corner_x1", "corner_x2", "kind", "q", "p_p1", "p_p2", "p3", "sigma"])
    for row in rows:
        writer.writerow(
            [
                row.index[0],
                row.index[1],
                repr(float(row.corner[0])),
                repr(float(row.corner[1])),
                "full" if row.is_full else "partial",
                repr(row.q) if row.q is not None else "",
                repr(float(row.p_p[0])) if row.p_p is not None else "",
                repr(float(row.p_p[1])) if row.p_p is not None else "",
                repr(row.p3) if row.p3 is not None else "",
                repr(row.sigma) if row.sigma is not None else "",
            ]
        )
