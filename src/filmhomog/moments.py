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
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .charge import Motif
from .geometry import ParametricMap, surface_frame
from .lattice import Tessellation


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Per-cell moments as columns, one row per cell of a tessellation.

    Rows follow the tessellation: full cells, then partial cells, each by
    ascending lattice index.  q, p_p and p3 are defined on full rows and
    sigma on partial rows; the other entries are NaN.
    """

    indices: np.ndarray  # (N, 2) int lattice indices
    corners: np.ndarray  # (N, 2)
    is_full: np.ndarray  # (N,) bool
    q: np.ndarray        # (N,)
    p_p: np.ndarray      # (N, 2) parameter components
    p3: np.ndarray       # (N,)
    sigma: np.ndarray    # (N,)
    j0: np.ndarray       # (N,) surface Jacobian at the corner

    def __len__(self) -> int:
        return len(self.indices)


def _j0_at(pmap: ParametricMap, x_p: np.ndarray) -> np.ndarray:
    return np.asarray(surface_frame(pmap, x_p).j0)


def _kept_sums(tess: Tessellation, motif: Motif, l: Optional[float], h: Optional[float]):
    """Per cell, sums of w, w * B y and w * z over the motif points it keeps.

    Weights are modulated at the cell corner; imbalance points enter, scaled
    by l^a h^b, only when (l, h) are given.  Sums run from +0.0 in motif
    declaration order.
    """
    entries = [(pt, 1.0) for pt in motif.points]
    if l is not None and h is not None:
        eps = motif.imbalance_factor(l, h)
        entries += [(pt, eps) for pt in motif.free_points]
    n = len(tess.corners)
    charge, p_p, p3 = np.zeros(n), np.zeros((n, 2)), np.zeros(n)
    for pt, scale in entries:
        _, kept = tess.place(pt.y)
        w = np.where(kept, scale * pt.weight_at(tess.corners), 0.0)
        charge += w
        p_p += w[:, None] * (tess.choice.basis @ np.asarray(pt.y, float))
        p3 += w * pt.z
    return charge, p_p, p3


def moment_table(
    tess: Tessellation,
    motif: Motif,
    pmap: ParametricMap,
    l: Optional[float] = None,
    h: Optional[float] = None,
) -> MomentTable:
    """Moments for every cell: q/p on full cells, sigma on partial cells.

    Without (l, h) the rows carry the limit values (imbalance enters q only,
    through its stated order).
    """
    j0 = _j0_at(pmap, tess.corners)
    charge, p_p, p3 = _kept_sums(tess, motif, l, h)
    if l is not None and h is not None:
        a, b = motif.free_charge_order
        q = charge / (l**a * h**b * j0)
    else:
        # limit value: only the imbalance part survives the normalization
        q = sum((pt.weight_at(tess.corners) for pt in motif.free_points), np.zeros(len(j0))) / j0
    full = np.arange(len(j0)) < tess.n_full
    return MomentTable(
        indices=tess.indices,
        corners=tess.corners,
        is_full=full,
        q=np.where(full, q, np.nan),
        p_p=np.where(full[:, None], p_p / j0[:, None], np.nan),
        p3=np.where(full, p3 / j0, np.nan),
        sigma=np.where(full, np.nan, charge / j0),
        j0=j0,
    )


# ---------------------------------------------------------------------------
# continuum fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentFields:
    """Closed-form continuum moment fields plus the boundary charge.

    The *_weighted callables are premultiplied by J0 (exact catalog sums with
    no Jacobian in them); :meth:`p_p` divides by J0 of the supplied map.
    ``boundary_charge`` maps each edge name to the limit boundary density as
    a step function over the whole edge: increasing break points (k + 1,),
    from ``s_range[0]`` to ``s_range[1]``, and the value on each piece (k,).
    """

    pmap: ParametricMap
    charge_weighted: Callable[[np.ndarray], np.ndarray]
    pol_planar_weighted: Callable[[np.ndarray], np.ndarray]
    pol_normal_weighted: Callable[[np.ndarray], np.ndarray]
    div_pol_planar_weighted: Callable[[np.ndarray], np.ndarray]
    boundary_charge: dict  # edge name -> (break points, values)

    def p_p(self, x_p: np.ndarray) -> np.ndarray:
        return self.pol_planar_weighted(x_p) / _j0_at(self.pmap, x_p)[..., None]


def _step_function(spans, s_range, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Break points over all of ``s_range`` and piece values, from an edge's sorted (s_lo, s_hi, value) spans.

    A gap wider than ``tol`` between spans carries 0; a narrower gap or
    overlap (roundoff between two cells' clip polygons) closes at the later
    span's start; neighbours with exactly equal values merge.
    """
    lo, hi = s_range
    pieces, end = [], lo  # (start, value), gaps included
    for a, b, v in spans:
        if a - end > tol:
            pieces.append((end, 0.0))
        pieces.append((a, v))
        end = b
    if hi - end > tol:
        pieces.append((end, 0.0))
    starts, values = np.array(pieces).T
    new = np.r_[True, values[1:] != values[:-1]]
    return np.r_[lo, starts[new][1:], hi], values[new]


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
    same edge; the spans then become one step function per edge.
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

    charge, _, _ = _kept_sums(tess, motif, None, None)
    n_full = tess.n_full
    sigma = np.r_[np.zeros(n_full), charge[n_full:] / _j0_at(pmap, tess.corners[n_full:])]
    edges = tess.domain.edges()
    edge_spans = [tess.boundary_spans(edge) for edge in edges]
    # a cell covering positive length of two or more edges straddles a corner
    edges_covered = Counter(row for spans in edge_spans for _, _, row in spans)
    boundary_charge = {}
    for edge, spans in zip(edges, edge_spans):
        values = [float(sigma[row]) for _, _, row in spans]
        mids = [0.5 * (a + b) for a, b, _ in spans]
        interior = [k for k, (_, _, row) in enumerate(spans) if edges_covered[row] < 2]
        for k, (_, _, row) in enumerate(spans):
            if edges_covered[row] >= 2 and interior:
                values[k] = values[min(interior, key=lambda j: abs(mids[j] - mids[k]))]
        steps = [(a, b, v) for (a, b, _), v in zip(spans, values)]
        boundary_charge[edge.name] = _step_function(steps, edge.s_range, tess.tol)

    return MomentFields(
        pmap=pmap,
        charge_weighted=charge_weighted,
        pol_planar_weighted=pol_planar_weighted,
        pol_normal_weighted=pol_normal_weighted,
        div_pol_planar_weighted=div_pol_planar_weighted,
        boundary_charge=boundary_charge,
    )


def moments_to_csv(table: MomentTable, fileobj, comment: Optional[str] = None) -> None:
    """Write a moment table as CSV (empty fields where a moment is undefined)."""
    if comment:
        fileobj.write(f"# {comment}\n")
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["index1", "index2", "corner_x1", "corner_x2", "kind", "q", "p_p1", "p_p2", "p3", "sigma"])
    for k in range(len(table)):
        full = bool(table.is_full[k])
        on_full = [table.q[k], table.p_p[k, 0], table.p_p[k, 1], table.p3[k]]
        writer.writerow(
            [int(m) for m in table.indices[k]]
            + [repr(float(x)) for x in table.corners[k]]
            + ["full" if full else "partial"]
            + [repr(float(x)) if full else "" for x in on_full]
            + ["" if full else repr(float(table.sigma[k]))]
        )
