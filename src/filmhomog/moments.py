"""Per-cell homogenized descriptors: free charge, polarization, boundary charge.

With atomic motifs every moment is an exact finite sum over the cell's
points, weighted by the modulation at the cell corner and normalized by the
cell area |det B| and the surface Jacobian J0, at the same corner on full
cells and, on partial cells, at the centre of the cell's bounding box
clipped to T (a partial cell's corner often lies outside T):

    q     = sum(w) / (l^a h^b |det B| J0)   full cells, free charge of order (a, b)
    p_p   = sum(w * y_param) / (|det B| J0) planar polarization, parameter components
    p_3   = sum(w * z) / (|det B| J0)       normal polarization
    sigma = sum(w over clipped part) / J0   partial cells only

The continuum fields returned by :func:`moment_fields` are the l -> 0 limits
of these sums; they come J0-premultiplied as well (the form every
homogenized integral actually consumes), so no Jacobian division appears in
the quadrature path.  The limit boundary charge is a line density per unit
parameter length along each edge, the period average of the straddling
cells' kept charge (see :func:`filmhomog.lattice.edge_counts`); it carries
no J0 and needs no tessellation.

Every catalog modulation is one row m_k(x) = a_k + b_k.x + v_k sin(c_k.x +
phi_k), so each field is a :class:`Catalog`, a fixed weight vector against
[1, x, sin Theta] (cos Theta for the bound-charge divergence), Theta = x C^T + phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charge import Motif
from .geometry import ParametricMap, _tangent_cross
from .lattice import _UNIT_SQUARE, Tessellation, UnitCellChoice, containment_tol, edge_counts


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Per-cell moments as columns, one row per cell of a tessellation.

    Rows follow the tessellation: full cells, then partial cells, each by
    ascending lattice index.  q, p_p and p3 (per unit area) are defined on
    full rows and sigma on partial rows; the other entries are NaN, and so
    are all four on rows with no surface frame where they are normalized
    (parallel tangents, e.g. on the axis of a polar disk).
    """

    indices: np.ndarray  # (N, 2) int lattice indices
    corners: np.ndarray  # (N, 2)
    is_full: np.ndarray  # (N,) bool
    q: np.ndarray        # (N,)
    p_p: np.ndarray      # (N, 2) parameter components
    p3: np.ndarray       # (N,)
    sigma: np.ndarray    # (N,)

    def __len__(self) -> int:
        return len(self.indices)


def _j0_at(pmap: ParametricMap, x_p: np.ndarray) -> np.ndarray:
    """J0 at x_p, NaN where the tangents are parallel (moments undefined there)."""
    *_, j0, degenerate = _tangent_cross(pmap, x_p)
    return np.where(degenerate, np.nan, j0)


def _norm_points(tess: Tessellation) -> np.ndarray:
    """Where each row is normalized by J0: a full cell at its corner, a partial
    cell at the centre of its bounding box clipped to T (its corner often
    lies outside T)."""
    offsets = tess.choice.planar(_UNIT_SQUARE, tess.l)
    part = tess.corners[tess.n_full :]
    lo = np.maximum(part + offsets.min(axis=0), tess.domain.lo)
    hi = np.minimum(part + offsets.max(axis=0), tess.domain.hi)
    return np.concatenate([tess.corners[: tess.n_full], 0.5 * (lo + hi)])


def _kept_sums(tess: Tessellation, motif: Motif, eps: float):
    """Per cell, sums of w, w * B y and w * z over the motif points it keeps.

    Weights are modulated at the cell corner; imbalance points enter scaled
    by ``eps`` = l^a h^b.  Sums run from +0.0 in motif declaration order.
    """
    entries = [(pt, 1.0) for pt in motif.points] + [(pt, eps) for pt in motif.free_points]
    n = len(tess.corners)
    charge, p_p, p3 = np.zeros(n), np.zeros((n, 2)), np.zeros(n)
    for pt, scale in entries:
        _, kept = tess.place(pt.y)
        w = np.where(kept, scale * pt.weight_at(tess.corners), 0.0)
        charge += w
        p_p += w[:, None] * (tess.choice.basis @ np.asarray(pt.y, float))
        p3 += w * pt.z
    return charge, p_p, p3


def moment_table(tess: Tessellation, motif: Motif, pmap: ParametricMap, h: float) -> MomentTable:
    """Moments of the lattice at (tess.l, h) for every cell: q/p on full
    cells, sigma on partial cells."""
    j0 = _j0_at(pmap, _norm_points(tess))
    norm = j0 * tess.choice.cell_area
    eps = motif.imbalance_factor(tess.l, h)
    charge, p_p, p3 = _kept_sums(tess, motif, eps)
    full = np.arange(len(j0)) < tess.n_full
    return MomentTable(
        indices=tess.indices,
        corners=tess.corners,
        is_full=full,
        q=np.where(full, charge / (eps * norm), np.nan),
        p_p=np.where(full[:, None], p_p / norm[:, None], np.nan),
        p3=np.where(full, p3 / norm, np.nan),
        sigma=np.where(full, np.nan, charge / j0),
    )


# ---------------------------------------------------------------------------
# continuum fields
# ---------------------------------------------------------------------------


class Catalog:
    """x -> sum_k weights_k (a_k + b_k.x + v_k trig(Theta_k)), Theta = x C^T + phi,
    for catalog ``rows`` (K, 7) and weights (K,) or (K, 2): one fixed weight
    vector against [1, x, trig Theta], so one small matmul and one trig per call.

    The linear term x.lin is left out when lin is all zero (always for the
    bound-charge divergence) and the constant when it is 0 (sinusoids
    only): adding them would change no value but the sign of a zero sum.
    """

    def __init__(self, rows: np.ndarray, weights: np.ndarray, trig=np.sin):
        self.rows, self.weights, self.trig = rows, weights, trig
        self._const, self._lin = rows[:, 0] @ weights, rows[:, 1:3].T @ weights
        self._amp, self._freq, self._phase = (rows[:, 3] * weights.T).T, rows[:, 4:6].T, rows[:, 6]
        self._has_lin, self._has_const = bool(np.any(self._lin != 0.0)), bool(np.any(self._const != 0.0))

    def __call__(self, x_p: np.ndarray) -> np.ndarray:
        x = np.asarray(x_p, float)
        theta = x @ self._freq
        theta += self._phase
        value = self.trig(theta, out=theta) @ self._amp
        if self._has_lin:
            value += x @ self._lin
        if self._has_const:
            value += self._const
        return value

    @property
    def is_zero(self) -> bool:
        """True when no row has both a non-zero weight and a non-zero
        coefficient (a, b1, b2 or v): the field is then identically zero."""
        live = np.any(self.rows[:, :4] != 0.0, axis=1)
        return not np.any(self.weights[live] != 0.0)


@dataclass(frozen=True)
class MomentFields:
    """Closed-form continuum moment fields plus the boundary charge.

    Every field is a :class:`Catalog`.  The *_weighted fields are
    premultiplied by J0 (exact catalog sums with no Jacobian in them).
    ``boundary_charge`` maps each edge name to its limit line density per
    unit parameter length, a field on parameter points (..., 2) like the
    bulk fields.  A field whose :attr:`Catalog.is_zero` holds (e.g. no free
    points, constant weights for the bound-charge divergence, w z = 0 on
    every point for the normal moment) is skipped by the limit.
    """

    charge_weighted: Catalog
    pol_planar_weighted: Catalog
    pol_normal_weighted: Catalog
    div_pol_planar_weighted: Catalog
    boundary_charge: dict  # edge name -> line density Catalog


def _catalog(points) -> np.ndarray:
    """Rows (a, b1, b2, v, c1, c2, phi) of m_k(x) = a_k + b_k.x + v_k sin(c_k.x + phi_k), one per point."""
    rows = np.zeros((len(points), 7))
    for row, m in zip(rows, (pt.modulation for pt in points)):
        if m.kind == "sinusoid":
            row[3:] = (m.value, *m.coef, m.phase)
        else:
            row[:3] = (m.value, *(m.coef if m.kind == "linear" else (0.0, 0.0)))
    return rows


def moment_fields(motif: Motif, choice: UnitCellChoice, pmap: ParametricMap, l: float) -> MomentFields:
    """Continuum limit of the per-cell moments for catalog-modulated motifs.

    Bulk fields are closed forms per unit area (moments are linear in the
    weights, and the catalog is differentiable in closed form).  Each edge's
    boundary charge is the line density sum_k n_k w_k m_k(x) / P, with the
    edge's lattice period P and the counts n_k of :func:`edge_counts`.  ``l``
    sets only the phase at which an edge cuts the lattice.  Raises ValueError
    for an edge with no lattice period.  No field loops over points.
    """
    area, rows = choice.cell_area, _catalog(motif.points)
    w = np.array([pt.w for pt in motif.points], float)
    arms = np.array([pt.y for pt in motif.points], float).reshape(-1, 2) @ choice.basis.T  # B y_k
    # grad m_k . B y_k = b_k . B y_k + v_k (c_k . B y_k) cos Theta_k: the same form, with cos
    slopes = rows.copy()
    slopes[:, 0], slopes[:, 1:3] = np.sum(rows[:, 1:3] * arms, axis=1), 0.0
    slopes[:, 3] *= np.sum(rows[:, 4:6] * arms, axis=1)
    tol = containment_tol(pmap.domain)
    boundary_charge = {}
    for edge in pmap.domain.edges():
        counts, period = edge_counts(edge, [pt.y for pt in motif.points], l, choice, tol)
        boundary_charge[edge.name] = Catalog(rows, counts * w / period)
    return MomentFields(
        charge_weighted=Catalog(_catalog(motif.free_points), np.array([p.w for p in motif.free_points], float) / area),
        pol_planar_weighted=Catalog(rows, w[:, None] * arms / area),
        pol_normal_weighted=Catalog(rows, w * np.array([pt.z for pt in motif.points], float) / area),
        div_pol_planar_weighted=Catalog(slopes, w / area, np.cos),
        boundary_charge=boundary_charge,
    )
