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
phi_k), so each field is a fixed weight vector against [1, x, sin Theta]
(cos Theta for the bound-charge divergence), Theta = x C^T + phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

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
    j0 = _j0_at(pmap, _norm_points(tess))
    norm = j0 * tess.choice.cell_area
    charge, p_p, p3 = _kept_sums(tess, motif, l, h)
    if l is not None and h is not None:
        a, b = motif.free_charge_order
        q = charge / (l**a * h**b * norm)
    else:
        # limit value: only the imbalance part survives the normalization
        q = sum((pt.weight_at(tess.corners) for pt in motif.free_points), np.zeros(len(j0))) / norm
    full = np.arange(len(j0)) < tess.n_full
    return MomentTable(
        indices=tess.indices,
        corners=tess.corners,
        is_full=full,
        q=np.where(full, q, np.nan),
        p_p=np.where(full[:, None], p_p / norm[:, None], np.nan),
        p3=np.where(full, p3 / norm, np.nan),
        sigma=np.where(full, np.nan, charge / j0),
    )


# ---------------------------------------------------------------------------
# continuum fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentFields:
    """Closed-form continuum moment fields plus the boundary charge.

    The *_weighted callables are premultiplied by J0 (exact catalog sums with
    no Jacobian in them); :meth:`p_p` divides by J0 of the supplied map
    (NaN where the map has no frame).
    ``boundary_charge`` maps each edge name to its limit line density per
    unit parameter length, a callable on parameter points (..., 2) like the
    bulk fields.  ``has_free_charge`` is False when ``charge_weighted`` is
    identically zero (a motif with no free points), ``has_bound_charge``
    when ``div_pol_planar_weighted`` is (every weight of its catalog is 0,
    e.g. constant-weight motifs), and ``has_normal_moment`` when
    ``pol_normal_weighted`` is (every motif point has w z = 0, e.g. all on
    the mid-surface).  ``catalogs`` holds the catalog rows, weights and trig
    of the bulk fields :func:`moment_fields` builds, for :meth:`folded`.
    """

    pmap: ParametricMap
    charge_weighted: Callable[[np.ndarray], np.ndarray]
    pol_planar_weighted: Callable[[np.ndarray], np.ndarray]
    pol_normal_weighted: Callable[[np.ndarray], np.ndarray]
    div_pol_planar_weighted: Callable[[np.ndarray], np.ndarray]
    boundary_charge: dict  # edge name -> line density callable
    has_free_charge: bool
    has_bound_charge: bool
    has_normal_moment: bool
    catalogs: dict = field(default_factory=dict, repr=False)  # bulk field name -> (rows, weights, trig)

    def p_p(self, x_p: np.ndarray) -> np.ndarray:
        return self.pol_planar_weighted(x_p) / _j0_at(self.pmap, x_p)[..., None]

    def folded(self, name: str, factor: float) -> Callable[[np.ndarray], np.ndarray]:
        """x -> ``factor`` times the bulk field ``name`` at x.

        A catalog field folds ``factor`` into its weights, so a call is one
        catalog evaluation; its values equal the field's times ``factor``
        bitwise when the factor is a power of two.  Otherwise they differ by
        a few ulp of the terms' scale: in the bulk integrand at alpha = 0.7,
        2.0 ulp measured on the tests' five fixed panels and 3.0 on random
        sub-boxes, where the tests allow 4.  Other callables are evaluated,
        then scaled.
        """
        if name in self.catalogs:
            rows, weights, trig = self.catalogs[name]
            return _catalog_field(rows, factor * weights, trig)
        bulk = getattr(self, name)
        return lambda x_p: factor * bulk(x_p)


def _catalog(points) -> np.ndarray:
    """Rows (a, b1, b2, v, c1, c2, phi) of m_k(x) = a_k + b_k.x + v_k sin(c_k.x + phi_k), one per point."""
    rows = np.zeros((len(points), 7))
    for row, m in zip(rows, (pt.modulation for pt in points)):
        if m.kind == "sinusoid":
            row[3:] = (m.value, *m.coef, m.phase)
        else:
            row[:3] = (m.value, *(m.coef if m.kind == "linear" else (0.0, 0.0)))
    return rows


def _catalog_field(rows: np.ndarray, weights: np.ndarray, trig=np.sin) -> Callable[[np.ndarray], np.ndarray]:
    """x -> sum_k weights_k (a_k + b_k.x + v_k trig(Theta_k)), Theta = x C^T + phi,
    for catalog ``rows`` (K, 7) and weights (K,) or (K, 2): one fixed weight
    vector against [1, x, trig Theta], so one small matmul and one trig per call.

    The linear term x.lin is left out when lin is all zero (always for the
    bound-charge divergence) and the constant when it is 0 (sinusoids
    only): adding them would change no value but the sign of a zero sum."""
    const, lin, amp = rows[:, 0] @ weights, rows[:, 1:3].T @ weights, (rows[:, 3] * weights.T).T
    freq, phase = rows[:, 4:6].T, rows[:, 6]
    has_lin, has_const = bool(np.any(lin != 0.0)), bool(np.any(const != 0.0))

    def at(x_p):
        x = np.asarray(x_p, float)
        theta = x @ freq
        theta += phase
        value = trig(theta, out=theta) @ amp
        if has_lin:
            value += x @ lin
        if has_const:
            value += const
        return value

    return at


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
        boundary_charge[edge.name] = _catalog_field(rows, counts * w / period)
    free = motif.free_points
    normal = w * np.array([pt.z for pt in motif.points], float)
    catalogs = {
        "charge_weighted": (_catalog(free), np.array([pt.w for pt in free], float) / area, np.sin),
        "pol_planar_weighted": (rows, w[:, None] * arms / area, np.sin),
        "pol_normal_weighted": (rows, normal / area, np.sin),
        "div_pol_planar_weighted": (slopes, w / area, np.cos),
    }
    return MomentFields(
        pmap=pmap,
        **{name: _catalog_field(*catalog) for name, catalog in catalogs.items()},
        boundary_charge=boundary_charge,
        has_free_charge=bool(free),
        has_bound_charge=bool(np.any(slopes[:, :4] * (w / area)[:, None] != 0.0)),
        has_normal_moment=bool(np.any(normal != 0.0)),
        catalogs=catalogs,
    )
