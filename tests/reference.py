"""Independent references that tests compare the library against.

Nothing here is part of filmhomog: these are the closed-form checks and
brute-force constructions the acceptance criteria and unit tests use.

- ``finite_t_double_layer``: two charged sheets a distance t apart, which
  converge to the double layer at first order in t.
- ``jacobian_full``: the volume Jacobian of a map from its differential,
  raising ``NonPositiveJacobian`` where it is not positive.
- ``sample``: uniform random points of a parameter rectangle.
- ``prescribed_fields``: moment fields from raw callables instead of a motif,
  with the bound-charge divergence differenced centrally, each wrapped in a
  ``RawField`` that states whether it is zero.
- ``modulation_gradient``: the analytic planar gradient of a weight
  modulation.
- ``loop_fields``: the limit moment fields as one loop over motif points,
  each point's term summed in declaration order, which the catalog form of
  ``moment_fields`` must reproduce.
- ``clip_polygon_to_rectangle`` / ``polygon_area`` / ``loop_tessellation``:
  the tessellation as one scalar Sutherland-Hodgman clip per boundary cell,
  kept above an area floor, whose cells the separating-axis test of
  ``tessellate`` must reproduce.
- ``loop_rebin``: the re-binned motif of a second unit-cell choice, one
  ``cell_index`` call per A cell and motif point, which the array pass of
  ``rebin_motif`` must reproduce.
- ``covered_area``: the area the cells of a tessellation cover, each
  partial cell clipped by ``clip_polygon_to_rectangle``.
- ``edge_line_charge``: an edge's boundary line density read off the partial
  cells of a tessellation, which the closed form must reproduce.
- ``fsum_potential``: the exactly rounded Green's sum, one ``math.fsum`` per
  observation point.
- ``unfolded_bulk_integrand`` / ``unfolded_edge_integrand``: the panel
  integrands of ``homogenized_potential`` with every density evaluated from
  the public field callables and then scaled by its regime weight, one
  kernel per integrand, which the library's shared kernel must reproduce
  byte for byte.
- ``per_panel_estimates``: the one-shot Gauss estimate of each box, its
  weighted values summed over the nodes by halving, one box and one
  integrand call at a time, which the quadrature's stacked reduction must
  reproduce byte for byte for any column subset.
- ``recursive_rectangle`` / ``recursive_segment``: adaptive Gauss quadrature
  that splits every box whose error is above its share tol / 2^depth, depth
  first.  Run on one value column alone, it splits every box that the
  engine splits for that column, and its value is bitwise the engine's
  wherever the two trees of that column coincide.
"""

import math
from functools import reduce
from operator import add
from typing import Callable, Optional

import numpy as np

from filmhomog import (
    FieldSample,
    Modulation,
    MomentFields,
    Motif,
    MotifPoint,
    ObservationGrid,
    ParametricMap,
    QuadratureNotConverged,
    ScaledChargeDistribution,
    StandoffViolation,
    Tessellation,
    surface_frame,
)
from filmhomog.geometry import Edge, Rectangle
from filmhomog.lattice import UnitCellChoice, cell_index, containment_tol, edge_counts
from filmhomog.moments import _j0_at
from filmhomog.potential import _kernel
from filmhomog.quadrature import _RULES, DEFAULT_MAX_DEPTH, DEFAULT_TOL, adaptive_rectangle

_JACOBIAN_FLOOR = 1e-14
_DIV_STEP_REL = 1e-5  # surface-divergence difference step relative to domain diameter


class NonPositiveJacobian(ValueError):
    """A volume Jacobian evaluated to <= 1e-14."""


def sample(rect: Rectangle, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` uniform random points (n, 2) of the rectangle."""
    return rng.uniform(rect.lo, rect.hi, size=(n, 2))


def finite_t_double_layer(
    sigma_field: Callable[[np.ndarray], np.ndarray],
    pmap: ParametricMap,
    t: float,
    grid: ObservationGrid,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> FieldSample:
    """Two charged sheets a distance t apart, approaching the dipole limit.

    Phi_t(r) = (1/t) INT_T [G(r, psi0(x)) - G(r, psi0(x) - t nu(x))]
               * sigma(x) J0(x) dx

    The offset sheet reuses the mid-surface quadrature nodes and Jacobian
    (the O(t) Jacobian mismatch folds into the O(t) convergence).  Converges
    to the double-layer potential at first order in t.
    """
    if t <= 0.0:
        raise ValueError("sheet separation t must be positive")
    if grid.standoff < 10.0 * t:
        raise StandoffViolation(
            f"grid standoff {grid.standoff:.4g} < 10 * t = {10 * t:.4g}"
        )
    obs = grid.points

    def distances(points):
        return np.sqrt(np.sum((obs[None, :, :] - points[:, None, :]) ** 2, axis=-1))

    def integrand(x_p):
        fr = surface_frame(pmap, x_p)
        sig = sigma_field(x_p) * np.asarray(fr.j0)
        d0 = distances(fr.point)
        d1 = distances(fr.point - t * fr.normal)
        return (1.0 / d0 - 1.0 / d1) * (sig[:, None] / t)

    dom = pmap.domain
    values = adaptive_rectangle(integrand, dom.lo, dom.hi, tol=tol, max_depth=max_depth)
    return FieldSample(grid=grid, values=values, provenance=f"double-layer-finite-t(t={t:g})")


def jacobian_full(pmap: ParametricMap, x: np.ndarray) -> np.ndarray:
    """Volume Jacobian sqrt(det(Dpsi^T Dpsi)) at 3D parameter points.

    Scalar in, scalar out; batches of shape (..., 3) are supported.
    Raises NonPositiveJacobian if any value falls to <= 1e-14.
    """
    x = np.asarray(x, float)
    D = pmap.differential(x)
    G = np.einsum("...ki,...kj->...ij", D, D)
    det = np.linalg.det(G)
    if np.any(det <= _JACOBIAN_FLOOR**2):
        raise NonPositiveJacobian(
            f"Jacobian not positive at parameter point(s); min det(G) = {det.min():.3e}"
        )
    out = np.sqrt(det)
    return out if out.ndim else float(out)


def surface_divergence_term(
    pmap: ParametricMap,
    p_field: Callable[[np.ndarray], np.ndarray],
    x_p: np.ndarray,
) -> np.ndarray:
    """Surface-divergence source div_p(J0 * p) / J0 at planar points.

    ``p_field`` maps (..., 2) parameter points to planar vectors (..., 2) in
    parameter components.  The product J0*p is differenced centrally with a
    step of 1e-5 * diam(T).
    """
    x_p = np.asarray(x_p, float)
    j0 = np.asarray(surface_frame(pmap, x_p).j0)
    hstep = _DIV_STEP_REL * pmap.domain.diameter

    def weighted(x):
        return np.asarray(p_field(x)) * np.asarray(surface_frame(pmap, x).j0)[..., None]

    div = np.zeros(x_p.shape[:-1])
    for axis in range(2):
        dx = np.zeros(2)
        dx[axis] = hstep
        div = div + (weighted(x_p + dx)[..., axis] - weighted(x_p - dx)[..., axis]) / (2.0 * hstep)
    out = div / j0
    return out if out.ndim else float(out)


class RawField:
    """A field from a raw callable with the ``is_zero`` of a catalog field,
    which is what the caller states."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], is_zero: bool):
        self.fn, self.is_zero = fn, is_zero

    def __call__(self, x_p: np.ndarray) -> np.ndarray:
        return self.fn(x_p)


def prescribed_fields(
    pmap: ParametricMap,
    q: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    p_p: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    p3: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    boundary_charge: Optional[dict] = None,
) -> MomentFields:
    """Moment fields from raw callables instead of a motif and tessellation.

    ``q``, ``p3`` map (..., 2) parameter points to scalars, ``p_p`` to planar
    vectors, all in the un-weighted (per-area) normalization; the Jacobian
    factor is applied here.  The bound-charge divergence of a prescribed
    planar polarization is central-differenced by ``surface_divergence_term``
    (step 1e-5 * diam(T)).  ``boundary_charge`` maps edge names to line
    densities, callables on parameter points (..., 2) with no Jacobian in
    them; edges it leaves out carry 0.  Each field is a :class:`RawField`,
    zero exactly when its callable is not given.
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
        return surface_divergence_term(pmap, p_p, x_p) * _j0_at(pmap, x_p)

    lines = boundary_charge or {}
    edges = {e.name: RawField(lines.get(e.name, zero_scalar), e.name not in lines) for e in pmap.domain.edges()}
    return MomentFields(
        charge_weighted=RawField(weighted_scalar(q) if q is not None else zero_scalar, q is None),
        pol_planar_weighted=RawField(pol_planar_weighted, p_p is None),
        pol_normal_weighted=RawField(weighted_scalar(p3) if p3 is not None else zero_scalar, p3 is None),
        div_pol_planar_weighted=RawField(div_pol_planar_weighted, p_p is None),
        boundary_charge=edges,
    )


def modulation_gradient(m: Modulation, x_p: np.ndarray) -> np.ndarray:
    """Planar gradient of the modulation ``m`` at points (..., 2)."""
    x_p = np.asarray(x_p, float)
    coef = np.asarray(m.coef, float)
    if m.kind == "constant":
        return np.zeros(x_p.shape[:-1] + (2,))
    if m.kind == "linear":
        return np.broadcast_to(coef, x_p.shape[:-1] + (2,)).copy()
    return m.value * np.cos(x_p @ coef + m.phase)[..., None] * coef


def loop_fields(motif: Motif, choice: UnitCellChoice, pmap: ParametricMap, l: float) -> dict:
    """The J0-weighted limit fields of ``moment_fields`` as per-point loops.

    Each field is x -> sum over points of its term, from +0.0 in declaration
    order, over the cell area (bulk) or the edge's lattice period (boundary):
    w m(x) for the free charge, w m(x) B y, w m(x) z and w grad m(x) . B y for
    the polarization fields, and n_k w_k m_k(x) for each edge with the counts
    of ``edge_counts``.  Returns the four bulk fields by their MomentFields
    names and ``boundary_charge``, a dict of edge callables.
    """
    area = choice.cell_area

    def field(points, term, scale, shape=()):
        def inner(x_p):
            x_p = np.asarray(x_p, float)
            total = np.zeros(x_p.shape[:-1] + shape)
            for pt in points:
                total = total + term(pt, x_p)
            return total / scale

        return inner

    def charge(pt, x_p):
        return pt.w * pt.modulation(x_p)

    def arm(pt):
        return choice.basis @ np.asarray(pt.y, float)

    boundary = {}
    for edge in pmap.domain.edges():
        counts, period = edge_counts(edge, [pt.y for pt in motif.points], l, choice, containment_tol(pmap.domain))
        boundary[edge.name] = field(
            list(zip(motif.points, counts)), lambda pair, x: pair[1] * pair[0].w * pair[0].modulation(x), period
        )
    return {
        "charge_weighted": field(motif.free_points, charge, area),
        "pol_planar_weighted": field(motif.points, lambda pt, x: charge(pt, x)[..., None] * arm(pt), area, (2,)),
        "pol_normal_weighted": field(motif.points, lambda pt, x: charge(pt, x) * pt.z, area),
        "div_pol_planar_weighted": field(
            motif.points, lambda pt, x: pt.w * (modulation_gradient(pt.modulation, x) @ arm(pt)), area
        ),
        "boundary_charge": boundary,
    }


def clip_polygon_to_rectangle(poly: np.ndarray, rect: Rectangle) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against the rectangle."""
    result = [tuple(p) for p in np.asarray(poly, float)]
    halfplanes = [
        (0, rect.lo[0], +1.0),
        (0, rect.hi[0], -1.0),
        (1, rect.lo[1], +1.0),
        (1, rect.hi[1], -1.0),
    ]
    for axis, value, sign in halfplanes:
        if not result:
            break
        clipped = []
        n = len(result)
        for i in range(n):
            cur = result[i]
            nxt = result[(i + 1) % n]
            cur_in = sign * (cur[axis] - value) >= 0.0
            nxt_in = sign * (nxt[axis] - value) >= 0.0
            if cur_in:
                clipped.append(cur)
            if cur_in != nxt_in:
                t = (value - cur[axis]) / (nxt[axis] - cur[axis])
                pt = (
                    cur[0] + t * (nxt[0] - cur[0]),
                    cur[1] + t * (nxt[1] - cur[1]),
                )
                # the clipped coordinate is exactly on the clip line
                pt = (value, pt[1]) if axis == 0 else (pt[0], value)
                clipped.append(pt)
        result = clipped
    return np.asarray(result, float).reshape(-1, 2)


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area, in coordinates relative to the first vertex."""
    if len(poly) < 3:
        return 0.0
    rel = poly - poly[0]
    x, y = rel[:, 0], rel[:, 1]
    nxt = np.arange(1, len(poly) + 1) % len(poly)
    return float(0.5 * abs(np.dot(x, y[nxt]) - np.dot(x[nxt], y)))


def loop_tessellation(domain: Rectangle, l: float, choice: UnitCellChoice) -> tuple:
    """(indices, corners, n_full, clip_areas) of ``tessellate``, clipping one cell at a time.

    Candidates are the cells of the domain's basis-coordinate bounding box
    inflated by one cell, in ascending index.  A cell is full when all four
    vertices lie in the domain with its containment slack (a reduction over
    the (N, 4, 2) vertex array); any other cell whose vertex bounding box
    meets the domain is clipped by :func:`clip_polygon_to_rectangle` and kept
    when its :func:`polygon_area` exceeds 1e-12 of a cell.
    """
    coords = choice.basis_coords(domain.corners(), l)
    m_lo = np.floor(coords.min(axis=0)).astype(int) - 1
    m_hi = np.ceil(coords.max(axis=0)).astype(int) + 1
    indices = np.array([(m1, m2) for m1 in range(m_lo[0], m_hi[0] + 1) for m2 in range(m_lo[1], m_hi[1] + 1)])
    corners = choice.corner(indices, l)
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    polys = corners[:, None, :] + choice.planar(unit, l)
    full = np.all(domain.contains(polys, tol=containment_tol(domain)), axis=1)
    meets = np.all(polys.max(axis=1) >= domain.lo, axis=1) & np.all(polys.min(axis=1) <= domain.hi, axis=1)
    band = np.flatnonzero(~full & meets)
    areas = np.array([polygon_area(clip_polygon_to_rectangle(polys[k], domain)) for k in band])
    keep = areas > 1e-12 * choice.cell_area * l * l
    rows = np.concatenate([np.flatnonzero(full), band[keep]])
    return indices[rows], corners[rows], int(np.count_nonzero(full)), areas[keep]


def loop_rebin(motif: Motif, choice_a: UnitCellChoice, choice_b: UnitCellChoice, l: float) -> Motif:
    """``rebin_motif`` with one ``cell_index`` and one ``basis_coords`` call per
    A cell and motif point.

    Each B cell is scanned over the A cells of its basis-coordinate bounding
    box inflated by one cell, in ascending index, and each hit is re-anchored
    with ``Modulation.shifted``.  B cell (0, 0) must collect the same points
    (y, z, w within 1e-12) as (1, 0) and (0, 1), or ValueError is raised.
    """

    def collect(b_index):
        corner_b = choice_b.corner(b_index, l)
        unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        coords = choice_a.basis_coords(corner_b + l * unit @ choice_b.basis.T, l)
        m_lo = np.floor(coords.min(axis=0)).astype(int) - 1
        m_hi = np.ceil(coords.max(axis=0)).astype(int) + 1
        out = []
        for pts in (motif.points, motif.free_points):
            group = []
            for m1 in range(m_lo[0], m_hi[0] + 1):
                for m2 in range(m_lo[1], m_hi[1] + 1):
                    corner_a = choice_a.corner((m1, m2), l)
                    for pt in pts:
                        pos = corner_a + choice_a.planar(pt.y, l)
                        if tuple(cell_index(pos, l, choice_b)) != b_index:
                            continue
                        y_new = choice_b.basis_coords(pos, l) - np.asarray(b_index, float)
                        y_new = np.clip(y_new, 0.0, np.nextafter(1.0, 0.0))
                        group.append(
                            MotifPoint(
                                w=pt.w,
                                y=(float(y_new[0]), float(y_new[1])),
                                z=pt.z,
                                modulation=pt.modulation.shifted(corner_a - corner_b),
                            )
                        )
            group.sort(key=lambda p: (p.y[0], p.y[1], p.z, p.w))
            out.append(group)
        return out

    ref = collect((0, 0))
    for step in ((1, 0), (0, 1)):
        for got, exp in zip(ref, collect(step)):
            got = np.asarray([p.y + (p.z, p.w) for p in got], float)
            exp = np.asarray([p.y + (p.z, p.w) for p in exp], float)
            if got.shape != exp.shape or (got.size and not np.allclose(got, exp, atol=1e-12, rtol=0.0)):
                raise ValueError("unit-cell choices are not commensurate; cannot re-bin the motif")
    return Motif(points=tuple(ref[0]), free_points=tuple(ref[1]), free_charge_order=motif.free_charge_order)


def covered_area(tess: Tessellation) -> float:
    """Area of all cells: n_full whole cells plus each partial cell's scalar clip to the domain."""
    full_area = tess.n_full * tess.choice.cell_area * tess.l * tess.l
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    polys = tess.corners[tess.n_full :, None, :] + tess.choice.planar(unit, tess.l)
    return full_area + sum(polygon_area(clip_polygon_to_rectangle(poly, tess.domain)) for poly in polys)


def edge_line_charge(tess: Tessellation, motif: Motif, edge: Edge, lo: float, hi: float) -> float:
    """Kept charge per unit length, times l, of the partial cells that straddle ``edge``'s
    line with their corner's coordinate along the edge in [lo, hi).

    Weights are taken at the cell corners.  With constant weights and a window
    of a whole number of lattice periods away from the domain's corners, this
    is the edge's limit line density.
    """
    rows = np.arange(tess.n_full, len(tess.corners))
    corners = tess.corners[rows]
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    levels = corners[:, None, edge.axis] + tess.l * (unit @ tess.choice.basis.T)[None, :, edge.axis]
    straddle = (levels.min(axis=1) < edge.value - tess.tol) & (levels.max(axis=1) > edge.value + tess.tol)
    along = corners[:, 1 - edge.axis]
    chosen = rows[straddle & (along >= lo) & (along < hi)]
    charge = 0.0
    for pt in motif.points:
        _, kept = tess.place(pt.y)
        charge += float(np.sum(pt.weight_at(tess.corners[chosen])[kept[chosen]]))
    return charge * tess.l / (hi - lo)


def fsum_potential(dist: ScaledChargeDistribution, grid: ObservationGrid) -> list:
    """Per-point math.fsum of q / r over all charges."""
    return [
        math.fsum((dist.magnitudes / np.sqrt(np.sum((dist.positions - p) ** 2, axis=-1))).tolist())
        for p in grid.points
    ]


def unfolded_bulk_integrand(fields: MomentFields, regime, pmap: ParametricMap, points: np.ndarray):
    """The bulk integrand over observation ``points`` (M, 3): G (c_q q J0 -
    c_b div_p(J0 p_p)) + c_n dG/dnu' p3 J0 on (N, 2) nodes, each density
    from its field callable times the regime weight, the single layer built
    from a zero, and the kernel adding a double layer to it.  The weights
    are those of ``regime.limit_weights()``, set to 0 for a field that
    ``is_zero``.  Returns (N, M), a view of the kernel's buffer, valid until
    the next call."""
    c_q, c_p, c_n = regime.limit_weights()
    c_q = 0.0 if fields.charge_weighted.is_zero else c_q
    c_b = 0.0 if fields.div_pol_planar_weighted.is_zero else c_p
    c_n = 0.0 if fields.pol_normal_weighted.is_zero else c_n
    kernel = _kernel(np.ascontiguousarray(np.asarray(points, float).T))
    every, one_panel = np.arange(len(points)), np.array([len(points)])

    def integrand(x_p):
        density = None
        if c_q != 0.0 or c_b != 0.0:
            density = c_q * fields.charge_weighted(x_p) if c_q != 0.0 else np.zeros(len(x_p))
            if c_b != 0.0:
                density = density - c_b * fields.div_pol_planar_weighted(x_p)
        if c_n == 0.0:
            return kernel(pmap.midsurface(x_p), every, one_panel, density).T
        fr = surface_frame(pmap, x_p)
        return kernel(fr.point, every, one_panel, density, fr.normal, c_n * fields.pol_normal_weighted(x_p)).T

    return integrand


def unfolded_edge_integrand(fields: MomentFields, pmap: ParametricMap, points: np.ndarray, edge: Edge):
    """The edge integrand G (rho + (J0 p_p).n) in arc length ``s`` (N,)
    along ``edge``, with the polarization dotted with the edge normal
    after its evaluation.  Returns (N, M), a view of the kernel's buffer."""
    kernel = _kernel(np.ascontiguousarray(np.asarray(points, float).T))
    rho, normal = fields.boundary_charge[edge.name], np.asarray(edge.normal, float)
    every, one_panel = np.arange(len(points)), np.array([len(points)])

    def integrand(s):
        x_p = edge.points(s)
        return kernel(pmap.midsurface(x_p), every, one_panel, rho(x_p) + fields.pol_planar_weighted(x_p) @ normal).T

    return integrand


def _panel(f, lo, hi):
    """Tensor Gauss estimate of a vector integrand over the box [lo, hi], one box at a time:
    the weighted values summed over the nodes by halving, first half plus second half, until
    one node is left."""
    offsets, weights, _ = _RULES[lo.shape]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = np.asarray(f(mid + half * offsets))
    terms = (weights * math.prod(half.flat)).reshape((-1,) + (1,) * (values.ndim - 1)) * values
    while len(terms) > 1:
        terms = terms[: len(terms) // 2] + terms[len(terms) // 2 :]
    return terms[0]


def per_panel_estimates(f, lo, hi) -> list:
    """The halved Gauss estimate of each box [lo[k], hi[k]], one call per box."""
    return [_panel(f, a, b) for a, b in zip(np.asarray(lo, float), np.asarray(hi, float))]


def _adapt(f, lo, hi, tol, depth, max_depth, coarse=None):
    if coarse is None:
        coarse = _panel(f, lo, hi)
    masks = _RULES[lo.shape][2]
    mid = 0.5 * (lo + hi)
    kids = list(zip(np.where(masks, mid, lo), np.where(masks, hi, mid)))
    parts = [_panel(f, a, b) for a, b in kids]
    fine = reduce(add, parts)
    err = float(np.max(np.abs(fine - coarse)))
    if err <= tol:
        return fine
    if depth >= max_depth:
        raise QuadratureNotConverged(f"{np.size(lo)}D panel at depth {depth}", error_estimate=err, tolerance=tol)
    tol /= len(kids)
    return reduce(add, (_adapt(f, a, b, tol, depth + 1, max_depth, part) for (a, b), part in zip(kids, parts)))


def recursive_rectangle(f, lo, hi, tol=DEFAULT_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Depth-first adaptive rectangle rule after the same anisotropy pre-split as the library."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    w = hi - lo
    n1 = max(1, int(np.ceil(w[0] / w[1]))) if w[1] > 0 else 1
    n2 = max(1, int(np.ceil(w[1] / w[0]))) if w[0] > 0 else 1
    n = np.array([n1, n2])
    boxes = [(lo + w * (k / n), lo + w * ((k + 1) / n)) for k in map(np.array, np.ndindex(n1, n2))]
    return reduce(add, (_adapt(f, a, b, tol / (n1 * n2), 0, max_depth) for a, b in boxes))


def recursive_segment(f, a, b, tol=DEFAULT_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Depth-first adaptive segment rule."""
    return _adapt(f, np.float64(a), np.float64(b), tol, 0, max_depth)
