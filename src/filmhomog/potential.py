"""Exact microscopic potentials and the homogenized limit potential.

Everything uses the bare-Coulomb kernel G(r, r') = 1/|r - r'| (no 1/4pi; a
physics-convention rescale is applied at the CLI layer only, which is exact
by linearity).

The microscopic potential is the exact finite Green's sum over all realized
point charges, accumulated with exactly-rounded summation.  The homogenized
potential is a parameter-space integral over the film domain T and its
boundary, with all source fields premultiplied by the surface Jacobian:

    Phi(r) = INT_T [G * (c_q q*J0 - c_p div_p(J0 p_p)) + c_n dG/dnu' * p3*J0] dx
           + c_p INT_dT G * (sigma*J0 + (J0 p_p).n) ds

The three limits differ only in the weights (c_q, c_p, c_n):

    thin-over-wide (R1):              (1, 1, 0)
    proportional (R2, h = alpha l):   (alpha, alpha, alpha^2)
    wide-over-thin (R3):              (1, 0, 1)

with dG/dnu' = nu(r') . (r - r') / |r - r'|^3 evaluated analytically.  The
boundary integral runs in parameter arc length with the parameter-space
outward normal, exactly the object the cell sums converge to; the boundary
charge sigma enters as a step function per edge from the tessellation data,
and each edge is one adaptive integral with a panel break at every jump.

Both are asymptotic statements for observation points off the film.  An
:class:`ObservationGrid` is admitted only if every point has a certified
positive lower bound on its distance to the mid-surface (branch and bound
with the map's Lipschitz bounds); its ``standoff`` is the least distance
attained by a foot point on the mid-surface (Gauss-Newton from the best
cell centre).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .charge import Regime, ScaledChargeDistribution
from .errors import SingularEvaluation, StandoffViolation
from .geometry import ParametricMap, Rectangle, surface_frame
from .moments import MomentFields
from .quadrature import DEFAULT_MAX_DEPTH, DEFAULT_TOL, adaptive_rectangle, adaptive_segment

_SINGULAR_DIST = 1e-12
# standoff branch and bound: coarse cells per parameter axis; levels of
# splits past them (about sqrt(eps) of T per axis on square cells); the most
# live (point, cell) pairs of one pass, which bounds its memory; the share of
# the best centre distance below which a cell's bound makes it split; the
# share of a cell's larger axis term that an axis needs to be split too; and
# the Gauss-Newton steps that refine the best centre into a foot point
_STANDOFF_CELLS = 8
_STANDOFF_LEVELS = 23
_STANDOFF_PAIRS = 1 << 16
_SPLIT_SHARE = 0.5
_AXIS_SHARE = 0.5
_FOOT_STEPS = 32
_ROUNDOFF = 8.0 * np.finfo(float).eps  # relative slack of a computed centre distance
_CHILDREN = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
_BLOCK_VALUES = 1 << 16  # charge-point pairs per block of the direct sum (fits in L2)


# ---------------------------------------------------------------------------
# observation grids and samples
# ---------------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (K, 3) arrays."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise distances |a - b| of two (K, 3) arrays."""
    e = a - b
    return np.sqrt(_dot(e, e))


def _coords(p: np.ndarray) -> str:
    return "(" + ", ".join(repr(float(c)) for c in p) + ")"


def _standoff(points: np.ndarray, pmap: ParametricMap):
    """Per point: a certified lower bound on its distance to the mid-surface, an
    attained distance, and the parameter point attaining it.

    The bound comes from :func:`_bound_cells`.  Its best cell centre is then
    refined by box-projected Gauss-Newton on |psi0(x) - r|, which also finds
    feet on an edge or a corner of T.  A step is kept only if it lowers the
    distance, so the value stays attained.
    """
    lower, attained, foot = _bound_cells(points, pmap)
    lo, hi = np.asarray(pmap.domain.lo, float), np.asarray(pmap.domain.hi, float)
    live = np.arange(len(points))
    for _ in range(_FOOT_STEPS):
        x, r = foot[live], points[live]
        J = pmap.differential(ParametricMap._embed(x))
        t1, t2, e = J[:, :, 0], J[:, :, 1], r - pmap.midsurface(x)
        # normal equations of J dx = e, 2x2 by Cramer's rule; the tiny shift keeps
        # a vanishing tangent (the polar axis) from dividing by zero
        a11, a12, a22 = _dot(t1, t1), _dot(t1, t2), _dot(t2, t2)
        g1, g2 = _dot(t1, e), _dot(t2, e)
        shift = 1e-14 * (a11 + a22)
        a11, a22 = a11 + shift, a22 + shift
        det = a11 * a22 - a12 * a12
        step = np.stack([a22 * g1 - a12 * g2, a11 * g2 - a12 * g1], axis=-1) / det[:, None]
        trial = np.clip(x + step, lo, hi)
        d = _distance(pmap.midsurface(trial), r)
        old = attained[live]
        keep = d < old
        foot[live[keep]], attained[live[keep]] = trial[keep], d[keep]
        live = live[d < old - 4.0 * np.spacing(old)]  # a gain of a few ulps ends the point's steps
        if not len(live):
            break
    return lower, attained, foot


def _bound_cells(points: np.ndarray, pmap: ParametricMap):
    """Branch and bound over parameter cells: per point a certified lower bound
    on its distance to the mid-surface, the best cell-centre distance and that
    centre.

    Piyavskii 1972; Shubert 1972.  On a cell of centre c and half-widths
    (h1, h2), every mid-surface point is at least |psi0(c) - r| -
    |(L1 h1, L2 h2)| from r, with (L1, L2) = ``pmap.cell_bounds`` of the
    cell.  Each level scores all live (point, cell) pairs at once; a pair
    whose bound is below _SPLIT_SHARE of the point's best centre distance is
    split, the others are settled, and a point's lower bound is the least
    bound of its settled cells.  A split halves each axis whose term Li hi is
    at least _AXIS_SHARE of the larger one, so cells where one tangent
    vanishes (the polar axis) are cut across the other axis only.  Without
    the caps the bound is at least half the attained distance.  At
    _STANDOFF_LEVELS, or when one point alone would need more than
    _STANDOFF_PAIRS live pairs, the pairs still splitting count as
    unresolved: they certify nothing (bound <= 0), and the point is rejected.
    A pass over several points that would exceed _STANDOFF_PAIRS is redone
    on each half of the points.
    """
    n = len(points)
    if n > 1 and n * _STANDOFF_CELLS**2 > _STANDOFF_PAIRS:
        return _bound_halves(points, pmap)
    dom = pmap.domain
    half = 0.5 * dom.widths / _STANDOFF_CELLS
    offsets = np.stack(np.meshgrid(*[np.arange(_STANDOFF_CELLS) + 0.5] * 2, indexing="ij"), axis=-1)
    coarse = np.asarray(dom.lo, float) + offsets.reshape(-1, 2) * (2.0 * half)
    owner = np.repeat(np.arange(n), len(coarse))  # live (point, cell) pairs
    centre = np.tile(coarse, (n, 1))
    half = np.tile(half, (len(owner), 1))
    image = np.tile(pmap.midsurface(coarse), (n, 1))
    scale = 2.0 * np.sqrt(_dot(points, points))  # |r| + |psi0(c)| <= 2 |r| + d
    lower = np.full(n, np.inf)
    best = np.full(n, np.inf)
    foot = np.zeros((n, 2))
    for level in range(_STANDOFF_LEVELS + 1):
        d = _distance(image, points[owner])
        prev = best.copy()
        np.minimum.at(best, owner, d)
        better = (d == best[owner]) & (d < prev[owner])
        foot[owner[better]] = centre[better]
        terms = pmap.cell_bounds(centre - half, centre + half) * half
        bound = d - np.hypot(terms[:, 0], terms[:, 1]) - _ROUNDOFF * (d + scale[owner])
        split = bound < _SPLIT_SHARE * best[owner]
        axes = terms[split] >= _AXIS_SHARE * terms[split].max(axis=1, keepdims=True)
        if level == _STANDOFF_LEVELS or np.sum(2 ** axes.sum(axis=1)) > _STANDOFF_PAIRS:
            if n > 1 and level < _STANDOFF_LEVELS:
                return _bound_halves(points, pmap)
            bound[split] = np.minimum(bound[split], 0.0)  # unresolved cells certify nothing
            split[:] = False
        np.minimum.at(lower, owner[~split], bound[~split])
        if not split.any():
            break
        # one child per sign pattern of the split axes: keep the -1 side of the others
        kept = np.all(axes[:, None, :] | (_CHILDREN < 0.0), axis=-1).ravel()
        h = np.where(axes, 0.5 * half[split], half[split])
        owner = np.repeat(owner[split], 4)[kept]
        centre = (centre[split, None, :] + _CHILDREN * np.where(axes, h, 0.0)[:, None, :]).reshape(-1, 2)[kept]
        half = np.repeat(h, 4, axis=0)[kept]
        image = pmap.midsurface(centre)
    return lower, best, foot


def _bound_halves(points: np.ndarray, pmap: ParametricMap):
    k = len(points) // 2
    return tuple(np.concatenate(parts) for parts in zip(_bound_cells(points[:k], pmap), _bound_cells(points[k:], pmap)))


@dataclass(frozen=True)
class ObservationGrid:
    """Observation points with their distance to the mid-surface.

    Construction certifies that every point keeps a positive distance from
    the mid-surface (a lower bound from :func:`_standoff`, not a sample);
    ``standoff`` is the least attained distance over the points, the value
    the Taylor-regime checks compare against.
    """

    points: np.ndarray  # (M, 3)
    standoff: float

    @classmethod
    def from_points(cls, points: np.ndarray, pmap: ParametricMap) -> "ObservationGrid":
        """Wrap explicit points of shape (M, 3); each must be certified off the film."""
        points = np.asarray(points, float)
        if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
            raise ValueError(f"observation points must be a non-empty (M, 3) array, got shape {points.shape}")
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            d = math.sqrt(float(points[i] @ points[i]))  # nan, or inf for an infinite point
            raise StandoffViolation(
                f"observation point {i} at {_coords(points[i])} is not finite (standoff {d:.3e})"
            )
        lower, attained, foot = _standoff(points, pmap)
        i = int(np.argmin(lower))
        if not lower[i] > 0.0:
            raise StandoffViolation(
                f"observation point {i} at {_coords(points[i])} may touch the film: certified "
                f"standoff bound {lower[i]:.3e} is not positive (attained distance {attained[i]:.3e} "
                f"at parameter point {_coords(foot[i])}; standoff must be positive)"
            )
        return cls(points=points, standoff=float(attained.min()))

    @classmethod
    def offset_surface(cls, pmap: ParametricMap, n1: int, n2: int, distance: float) -> "ObservationGrid":
        """n1 x n2 grid pushed off the mid-surface along its normal."""
        dom = pmap.domain
        u = np.linspace(dom.lo[0], dom.hi[0], n1)
        v = np.linspace(dom.lo[1], dom.hi[1], n2)
        U, V = np.meshgrid(u, v, indexing="ij")
        x_p = np.stack([U.ravel(), V.ravel()], axis=-1)
        fr = surface_frame(pmap, x_p)
        pts = fr.point + distance * fr.normal
        return cls.from_points(pts, pmap)

    @classmethod
    def plane(cls, pmap: ParametricMap, n1: int, n2: int, extent: Rectangle, height: float) -> "ObservationGrid":
        """n1 x n2 grid on the physical plane z = height over the given extent."""
        u = np.linspace(extent.lo[0], extent.hi[0], n1)
        v = np.linspace(extent.lo[1], extent.hi[1], n2)
        U, V = np.meshgrid(u, v, indexing="ij")
        pts = np.stack([U.ravel(), V.ravel(), np.full(U.size, float(height))], axis=-1)
        return cls.from_points(pts, pmap)

    @property
    def n_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FieldSample:
    """Potential values on a grid, tagged with how they were produced."""

    grid: ObservationGrid
    values: np.ndarray  # (M,)
    provenance: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field sample contains non-finite values")


# ---------------------------------------------------------------------------
# microscopic potential
# ---------------------------------------------------------------------------


def _distances(points: np.ndarray, obs: np.ndarray):
    """Per-component differences obs - points, each (N, M), and the distances |obs - points|."""
    dx, dy, dz = (obs[None, :, k] - points[:, k, None] for k in range(3))
    return (dx, dy, dz), np.sqrt(dx * dx + dy * dy + dz * dz)


def _row_sums(v: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each row of ``v`` (consumed), bitwise equal to math.fsum.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008):
    with |v| < 2^e on a row and sigma = 1.5 * 2^(e + k), hi = (v + sigma) - sigma
    rounds every value to a multiple of ulp(sigma) without error and v - hi is
    exact.  As 2^k >= 2 (N + 2), every partial sum of hi is exact, so numpy may
    add it in any order.  Each pass strips 52 - k leading bits until the
    remainder is zero; math.fsum then rounds the row's few slice sums.  A
    non-finite row, or one whose sigma would leave the safe exponent window,
    hands its remainder to math.fsum instead.
    """
    k = (v.shape[1] + 1).bit_length() + 1  # ceil(log2(N + 2)) + 1
    terms = [[] for _ in range(len(v))]
    while True:
        m = np.abs(v).max(axis=1)
        e = np.frexp(m)[1]
        whole = ~np.isfinite(m) | (e + k > 1023) | (e - 52 < k - 1021)
        for i in np.flatnonzero(whole):
            terms[i] += v[i].tolist()
        v[whole], e[whole] = 0.0, 0
        if not m[~whole].any():
            return np.array([math.fsum(t) for t in terms])
        sigma = np.ldexp(1.5, e + k)[:, None]
        hi = v + sigma
        hi -= sigma
        v -= hi
        for t, s in zip(terms, hi.sum(axis=1).tolist()):
            t.append(s)


def green_sums(dist: ScaledChargeDistribution, points: np.ndarray) -> np.ndarray:
    """Exactly rounded Green's sum of all realized charges at each of ``points`` (M, 3).

    Points go in blocks of about _BLOCK_VALUES charge-point pairs; each row of
    q / |r_j - r| is reduced by :func:`_row_sums`.  The values are bitwise equal
    to one math.fsum per point, whatever the block size or charge order.

    A block holds one (B, N) buffer and one scratch buffer: the squared
    distance accumulates in place as (dx*dx + dy*dy) + dz*dz, the order of
    :func:`_distances`, so no per-component arrays are kept.  At 2^16 pairs a
    block's live arrays stay in one core's L2 cache.
    """
    values = np.zeros(len(points))
    n = dist.n_charges
    if n == 0:
        return values
    columns = np.ascontiguousarray(dist.positions.T)  # (3, N): one contiguous row per component
    rows = max(1, _BLOCK_VALUES // n)
    buf = np.empty((min(rows, len(points)), n))
    tmp = np.empty_like(buf)
    for start in range(0, len(points), rows):
        block = points[start : start + rows]
        d, t = buf[: len(block)], tmp[: len(block)]
        np.subtract(columns[0], block[:, 0, None], out=d)
        d *= d
        for k in (1, 2):
            np.subtract(columns[k], block[:, k, None], out=t)
            t *= t
            d += t
        np.sqrt(d, out=d)
        close = d.min(axis=1) < _SINGULAR_DIST  # per row, so a NaN row cannot hide a coinciding point
        if close.any():
            i = int(np.argmax(close))
            x, y, z = points[start + i].tolist()
            raise SingularEvaluation(
                f"observation point {start + i} at ({x!r}, {y!r}, {z!r}) lies {d[i].min():.3e} "
                f"from its nearest charge, below the singular threshold {_SINGULAR_DIST:g}"
            )
        np.divide(dist.magnitudes, d, out=d)
        values[start : start + rows] = _row_sums(d)
    return values


def direct_potential(
    dist: ScaledChargeDistribution,
    grid: ObservationGrid,
    standoff_factor: float = 10.0,
) -> FieldSample:
    """Exact Green's sum of all realized charges at every observation point.

    :func:`green_sums` reduces each point by error-free extraction, so values
    are exactly rounded: bitwise equal to one math.fsum per point, and
    independent of the block size and of the charge enumeration order.
    ``standoff_factor`` guards the asymptotic regime (standoff >= factor *
    max(l, h)); convergence studies pass 0 to evaluate coarse steps on
    purpose.
    """
    limit = standoff_factor * max(dist.l, dist.h)
    if grid.standoff < limit:
        raise StandoffViolation(
            f"grid standoff {grid.standoff:.4g} < {standoff_factor:g} * max(l, h) = {limit:.4g}"
        )

    values = green_sums(dist, grid.points)
    tag = f"microscopic(l={dist.l:g} h={dist.h:g} {dist.regime.label()})"
    return FieldSample(grid=grid, values=values, provenance=tag)


# ---------------------------------------------------------------------------
# homogenized potentials
# ---------------------------------------------------------------------------


def _kernel_parts(pmap: ParametricMap, x_p: np.ndarray, obs: np.ndarray, need_normal: bool):
    """G and (optionally) dG/dnu' between surface points x_p and grid points."""
    fr = surface_frame(pmap, x_p)
    (dx, dy, dz), d = _distances(fr.point, obs)
    G = 1.0 / d
    if not need_normal:
        return G, None, fr
    nu = fr.normal
    dot = dx * nu[:, 0, None] + dy * nu[:, 1, None] + dz * nu[:, 2, None]
    return G, dot / d**3, fr


def _boundary_integral(
    fields: MomentFields,
    pmap: ParametricMap,
    grid: ObservationGrid,
    coef: float,
    tol: float,
    max_depth: int,
) -> np.ndarray:
    """coef * INT_dT G (sigma J0 + (J0 p_p).n) ds: one integral per edge at ``tol``, broken where sigma jumps."""
    obs = grid.points
    total = np.zeros(grid.n_points)
    for edge in pmap.domain.edges():
        breaks, sigma = fields.boundary_charge[edge.name]

        def integrand(s, edge=edge, inner=breaks[1:-1], sigma=sigma):
            x_p = edge.points(s)
            G, _, fr = _kernel_parts(pmap, x_p, obs, need_normal=False)
            pn = fields.pol_planar_weighted(x_p) @ np.asarray(edge.normal, float)
            return G * (sigma[np.searchsorted(inner, s, side="right")] * fr.j0 + pn)[:, None]

        total += coef * adaptive_segment(integrand, breaks, tol=tol, max_depth=max_depth)
    return total


# Per-regime weights of the three limit terms: (free-charge single layer,
# in-plane polarization, normal double layer).  The in-plane column weights
# both the bound charge -div_p(J0 p_p) and the edge term sigma*J0 + (J0 p_p).n.
_LIMIT_WEIGHTS = {
    "R1": lambda alpha: (1.0, 1.0, 0.0),
    "R2": lambda alpha: (alpha, alpha, alpha**2),
    "R3": lambda alpha: (1.0, 0.0, 1.0),
}


def homogenized_potential(
    fields: MomentFields,
    regime: Regime,
    pmap: ParametricMap,
    grid: ObservationGrid,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> FieldSample:
    """Limit potential of the regime, with (c_q, c_p, c_n) from its table row.

    The edge integrals run only when c_p is non-zero; the bulk integral then
    takes tol/2 and each edge's integral tol/8 (four edges).
    """
    c_q, c_p, c_n = _LIMIT_WEIGHTS[regime.kind](regime.alpha)
    obs = grid.points

    def integrand(x_p):
        G, dGn, _ = _kernel_parts(pmap, x_p, obs, need_normal=c_n != 0.0)
        density = fields.charge_weighted(x_p)
        if c_p != 0.0:  # c_q * G * (q J0 - (c_p / c_q) div_p(J0 p_p)); every row has c_q > 0
            density = density - (c_p / c_q) * fields.div_pol_planar_weighted(x_p)
        out = c_q * G * density[:, None]
        if c_n != 0.0:
            out = out + c_n * dGn * fields.pol_normal_weighted(x_p)[:, None]
        return out

    dom = pmap.domain
    bulk_tol = 0.5 * tol if c_p != 0.0 else tol
    values = adaptive_rectangle(integrand, dom.lo, dom.hi, tol=bulk_tol, max_depth=max_depth)
    if c_p != 0.0:
        values = values + _boundary_integral(fields, pmap, grid, c_p, tol / 8, max_depth)
    alpha = f" alpha={regime.alpha:g}" if regime.kind == "R2" else ""
    return FieldSample(grid=grid, values=values, provenance=f"homogenized({regime.kind}{alpha})")


def field_to_csv(samples: Sequence[FieldSample], fileobj, comment: Optional[str] = None) -> None:
    """Write (x, y, z, Phi, provenance) rows, one block per sample."""
    import csv

    if comment:
        fileobj.write(f"# {comment}\n")
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["x", "y", "z", "phi", "provenance"])
    for sample in samples:
        for p, v in zip(sample.grid.points, sample.values):
            writer.writerow(
                [repr(float(p[0])), repr(float(p[1])), repr(float(p[2])), repr(float(v)), sample.provenance]
            )
