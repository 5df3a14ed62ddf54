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
_STANDOFF_SAMPLES = 201  # surface samples per parameter axis for the standoff estimate
_BLOCK_VALUES = 1 << 16  # charge-point pairs per block of the direct sum (fits in L2)


# ---------------------------------------------------------------------------
# observation grids and samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservationGrid:
    """Observation points with their minimum distance to the mid-surface."""

    points: np.ndarray  # (M, 3)
    standoff: float

    @classmethod
    def from_points(cls, points: np.ndarray, pmap: ParametricMap) -> "ObservationGrid":
        """Wrap explicit points; standoff measured against a dense surface sample."""
        points = np.atleast_2d(np.asarray(points, float))
        d = cls._min_distance(points, pmap)
        if d <= 0.0 or not math.isfinite(d):
            raise StandoffViolation(
                f"observation grid touches the film (standoff {d:.3e}; must be positive)"
            )
        return cls(points=points, standoff=d)

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

    @staticmethod
    def _min_distance(points: np.ndarray, pmap: ParametricMap) -> float:
        dom = pmap.domain
        u = np.linspace(dom.lo[0], dom.hi[0], _STANDOFF_SAMPLES)
        v = np.linspace(dom.lo[1], dom.hi[1], _STANDOFF_SAMPLES)
        U, V = np.meshgrid(u, v, indexing="ij")
        sx, sy, sz = pmap.midsurface(np.stack([U.ravel(), V.ravel()], axis=-1)).T.copy()

        def nearest(x, y, z):
            """Least squared distance from (x, y, z) to the surface sample."""
            d2 = (sx - x) ** 2
            d2 += (sy - y) ** 2
            d2 += (sz - z) ** 2
            return d2.min()

        # sqrt is monotone and correctly rounded: the root of the least squared
        # distance is the least distance.  np.min keeps a NaN point's NaN, which
        # from_points then rejects.
        return math.sqrt(np.min([nearest(*p) for p in points]))

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
