"""Exact microscopic potentials and the homogenized limit potential.

Everything uses the bare-Coulomb kernel G(r, r') = 1/|r - r'| (no 1/4pi; a
physics-convention rescale is applied at the CLI layer only, which is exact
by linearity).

The microscopic potential is the exact finite Green's sum over all realized
point charges, exactly rounded: one error-free extraction per point, a
vectorized check that certifies the rounding of the result, and math.fsum
for the points the check cannot decide.  The homogenized
potential is a parameter-space integral over the film domain T and its
boundary, with all source fields premultiplied by the surface Jacobian:

    Phi(r) = INT_T [G * (c_q q*J0 - c_p div_p(J0 p_p)) + c_n dG/dnu' * p3*J0] dx
           + c_p INT_dT G * (rho + (J0 p_p).n) ds

The three limits differ only in the weights (c_q, c_p, c_n) of
:meth:`Regime.limit_weights`:

    thin-over-wide (R1):              (1, 1, 0)
    proportional (R2, h = alpha l):   (alpha, alpha, alpha^2)
    wide-over-thin (R3):              (1, 0, 1)

with dG/dnu' = G^3 nu(r') . (r - r') evaluated analytically.  Each weight
multiplies its evaluated density, as a scalar.  A bulk term is skipped when
its weight is 0 or its field is :attr:`Catalog.is_zero` (no catalog row
with both a non-zero weight and a non-zero coefficient), so only the double
layer builds surface frames, and the bulk integral does not run at all when
no bulk term is left.  Each integrand declares its value ``columns`` (one
per observation point), so the quadrature hands it a round's panels per
call, each with the observation points it still refines there, each point
refined on its own, and takes the values back in (panel, point, node) rows.
The integrals of one potential compute their kernel in one buffer, reused
from call to call and sized for the largest call, so an integrand's return
value is valid only until the next call (the quadrature reduces it before
then).  The
boundary integral runs in parameter arc length with the parameter-space
outward normal, exactly the object the cell sums converge to; the boundary
charge rho is each edge's closed-form line density per unit parameter length
(no Jacobian in it), and each edge is one adaptive integral over the whole
edge.

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
from typing import Optional

import numpy as np

from .charge import Regime, ScaledChargeDistribution
from .errors import SingularEvaluation, StandoffViolation
from .geometry import ParametricMap, Rectangle, surface_frame
from .moments import MomentFields
from .quadrature import DEFAULT_MAX_DEPTH, DEFAULT_TOL, adaptive_rectangle, adaptive_segment

_SINGULAR_DIST = 1e-12
TAYLOR_STANDOFF = 10.0  # asymptotic regime: standoff >= TAYLOR_STANDOFF * max(l, h)
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
_UNIT = 2.0**-53  # unit roundoff
_TINY = np.finfo(float).tiny  # least normal double


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


def _row_sums(v: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Exactly rounded sum of each row of ``v``, bitwise equal to math.fsum.

    One error-free extraction and a certified rounding (AccSum, NearSum: Rump,
    Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008).  With |v| < 2^e on a row of
    N values and sigma = 1.5 * 2^(e + k), hi = (v + sigma) - sigma and
    r = v - hi are exact, |r| <= ulp(sigma) / 2, and as 2^k >= 2 (N + 2) the
    slice sum tau = sum(hi) is exact in any order.  s = fl(sum(r)) is within
    b = 2 gamma_N N 2^(e + k - 53) of sum(r) in any order (the 2 covers b's
    own rounding), so the exact sum lies within |delta| + b of c =
    fl(tau + s), delta its TwoSum residual.  If that is strictly below half
    the gap from c to either neighbour, all of the interval rounds to c.  The
    rows this cannot decide (near a rounding boundary, c = 0, whose half gap
    rounds to 0, non-finite, sigma overflowing or b subnormal) get one more
    extraction of their remainders r, with sigma from r's own largest value:
    if every second remainder is 0, the sum is exactly tau + tau2, two
    doubles, and fl(tau + tau2) is its exact rounding (+0.0 for a zero sum,
    as math.fsum gives; an exactly neutral row of charges ends here).  The
    rows still undecided go to math.fsum.  ``v`` is kept; ``scratch``
    (allocated if None) holds |v|, then hi, then r.
    """
    n = v.shape[1]
    k = (n + 1).bit_length() + 1  # ceil(log2(N + 2)) + 1
    pad = 2.0 * n * (n * _UNIT / (1.0 - n * _UNIT))  # 2 N gamma_N
    r = np.empty_like(v) if scratch is None else scratch
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows fail the test below
        ek = np.frexp(np.abs(v, out=r).max(axis=1))[1] + k  # e + k
        sigma = np.ldexp(1.5, ek)[:, None]
        np.add(v, sigma, out=r)
        r -= sigma
        tau = r.sum(axis=1)
        np.subtract(v, r, out=r)
        s = r.sum(axis=1)
        c = tau + s
        z = c - tau
        delta = (tau - (c - z)) + (s - z)
        half_gap = 0.5 * np.minimum(c - np.nextafter(c, -np.inf), np.nextafter(c, np.inf) - c)
        b = np.ldexp(pad, ek - 53)
        certified = (np.abs(delta) + b < half_gap) & (ek <= 1023) & (b >= _TINY)
        undecided = np.flatnonzero(~certified)
        if len(undecided):
            rest = r[undecided]
            sigma2 = np.ldexp(1.5, np.frexp(np.abs(rest).max(axis=1))[1] + k)[:, None]
            hi2 = (rest + sigma2) - sigma2
            pair = tau[undecided] + hi2.sum(axis=1)
            exact = (rest == hi2).all(axis=1) & np.isfinite(pair)  # no second remainder; NaN rows fail
            c[undecided[exact]] = pair[exact]
            undecided = undecided[~exact]
    for i in undecided:
        c[i] = math.fsum(memoryview(v[i]))
    return c


def green_sums(dist: ScaledChargeDistribution, points: np.ndarray) -> np.ndarray:
    """Exactly rounded Green's sum of all realized charges at each of ``points`` (M, 3).

    Points go in blocks of about _BLOCK_VALUES charge-point pairs; each row of
    q / |r_j - r| is reduced by :func:`_row_sums`.  The values are bitwise equal
    to one math.fsum per point, whatever the block size or charge order.

    A block holds one (B, N) buffer and one scratch buffer, both reused: the
    squared distance accumulates in place as (dx*dx + dy*dy) + dz*dz, the
    order of :func:`_kernel`, and the scratch then takes the extraction's
    slices and remainders.  At 2^16 pairs both stay in one core's L2 cache.
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
        values[start : start + rows] = _row_sums(d, t)
    return values


def direct_potential(dist: ScaledChargeDistribution, grid: ObservationGrid, standoff_factor: float) -> FieldSample:
    """Exact Green's sum of all realized charges at every observation point.

    :func:`green_sums` reduces each point by error-free extraction, so values
    are exactly rounded: bitwise equal to one math.fsum per point, and
    independent of the block size and of the charge enumeration order.
    ``standoff_factor`` guards the asymptotic regime (standoff >= factor *
    max(l, h)); :data:`TAYLOR_STANDOFF` is the Taylor regime's factor, and
    convergence studies pass 0 to evaluate coarse steps on purpose.
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


def _kernel(rows: np.ndarray):
    """The densities times the Green kernel towards observation points given
    as contiguous component rows (3, M), over (panel, column) pairs.  It
    takes the nodes r' (K n, 3) of K panels stacked, n per panel, the
    ascending indices ``cols`` of the observation points wanted, panel k's
    being the next counts[k] of them, a single-layer ``density`` at the
    nodes (K n,) or None, and optionally the unit normals nu (K n, 3) with a
    double-layer ``normal_density`` (K n,).  It returns (len(cols), n), row
    j the point cols[j] at the n nodes of its panel: density * G +
    normal_density * dG/dnu', or one of the two terms alone, with G = 1/|r -
    r'| and dG/dnu' = G*G*G * ((dx*nu_x + dy*nu_y) + dz*nu_z); the squared
    distance accumulates as (dx*dx + dy*dy) + dz*dz, and each product is
    rounded before the sum.  Without normals r' may also be planar points
    (K n, 2), the film z = 0 of the identity map: dz is then the point's z,
    exact as z - 0.0 = z for every z (-0.0 included), so dz*dz is z*z.

    Each node's coordinates, normal and densities are copied into every row
    of its panel (a copy of n contiguous values per row, no gather per
    (node, point) pair), and each call gathers its rows' points (3, len(cols))
    and broadcasts each across its n nodes.  So every arithmetic step runs on
    (len(cols), n) slabs, three of them, or six with normals.  The result is
    a view of one buffer shared by every call, made again only for a call
    with more slabs than it holds, so the next call overwrites it.  Per
    element the arithmetic is the same for any stacking and any ``cols``."""
    store = np.empty(0)

    def kernel(point, cols, counts, density=None, normal=None, normal_density=None):
        nonlocal store
        k, p = len(counts), len(cols)
        n = len(point) // k
        axes = point.shape[1]  # 3, or 2 for planar points
        slabs = 3 if normal is None else 6
        if store.size < slabs * p * n:
            store = np.empty(slabs * p * n)
        out = store[: slabs * p * n].reshape(slabs, p, n)
        points = rows[:, cols, None]  # each row's point, broadcast across its nodes
        panel = np.repeat(np.arange(k), counts)  # the panel of each row

        def per_row(node_values, into):
            """Values at the nodes (K n, c) or (K n,), copied into every row of their panel
            (mode "clip": the indices are in range, and "raise" would buffer the output)."""
            if node_values.ndim == 1:
                return np.take(node_values.reshape(k, n), panel, axis=0, out=into, mode="clip")
            c = node_values.shape[1]
            return np.take(np.ascontiguousarray(node_values.T).reshape(c, k, n), panel, axis=1, out=into, mode="clip")

        d = per_row(point, out[:axes])
        np.subtract(points[:axes], d, out=d)  # dx, dy (, dz)
        if normal is not None:
            terms = per_row(normal, out[3:])
            terms *= d
            dot = terms[0]
            dot += terms[1]
            dot += terms[2]
        d *= d
        G = d[0]
        G += d[1]
        G += d[2] if axes == 3 else np.square(points[2])  # planar: dz*dz = z*z per row
        np.sqrt(G, out=G)
        np.divide(1.0, G, out=G)
        if normal is None:
            G *= per_row(density, d[1])
            return G
        dGn = terms[1]
        np.multiply(G, G, out=dGn)
        dGn *= G
        dGn *= dot
        dGn *= per_row(normal_density, terms[0])
        if density is None:
            return dGn
        G *= per_row(density, d[1])
        G += dGn
        return G

    return kernel


def _weighted(field, weight: float, x_p: np.ndarray) -> np.ndarray:
    """weight * field(x_p), bitwise, multiplied in place into the new array
    the field returns, so a panel holds one array per density."""
    values = field(x_p)
    values *= weight
    return values


def _film_points(pmap: ParametricMap):
    """The surface points the kernel takes for planar parameter points x_p:
    on the identity map x_p themselves (the film is z = 0, so no (N, 3)
    copy is made), otherwise psi0(x_p)."""
    return (lambda x_p: x_p) if pmap.is_identity else pmap.midsurface


def homogenized_potential(
    fields: MomentFields,
    regime: Regime,
    pmap: ParametricMap,
    grid: ObservationGrid,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> FieldSample:
    """Limit potential of the regime: the weights (c_q, c_p, c_n) of
    :meth:`Regime.limit_weights`, the bulk integral, then the edges.

    Each weight multiplies its J0-premultiplied density after the density is
    evaluated, and is taken as 0 for a field that :attr:`Catalog.is_zero`:
    the single layer is c_q q J0, then minus c_p div_p(J0 p_p), and the
    double layer c_n p3 J0.  A term of weight 0 is not evaluated, and with
    none left the bulk integral is skipped (its value would be exactly 0).
    Only the double layer needs the normal, so only then does a call build
    its surface frame and dG/dnu'; a call with no single layer returns
    dG/dnu' c_n p3 J0 alone.  Each integrand
    declares its ``columns``, one per grid point, and a call f(x, cols,
    counts) takes the nodes of a round's panels stacked, panel k for the
    next counts[k] of the ascending grid-point indices ``cols``.  Each
    node's own work is done once: its mid-surface point (on the identity
    map, without a double layer, the planar node itself, see
    :func:`_film_points`), its surface frame and each density.  One
    :func:`_kernel` call then computes the Green kernel once per (node,
    point) pair, scaled by the densities, in (panel, point, node) rows
    (len(cols), n); every step is per node and point, so each panel's rows
    are those of a call on it alone with every point.  A plain call f(x) is
    one panel with every point and returns (N, M), the transpose.  The bulk
    and edge integrals share one kernel and its buffer, so a returned array
    is valid only until the next call.

    The edges run only when c_p is non-zero; the bulk integral then takes
    tol/2, and each edge is one adaptive integral of G (rho + (J0 p_p).n)
    over the whole edge in parameter arc length at tol/8 (four edges), its
    value times c_p.  The outward normal is a signed coordinate axis, so
    (J0 p_p).n is that column of the planar polarization times the sign,
    exactly the dot product up to the sign of a zero.  Folding the normal
    into the catalog weights would save evaluating the other column, but
    turns the catalog's matrix product into a matrix-vector one, which
    numpy's BLAS rounds differently.
    """
    c_q, c_p, c_n = regime.limit_weights()
    charge, div, normal = fields.charge_weighted, fields.div_pol_planar_weighted, fields.pol_normal_weighted
    c_q = 0.0 if charge.is_zero else c_q
    c_b = 0.0 if div.is_zero else c_p
    c_n = 0.0 if normal.is_zero else c_n
    kernel = _kernel(np.ascontiguousarray(grid.points.T))  # one contiguous row per component
    film_points = _film_points(pmap)
    every, one_panel = np.arange(grid.n_points), np.array([grid.n_points])

    def integrand(x_p, cols=None, counts=None):
        plain = cols is None  # f(x): one panel, every point, values (n, M)
        if plain:
            cols, counts = every, one_panel
        density = _weighted(charge, c_q, x_p) if c_q != 0.0 else None
        if c_b != 0.0:
            bound = _weighted(div, c_b, x_p)
            # with no free charge, 0.0 - c_p div: +0.0 where the bound charge is 0
            density = np.subtract(0.0 if density is None else density, bound, out=bound)
        if c_n == 0.0:
            values = kernel(film_points(x_p), cols, counts, density)
        else:
            fr = surface_frame(pmap, x_p)
            values = kernel(fr.point, cols, counts, density, fr.normal, _weighted(normal, c_n, x_p))
        return values.T if plain else values

    integrand.columns = grid.n_points
    dom = pmap.domain
    values = np.zeros(grid.n_points)
    if c_q != 0.0 or c_b != 0.0 or c_n != 0.0:
        values = adaptive_rectangle(integrand, dom.lo, dom.hi, tol=0.5 * tol if c_p else tol, max_depth=max_depth)
    if c_p != 0.0:
        total = np.zeros(grid.n_points)
        for edge in dom.edges():

            def edge_integrand(
                s, cols=None, counts=None, edge=edge, rho=fields.boundary_charge[edge.name], sign=edge.normal[edge.axis]
            ):
                plain = cols is None
                if plain:
                    cols, counts = every, one_panel
                x_p = edge.points(s)
                density = rho(x_p) + sign * fields.pol_planar_weighted(x_p)[:, edge.axis]
                values = kernel(film_points(x_p), cols, counts, density)
                return values.T if plain else values

            edge_integrand.columns = grid.n_points
            total += c_p * adaptive_segment(edge_integrand, edge.s_range, tol=tol / 8, max_depth=max_depth)
        values = values + total
    alpha = f" alpha={regime.alpha:g}" if regime.kind == "R2" else ""
    return FieldSample(grid=grid, values=values, provenance=f"homogenized({regime.kind}{alpha})")
