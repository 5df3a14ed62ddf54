"""Scaled lattices, unit-cell choices, and tessellation of the parameter domain.

A unit-cell choice is (e1, e2, f, O): basis vectors spanning the cell, a
corner offset in basis units, and an origin.  At scale l the cell with
integer index m = (m1, m2) has corner

    corner(m) = O + l * B @ (m + f),        B = [e1 e2]

and occupies corner + l * B @ [0,1)^2 (half-open, so the plane is an exact
partition and atom-to-cell assignment is deterministic).  Cells fully inside
the domain are "full"; cells whose closed translate meets the complement but
still overlap the domain with positive area are "partial" and carry the area
of their exact rectangle-parallelogram clip.

:func:`tessellate` has no per-cell loop.  Full cells and the boundary band
(cells that meet the domain but are not full) are classified on per-vertex
arrays, and the band is clipped at once: one Sutherland-Hodgman pass per
side of the domain over a (K, W, 2) vertex array with per-row vertex counts.
Clip areas are shoelace sums relative to each polygon's first vertex, so
their roundoff scales with the cell, not with the domain's distance from the
origin; a cell that touches the domain only at a point or along a side has
area 0 and is not a partial cell, wherever the domain sits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .errors import EmptyTessellation
from .geometry import Edge, Rectangle

_CONTAIN_TOL = 1e-12   # absolute slack for full-cell containment tests
_SNAP_TOL = 1e-9       # snap basis coordinates sitting on a cell boundary
_AREA_TOL_REL = 1e-12  # clip areas below this fraction of a cell are dropped
_MAX_PERIOD = 1000     # largest integer component of an edge's lattice period
_UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@dataclass(frozen=True)
class UnitCellChoice:
    """Basis vectors, corner offset (basis units) and origin of the tiling."""

    e1: tuple[float, float] = (1.0, 0.0)
    e2: tuple[float, float] = (0.0, 1.0)
    f: tuple[float, float] = (0.0, 0.0)
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if abs(np.linalg.det(self.basis)) <= 1e-12:
            raise ValueError("unit-cell basis vectors are linearly dependent")

    @cached_property
    def basis(self) -> np.ndarray:
        basis = np.column_stack([self.e1, self.e2]).astype(float)
        basis.flags.writeable = False  # cached and shared by every caller
        return basis

    @cached_property
    def basis_inv(self) -> np.ndarray:
        inv = np.linalg.inv(self.basis)
        inv.flags.writeable = False
        return inv

    @cached_property
    def cell_area(self) -> float:
        return float(abs(np.linalg.det(self.basis)))

    def planar(self, c, l: float) -> np.ndarray:
        """Planar offset l * B @ c of basis coordinates c, shape (..., 2)."""
        return _matvec(l * self.basis, np.asarray(c, float))

    def corner(self, index, l: float) -> np.ndarray:
        """Corner of the cell with integer index (2,), or of each row of (N, 2)."""
        m = np.asarray(index, float)
        return np.asarray(self.origin, float) + self.planar(m + np.asarray(self.f, float), l)

    def basis_coords(self, x_p: np.ndarray, l: float) -> np.ndarray:
        """Continuous cell coordinates: integer parts index the cell lattice."""
        x_p = np.asarray(x_p, float)
        rel = x_p - np.asarray(self.origin, float)
        c = _matvec(self.basis_inv, rel) / l - np.asarray(self.f, float)
        # snap coordinates that sit on a cell boundary up to division fuzz
        nearest = np.round(c)
        snap = np.abs(c - nearest) <= _SNAP_TOL * np.maximum(1.0, np.abs(c))
        return np.where(snap, nearest, c)


def _matvec(mat: np.ndarray, c: np.ndarray) -> np.ndarray:
    """mat @ c for each row c of (..., 2), with the same bits whatever the shape.

    Elementwise, c1 * mat[a, 0] + c2 * mat[a, 1] per output column a: BLAS's
    fused multiply-adds round differently from build to build, and between
    one point and a batch, so a point could change cell inside an array.
    """
    out = np.empty(c.shape)
    for a in (0, 1):
        np.multiply(c[..., 0], mat[a, 0], out=out[..., a])
        out[..., a] += c[..., 1] * mat[a, 1]
    return out


def cell_index(x_p: np.ndarray, l: float, choice: UnitCellChoice) -> np.ndarray:
    """Integer lattice index of the cell containing each point."""
    return np.floor(choice.basis_coords(x_p, l)).astype(int)


@dataclass(frozen=True, eq=False)
class Tessellation:
    """Cells tiling a rectangular parameter domain, as arrays.

    Row k of ``indices`` and ``corners`` is one cell: the ``n_full`` full
    cells come first, then the partial cells, each in ascending lattice
    index.  Partial cells also carry the area of their part inside the
    domain.
    """

    domain: Rectangle
    l: float
    choice: UnitCellChoice
    indices: np.ndarray                     # (N, 2) int lattice indices
    corners: np.ndarray                     # (N, 2) cell corners
    n_full: int
    clip_areas: np.ndarray                  # (N - n_full,)

    @property
    def full_cells(self) -> np.ndarray:
        """Lattice indices of the full cells."""
        return self.indices[: self.n_full]

    @property
    def partial_cells(self) -> np.ndarray:
        """Lattice indices of the partial cells."""
        return self.indices[self.n_full :]

    @property
    def tol(self) -> float:
        """Containment slack: lengths up to it count as zero on the domain boundary."""
        return containment_tol(self.domain)

    def place(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Planar position of motif point ``y`` in every cell, and which are kept.

        ``y`` is in basis coordinates.  Full cells keep every point; partial
        cells keep the points lying in the closed domain (1e-12 slack).
        """
        planar = self.corners + self.choice.planar(y, self.l)
        kept = np.ones(len(planar), bool)
        kept[self.n_full :] = self.domain.contains(planar[self.n_full :], tol=self.tol)
        return planar, kept


def containment_tol(domain: Rectangle) -> float:
    """Absolute slack of the closed-domain tests: 1e-12 of the domain's diameter, at least 1e-12."""
    return _CONTAIN_TOL * max(1.0, domain.diameter)


def edge_counts(edge: Edge, ys, l: float, choice: UnitCellChoice, tol: float) -> tuple[np.ndarray, float]:
    """Per point of ``ys``, how many cells of one lattice period along ``edge``
    straddle its line and keep the point; and that period P in cells.

    With beta the row of B along the edge's normal axis a, cell m's corner
    sits at the inward level phi(m) = -n (x_a(corner) - value) / l, n the
    outward normal's component.  The levels are phi0 + j lam; each recurs
    once per P = |B t| cells along the edge, t the primitive integer vector
    with beta . t = 0, so lam = |det B| / P.  A straddling cell has vertex
    levels below -tol / l and above 0 and keeps the points whose level is at
    least -tol / l, as :meth:`Tessellation.place` does.  Raises ValueError
    naming the edge when no t has components up to _MAX_PERIOD.
    """
    a = edge.axis
    beta = choice.basis[a]
    # t[small] = 1, 2, ...: the first near-integer t[big] gives the primitive t
    big = int(np.argmax(np.abs(beta)))
    ts = np.empty((_MAX_PERIOD, 2))
    ts[:, 1 - big] = np.arange(1, _MAX_PERIOD + 1)
    ts[:, big] = np.round(-beta[1 - big] * ts[:, 1 - big] / beta[big])
    hits = np.flatnonzero(np.abs(ts @ beta) <= _SNAP_TOL * (np.abs(ts) @ np.abs(beta)))
    if not len(hits):
        raise ValueError(f"edge {edge.name!r} has no lattice period of at most {_MAX_PERIOD} cells per basis vector")
    t, along = ts[hits[0]], choice.basis[1 - a]
    period = abs(along[0] * t[0] + along[1] * t[1])
    lam = choice.cell_area / period
    inward, f = -edge.normal[a], choice.f
    phi0 = (inward * ((choice.origin[a] - edge.value) / l + (beta[0] * f[0] + beta[1] * f[1]))) % lam
    vertex = inward * np.array([0.0, beta[0], beta[1], beta[0] + beta[1]])
    eps = tol / l
    levels = phi0 + lam * np.arange(np.floor((-vertex.max() - phi0) / lam), np.ceil((-vertex.min() - phi0) / lam) + 1)
    levels = levels[(levels + vertex.min() < -eps) & (levels + vertex.max() > 0.0)]
    offsets = [inward * (beta[0] * y[0] + beta[1] * y[1]) for y in ys]
    return np.array([np.count_nonzero(levels + off >= -eps) for off in offsets], float), period


def _clip_to_rectangle(polys: np.ndarray, rect: Rectangle) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of K convex polygons (K, V, 2) against the rectangle at once.

    Each half-plane pass, in the order x >= lo, x <= hi, y >= lo, y <= hi,
    walks every edge (cur, nxt) of every row: it keeps cur if inside and,
    where the edge crosses the line, adds cur + t (nxt - cur) with t = (value
    - cur) / (nxt - cur) along the axis and the clipped coordinate set to the
    line.  Survivors are compacted in their order into rows as wide as the
    largest count, so convex 4-gons end at most 8 wide.  Returns the clipped
    rows (K, W, 2), each with its vertices first, and their vertex counts.
    """
    halfplanes = [(0, rect.lo[0], +1.0), (0, rect.hi[0], -1.0), (1, rect.lo[1], +1.0), (1, rect.hi[1], -1.0)]
    k, rows = len(polys), np.arange(len(polys))[:, None]
    count = np.full(k, polys.shape[1])
    for axis, value, sign in halfplanes:
        width = polys.shape[1]
        slot = np.arange(width)
        valid = slot < count[:, None]
        nxt = polys[rows, (slot + 1) % np.maximum(count, 1)[:, None]]
        cur_in = sign * (polys[..., axis] - value) >= 0.0
        nxt_in = sign * (nxt[..., axis] - value) >= 0.0
        cross = valid & (cur_in != nxt_in)
        cur, to = polys[cross], nxt[cross]
        t = (value - cur[:, axis]) / (to[:, axis] - cur[:, axis])
        pt = cur + t[:, None] * (to - cur)
        pt[:, axis] = value  # exactly on the clip line
        # each edge emits cur (if inside), then its crossing point (if any)
        cand = np.stack([polys, np.zeros_like(polys)], axis=2)
        cand[cross, 1] = pt
        emit = np.stack([valid & cur_in, cross], axis=2).reshape(k, 2 * width)
        count = np.count_nonzero(emit, axis=1)
        polys = np.zeros((k, max(1, int(count.max(initial=0))), 2))
        polys[np.nonzero(emit)[0], (np.cumsum(emit, axis=1) - 1)[emit]] = cand.reshape(k, 2 * width, 2)[emit]
    return polys, count


def _polygon_areas(polys: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Shoelace areas of rows of ``polys`` (K, W, 2) with ``count`` vertices each.

    Coordinates are taken relative to each row's first vertex, so roundoff
    scales with the polygon and not with its distance from the origin: a clip
    that collapsed to one repeated point has area exactly 0.  Slots past the
    count become that first vertex, whose terms vanish.
    """
    rel = polys - polys[:, :1]
    rel[np.arange(polys.shape[1]) >= count[:, None]] = 0.0
    x, y = rel[..., 0], rel[..., 1]
    return 0.5 * np.abs(np.sum(x[:, :-1] * y[:, 1:] - x[:, 1:] * y[:, :-1], axis=1))


def tessellate(domain: Rectangle, l: float, choice: UnitCellChoice) -> Tessellation:
    """Enumerate full and partial cells of the scaled tiling over the domain.

    Candidate indices come from the basis-coordinate bounding box of the
    domain inflated by one cell.  One vectorized containment test, exact up
    to a tolerance of 1e-12 (absolute, domain units), finds the full cells;
    the candidates of the domain's boundary band are clipped together by
    :func:`_clip_to_rectangle` and kept when their area exceeds 1e-12 of a
    cell.
    """
    if not (0.0 < l <= 1.0):
        raise ValueError(f"scale l must lie in (0, 1], got {l}")
    tol = containment_tol(domain)
    area_floor = _AREA_TOL_REL * choice.cell_area * l * l

    coords = choice.basis_coords(domain.corners(), l)
    m_lo = np.floor(coords.min(axis=0)).astype(int) - 1
    m_hi = np.ceil(coords.max(axis=0)).astype(int) + 1
    m1, m2 = np.meshgrid(
        np.arange(m_lo[0], m_hi[0] + 1), np.arange(m_lo[1], m_hi[1] + 1), indexing="ij"
    )
    indices = np.column_stack([m1.ravel(), m2.ravel()])  # ascending, as (m1, m2) tuples sort
    corners = choice.corner(indices, l)

    # corner + offset rounds monotonically in the offset, so every cell's
    # extreme vertex along an axis is the one with the extreme offset
    offsets = choice.planar(_UNIT_SQUARE, l)  # (4, 2) cell vertices relative to the corner, in cycle order
    lo = [corners[:, a] + offsets[:, a].min() for a in (0, 1)]
    hi = [corners[:, a] + offsets[:, a].max() for a in (0, 1)]
    full = np.ones(len(corners), bool)
    meets = np.ones(len(corners), bool)
    for a in (0, 1):
        full &= (lo[a] >= domain.lo[a] - tol) & (hi[a] <= domain.hi[a] + tol)
        # a cell outside one side of the domain, or touching it only on the
        # side's line, clips to nothing or to points on that line: zero area
        meets &= (hi[a] > domain.lo[a]) & (lo[a] < domain.hi[a])
    band = np.flatnonzero(~full & meets)
    clipped, count = _clip_to_rectangle(corners[band, None, :] + offsets, domain)
    areas = _polygon_areas(clipped, count)
    keep = np.flatnonzero(areas > area_floor)
    rows = np.concatenate([np.flatnonzero(full), band[keep]])

    tess = Tessellation(
        domain=domain,
        l=l,
        choice=choice,
        indices=np.take(indices, rows, axis=0),  # np.take: fancy row indexing is slower here
        corners=np.take(corners, rows, axis=0),
        n_full=int(np.count_nonzero(full)),
        clip_areas=areas[keep],
    )
    if tess.n_full == 0:
        warnings.warn(
            "no full cell fits in the domain; partial cells still tile it",
            EmptyTessellation,
        )
    return tess
