"""Scaled lattices, unit-cell choices, and tessellation of the parameter domain.

A unit-cell choice is (e1, e2, f, O): basis vectors spanning the cell, a
corner offset in basis units, and an origin.  At scale l the cell with
integer index m = (m1, m2) has corner

    corner(m) = O + l * B @ (m + f),        B = [e1 e2]

and occupies corner + l * B @ [0,1)^2 (half-open, so the plane is an exact
partition and atom-to-cell assignment is deterministic).  Cells fully inside
the domain are "full"; cells whose closed translate meets the complement but
still overlap the domain with positive area are "partial" and carry an exact
rectangle-parallelogram clip polygon.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np

from .errors import EmptyTessellation
from .geometry import Edge, Rectangle

_CONTAIN_TOL = 1e-12   # absolute slack for full-cell containment tests
_SNAP_TOL = 1e-9       # snap basis coordinates sitting on a cell boundary
_AREA_TOL_REL = 1e-12  # clip areas below this fraction of a cell are dropped
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

    @property
    def basis(self) -> np.ndarray:
        return np.column_stack([self.e1, self.e2]).astype(float)

    @property
    def basis_inv(self) -> np.ndarray:
        return np.linalg.inv(self.basis)

    @property
    def cell_area(self) -> float:
        return float(abs(np.linalg.det(self.basis)))

    def planar(self, c, l: float) -> np.ndarray:
        """Planar offset l * B @ c of basis coordinates c, shape (2,) or (N, 2).

        Computed elementwise as c1 * (l e1) + c2 * (l e2): a matrix product
        goes to BLAS, whose fused multiply-adds round differently from build
        to build.
        """
        c = np.asarray(c, float)
        lb = l * self.basis
        return c[..., :1] * lb[:, 0] + c[..., 1:] * lb[:, 1]

    def corner(self, index, l: float) -> np.ndarray:
        """Corner of the cell with integer index (2,), or of each row of (N, 2)."""
        m = np.asarray(index, float)
        return np.asarray(self.origin, float) + self.planar(m + np.asarray(self.f, float), l)

    def basis_coords(self, x_p: np.ndarray, l: float) -> np.ndarray:
        """Continuous cell coordinates: integer parts index the cell lattice."""
        x_p = np.asarray(x_p, float)
        rel = x_p - np.asarray(self.origin, float)
        c = rel @ self.basis_inv.T / l - np.asarray(self.f, float)
        # snap coordinates that sit on a cell boundary up to division fuzz
        nearest = np.round(c)
        snap = np.abs(c - nearest) <= _SNAP_TOL * np.maximum(1.0, np.abs(c))
        return np.where(snap, nearest, c)


def cell_index(x_p: np.ndarray, l: float, choice: UnitCellChoice) -> np.ndarray:
    """Integer lattice index of the cell containing each point."""
    return np.floor(choice.basis_coords(x_p, l)).astype(int)


@dataclass(frozen=True, eq=False)
class Tessellation:
    """Cells tiling a rectangular parameter domain, as arrays.

    Row k of ``indices`` and ``corners`` is one cell: the ``n_full`` full
    cells come first, then the partial cells, each in ascending lattice
    index.  Partial cells also carry the CCW clip polygon of their part
    inside the domain and its area.
    """

    domain: Rectangle
    l: float
    choice: UnitCellChoice
    indices: np.ndarray                     # (N, 2) int lattice indices
    corners: np.ndarray                     # (N, 2) cell corners
    n_full: int
    clip_polygons: tuple[np.ndarray, ...]   # (K, 2) per partial cell
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
        return _CONTAIN_TOL * max(1.0, self.domain.diameter)

    def place(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Planar position of motif point ``y`` in every cell, and which are kept.

        ``y`` is in basis coordinates.  Full cells keep every point; partial
        cells keep the points lying in the closed domain (1e-12 slack).
        """
        planar = self.corners + self.choice.planar(y, self.l)
        kept = np.ones(len(planar), bool)
        kept[self.n_full :] = self.domain.contains(planar[self.n_full :], tol=self.tol)
        return planar, kept

    def boundary_spans(self, edge: Edge) -> list[tuple[float, float, int]]:
        """Sorted intervals of a domain edge covered by cells, with each cell's row.

        Consecutive spans share endpoints only (cells overlap on measure-zero
        sets).  Partial cells, and full cells with a side on the edge line,
        can cover positive length.
        """
        tol = self.tol
        full = _cell_polygons(self.corners[: self.n_full], self.l, self.choice)
        on_line = np.abs(full[..., edge.axis] - edge.value) <= tol
        rows = np.flatnonzero(np.count_nonzero(on_line, axis=1) >= 2)
        candidates = [(int(r), full[r]) for r in rows]
        candidates += [(self.n_full + k, poly) for k, poly in enumerate(self.clip_polygons)]
        spans = []
        for row, poly in candidates:
            # a clip polygon has vertices exactly on the edge wherever it
            # covers positive length of it
            s = poly[np.abs(poly[:, edge.axis] - edge.value) <= tol, 1 - edge.axis]
            if len(s) >= 2 and s.max() - s.min() > tol:
                spans.append((float(s.min()), float(s.max()), row))
        spans.sort(key=lambda t: (t[0], t[1]))
        return spans


def _cell_polygons(corners: np.ndarray, l: float, choice: UnitCellChoice) -> np.ndarray:
    """Uncut cells as (N, 4, 2) CCW parallelograms."""
    return corners[:, None, :] + l * _UNIT_SQUARE @ choice.basis.T


def _clip_polygon_to_rectangle(poly: np.ndarray, rect: Rectangle) -> np.ndarray:
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


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    nxt = np.arange(1, len(poly) + 1) % len(poly)
    return float(0.5 * abs(np.dot(x, y[nxt]) - np.dot(x[nxt], y)))


def tessellate(domain: Rectangle, l: float, choice: UnitCellChoice) -> Tessellation:
    """Enumerate full and partial cells of the scaled tiling over the domain.

    Candidate indices come from the basis-coordinate bounding box of the
    domain inflated by one cell.  One vectorized containment test, exact up
    to a tolerance of 1e-12 (absolute, domain units), finds the full cells;
    only the candidates meeting the domain's boundary band are clipped.
    """
    if not (0.0 < l <= 1.0):
        raise ValueError(f"scale l must lie in (0, 1], got {l}")
    tol = _CONTAIN_TOL * max(1.0, domain.diameter)
    area_floor = _AREA_TOL_REL * choice.cell_area * l * l

    coords = choice.basis_coords(domain.corners(), l)
    m_lo = np.floor(coords.min(axis=0)).astype(int) - 1
    m_hi = np.ceil(coords.max(axis=0)).astype(int) + 1
    m1, m2 = np.meshgrid(
        np.arange(m_lo[0], m_hi[0] + 1), np.arange(m_lo[1], m_hi[1] + 1), indexing="ij"
    )
    indices = np.column_stack([m1.ravel(), m2.ravel()])  # ascending, as (m1, m2) tuples sort
    corners = choice.corner(indices, l)
    polys = _cell_polygons(corners, l, choice)

    full = np.all(domain.contains(polys, tol=tol), axis=1)
    # a polygon strictly outside one side of the domain clips to nothing
    meets = np.all(polys.max(axis=1) >= domain.lo, axis=1) & np.all(polys.min(axis=1) <= domain.hi, axis=1)
    band = np.flatnonzero(~full & meets)
    clipped = [_clip_polygon_to_rectangle(polys[k], domain) for k in band]
    areas = np.array([_polygon_area(p) for p in clipped])
    keep = np.flatnonzero(areas > area_floor)
    rows = np.concatenate([np.flatnonzero(full), band[keep]])

    tess = Tessellation(
        domain=domain,
        l=l,
        choice=choice,
        indices=indices[rows],
        corners=corners[rows],
        n_full=int(np.count_nonzero(full)),
        clip_polygons=tuple(clipped[k] for k in keep),
        clip_areas=areas[keep],
    )
    if tess.n_full == 0:
        warnings.warn(
            "no full cell fits in the domain; partial cells still tile it",
            EmptyTessellation,
        )
    return tess
