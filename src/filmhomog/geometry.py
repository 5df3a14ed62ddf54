"""Film parameterization: maps, surface Jacobians and frames.

A film is described by a smooth map psi : T x R -> R^3 over a rectangular
parameter domain T in R^2.  The mid-surface is the image of x3 = 0.  All
homogenized sources are integrated in parameter space, so the quantities
needed downstream are:

    J0(xp) = |d1 psi0 x d2 psi0|           surface Jacobian of the mid-surface
    nu     = unit normal of the mid-surface (oriented by the parameterization)

Every map carries the analytic tangents d1 psi0, d2 psi0 of its mid-surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateFrame

_FRAME_TOL = 1e-12


def _identity(x: np.ndarray) -> np.ndarray:
    return np.array(x, float, copy=True)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned parameter rectangle [lo1, hi1] x [lo2, hi2]."""

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self):
        if not (self.hi[0] > self.lo[0] and self.hi[1] > self.lo[1]):
            raise ValueError(f"degenerate rectangle: lo={self.lo}, hi={self.hi}")

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.hi, float) - np.asarray(self.lo, float)

    @property
    def diameter(self) -> float:
        return float(np.hypot(*self.widths))

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        p = np.asarray(points, float)
        lo = np.asarray(self.lo, float) - tol
        hi = np.asarray(self.hi, float) + tol
        return np.all((p >= lo) & (p <= hi), axis=-1)

    def corners(self) -> np.ndarray:
        (a, b), (c, d) = self.lo, self.hi
        return np.array([[a, b], [c, b], [c, d], [a, d]], float)

    def edges(self) -> list["Edge"]:
        (a, b), (c, d) = self.lo, self.hi
        return [
            Edge("left", 0, a, (b, d), (-1.0, 0.0)),
            Edge("right", 0, c, (b, d), (1.0, 0.0)),
            Edge("bottom", 1, b, (a, c), (0.0, -1.0)),
            Edge("top", 1, d, (a, c), (0.0, 1.0)),
        ]


@dataclass(frozen=True)
class Edge:
    """One side of the parameter rectangle.

    The edge is the set {x : x[axis] = value, s_range[0] <= x[1-axis] <= s_range[1]};
    ``normal`` is the outward unit normal of the rectangle in parameter space.
    """

    name: str
    axis: int  # coordinate held fixed (0 -> vertical edge, 1 -> horizontal)
    value: float
    s_range: tuple[float, float]
    normal: tuple[float, float]

    def points(self, s: np.ndarray) -> np.ndarray:
        """Parameter-space points at arc coordinates ``s`` along the edge."""
        s = np.asarray(s, float)
        out = np.empty(s.shape + (2,))
        out[..., self.axis] = self.value
        out[..., 1 - self.axis] = s
        return out


@dataclass(frozen=True)
class SurfaceFrame:
    """Mid-surface frame at one or many parameter points."""

    point: np.ndarray        # (..., 3) physical position on the mid-surface
    normal: np.ndarray       # (..., 3) unit normal


class ParametricMap:
    """Smooth parameterization of the film with its mid-surface tangents.

    Use the factory constructors (:meth:`identity`, :meth:`cylinder`,
    :meth:`polar_disk`, :meth:`scaled`), or pass a mapping together with the
    analytic tangents of its mid-surface, (..., 2) -> (..., 3, 2) with
    columns d1 psi0 and d2 psi0, and ``lipschitz``, a bound on the spectral
    norm of D psi0 = (d1 psi0, d2 psi0) over T.  The bound makes the standoff
    of an observation grid certifiable (|psi0(x) - psi0(y)| <= lipschitz *
    |x - y| on every parameter cell); it is never sampled, as a sampled
    bound certifies nothing.  A map whose tangents differ much in length, or
    vary over T, may also pass ``cell_lipschitz``: (lo, hi) boxes (K, 2) ->
    per-axis bounds (K, 2) with |D psi0(x) v| <= |(L1 v1, L2 v2)| for every
    x in the box (see :meth:`cell_bounds`).  Instances are immutable.

    A factory map is valid by construction: its parameters alone decide
    that it is smooth, injective and has J0 > 0 on T (up to measure-zero
    degeneracies such as the polar axis), and a bad parameter raises
    ValueError.  A map built with the constructor is the caller's
    responsibility; nothing samples it.
    """

    def __init__(
        self,
        domain: Rectangle,
        mapping: Callable[[np.ndarray], np.ndarray],
        tangents: Callable[[np.ndarray], np.ndarray],
        lipschitz: float,
        h_max: float = math.inf,
        cell_lipschitz: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ):
        if not (math.isfinite(lipschitz) and lipschitz > 0):
            raise ValueError(f"lipschitz bound must be finite and positive, got {lipschitz!r}")
        self.domain = domain
        self.lipschitz = float(lipschitz)
        self.h_max = float(h_max)
        self._map = mapping
        self._tangents = tangents
        self._cell_lipschitz = cell_lipschitz

    # ---------------- factories ----------------

    @classmethod
    def identity(cls, domain: Rectangle) -> "ParametricMap":
        """Flat film: psi = id, mid-surface is T x {0}."""
        eye = np.eye(3)[:, :2]

        def tangents(x_p):
            T = np.empty(x_p.shape[:-1] + (3, 2))
            T[...] = eye
            return T

        return cls(domain, _identity, tangents, lipschitz=1.0)

    @classmethod
    def cylinder(cls, domain: Rectangle, radius: float, h_max: Optional[float] = None) -> "ParametricMap":
        """Isometric wrap onto a cylinder of the given radius.

        psi(x) = ((R + x3) cos(x1/R), (R + x3) sin(x1/R), x2); the mid-surface
        Jacobian is exactly 1 (bending without stretch).  ValueError unless R
        is finite and positive, 0 < h_max <= R (so r = R + x3 > 0 on the open
        slab; default R / 2), and the domain is at most 2 pi R wide in x1
        (a wider one would overlap itself).
        """
        R = float(radius)
        if not (math.isfinite(R) and R > 0):
            raise ValueError(f"cylinder radius must be finite and positive, got {R!r}")
        hm = 0.5 * R if h_max is None else float(h_max)
        if not (0.0 < hm <= R):
            raise ValueError(f"cylinder h_max must satisfy 0 < h_max <= radius {R!r}, got {hm!r}")
        if domain.widths[0] / R > 2.0 * math.pi:
            turn = domain.widths[0] / R
            raise ValueError(f"cylinder of radius {R!r} wraps {turn:.4g} rad > 2 pi, so the film overlaps itself")

        def mapping(x):
            x = np.asarray(x, float)
            ang = x[..., 0] / R
            r = R + x[..., 2]
            return np.stack([r * np.cos(ang), r * np.sin(ang), x[..., 1]], axis=-1)

        def tangents(x_p):
            ang = x_p[..., 0] / R
            T = np.zeros(x_p.shape[:-1] + (3, 2))
            T[..., 0, 0] = -np.sin(ang)
            T[..., 1, 0] = np.cos(ang)
            T[..., 2, 1] = 1.0
            return T

        return cls(domain, mapping, tangents, lipschitz=1.0, h_max=hm)  # orthonormal tangents

    @classmethod
    def polar_disk(cls, radius: float = 1.0) -> "ParametricMap":
        """Flat disk of the given radius, parameterized in polar coordinates.

        T = [0, radius] x [0, 2 pi]; J0 = x1 degenerates on the x1 = 0 edge
        only, which carries zero measure and is never hit by Gauss nodes.
        ValueError unless the radius is finite and positive.
        """
        R = float(radius)
        if not (math.isfinite(R) and R > 0):
            raise ValueError(f"polar disk radius must be finite and positive, got {R!r}")
        domain = Rectangle((0.0, 0.0), (R, 2.0 * math.pi))

        def mapping(x):
            x = np.asarray(x, float)
            return np.stack(
                [x[..., 0] * np.cos(x[..., 1]), x[..., 0] * np.sin(x[..., 1]), x[..., 2]],
                axis=-1,
            )

        def tangents(x_p):
            c, s = np.cos(x_p[..., 1]), np.sin(x_p[..., 1])
            T = np.zeros(x_p.shape[:-1] + (3, 2))
            T[..., 0, 0] = c
            T[..., 1, 0] = s
            T[..., 0, 1] = -x_p[..., 0] * s
            T[..., 1, 1] = x_p[..., 0] * c
            return T

        def cell_lipschitz(lo, hi):  # orthogonal tangents of norms 1 and x1 >= 0
            return np.stack([np.ones(len(hi)), hi[:, 0]], axis=-1)

        return cls(domain, mapping, tangents, lipschitz=max(1.0, R), cell_lipschitz=cell_lipschitz)

    @classmethod
    def scaled(cls, domain: Rectangle, factors: Sequence[float]) -> "ParametricMap":
        """Diagonal stretch psi(x) = (a1 x1, a2 x2, a3 x3); ValueError unless
        the three factors are finite and non-zero."""
        a = np.asarray(factors, float)
        if a.shape != (3,) or not (np.isfinite(a).all() and a.all()):
            raise ValueError(f"scaled map needs three finite, non-zero factors, got {a.tolist()!r}")
        D0 = np.diag(a)[:, :2]

        def mapping(x):
            return np.asarray(x, float) * a

        def tangents(x_p):
            return np.broadcast_to(D0, x_p.shape[:-1] + (3, 2)).copy()

        return cls(domain, mapping, tangents, lipschitz=max(abs(a[0]), abs(a[1])))

    # ---------------- evaluation ----------------

    @property
    def is_identity(self) -> bool:
        """True for the flat film of :meth:`identity`: psi0(x) = (x1, x2, 0)."""
        return self._map is _identity

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """psi at 3D parameter points (..., 3); on the identity map a copy of x."""
        return self._map(np.asarray(x, float))

    def midsurface(self, x_p: np.ndarray) -> np.ndarray:
        """psi0 at planar parameter points (..., 2); on the identity map the
        embedded points (x1, x2, 0) themselves, a new array with no second copy."""
        x_p = np.asarray(x_p, float)
        x = np.zeros(x_p.shape[:-1] + (3,))
        x[..., :2] = x_p
        return x if self.is_identity else self.evaluate(x)

    def tangents(self, x_p: np.ndarray) -> np.ndarray:
        """Mid-surface tangents d1 psi0, d2 psi0 as the columns of (..., 3, 2)
        at planar parameter points (..., 2)."""
        return self._tangents(np.asarray(x_p, float))

    def cell_bounds(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per-axis Lipschitz bounds (K, 2) of psi0 over parameter boxes [lo, hi] (K, 2).

        For every x in a box and every v, |D psi0(x) v| <= |(L1 v1, L2 v2)|;
        without ``cell_lipschitz`` both are the global ``lipschitz``.
        """
        if self._cell_lipschitz is None:
            return np.full(np.shape(lo), self.lipschitz)
        return self._cell_lipschitz(lo, hi)


def _tangent_cross(pmap: ParametricMap, x_p: np.ndarray):
    """The components of t1 x t2 for the mid-surface tangents t1, t2 at x_p,
    J0 = |t1 x t2|, and the mask of points where the tangents are
    (numerically) parallel, so that no frame exists.

    J0 = |t1 x t2| equals sqrt(det(Dpsi0^T Dpsi0)) by the Gram identity.  The
    cross product and norms are taken per component, in the operation order
    of np.cross and np.linalg.norm, so J0 and the frame are bitwise the same.
    """
    T = pmap.tangents(x_p)
    t1, t2 = T[..., :, 0], T[..., :, 1]
    a0, a1, a2 = t1[..., 0], t1[..., 1], t1[..., 2]
    b0, b1, b2 = t2[..., 0], t2[..., 1], t2[..., 2]
    cross = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    j0 = np.sqrt(cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2])
    scale = np.sqrt(a0 * a0 + a1 * a1 + a2 * a2) * np.sqrt(b0 * b0 + b1 * b1 + b2 * b2)
    return cross, j0, j0 <= _FRAME_TOL * np.maximum(scale, 1.0)


def surface_frame(pmap: ParametricMap, x_p: np.ndarray) -> SurfaceFrame:
    """Position and unit normal of the mid-surface at x_p; raises
    DegenerateFrame if the tangents are parallel at any point."""
    cross, j0, degenerate = _tangent_cross(pmap, x_p)
    if degenerate.any():
        raise DegenerateFrame("surface tangents are parallel within tolerance")
    normal = np.empty(j0.shape + (3,))
    for k, c in enumerate(cross):
        np.divide(c, j0, out=normal[..., k])
    return SurfaceFrame(point=pmap.midsurface(x_p), normal=normal)
