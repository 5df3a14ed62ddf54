"""Microscopic charge families: per-cell motifs with regime-dependent scaling.

A motif is a list of weighted reference points (w, y, z) with y in the unit
cell (basis coordinates, half-open [0,1)^2) and z in (-1, 1).  Weights are
atoms of the reference measure *including* the volume Jacobian, so every
per-cell moment downstream is an exact finite sum and the direct potential
is an exact Green's sum.  Weights may be modulated by a smooth function of
the cell corner drawn from a fixed catalog (constant / linear / sinusoid).

Charge imbalance ("free charge") is modeled as a separate list of points
whose weights enter scaled by l^alpha * h^beta, so the per-cell net charge
normalized by that factor has a finite limit.

Scaling regimes tie the density normalization to (l, h):

    R1  thickness shrinks faster than the lattice (h/l -> 0), density ~ 1/(l h)
    R2  proportional thickness h = alpha l,                   density ~ 1/l^2
    R3  lattice shrinks faster than the thickness (l/h -> 0), density ~ 1/h^2

Combining each with the per-cell volume factor l^2 h of the corner-map
substitution gives the physical per-atom prefactors l, alpha*l and l^2/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import RegimeMismatch, UnsupportedModulation
from .geometry import ParametricMap
from .lattice import Tessellation


# ---------------------------------------------------------------------------
# weight modulation catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Modulation:
    """Smooth scalar factor on a motif weight, evaluated at cell corners.

    kind = "constant":  value
    kind = "linear":    value + coef . x
    kind = "sinusoid":  value * sin(coef . x + phase)

    The catalog is closed under translation (see :meth:`shifted`), which is
    what makes exact re-binning between unit-cell choices possible.
    """

    kind: str = "constant"
    value: float = 1.0
    coef: tuple[float, float] = (0.0, 0.0)
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "sinusoid"):
            raise UnsupportedModulation(f"unknown modulation kind {self.kind!r}")

    def __call__(self, x_p: np.ndarray) -> np.ndarray:
        x_p = np.asarray(x_p, float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.value), x_p.shape[:-1]).copy()
        dot = x_p @ np.asarray(self.coef, float)
        if self.kind == "linear":
            return self.value + dot
        return self.value * np.sin(dot + self.phase)

    def shifted(self, delta: np.ndarray) -> "Modulation":
        """Same modulation re-anchored: shifted(d)(x) == self(x + d)."""
        delta = np.asarray(delta, float)
        if self.kind == "constant":
            return self
        if self.kind == "linear":
            off = float(np.dot(self.coef, delta))
            return replace(self, value=self.value + off)
        off = float(np.dot(self.coef, delta))
        return replace(self, phase=self.phase + off)


# ---------------------------------------------------------------------------
# motifs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MotifPoint:
    """One weighted reference point of the cell motif."""

    w: float
    y: tuple[float, float]          # basis coordinates in the unit cell
    z: float                        # normalized thickness coordinate in (-1, 1)
    modulation: Modulation = Modulation()

    def weight_at(self, corner: np.ndarray) -> np.ndarray:
        return self.w * self.modulation(corner)


@dataclass(frozen=True)
class Motif:
    """Per-cell reference charge: neutral points plus an optional imbalance.

    ``points`` carry the charge-neutral part; ``free_points`` carry the
    imbalance whose weights are multiplied by l^alpha * h^beta at realization
    so the normalized per-cell net charge has a finite limit.
    """

    points: tuple[MotifPoint, ...]
    free_points: tuple[MotifPoint, ...] = ()
    free_charge_order: tuple[int, int] = (1, 0)

    def __post_init__(self):
        if not self.points and not self.free_points:
            raise ValueError("motif has no points")
        order = self.free_charge_order
        if len(order) != 2 or not all(isinstance(v, int) for v in order):
            raise ValueError(f"free_charge_order must be two ints (the powers of l and h), got {order!r}")

    def validate_interior(self) -> None:
        """Check every point lies strictly inside the reference cell."""
        for pt in self.points + self.free_points:
            inside = 0.0 < pt.y[0] < 1.0 and 0.0 < pt.y[1] < 1.0
            if not inside or not (-1.0 < pt.z < 1.0):
                raise ValueError(f"motif point outside reference cell: {pt}")

    def imbalance_factor(self, l: float, h: float) -> float:
        a, b = self.free_charge_order
        return l**a * h**b


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Regime:
    """Asymptotic regime tying thickness to lattice scale."""

    kind: str  # "R1" | "R2" | "R3"
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("R1", "R2", "R3"):
            raise ValueError(f"unknown regime {self.kind!r}")
        # a > 0 with a finite square excludes NaN, the infinities and an
        # alpha whose limit weight alpha**2 overflows
        a = self.alpha
        if self.kind == "R2" and (a is None or not (a > 0 and math.isfinite(a * a))):
            raise ValueError(f"regime R2 requires a finite positive alpha whose square is finite, got {a!r}")

    def check_pair(self, l: float, h: float) -> None:
        if self.kind == "R2" and abs(h - self.alpha * l) > 1e-12 * max(h, self.alpha * l):
            raise RegimeMismatch(
                f"regime R2 requires h = alpha*l exactly; got h={h}, alpha*l={self.alpha * l}"
            )

    def prefactor(self, l: float, h: float) -> float:
        """Physical per-atom charge factor: cell volume l^2 h times the density scaling."""
        self.check_pair(l, h)
        if self.kind == "R1":
            return l
        if self.kind == "R2":
            return self.alpha * l
        return l * l / h

    def limit_weights(self) -> tuple[float, float, float]:
        """Weights (c_q, c_p, c_n) of the limit's free-charge single layer,
        in-plane polarization and normal double layer.  c_p weights both the
        bound charge -div_p(J0 p_p) and the edge term rho + (J0 p_p).n."""
        if self.kind == "R1":
            return 1.0, 1.0, 0.0
        if self.kind == "R2":
            return self.alpha, self.alpha, self.alpha**2
        return 1.0, 0.0, 1.0

    def label(self) -> str:
        if self.kind == "R2":
            return f"R2(alpha={self.alpha:g})"
        return self.kind


# ---------------------------------------------------------------------------
# realized distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledChargeDistribution:
    """All physical point charges of one (l, h) member of the family.

    Arrays are ordered motif-entry major (points, then free points, in
    declaration order); within an entry, full cells then partial cells, each
    by ascending lattice index, so enumeration is deterministic.
    """

    l: float
    h: float
    regime: Regime
    positions: np.ndarray        # (N, 3) physical positions
    magnitudes: np.ndarray       # (N,)   physical charges

    @property
    def n_charges(self) -> int:
        return len(self.magnitudes)


def realize(
    motif: Motif,
    tessellation: Tessellation,
    pmap: ParametricMap,
    l: float,
    h: float,
    regime: Regime,
) -> ScaledChargeDistribution:
    """Enumerate every physical point charge of the scaled distribution.

    Full cells contribute every motif point; partial cells keep only points
    whose planar parameter position lies in the (closed) domain.  Magnitudes
    are prefactor(regime) * modulated weight at the cell corner, with
    imbalance points additionally scaled by l^alpha * h^beta.  Enumeration
    order is fixed (motif entry major, cells by ascending index, full cells
    first) so outputs are deterministic.
    """
    if h > pmap.h_max:
        raise ValueError(f"half-thickness h={h} exceeds the map's h_max={pmap.h_max}")
    if abs(l - tessellation.l) > 1e-15:
        raise ValueError("tessellation was built for a different scale l")
    pref = regime.prefactor(l, h)
    eps = motif.imbalance_factor(l, h)
    entries = [(pt, 1.0) for pt in motif.points] + [(pt, eps) for pt in motif.free_points]

    planar_chunks, ref_chunks, z_chunks = [], [], []
    for pt, scale in entries:
        planar, kept = tessellation.place(pt.y)
        rows = np.flatnonzero(kept)  # index gathers: a boolean mask on (N, 2) rows is several times slower
        planar_chunks.append(planar.take(rows, axis=0))
        ref_chunks.append(scale * pt.w * pt.modulation(tessellation.corners.take(rows, axis=0)))
        z_chunks.append(np.full(len(rows), pt.z))

    planar_params = np.concatenate(planar_chunks, axis=0)
    ref_weights = np.concatenate(ref_chunks)
    z_params = np.concatenate(z_chunks)
    positions = pmap.evaluate(np.concatenate([planar_params, h * z_params[:, None]], axis=1))
    return ScaledChargeDistribution(
        l=l,
        h=h,
        regime=regime,
        positions=positions,
        magnitudes=pref * ref_weights,
    )
