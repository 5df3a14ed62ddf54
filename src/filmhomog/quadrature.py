"""Adaptive tensor Gauss-Legendre quadrature: one engine over boxes [lo, hi].

A segment is a box with scalar bounds, a rectangle one with (2,) bounds.
Integrands are vector-valued (one component per observation point); a box is
accepted when its one-shot Gauss estimate and the sum over its 2^d children
differ by at most its tolerance, else each child is refined with tol / 2^d.
Children estimates are kept, and children are visited depth-first with axis 0
fastest, so results are bitwise reproducible.  Each panel is one integrand
call of 8 flat nodes (segment) or (64, 2) points (rectangle).  At the depth
cap, QuadratureNotConverged names the failing panel, its depth and the value
column (observation point) with the largest error.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from .errors import QuadratureNotConverged

# default absolute tolerance and depth cap of every adaptive integral
DEFAULT_TOL = 1e-9
DEFAULT_MAX_DEPTH = 12

# 8-point Gauss-Legendre rule on [-1, 1], shared by every panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)


def _rule(shape: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node offsets, weights and child masks (child k is upper on axis a if bit a of k is set)."""
    d = int(np.prod(shape))
    offsets = np.stack(np.meshgrid(*[_NODES] * d, indexing="ij"), axis=-1).reshape((-1,) + shape)
    weights = np.prod(np.meshgrid(*[_WEIGHTS] * d, indexing="ij"), axis=0).ravel()
    masks = ((np.arange(2**d)[:, None] >> np.arange(d)) & 1).astype(bool).reshape((-1,) + shape)
    return offsets, weights, masks


_RULES = {shape: _rule(shape) for shape in [(), (2,)]}


def _panel(f, lo, hi):
    """Tensor Gauss estimate of a vector integrand over the box [lo, hi]."""
    offsets, weights, _ = _RULES[lo.shape]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = np.asarray(f(mid + half * offsets))
    return np.tensordot(weights * math.prod(half.flat), vals, axes=(0, 0))


def _adapt(f, lo, hi, tol, depth, max_depth, coarse=None):
    if coarse is None:
        coarse = _panel(f, lo, hi)
    masks = _RULES[lo.shape][2]
    mid = 0.5 * (lo + hi)
    kids = list(zip(np.where(masks, mid, lo), np.where(masks, hi, mid)))
    parts = [_panel(f, a, b) for a, b in kids]
    fine = reduce(add, parts)
    diff = np.abs(fine - coarse)
    err = float(np.max(diff))
    if err <= tol:
        return fine
    if depth >= max_depth:
        raise QuadratureNotConverged(
            f"{np.size(lo)}D panel [{lo.tolist()}, {hi.tolist()}] at depth {depth} (the cap): "
            f"error {err:.3e} > {tol:.3e}, largest in value column {int(np.argmax(diff))}",
            error_estimate=err,
            tolerance=tol,
        )
    tol /= len(kids)
    return reduce(add, (_adapt(f, a, b, tol, depth + 1, max_depth, part) for (a, b), part in zip(kids, parts)))


def adaptive_rectangle(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> np.ndarray:
    """Integrate f over the rectangle [lo, hi] to absolute tolerance.

    ``f`` maps parameter points (N, 2) to values (N, ...); the error control
    is on the max-norm across trailing dimensions.  Raises
    QuadratureNotConverged when the depth cap is hit with the local error
    still above its tolerance share.
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    w = hi - lo
    # balance strongly anisotropic domains before going adaptive
    n1 = max(1, int(np.ceil(w[0] / w[1]))) if w[1] > 0 else 1
    n2 = max(1, int(np.ceil(w[1] / w[0]))) if w[0] > 0 else 1
    n = np.array([n1, n2])
    boxes = [(lo + w * (k / n), lo + w * ((k + 1) / n)) for k in map(np.array, np.ndindex(n1, n2))]
    return reduce(add, (_adapt(f, a, b, tol / (n1 * n2), 0, max_depth) for a, b in boxes))


def adaptive_segment(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> np.ndarray:
    """Integrate a vector integrand over [a, b]; ``f`` gets each panel's 8 nodes flat."""
    return _adapt(f, np.float64(a), np.float64(b), tol, 0, max_depth)
