"""Adaptive Gauss-Legendre quadrature on rectangles and segments.

Integrands are vector-valued (one component per observation point); a panel
is accepted when the difference between its one-shot Gauss estimate and the
sum over its children is below the panel's share of the absolute tolerance.
Children estimates are kept, so the returned value is the refined one.
Panel traversal order is fixed, making results bitwise reproducible.  Each
panel is one integrand call of 8 (1D) or 64 (2D) nodes.  At the depth cap,
QuadratureNotConverged names the failing panel, its depth and the value
column (observation point) with the largest error.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureNotConverged

# default absolute tolerance and depth cap of every adaptive integral
DEFAULT_TOL = 1e-9
DEFAULT_MAX_DEPTH = 12

# 8-point Gauss-Legendre rule on [-1, 1], shared by every panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)


def _panel_2d(f, lo, hi):
    """Tensor Gauss estimate of a vector integrand over [lo, hi]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    n1 = mid[0] + half[0] * _NODES
    n2 = mid[1] + half[1] * _NODES
    X1, X2 = np.meshgrid(n1, n2, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    W = np.outer(_WEIGHTS, _WEIGHTS).ravel() * (half[0] * half[1])
    vals = np.asarray(f(pts))
    return np.tensordot(W, vals, axes=(0, 0))


def _panel_1d(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _NODES))
    return half * np.tensordot(_WEIGHTS, vals, axes=(0, 0))


def _not_converged(panel: str, depth: int, diff: np.ndarray, tol: float) -> QuadratureNotConverged:
    """Depth-cap failure of ``panel``, whose children minus coarse estimate is ``diff``."""
    err = float(np.max(diff))
    return QuadratureNotConverged(
        f"{panel} at depth {depth} (the cap): error {err:.3e} > {tol:.3e}, "
        f"largest in value column {int(np.argmax(diff))}",
        error_estimate=err,
        tolerance=tol,
    )


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
    total = None
    for i in range(n1):
        for j in range(n2):
            p_lo = lo + w * np.array([i / n1, j / n2])
            p_hi = lo + w * np.array([(i + 1) / n1, (j + 1) / n2])
            part = _adapt_2d(f, p_lo, p_hi, tol / (n1 * n2), 0, max_depth)
            total = part if total is None else total + part
    return total


def _adapt_2d(f, lo, hi, tol, depth, max_depth, coarse=None):
    if coarse is None:
        coarse = _panel_2d(f, lo, hi)
    mid = 0.5 * (lo + hi)
    quads = [
        (lo, mid),
        (np.array([mid[0], lo[1]]), np.array([hi[0], mid[1]])),
        (np.array([lo[0], mid[1]]), np.array([mid[0], hi[1]])),
        (mid, hi),
    ]
    fine_parts = [_panel_2d(f, a, b) for a, b in quads]
    fine = sum(fine_parts)
    diff = np.abs(fine - coarse)
    if float(np.max(diff)) <= tol:
        return fine
    if depth >= max_depth:
        raise _not_converged(f"2D panel [{lo.tolist()}, {hi.tolist()}]", depth, diff, tol)
    out = None
    for (a, b), part in zip(quads, fine_parts):
        refined = _adapt_2d(f, a, b, tol / 4.0, depth + 1, max_depth, coarse=part)
        out = refined if out is None else out + refined
    return out


def adaptive_segment(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> np.ndarray:
    """Integrate a vector integrand over [a, b] to absolute tolerance."""
    coarse = _panel_1d(f, a, b)
    return _adapt_1d(f, a, b, coarse, tol, 0, max_depth)


def _adapt_1d(f, a, b, coarse, tol, depth, max_depth):
    mid = 0.5 * (a + b)
    left = _panel_1d(f, a, mid)
    right = _panel_1d(f, mid, b)
    fine = left + right
    diff = np.abs(fine - coarse)
    if float(np.max(diff)) <= tol:
        return fine
    if depth >= max_depth:
        raise _not_converged(f"1D panel [{float(a)}, {float(b)}]", depth, diff, tol)
    return _adapt_1d(f, a, mid, left, tol / 2.0, depth + 1, max_depth) + _adapt_1d(
        f, mid, b, right, tol / 2.0, depth + 1, max_depth
    )
