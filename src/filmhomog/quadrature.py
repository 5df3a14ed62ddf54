"""Adaptive tensor Gauss-Legendre quadrature: one engine over boxes [lo, hi].

A segment is a box with scalar bounds, a rectangle one with (2,) bounds.
Integrands are vector-valued (one component per observation point).  The
root boxes of a domain may differ in size.  Every leaf of the refinement
tree holds its 2^d child panels; its error is the difference between its
one-shot Gauss estimate and the sum of its children, per value column.  The
whole integral runs under one error budget: while the largest per-column
sum of leaf errors is above ``tol``, the leaf with the largest error (ties
to the older leaf) is replaced by its 2^d children.  A leaf within its local
share (``tol`` over the number of root boxes, over 2^d per level) is frozen
and never split, so the tree is a subtree of the one that splits every box
above its share: it converges wherever that one does, with no more panels,
and hits the depth cap only where that one would.  Past
``BEST_FIRST_LEAVES`` live leaves, and for a NaN or infinite error, new
leaves are split newest first (depth first), so a tolerance out of reach
meets the cap after a few splits instead of refining breadth first.

Leaves are summed back in nested order, children with axis 0 fastest, so
results are bitwise reproducible.  A split makes 2^d new leaves, each with
its 2^d child panels: those 4^d panels get their nodes and weights
together, one broadcast each, as do the root boxes and then all their
children, with the arithmetic of one box at a time per element.  Each new
leaf's fine estimate (its children added child 0 first), its error
|fine - coarse| and its worst column are then computed for all of them at
once on arrays, per element the arithmetic of one leaf; the leaves are
entered one by one in the order of one split at a time, each error added to
the running total in turn, so heap keys, creation order and the live-leaf
count at each leaf are those of evaluating one panel at a time.  A plain
integrand is called once per panel, on 8 flat nodes (segment) or (64, 2)
points (rectangle).  An integrand with an int ``columns`` attribute, its
values per node, is called on the panels' nodes stacked, as many panels per
call as fit in STACK_PAIRS node x column pairs, and one panel per call when
a single panel is larger; its values must be those of one call per panel,
row for row; ``columns`` below 1 is a ValueError.  Each call's values are
reduced at once to its panels' estimates by one stacked product, weights
(k, 1, n) with values (k, n, M): numpy runs the matrix product of each
entry of the stack on its own, so every panel gets the bytes of the product
w @ rows of that panel alone, and a plain integrand is the same code with a
batch of one.  So the tree and the bytes do not depend on the stacking, and
an integrand's return value need only stay valid until its next call: it
may return one buffer that it overwrites every time.
QuadratureNotConverged is raised only when the leaf to split sits at the
depth cap; it names the panel, its depth and the value column (observation
point) with the largest error, and the summed error against ``tol``.
"""

from __future__ import annotations

import heapq
import math
from functools import reduce
from itertools import count
from operator import add
from typing import Callable

import numpy as np

from .errors import QuadratureNotConverged

# default absolute tolerance and depth cap of every adaptive integral
DEFAULT_TOL = 1e-9
DEFAULT_MAX_DEPTH = 12
# live leaves past which new leaves are split newest first (depth first, as a
# recursion would) instead of worst first: an out-of-reach tolerance then meets
# the depth cap after a few splits instead of refining breadth first
BEST_FIRST_LEAVES = 2**12
# node x value-column pairs per call of an integrand that takes stacked panels
STACK_PAIRS = 2**15

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


def _panels(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (K, n, ...) and weights (K, n) of the K boxes [lo[k], hi[k]], one broadcast each.

    Per element the same arithmetic as one box at a time: mid = 0.5 (lo +
    hi), half = 0.5 (hi - lo), nodes mid + half * offsets, and the rule's
    weights times the product of the half-widths.  Rectangle nodes are made
    one axis at a time: broadcast over a last axis of length 2, numpy's
    inner loop would run two elements at a time.
    """
    offsets, weights, _ = _RULES[lo.shape[1:]]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if lo.ndim == 1:
        nodes = mid[:, None] + half[:, None] * offsets
    else:
        nodes = np.empty((len(lo),) + offsets.shape)
        for a in (0, 1):
            np.add(mid[:, None, a], half[:, None, a] * offsets[:, a], out=nodes[..., a])
    return nodes, np.multiply.reduce(half.reshape(len(half), -1), axis=1)[:, None] * weights


def _children(lo: np.ndarray, hi: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (K, 2^d, ...) of the 2^d children of each of the K boxes [lo[k], hi[k]]."""
    mid = 0.5 * (lo + hi)
    return np.where(masks, mid[:, None], lo[:, None]), np.where(masks, hi[:, None], mid[:, None])


def _estimates(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The one-shot estimates w @ f(nodes) of the boxes [lo[k], hi[k]], stacked (K, ...) in order.

    A plain integrand is called once per box.  One with an int ``columns``
    attribute (its values per node; below 1 it is a ValueError) is called
    on the boxes' nodes stacked, as many boxes per call as fit in
    STACK_PAIRS node x column pairs (at least one).  Each call's values are
    reduced at once by one stacked product, weights (k, 1, n) with values
    (k, n, M), which gives every box the bytes of the product w @ rows of
    that box alone, so a plain integrand is the same code as a batch of one.
    """
    nodes, weights = _panels(lo, hi)
    n = weights.shape[1]
    columns = getattr(f, "columns", None)
    if columns is not None and columns < 1:
        raise ValueError(f"an integrand's declared columns must be at least 1, got {columns!r}")
    per_call = 1 if columns is None else max(1, STACK_PAIRS // (n * columns))
    flat = nodes.reshape((-1,) + nodes.shape[2:])
    parts = []
    for start in range(0, len(weights), per_call):
        w = weights[start : start + per_call]
        values = np.asarray(f(flat[start * n : (start + len(w)) * n]))
        part = np.matmul(w[:, None, :], values.reshape(len(w), n, -1))
        parts.append(part.reshape((len(w),) + values.shape[1:]))
    return np.concatenate(parts)


def _adapt(f, lo, hi, tol, max_depth):
    """Integrate f over the union of root boxes [lo[i], hi[i]], unequal or not, each with an equal share of ``tol``."""
    shape = lo.shape[1:]
    masks = _RULES[shape][2]
    nkids = len(masks)
    fine = {}  # path (box index, child indices...) -> fine estimate of each live leaf
    errs = {}  # path -> |fine - coarse| per value column
    heap = []  # leaves above their share: (-max error, creation order, path, lo, hi, share, child lo, hi, estimates)
    order = count()
    total = 0.0  # summed leaf errors per value column

    def spawn(path, lo, hi, share, coarse):
        """Make leaves path + (k,) of the boxes [lo[k], hi[k]], whose one-shot
        estimates are coarse[k]: all their child panels in one batch, each
        leaf's sum, error and worst error on arrays, then each leaf in turn,
        its error added to the total."""
        nonlocal total
        kid_lo, kid_hi = _children(lo, hi, masks)
        parts = _estimates(f, kid_lo.reshape((-1,) + shape), kid_hi.reshape((-1,) + shape))
        parts = parts.reshape((len(lo), nkids) + parts.shape[1:])
        sums = reduce(add, [parts[:, j] for j in range(nkids)])  # children in order, as one leaf at a time
        diffs = np.abs(sums - coarse)
        worsts = diffs.reshape(len(lo), -1).max(axis=1).tolist()
        for k, worst in enumerate(worsts):
            leaf = path + (k,)
            fine[leaf] = sums[k]
            errs[leaf] = diffs[k]
            total = total + diffs[k]
            if not worst <= share:  # a NaN error is above every share
                if math.isfinite(worst) and len(fine) <= BEST_FIRST_LEAVES:
                    key = (-worst, next(order))
                else:  # newest first, ahead of every finite error: depth first
                    key = (-math.inf, -next(order))
                heapq.heappush(heap, (*key, leaf, lo[k], hi[k], share, kid_lo[k], kid_hi[k], parts[k]))

    nroots = len(lo)
    spawn((), lo, hi, tol / nroots, _estimates(f, lo, hi))
    while heap:
        if not tol < total.max() < math.inf or len(heap[0][2]) > max_depth:
            # before stopping or failing at the cap, re-sum: no drift of the running updates, no inf - inf
            total = reduce(add, errs.values())
            if np.max(total) <= tol:
                break
        _, _, path, lo, hi, share, kid_lo, kid_hi, kids = heapq.heappop(heap)
        if len(path) > max_depth:
            summed = float(np.max(total))
            raise QuadratureNotConverged(
                f"{np.size(lo)}D panel [{lo.tolist()}, {hi.tolist()}] at depth {len(path) - 1} (the cap): "
                f"error {np.max(errs[path]):.3e} > its share {share:.3e}, "
                f"largest in value column {int(np.argmax(errs[path]))}; summed error {summed:.3e} > {tol:.3e}",
                error_estimate=summed,
                tolerance=tol,
            )
        del fine[path]
        total = total - errs.pop(path)
        spawn(path, kid_lo, kid_hi, share / nkids, kids)

    # fold the leaves in nested order: deepest sibling groups first, each from child 0
    while (depth := max(map(len, fine))) > 1:
        for parent in sorted({p[:-1] for p in fine if len(p) == depth}):
            fine[parent] = reduce(add, [fine.pop(parent + (k,)) for k in range(nkids)])
    return reduce(add, [fine[(i,)] for i in range(nroots)])


def adaptive_rectangle(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> np.ndarray:
    """Integrate f over the rectangle [lo, hi] to absolute tolerance.

    ``f`` maps parameter points (N, 2) to values (N,) or (N, M), read
    before its next call (so they may sit in a reused buffer); the error
    control is on the max-norm across the M columns.  ``f`` gets one
    panel's (64, 2) points per call, or, if it has an int attribute
    ``columns`` (M), several panels' points stacked, up to STACK_PAIRS
    point x column pairs per call.  Strongly anisotropic
    rectangles are first cut into near-square boxes, which become the first
    leaves of one global error budget: refinement stops once every value
    column's summed leaf error is within ``tol``.  Raises
    QuadratureNotConverged at the depth cap.
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    w = hi - lo
    # balance strongly anisotropic domains before going adaptive
    n1 = max(1, int(np.ceil(w[0] / w[1]))) if w[1] > 0 else 1
    n2 = max(1, int(np.ceil(w[1] / w[0]))) if w[0] > 0 else 1
    n = np.array([n1, n2])
    k = np.array(list(np.ndindex(n1, n2)))
    return _adapt(f, lo + w * (k / n), lo + w * ((k + 1) / n), tol, max_depth)


def adaptive_segment(
    f: Callable[[np.ndarray], np.ndarray],
    points,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> np.ndarray:
    """Integrate a vector integrand over [points[0], points[-1]] with a panel break at every point.

    Each piece between increasing ``points`` is a root box; ``f`` gets each panel's 8 nodes flat,
    or several panels' nodes stacked if it declares ``columns`` (see :func:`adaptive_rectangle`).
    Fewer than two ``points`` make no piece and raise ValueError.
    """
    s = np.asarray(points, float)
    if s.ndim != 1 or len(s) < 2:
        raise ValueError(f"adaptive_segment needs at least two break points, got points of shape {s.shape}")
    return _adapt(f, s[:-1], s[1:], tol, max_depth)
