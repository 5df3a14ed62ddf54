"""Adaptive tensor Gauss-Legendre quadrature: one engine over boxes [lo, hi].

A segment is a box with scalar bounds, a rectangle one with (2,) bounds.
Integrands are vector-valued: one value column per observation point, each
refined on its own (per-integral error control, as in DCUHRE: Berntsen,
Espelid & Genz 1991).  The root boxes of a domain may differ in size.  Every
leaf of the refinement tree holds its 2^d child panels; its error is the
difference between its one-shot Gauss estimate and the sum of its children,
per value column.  A leaf within its local share (``tol`` over the number of
root boxes, over 2^d per level) is frozen for that column; its live columns
are the others (a NaN error counts as above every share), and its heap key
is its largest live error (ties to the older leaf).  The worst leaf is
popped and split only for its live columns whose summed leaf error is still
above ``tol``: each such sum is re-summed exactly before a column retires,
and a retired column splits no more.  The leaf's other columns keep its fine
estimates as final, and its children are evaluated for the split columns
only, so each column's tree is a subtree of the one that splits every box
above its share for that column alone: it converges wherever that one does,
with no more panels, and hits the depth cap only where that one would.
A box holds values only for the columns it was evaluated for, so memory
grows with evaluated (box, column) pairs, not with boxes x columns.  Past
``BEST_FIRST_LEAVES`` leaves (boxes that are a leaf of some column), and
for a NaN or infinite error, new leaves are split newest first (depth
first), so a tolerance out of reach meets the cap after a few splits instead
of refining breadth first.

Each column is summed back in nested order, children with axis 0 fastest:
a split box's children, added child 0 first, replace its fine estimates of
the columns it was split for, deepest boxes first, so results are bitwise
reproducible.  A split makes 2^d new leaves, each with its 2^d child
panels: those 4^d panels get their nodes and weights together, one
broadcast each, as do the root boxes and then all their children, with the
arithmetic of one box at a time per element.  A plain
integrand f(x) is called once per panel, on 8 flat nodes (segment) or (64,
2) points (rectangle), and the engine takes the split columns out of its
values.  An integrand with an int ``columns`` attribute, its values per
node, is called f(x, cols): the panels' nodes stacked and the ascending
indices of the columns to evaluate, returning (N, len(cols)); each call
stacks as many panels as fit in STACK_PAIRS node x column pairs, one panel
when a single panel is larger; its values must be those of one call per
panel and column, row for row; ``columns`` below 1 is a ValueError.  Each
call's values times the weights are summed over the nodes by a fixed
pairwise halving (first half plus second half, 6 elementwise adds for 64
nodes, 3 for 8), so every (panel, column) estimate has the same bytes
whatever the stacking and the other columns of the call: a matrix product
would not, as BLAS sums a column differently beside other columns.  So the
trees and the bytes are those of one call per panel, plain or declared, and
an integrand's return value need only stay valid until its next call: it
may return one buffer that it overwrites every time.
QuadratureNotConverged is raised only when a leaf to split sits at the depth
cap; it names the panel, its depth and the split value column (observation
point) with the largest error, and the largest summed error against ``tol``.
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


def _halve(products: np.ndarray) -> np.ndarray:
    """The sums (K, c) over the node axis of products (K, n, c), n a power of
    two, by a fixed pairwise halving: the first half of the nodes plus the
    second, until one is left (6 elementwise adds for 64 nodes, 3
    for 8).  Every (box, column) sum is the same arithmetic on its own
    products, whatever the other boxes and columns of the array."""
    k, n, c = products.shape
    products = products.reshape(k, n * c)
    while n > 1:
        n //= 2
        products = products[:, : n * c] + products[:, n * c :]
    return products


def _estimates(f, lo: np.ndarray, hi: np.ndarray, cols=None) -> np.ndarray:
    """The one-shot estimates of the boxes [lo[k], hi[k]] for the value columns ``cols``.

    Returns (K, len(cols)), or with ``cols`` None every column, (K,) + the
    trailing shape of f's values.  A plain integrand is called f(x) once per
    box and its ``cols`` are sliced out of its values.  One with an int
    ``columns`` attribute (its values per node; below 1 it is a ValueError)
    is called f(x, cols) on the boxes' nodes stacked, as many boxes per call
    as fit in STACK_PAIRS node x column pairs (at least one), ``cols`` the
    ascending column indices.  Each call's values times the weights are
    reduced by :func:`_halve`, so every (box, column) estimate has the same
    bytes for any stacking and any column subset.
    """
    nodes, weights = _panels(lo, hi)
    n = weights.shape[1]
    columns = getattr(f, "columns", None)
    if columns is not None and columns < 1:
        raise ValueError(f"an integrand's declared columns must be at least 1, got {columns!r}")
    asked = np.arange(columns) if columns is not None and cols is None else cols
    per_call = 1 if columns is None else max(1, STACK_PAIRS // (n * len(asked)))
    flat = nodes.reshape((-1,) + nodes.shape[2:])
    parts = []
    for start in range(0, len(weights), per_call):
        w = weights[start : start + per_call]
        x = flat[start * n : (start + len(w)) * n]
        values = np.asarray(f(x) if columns is None else f(x, asked))
        trailing = values.shape[1:]
        values = values.reshape(len(w), n, -1)
        if columns is None and cols is not None and len(cols) < values.shape[2]:
            values = values[:, :, cols]
        parts.append(_halve(values * w[:, :, None]))
    estimates = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return estimates.reshape((len(weights),) + trailing) if cols is None else estimates


def _adapt(f, lo, hi, tol, max_depth):
    """Integrate f over the union of root boxes [lo[i], hi[i]], unequal or not, each
    with an equal share of ``tol``, refining every value column on its own."""
    shape = lo.shape[1:]
    masks = _RULES[shape][2]
    nkids = len(masks)
    nroots = len(lo)
    roots = _estimates(f, lo, hi)
    scalar = roots.ndim == 1
    roots = roots.reshape(nroots, -1)
    ncols = roots.shape[1]
    boxes = {}  # path (box index, child indices...) -> [its columns, as a list, fine estimates, positions split]
    errs = [{} for _ in range(ncols)]  # per column: path -> |fine - coarse| of each of its leaves
    total = [0.0] * ncols  # per column: running sum of its leaf errors
    retired = [False] * ncols  # per column: its re-summed error is within tol, it splits no more
    heap = []  # leaves with a live column: (-key, creation order, path, lo, hi, share, child lo, hi, their estimates, live)
    order = count()
    nleaves = 0  # boxes that are a leaf of some column

    def spawn(path, lo, hi, share, coarse, cols):
        """Make leaves path + (k,) of the boxes [lo[k], hi[k]] for the columns
        ``cols``, whose one-shot estimates are coarse[k]: all their child
        panels in one batch, each leaf's sums and errors on arrays, then each
        leaf in turn, its errors added to the totals."""
        nonlocal nleaves
        kid_lo, kid_hi = _children(lo, hi, masks)
        parts = _estimates(f, kid_lo.reshape((-1,) + shape), kid_hi.reshape((-1,) + shape), cols)
        parts = parts.reshape(len(lo), nkids, len(cols))
        sums = reduce(add, [parts[:, j] for j in range(nkids)])  # children in order, as one leaf at a time
        names = cols.tolist()
        column_errs = [errs[c] for c in names]
        for k, diff in enumerate(np.abs(sums - coarse).tolist()):
            leaf = path + (k,)
            boxes[leaf] = [cols, names, sums[k], None]
            nleaves += 1
            for c, e, held in zip(names, diff, column_errs):
                held[leaf] = e
                total[c] += e
            live = [i for i, e in enumerate(diff) if not e <= share]  # a NaN error is above every share
            if live:
                errors = [diff[i] for i in live]
                if math.isfinite(sum(errors)) and nleaves <= BEST_FIRST_LEAVES:
                    key = (-max(errors), next(order))
                else:  # newest first, ahead of every finite error: depth first
                    key = (-math.inf, -next(order))
                heapq.heappush(heap, (*key, leaf, lo[k], hi[k], share, kid_lo[k], kid_hi[k], parts[k], live))

    spawn((), lo, hi, tol / nroots, roots, np.arange(ncols))
    unretired = ncols
    while heap and unretired:
        *_, path, lo, hi, share, kid_lo, kid_hi, kids, live = heapq.heappop(heap)
        box = boxes[path]
        cols, names = box[0], box[1]
        at_cap = len(path) > max_depth
        split = []  # positions in cols of the live columns to split for
        for i in live:
            c = names[i]
            if retired[c]:
                continue
            if at_cap or not tol < total[c] < math.inf:
                # before retiring or failing at the cap, re-sum: no drift of the running updates, no inf - inf
                total[c] = math.fsum(errs[c].values())
                if total[c] <= tol:
                    retired[c] = True
                    unretired -= 1
                    continue
            split.append(i)
        if not split:
            continue
        whole = len(split) == len(cols)
        chosen = cols if whole else cols[split]
        if at_cap:
            errors = np.array([errs[c][path] for c in chosen.tolist()])
            worst = int(np.argmax(errors))
            summed = float(np.max([total[c] for c in chosen.tolist()]))
            raise QuadratureNotConverged(
                f"{np.size(lo)}D panel [{lo.tolist()}, {hi.tolist()}] at depth {len(path) - 1} (the cap): "
                f"error {errors[worst]:.3e} > its share {share:.3e}, "
                f"largest in value column {int(chosen[worst])}; summed error {summed:.3e} > {tol:.3e}",
                error_estimate=summed,
                tolerance=tol,
            )
        box[3] = split  # the other columns keep this leaf's fine estimates as final
        nleaves -= whole
        for c in chosen.tolist():
            total[c] -= errs[c].pop(path)
        spawn(path, kid_lo, kid_hi, share / nkids, kids if whole else kids[:, split], chosen)

    # fold each column in nested order, deepest boxes first: the sum of a box's children,
    # child 0 first, replaces its fine estimates of the columns it was split for
    for path in sorted((p for p, box in boxes.items() if box[3] is not None), key=len, reverse=True):
        box = boxes[path]
        box[2][box[3]] = reduce(add, [boxes[path + (k,)][2] for k in range(nkids)])
    value = reduce(add, [boxes[(i,)][2] for i in range(nroots)])
    return value[0] if scalar else value


def adaptive_rectangle(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> np.ndarray:
    """Integrate f over the rectangle [lo, hi] to absolute tolerance.

    ``f`` maps parameter points (N, 2) to values (N,) or (N, M), read
    before its next call (so they may sit in a reused buffer); each of the
    M value columns is refined on its own, under its own error budget.
    ``f(x)`` gets one panel's (64, 2) points per call, or, if it has an int
    attribute ``columns`` (M), it is called ``f(x, cols)`` on several
    panels' points stacked and the ascending indices of the columns still
    refined there, up to STACK_PAIRS point x column pairs per call, and
    returns (N, len(cols)).  Strongly anisotropic rectangles are first cut
    into near-square boxes, which become the first leaves of the budgets:
    refinement stops once every value column's summed leaf error is within
    ``tol``.  Raises QuadratureNotConverged at the depth cap.
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

    Each piece between increasing ``points`` is a root box; ``f(x)`` gets each panel's 8 nodes
    flat, or ``f(x, cols)`` several panels' nodes stacked and the value columns still refined
    there if it declares ``columns`` (see :func:`adaptive_rectangle`).
    Fewer than two ``points`` make no piece and raise ValueError.
    """
    s = np.asarray(points, float)
    if s.ndim != 1 or len(s) < 2:
        raise ValueError(f"adaptive_segment needs at least two break points, got points of shape {s.shape}")
    return _adapt(f, s[:-1], s[1:], tol, max_depth)
