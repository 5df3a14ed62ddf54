"""Adaptive tensor Gauss-Legendre quadrature: one engine over boxes [lo, hi].

A segment is a box with scalar bounds, a rectangle one with (2,) bounds.
Integrands are vector-valued: one value column per observation point, each
refined on its own (per-integral error control, as in DCUHRE: Berntsen,
Espelid & Genz 1991).  The root boxes of a domain may differ in size.  Every
leaf of the refinement tree holds its 2^d child panels; its error is the
difference between its one-shot Gauss estimate and the sum of its children,
per value column.  A leaf within its local share (``tol`` over the number of
root boxes, over 2^d per level) is frozen for that column; for the others it
is live (a NaN error counts as above every share).

The engine runs in rounds.  Each unretired column keeps a heap of the leaves
where it is live, keyed by its own error, ties to the older leaf; past
``BEST_FIRST_LEAVES`` of that column's leaves, and for a NaN or infinite
error, the newest leaf comes first (depth first), so a tolerance out of
reach meets the cap after a few splits instead of refining breadth first.
Each round, every unretired column pops its worst leaf, skipping entries of
boxes already split for it.  Each distinct popped box is split for every
column that is live on it, unretired and whose summed leaf error is still
above ``tol``: each such sum is re-summed exactly before a column retires,
and a retired column splits no more.  A box is split once; its other
columns keep its fine estimates as final.  The round's new leaves are made
in the creation order of the boxes they split, then child index, and all
their child panels, each for the columns its box was split for, go to the
integrand together.  So each column's tree is a subtree of the one that
splits every box above its share for that column alone: it converges
wherever that one does, with no more panels, and hits the depth cap only
where that one would.  With one column a round pops one leaf, the worst, as
one split at a time would.  A leaf holds values only for its own columns, so
memory grows with evaluated (box, column) pairs, not with boxes x columns.

Each column is summed back in nested order, children with axis 0 fastest:
a split box's children, added child 0 first, replace its fine estimates of
the columns it was split for, latest round first, so results are bitwise
reproducible.  A plain integrand f(x) is called once per panel with every
column, on 8 flat nodes (segment) or (64, 2) points (rectangle), and the
engine takes the split columns out of its values.  An integrand with an int
``columns`` attribute, its values per node, is called f(x, cols, counts):
the nodes of a round's panels stacked, panel k evaluated for the next
counts[k] of the ascending column indices ``cols``, returning its values in
(panel, column, node) order, (len(cols), n) or flat; each call takes as many
panels as fit in STACK_PAIRS node x column pairs, one panel when a single
panel is larger, so a round is one call or more; its values must be those of
one call per panel and column, row for row; ``columns`` below 1 is a
ValueError.  Each call's values times the weights are summed over the nodes
by a fixed pairwise halving (first half plus second half, 6 elementwise adds
for 64 nodes, 3 for 8), so every (panel, column) estimate has the same bytes
whatever the stacking and the other columns of the call: a matrix product
would not, as BLAS sums a column differently beside other columns.  So the
trees and the bytes are those of one call per panel, plain or declared, at
any STACK_PAIRS, and an integrand's return value need only stay valid until
its next call: it may return one buffer that it overwrites every time.
QuadratureNotConverged is raised only when a leaf to split sits at the depth
cap; it names the panel, its depth and the split value column (observation
point) with the largest error, and the largest summed error against ``tol``;
when several columns reach the cap in one round, the box popped by the
lowest of them is named.
"""

from __future__ import annotations

import heapq
import math
from functools import reduce
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
    """Nodes (K, n, ...) of the K boxes [lo[k], hi[k]], one broadcast, and the
    products (K,) of their half-widths, which scale the rule's weights.

    Per element the same arithmetic as one box at a time: mid = 0.5 (lo +
    hi), half = 0.5 (hi - lo), nodes mid + half * offsets.  Rectangle nodes
    are made one axis at a time: broadcast over a last axis of length 2,
    numpy's inner loop would run two elements at a time.
    """
    offsets = _RULES[lo.shape[1:]][0]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if lo.ndim == 1:
        nodes = mid[:, None] + half[:, None] * offsets
    else:
        nodes = np.empty((len(lo),) + offsets.shape)
        for a in (0, 1):
            np.add(mid[:, None, a], half[:, None, a] * offsets[:, a], out=nodes[..., a])
    return nodes, np.multiply.reduce(half.reshape(len(half), -1), axis=1)


def _children(lo: np.ndarray, hi: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (K, 2^d, ...) of the 2^d children of each of the K boxes [lo[k], hi[k]]."""
    mid = 0.5 * (lo + hi)
    return np.where(masks, mid[:, None], lo[:, None]), np.where(masks, hi[:, None], mid[:, None])


def _halve(products: np.ndarray) -> np.ndarray:
    """The sums over the first axis (the nodes, n a power of two) of products
    (n, ...), by a fixed pairwise halving: the first half of the nodes plus
    the second, until one is left (6 elementwise adds for 64 nodes, 3 for
    8).  Every sum is the same arithmetic on its own products, whatever the
    other boxes and columns of the array."""
    n = len(products)
    while n > 1:
        n //= 2
        products = products[:n] + products[n:]
    return products[0]


def _estimates(f, lo: np.ndarray, hi: np.ndarray, cols=None, counts=None) -> np.ndarray:
    """The one-shot estimates of the boxes [lo[k], hi[k]], box k for its own value columns.

    Box k takes the next counts[k] of the ascending column indices ``cols``;
    the estimates come back flat in (box, column) order.  With ``cols`` None
    every box takes every column, and the result is (K,) + the trailing
    shape of f's values.  A plain integrand is called f(x) once per box and
    its columns are taken out of its values (n,) or (n, M).  One with an int
    ``columns`` attribute (its values per node; below 1 it is a ValueError)
    is called f(x, cols, counts) on the boxes' nodes stacked, as many boxes
    per call as fit in STACK_PAIRS node x column pairs (at least one), and
    returns its values in (box, column, node) order, (len(cols), n) or flat.
    Nodes are made per call, and the weights after it, so a round's memory
    is that of its largest call.  The values times the weights are summed
    over the nodes by :func:`_halve`, so every (box, column) estimate has
    the same bytes for any stacking and any columns beside it.
    """
    weights = _RULES[lo.shape[1:]][1]
    k, n = len(lo), len(weights)
    columns = getattr(f, "columns", None)
    if columns is None:
        nodes, scales = _panels(lo, hi)
        weights = scales[:, None] * weights
        flat = nodes.reshape((-1,) + nodes.shape[2:])
        parts, start = [], 0
        for b in range(k):
            values = np.asarray(f(flat[b * n : (b + 1) * n]))
            trailing = values.shape[1:]
            values = values.reshape(n, -1)
            if cols is not None:
                wanted = cols[start : start + counts[b]]
                start += counts[b]
                if len(wanted) < values.shape[1]:
                    values = values[:, wanted]
            parts.append(_halve(values * weights[b, :, None]))
        estimates = np.concatenate(parts)
        return estimates.reshape((k,) + trailing) if cols is None else estimates
    if columns < 1:
        raise ValueError(f"an integrand's declared columns must be at least 1, got {columns!r}")
    every = cols is None
    if every:
        cols, counts = np.arange(k * columns) % columns, np.full(k, columns)
    ends = np.cumsum(counts)  # one past each box's last (box, column) row
    rows = max(1, STACK_PAIRS // n)
    parts, b = [], 0
    while b < k:
        first = ends[b] - counts[b]
        e = max(b + 1, int(np.searchsorted(ends, first + rows, side="right")))
        wanted, per_box = cols[first : ends[e - 1]], counts[b:e]
        nodes, scales = _panels(lo[b:e], hi[b:e])
        values = np.asarray(f(nodes.reshape((-1,) + nodes.shape[2:]), wanted, per_box)).reshape(len(wanted), n)
        products = np.repeat(scales[:, None] * weights, per_box, axis=0)
        products *= values
        # the first halving step on the rows, the others on contiguous halves of the transpose
        products = products[:, : n // 2] + products[:, n // 2 :]
        parts.append(_halve(np.ascontiguousarray(products.T)))
        b = e
    estimates = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return estimates.reshape(k, columns) if every else estimates


def _put(store: np.ndarray, at: int, block: np.ndarray) -> np.ndarray:
    """``store`` with ``block`` written to its rows [at, at + len(block)), grown by half when full."""
    end = at + len(block)
    if end > len(store):
        grown = np.empty((max(end, 3 * len(store) // 2),) + store.shape[1:])
        grown[:at] = store[:at]
        store = grown
    store[at:end] = block
    return store


def _adapt(f, lo, hi, tol, max_depth):
    """Integrate f over the union of root boxes [lo[i], hi[i]], unequal or not, each
    with an equal share of ``tol``, refining every value column on its own, in rounds."""
    heappush, heappop, inf = heapq.heappush, heapq.heappop, math.inf
    shape = lo.shape[1:]
    masks = _RULES[shape][2]
    nkids = len(masks)
    nroots = len(lo)

    def children(lo, hi, cols=None, counts=None):
        """The estimates of the children of the boxes [lo, hi], box by box, child index
        next, for the columns of each box (see :func:`_estimates`), returned child
        index outermost: (2^d, box x column)."""
        kid_lo, kid_hi = (b.reshape((-1,) + shape) for b in _children(lo, hi, masks))
        if cols is None:  # the roots: their own panels, then their children's, every column
            return _estimates(f, np.concatenate([lo, kid_lo]), np.concatenate([hi, kid_hi]))
        # (box, column) j of width m starting at s: child k's estimate at 2^d s + k m + (j - s)
        width = np.repeat(counts, counts)
        start = np.repeat(np.cumsum(counts) - counts, counts)
        at = nkids * start + (np.arange(len(cols)) - start) + np.arange(nkids)[:, None] * width
        panel_cols = np.empty(nkids * len(cols), cols.dtype)
        panel_cols[at] = cols
        return _estimates(f, kid_lo, kid_hi, panel_cols, np.repeat(counts, nkids))[at]

    first = children(lo, hi)
    box_lo, box_hi = lo, hi  # per leaf: its bounds
    scalar = first.ndim == 1
    first = first.reshape(len(first), -1)
    ncols = first.shape[1]
    # leaves are numbered in creation order, and each leaf's (leaf, column) slots are consecutive
    leaves = []  # per leaf: (depth, its first slot, its columns, its share, positions of its live columns)
    kids = np.empty((0, nkids))  # per slot: the leaf's child estimates
    slots = 0
    folds = []  # per round: (split slots, their children's first slots, the children's column counts)
    errs = [{} for _ in range(ncols)]  # per column: leaf -> |fine - coarse| of each of its leaves
    total = [0.0] * ncols  # per column: running sum of its leaf errors
    heaps = [[] for _ in range(ncols)]  # per column: (key, tie, leaf) of its live leaves
    retired = [False] * ncols  # per column: its re-summed error is within tol, it splits no more

    def spawn(parts, coarse, groups):
        """Make the leaves of each group (columns, count, depth, share): ``count`` boxes
        for ``columns``, their one-shot estimates the next of ``coarse`` and their
        children's the next of ``parts`` (2^d, leaf x column), in (leaf, column) order.
        Each leaf's children sum, child 0 first, is one add per child for the round;
        then each leaf in turn is made, its errors added to its columns' totals and its
        live ones pushed on their heaps."""
        nonlocal kids, slots
        sums = reduce(add, parts)  # children in order, as one leaf at a time
        errors = iter(np.abs(sums - coarse).tolist())
        kids = _put(kids, slots, parts.T)
        for names, k, depth, share in groups:
            m = len(names)
            columns = [(c, errs[c], heaps[c]) for c in names]
            for _ in range(k):
                leaf = len(leaves)
                live = []
                leaves.append((depth, slots, names, share, live))
                for i, (c, own, heap), e in zip(range(m), columns, errors):
                    own[leaf] = e
                    total[c] += e
                    if not e <= share:  # live; a NaN error is above every share
                        live.append(i)
                        if e < inf and len(own) <= BEST_FIRST_LEAVES:
                            heappush(heap, (-e, leaf, leaf))
                        else:  # newest first, ahead of every finite error: depth first
                            heappush(heap, (-inf, -leaf, leaf))
                slots += m

    parts = first[nroots:].reshape(nroots, nkids, ncols).swapaxes(0, 1).reshape(nkids, -1)
    spawn(parts, first[:nroots].ravel(), [(list(range(ncols)), nroots, 0, tol / nroots)])
    active = list(range(ncols))  # unretired columns that still have a live leaf
    while active:
        popped = {}  # each column's worst leaf, distinct, in the order of the lowest column popping it
        still = []
        for c in active:
            if retired[c]:  # at the cap, last round
                continue
            heap, own = heaps[c], errs[c]
            while heap and heap[0][2] not in own:  # stale: already split for c
                heappop(heap)
            if not heap:  # no live leaf left: nothing to split, nothing to re-sum
                continue
            if not tol < total[c] < inf:
                # before retiring, re-sum: no drift of the running updates, no inf - inf
                total[c] = math.fsum(own.values())
                if total[c] <= tol:
                    retired[c] = True
                    continue
            popped[heappop(heap)[2]] = None
            still.append(c)
        active = still
        splits = []
        for leaf in popped:
            # each box is split once, so a popped leaf is still a leaf of all its columns
            depth, slot, names, share, live = leaves[leaf]
            at_cap = depth >= max_depth
            split = []  # positions in names of the columns to split for: live, unretired, above tol
            for i in live:
                c = names[i]
                if retired[c]:
                    continue
                if at_cap:
                    # before failing at the cap, re-sum
                    total[c] = math.fsum(errs[c].values())
                    if total[c] <= tol:
                        retired[c] = True
                        continue
                split.append(i)
            if not split:
                continue
            chosen = [names[i] for i in split]
            if at_cap:
                errors = [errs[c][leaf] for c in chosen]
                worst = int(np.argmax(errors))
                summed = max(total[c] for c in chosen)
                a, b = box_lo[leaf], box_hi[leaf]
                raise QuadratureNotConverged(
                    f"{np.size(a)}D panel [{a.tolist()}, {b.tolist()}] at depth {depth} (the cap): "
                    f"error {errors[worst]:.3e} > its share {share:.3e}, "
                    f"largest in value column {chosen[worst]}; summed error {summed:.3e} > {tol:.3e}",
                    error_estimate=summed,
                    tolerance=tol,
                )
            for c in chosen:  # the other columns keep this leaf's fine estimates as final
                total[c] -= errs[c].pop(leaf)
            splits.append((leaf, chosen, [slot + i for i in split], depth + 1, share / nkids))
        if not splits:
            continue
        # the new leaves in the creation order of the boxes they split, child index next;
        # each split's columns and its children's estimates, for each of its 2^d new leaves
        splits.sort()
        boxes = [s[0] for s in splits]
        groups = [(names, nkids, depth, share) for _, names, _, depth, share in splits]
        widths = np.array([len(names) for names, *_ in groups])
        starts = np.cumsum(widths) - widths
        split_cols = np.array([c for names, *_ in groups for c in names])
        split_slots = np.array([p for *_, parent_slots, _, _ in splits for p in parent_slots])
        split_kids = kids[split_slots]  # (split columns, 2^d)
        # split column j of split s: its first child's slot, and the stride to the next child
        j = np.arange(len(split_cols))
        folds.append((split_slots, slots + j + (nkids - 1) * np.repeat(starts, widths), np.repeat(widths, widths)))
        # row r of the round: child k of its split, column i, taken from split column first + i
        first = np.repeat(starts, nkids * widths)
        width = np.repeat(widths, nkids * widths)
        offset = np.arange(nkids * len(split_cols)) - nkids * first
        pick = first + offset % width
        cols, counts, coarse = split_cols[pick], np.repeat(widths, nkids), split_kids[pick, offset // width]
        new_lo, new_hi = (b.reshape((-1,) + shape) for b in _children(box_lo[boxes], box_hi[boxes], masks))
        parts = children(new_lo, new_hi, cols, counts)
        box_lo, box_hi = _put(box_lo, len(leaves), new_lo), _put(box_hi, len(leaves), new_hi)
        spawn(parts, coarse, groups)

    # fold each column in nested order, latest round first, so every child is final before
    # its parent: the sum of a split box's children, child 0 first, replaces its fine
    # estimates of the columns it was split for
    fine = reduce(add, [kids[:slots, k] for k in range(nkids)])  # each leaf's children sum, as in spawn
    for split_slots, child, stride in reversed(folds):
        fine[split_slots] = reduce(add, [fine[child + k * stride] for k in range(nkids)])
    value = reduce(add, [fine[i * ncols : (i + 1) * ncols] for i in range(nroots)])
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
    attribute ``columns`` (M), it is called ``f(x, cols, counts)`` on
    several panels' points stacked: panel k is evaluated for the next
    counts[k] of the ascending column indices ``cols``, up to STACK_PAIRS
    point x column pairs per call, and the values come back (len(cols), n)
    in (panel, column, node) order, n = 64 nodes per panel.  Strongly
    anisotropic rectangles are first cut into near-square boxes, which
    become the first leaves of the budgets: refinement stops once every
    value column's summed leaf error is within ``tol``.  A non-finite bound
    is a ValueError; QuadratureNotConverged is raised at the depth cap.
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"adaptive_rectangle needs finite bounds, got lo {lo.tolist()} and hi {hi.tolist()}")
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

    Each piece between strictly increasing, finite ``points`` is a root box; ``f(x)`` gets each
    panel's 8 nodes flat, or ``f(x, cols, counts)`` several panels' nodes stacked with the value
    columns of each if it declares ``columns`` (see :func:`adaptive_rectangle`).  Fewer than two
    ``points``, a non-finite one or points that do not strictly increase raise ValueError.
    """
    s = np.asarray(points, float)
    if s.ndim != 1 or len(s) < 2:
        raise ValueError(f"adaptive_segment needs at least two break points, got points of shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError(f"adaptive_segment needs finite break points, got {s.tolist()}")
    if not (s[1:] > s[:-1]).all():
        raise ValueError(f"adaptive_segment needs strictly increasing break points, got {s.tolist()}")
    return _adapt(f, s[:-1], s[1:], tol, max_depth)
