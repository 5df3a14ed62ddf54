"""Host-speed calibration for the benchmark's timings.

On a shared machine other tenants slow every process by up to 2x for tens of
seconds to minutes at a time, and the slowdown shows in CPU time as well as in
wall time, so the fastest or median call of a 30 s run still moves by a third
from run to run.  The benchmark therefore times a fixed kernel between
consecutive timed calls and reports each call as

    seconds * REFERENCE_S / (mean of the kernel times just before and after it)

that is, in seconds on a host where the kernel takes ``REFERENCE_S``.  The
kernel is the benchmark's own code and does each kind of work the library
does: Green's sums over a large charge array, small broadcast kernel blocks,
scalar numpy calls, a Python loop over tuples, a cell enumeration with a few
small numpy calls per cell, and an adaptive-style tensor Gauss quadrature.  A
change to ``filmhomog`` cannot change the kernel's time, so it shows in the
scaled time in full.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The kernel's time on the 2-CPU VM the benchmark was defined on, with the
# host quiet.  Only a unit: it scales every timing by the same factor.
REFERENCE_S = 0.19

_RNG = np.random.default_rng(12345)
_CHARGES = _RNG.random((20000, 3))
_OBS = _RNG.random((25, 3))
_UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)


def _green_sums() -> float:
    total = 0.0
    for p in _CHARGES[:24]:
        d = np.sqrt(np.sum((_CHARGES - p) ** 2, axis=-1))
        total += math.fsum((1.0 / (d + 1.0)).tolist())
    return total


def _kernel_blocks() -> float:
    total = 0.0
    for i in range(600):
        pts = _CHARGES[(i % 300) * 60 : (i % 300 + 1) * 60]
        diff = _OBS[None, :, :] - pts[:, None, :]
        total += float(np.sum(1.0 / np.sqrt(np.sum(diff * diff, axis=-1))))
    return total


def _scalar_calls() -> float:
    return sum(float(np.dot(x, x)) + math.hypot(x[0], x[1]) for x in _CHARGES[:6000])


def _tuples() -> float:
    rows = [(i % 97, i // 97, 0.5 * i) for i in range(60000)]
    return sum(r[2] for r in rows if r[0] & 1)


def _cells() -> float:
    l = 1 / 56
    cells = []
    for m1 in range(56):
        for m2 in range(56):
            corner = np.array([m1 * l, m2 * l])
            poly = corner + l * _UNIT_SQUARE
            if np.all((poly >= -1e-12) & (poly <= 1 + 1e-12)):
                x, y = poly[:, 0], poly[:, 1]
                area = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
                cells.append({"index": (m1, m2), "corner": corner, "area": area})
    return sum(c["area"] for c in cells)


def _panel(x0: float, y0: float, w: float, depth: int, obs: np.ndarray) -> np.ndarray:
    """Single- plus double-layer kernel over one square panel, split ``depth`` times."""
    if depth:
        h = 0.5 * w
        return sum(_panel(x0 + a * h, y0 + b * h, h, depth - 1, obs) for a in (0, 1) for b in (0, 1))
    nodes = 0.5 * w * (_GAUSS_X + 1.0)
    u, v = np.meshgrid(x0 + nodes, y0 + nodes, indexing="ij")
    pts = np.stack([u.ravel(), v.ravel(), np.zeros(u.size)], axis=-1)
    normal = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    diff = obs[None, :, :] - pts[:, None, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    values = 1.0 / d + np.sum(diff * normal[:, None, :], axis=-1) / d**3
    return (np.outer(_GAUSS_W, _GAUSS_W).ravel() * (0.25 * w * w)) @ values


def _quadrature() -> float:
    obs = _OBS * [1.0, 1.0, 0.05] + [0.0, 0.0, 0.02]
    return float(np.sum(_panel(0.0, 0.0, 1.0, 4, obs)))


def kernel() -> float:
    return _green_sums() + _kernel_blocks() + _scalar_calls() + _tuples() + _cells() + _quadrature()


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(durations: list[float], kernel_times: list[float]) -> list[float]:
    """Host-scaled durations; ``durations[i]`` ran between ``kernel_times[i]`` and ``kernel_times[i + 1]``."""
    if len(kernel_times) != len(durations) + 1:
        raise ValueError("one kernel time before each duration and one after the last")
    return [dt * REFERENCE_S / (0.5 * (a + b)) for dt, a, b in zip(durations, kernel_times, kernel_times[1:])]
