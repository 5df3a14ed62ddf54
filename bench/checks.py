"""Correctness checks applied to every study run, outside the timed region.

``study_problems`` applies the thresholds that ``filmhomog converge/gauge
--assert`` applies.  ``DirectSumCheck`` compares every microscopic sample of a
convergence report against a Green's sum that it computes on its own, from
charges it rebuilds with numpy from the scenario dict (unit-square cells on
the unit domain, identity or cylinder map), so a faulty ``realize`` or
``direct_potential`` cannot agree with itself.
"""

from __future__ import annotations

import numpy as np

# |micro - reference| <= DIRECT_RTOL * sum_i |q_i| / r_i at every point.
# Rounding differences stay near 1e-16 of that scale; a wrong charge or a lost
# term is far larger.
DIRECT_RTOL = 1e-12
_BLOCK_PAIRS = 1 << 19  # bounds the (points x charges x 3) temporaries


def study_problems(report, cfg) -> list[str]:
    """Threshold violations of one study report (empty when it passes)."""
    th = cfg.thresholds
    problems = []
    if hasattr(report, "fitted_order"):
        if not report.errors_decrease:
            problems.append(f"errors do not decrease: {[s.err_max for s in report.steps]}")
        if not report.fitted_order >= th.order_min:
            problems.append(f"fitted order {report.fitted_order:.3f} < {th.order_min}")
        return problems
    if not report.atoms_consistent:
        problems.append("the two cell choices realize different atoms")
    if not report.max_potential_diff <= th.gauge_phi_tol:
        problems.append(f"max|phi_a - phi_b| = {report.max_potential_diff:.3e} > {th.gauge_phi_tol}")
    if not report.max_moment_diff >= th.gauge_moment_min:
        problems.append(f"max|p_a - p_b| = {report.max_moment_diff:.3e} < {th.gauge_moment_min}")
    return problems


def _modulation(spec: dict | None, corners: np.ndarray) -> np.ndarray:
    spec = spec or {"kind": "constant"}
    value = float(spec.get("value", 1.0))
    if spec["kind"] == "constant":
        return np.full(len(corners), value)
    dot = corners @ np.asarray(spec.get("coef", (0.0, 0.0)), float)
    if spec["kind"] == "linear":
        return value + dot
    return value * np.sin(dot + float(spec.get("phase", 0.0)))


def reference_charges(raw: dict, l: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions (N, 3) and charges (N,) of one schedule step, rebuilt from ``raw``."""
    n = round(1.0 / l)
    if abs(n * l - 1.0) > 1e-12 or raw.get("domain", [[0, 0], [1, 1]]) != [[0, 0], [1, 1]]:
        raise ValueError("the reference needs the unit domain and 1/l an integer")
    if any(k in raw.get("cell", {}) for k in ("e1", "e2", "origin")) or any(raw.get("cell", {}).get("f", (0, 0))):
        raise ValueError("the reference needs unit-square cells with no offset")
    motif = raw["motif"]
    if motif.get("free_points"):
        raise ValueError("the reference does not model free charge")
    regime = raw["regime"]
    prefactor = {"R1": l, "R2": regime.get("alpha", 1.0) * l, "R3": l * l / h}[regime["kind"]]

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    corners = np.stack([i.ravel(), j.ravel()], axis=-1) * l
    planar, third, charges = [], [], []
    for p in motif["points"]:
        planar.append(corners + l * np.asarray(p["y"], float))
        third.append(np.full(len(corners), h * float(p.get("z", 0.0))))
        charges.append(prefactor * float(p["w"]) * _modulation(p.get("modulation"), corners))
    x = np.concatenate(planar)
    x3 = np.concatenate(third)

    spec = raw.get("map", {"kind": "identity"})
    if spec["kind"] == "identity":
        pos = np.column_stack([x, x3])
    elif spec["kind"] == "cylinder":
        radius = float(spec["radius"])
        r = radius + x3
        pos = np.column_stack([r * np.cos(x[:, 0] / radius), r * np.sin(x[:, 0] / radius), x[:, 1]])
    else:
        raise ValueError(f"the reference does not model map kind {spec['kind']!r}")
    return pos, np.concatenate(charges)


def green_sum(positions: np.ndarray, charges: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_i q_i / r_i and sum_i |q_i| / r_i at each observation point."""
    values = np.empty(len(points))
    scale = np.empty(len(points))
    block = max(1, _BLOCK_PAIRS // max(1, len(charges)))
    for b in range(0, len(points), block):
        diff = points[b : b + block, None, :] - positions[None, :, :]
        inv = 1.0 / np.sqrt(np.sum(diff * diff, axis=-1))
        values[b : b + block] = inv @ charges
        scale[b : b + block] = inv @ np.abs(charges)
    return values, scale


class DirectSumCheck:
    """Reference potentials of every schedule step, computed once per scenario."""

    def __init__(self, raw: dict, schedule, points: np.ndarray):
        self.steps = [green_sum(*reference_charges(raw, l, h), points) for l, h in schedule]

    def problems(self, samples) -> list[str]:
        if len(samples) != len(self.steps):
            return [f"{len(samples)} microscopic samples for {len(self.steps)} schedule steps"]
        out = []
        for k, (sample, (ref, scale)) in enumerate(zip(samples, self.steps)):
            ratio = np.abs(np.asarray(sample.values) - ref) / scale
            worst = float(np.max(ratio))
            if not worst <= DIRECT_RTOL:
                out.append(f"step {k}: direct sum off the reference by {worst:.2e} of sum|q|/r")
        return out
