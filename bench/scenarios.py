"""Seeded study scenarios, one per benchmark workload.

Each workload turns a seed into a plain scenario dict in the JSON schema of
``filmhomog.config.build_config``; the library receives nothing else.  The
seed perturbs only the inputs listed below, inside fixed ranges chosen so that
every seed keeps the workload's correctness check passing and its cost of the
same order:

* ``r3_fine_lattice``: dipole weight ``w`` in [0.9, 1.1], shared in-plane
  offset ``y`` in 0.5 +- 0.05 per axis, normal offset ``z`` in [0.45, 0.55].
* ``gauge_l64``: dipole weight ``w`` in [0.9, 1.1]; the points
  (0.75, 0.5) and (0.25, 0.5) each move by up to +-0.05 along the first axis
  and share one move of up to +-0.05 along the second.  Weights stay constant
  (no modulation), see the known defect in ``README.md``.
* ``near_film_r2``: the same dipole and moves as ``gauge_l64``, with both
  weights modulated by one sinusoid: coefficients (2 pi, pi) each scaled by
  [0.95, 1.05], phase in [0.2, 0.4].
* ``field_map_cyl``: each of the four inversion-symmetric pairs keeps its
  symmetry about the cell centre; its offset moves by up to +-0.03 per axis
  and its weight is scaled by [0.9, 1.1].

The cell is the unit square and every ``l`` divides the unit domain, so the
direct-sum check in ``checks.py`` can rebuild the charges on its own.
"""

from __future__ import annotations

import math
import random
from typing import Callable

TOL = 1e-9
ORDER_MIN = 0.9
GAUGE_PHI_TOL = 1e-6
GAUGE_MOMENT_MIN = 0.1


def _grid(n: int, distance: float) -> dict:
    return {"kind": "offset_surface", "n": [n, n], "distance": distance}


def _moved(rng: random.Random, y: tuple[float, float], amount: float) -> list[float]:
    return [c + rng.uniform(-amount, amount) for c in y]


def _planar_dipole(rng: random.Random, modulation: dict | None = None) -> list[dict]:
    # Both points share one row offset: points on opposite sides of y = 0.5
    # fall into different rows of the half-shifted cell and double the number
    # of boundary-charge segments, which would make the gauge cost bimodal.
    w = rng.uniform(0.9, 1.1)
    row = 0.5 + rng.uniform(-0.05, 0.05)
    points = [
        {"w": w, "y": [0.75 + rng.uniform(-0.05, 0.05), row], "z": 0.0},
        {"w": -w, "y": [0.25 + rng.uniform(-0.05, 0.05), row], "z": 0.0},
    ]
    if modulation is not None:
        for p in points:
            p["modulation"] = modulation
    return points


# R3 couples l = h^2.  The finest step stops at l = 1/128 (21 504 cells over
# the schedule): at l = 1/256 one study call takes 5-8 s, too few calls per
# run for a steady median.
R3_L = (1 / 32, 1 / 64, 1 / 128)


def r3_fine_lattice(rng: random.Random) -> dict:
    w = rng.uniform(0.9, 1.1)
    y = _moved(rng, (0.5, 0.5), 0.05)
    z = rng.uniform(0.45, 0.55)
    return {
        "map": {"kind": "identity"},
        "motif": {"points": [{"w": w, "y": y, "z": z}, {"w": -w, "y": list(y), "z": -z}]},
        "regime": {"kind": "R3"},
        "schedule": {"l": list(R3_L), "h": [math.sqrt(l) for l in R3_L]},
        "grid": _grid(5, 1.0),
        "quadrature": {"tol": TOL},
        "thresholds": {"order_min": ORDER_MIN},
    }


def gauge_l64(rng: random.Random) -> dict:
    return {
        "map": {"kind": "identity"},
        "motif": {"points": _planar_dipole(rng)},
        "cell": {"f": [0.0, 0.0]},
        "cell_b": {"f": [0.5, 0.5]},
        "regime": {"kind": "R2", "alpha": 1.0},
        "schedule": {"l": [1 / 64]},
        "grid": _grid(5, 1.0),
        "quadrature": {"tol": TOL},
        "thresholds": {"gauge_phi_tol": GAUGE_PHI_TOL, "gauge_moment_min": GAUGE_MOMENT_MIN},
    }


def near_film_r2(rng: random.Random) -> dict:
    modulation = {
        "kind": "sinusoid",
        "value": 1.0,
        "coef": [2 * math.pi * rng.uniform(0.95, 1.05), math.pi * rng.uniform(0.95, 1.05)],
        "phase": rng.uniform(0.2, 0.4),
    }
    return {
        "map": {"kind": "identity"},
        "motif": {"points": _planar_dipole(rng, modulation)},
        "regime": {"kind": "R2", "alpha": 1.0},
        "schedule": {"l": [1 / 4, 1 / 8, 1 / 16, 1 / 32]},
        "grid": _grid(5, 0.02),
        "quadrature": {"tol": TOL},
        "thresholds": {"order_min": ORDER_MIN},
    }


# (in-plane offset from the cell centre, normal offset z, weight) of the
# positive point of each pair; its partner sits at the mirrored offset with
# the opposite weight.  Inversion symmetry cancels the first-order error, so
# the study converges at second order.
_CYL_PAIRS = (
    ((0.25, 0.0), 0.0, 1.0),
    ((0.0, 0.3), 0.2, 0.6),
    ((0.15, 0.15), 0.4, 0.8),
    ((0.2, -0.1), -0.3, 0.5),
)


def field_map_cyl(rng: random.Random) -> dict:
    points = []
    for offset, z, w in _CYL_PAIRS:
        a = _moved(rng, offset, 0.03)
        w = w * rng.uniform(0.9, 1.1)
        points.append({"w": w, "y": [0.5 + a[0], 0.5 + a[1]], "z": z})
        points.append({"w": -w, "y": [0.5 - a[0], 0.5 - a[1]], "z": -z})
    return {
        "map": {"kind": "cylinder", "radius": 2.0},
        "motif": {"points": points},
        "regime": {"kind": "R2", "alpha": 1.0},
        "schedule": {"l": [1 / 8, 1 / 16, 1 / 32, 1 / 64]},
        "grid": _grid(20, 0.25),
        "quadrature": {"tol": TOL},
        "thresholds": {"order_min": ORDER_MIN},
    }


WORKLOADS: dict[str, Callable[[random.Random], dict]] = {
    "r3_fine_lattice": r3_fine_lattice,
    "gauge_l64": gauge_l64,
    "near_film_r2": near_film_r2,
    "field_map_cyl": field_map_cyl,
}


def scenario(workload: str, seed: int) -> dict:
    """The scenario dict of one workload; the same seed gives the same dict."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
