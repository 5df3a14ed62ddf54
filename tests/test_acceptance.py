"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances and schedules are pinned here; nothing is configurable.
"""

import math
import time

import numpy as np
import pytest

from filmhomog import (
    Motif,
    MotifPoint,
    ObservationGrid,
    ParametricMap,
    Rectangle,
    Regime,
    UnitCellChoice,
    direct_potential,
    homogenized_potential,
    make_schedule,
    moment_fields,
    moment_table,
    realize,
    run_convergence,
    run_gauge,
    tessellate,
)
from filmhomog.moments import _j0_at
from filmhomog.potential import FieldSample
from reference import covered_area, finite_t_double_layer, prescribed_fields, sample

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
SQUARE = UnitCellChoice()
HALF_SHIFT = UnitCellChoice(f=(0.5, 0.5))
IDENT = ParametricMap.identity(UNIT)
PLANAR_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.75, 0.5), 0.0), MotifPoint(-1.0, (0.25, 0.5), 0.0)))
VERTICAL_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.5, 0.5), 0.5), MotifPoint(-1.0, (0.5, 0.5), -0.5)))


def report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def grid():
    return ObservationGrid.offset_surface(IDENT, 5, 5, 1.0)


def test_criterion_1_regime2_convergence(grid):
    t0 = time.perf_counter()
    regime = Regime("R2", alpha=1.0)
    schedule = make_schedule(regime, l_values=[1 / 4, 1 / 8, 1 / 16, 1 / 32])
    rep = run_convergence(PLANAR_DIPOLE, IDENT, SQUARE, regime, schedule, grid)
    elapsed = time.perf_counter() - t0
    errs = [s.err_max for s in rep.steps]
    ok = rep.errors_decrease and rep.fitted_order >= 0.9 and elapsed <= 120.0
    report(
        1,
        ok,
        f"R2 max-errors {['%.3e' % e for e in errs]}, p_hat={rep.fitted_order:.3f} (>=0.9), "
        f"runtime {elapsed:.1f}s (<=120s)",
    )


def test_criterion_2_regime1_convergence(grid):
    regime = Regime("R1")
    schedule = make_schedule(regime, l_values=[1 / 4, 1 / 8, 1 / 16, 1 / 32])  # h = l^2
    rep = run_convergence(PLANAR_DIPOLE, IDENT, SQUARE, regime, schedule, grid)

    # the normal-polarization content must be absent from this limit
    mixed = Motif(points=PLANAR_DIPOLE.points + VERTICAL_DIPOLE.points)
    phi_plain = homogenized_potential(moment_fields(PLANAR_DIPOLE, SQUARE, IDENT, 1 / 32), Regime("R1"), IDENT, grid)
    phi_mixed = homogenized_potential(moment_fields(mixed, SQUARE, IDENT, 1 / 32), Regime("R1"), IDENT, grid)
    homog_change = float(np.max(np.abs(phi_plain.values - phi_mixed.values)))

    t_coarse = tessellate(UNIT, 1 / 4, SQUARE)
    micro_plain = direct_potential(
        realize(PLANAR_DIPOLE, t_coarse, IDENT, 1 / 4, 1 / 16, regime), grid, standoff_factor=0.0
    )
    micro_mixed = direct_potential(
        realize(mixed, t_coarse, IDENT, 1 / 4, 1 / 16, regime), grid, standoff_factor=0.0
    )
    micro_change = float(np.max(np.abs(micro_plain.values - micro_mixed.values)))

    ok = (
        rep.errors_decrease
        and rep.fitted_order >= 0.9
        and homog_change <= 1e-8
        and micro_change > 1e-8
    )
    report(
        2,
        ok,
        f"R1 p_hat={rep.fitted_order:.3f} (>=0.9), vertical component shifts homogenized "
        f"potential by {homog_change:.1e} (<=1e-8) but microscopic by {micro_change:.1e}",
    )


def test_criterion_3_regime3_convergence_and_sign(grid):
    regime = Regime("R3")
    schedule = make_schedule(regime, h_values=[1 / 4, 1 / 8, 1 / 16])  # l = h^2
    rep = run_convergence(VERTICAL_DIPOLE, IDENT, SQUARE, regime, schedule, grid)

    # the opposite double-layer sign must NOT converge: micro errors against the
    # sign-flipped limit stay O(1) relative to the field scale
    fields = moment_fields(VERTICAL_DIPOLE, SQUARE, IDENT, 1 / 256)
    flipped = FieldSample(
        grid=grid,
        values=-homogenized_potential(fields, Regime("R3"), IDENT, grid).values,
        provenance="sign-flipped",
    )
    last = rep.micro[-1]
    err_flipped = float(np.max(np.abs(last.values - flipped.values)))
    ok = (
        rep.errors_decrease
        and rep.fitted_order >= 0.9
        and err_flipped > 100.0 * rep.steps[-1].err_max
    )
    report(
        3,
        ok,
        f"R3 p_hat={rep.fitted_order:.3f} (>=0.9) against the double layer; "
        f"flipped-sign residual {err_flipped:.2e} vs {rep.steps[-1].err_max:.2e}",
    )


def test_criterion_4_gauge_invariance(grid):
    t0 = time.perf_counter()
    rep = run_gauge(
        PLANAR_DIPOLE, IDENT, SQUARE, HALF_SHIFT, 1 / 4, 1 / 4, Regime("R2", alpha=1.0), grid
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rep.max_moment_diff >= 0.1
        and rep.max_potential_diff <= 1e-6
        and rep.atoms_consistent
        and elapsed <= 30.0
    )
    report(
        4,
        ok,
        f"per-cell |dp|={rep.max_moment_diff:.3f} (>=0.1), grid |dPhi|={rep.max_potential_diff:.2e} "
        f"(<=1e-6), runtime {elapsed:.1f}s (<=30s)",
    )


def test_criterion_5_double_layer_closed_forms():
    disk = ParametricMap.polar_disk(1.0)
    axis = ObservationGrid.from_points([[0.0, 0.0, 1.0]], disk)
    ones = lambda x: np.ones(np.asarray(x).shape[:-1])

    double = homogenized_potential(prescribed_fields(disk, p3=ones), Regime("R3"), disk, axis).values[0]
    single = homogenized_potential(prescribed_fields(disk, q=ones), Regime("R3"), disk, axis).values[0]
    exact_double = 2 * math.pi * (1 - 1 / math.sqrt(2))
    exact_single = 2 * math.pi * (math.sqrt(2) - 1)

    errs = []
    for t in (1e-3, 5e-4, 2.5e-4):
        phi = finite_t_double_layer(ones, disk, t, axis)
        errs.append(abs(phi.values[0] - exact_double))
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]

    ok = (
        abs(double - exact_double) <= 1e-6
        and abs(single - exact_single) <= 1e-6
        and all(abs(r - 2.0) <= 0.3 for r in ratios)
    )
    report(
        5,
        ok,
        f"axis double layer err {abs(double - exact_double):.1e}, single layer err "
        f"{abs(single - exact_single):.1e} (<=1e-6); finite-t halving ratios "
        f"{['%.2f' % r for r in ratios]} (2.0 +/- 0.3)",
    )


def test_criterion_6_curved_film():
    cylinder = ParametricMap.cylinder(UNIT, 2.0)
    cyl_grid = ObservationGrid.offset_surface(cylinder, 5, 5, 1.0)
    regime = Regime("R2", alpha=1.0)
    schedule = make_schedule(regime, l_values=[1 / 4, 1 / 8, 1 / 16, 1 / 32])
    rep = run_convergence(PLANAR_DIPOLE, cylinder, SQUARE, regime, schedule, cyl_grid)
    ok = rep.errors_decrease and rep.fitted_order >= 0.8
    report(6, ok, f"cylinder R2 p_hat={rep.fitted_order:.3f} (>=0.8), errors decrease")


def test_criterion_7_exactness_suite():
    t0 = time.perf_counter()
    checks = []

    # moment operations against hand values
    tess = tessellate(UNIT, 1 / 4, SQUARE)
    planar = moment_table(tess, PLANAR_DIPOLE, IDENT, h=0.25)
    p_p, p3 = planar.p_p[0], planar.p3[0]
    checks.append(abs(p_p[0] - 0.5) <= 1e-12 and abs(p_p[1]) <= 1e-12 and abs(p3) <= 1e-12)
    vertical = moment_table(tess, VERTICAL_DIPOLE, IDENT, h=0.25)
    checks.append(np.linalg.norm(vertical.p_p[0]) <= 1e-12 and abs(vertical.p3[0] - 1.0) <= 1e-12)
    cyl = ParametricMap.cylinder(UNIT, 2.0)
    checks.append(abs(moment_table(tess, PLANAR_DIPOLE, cyl, h=0.25).p_p[0, 0] - 0.5) <= 1e-12)
    checks.append(moment_table(tess, PLANAR_DIPOLE, IDENT, h=1 / 16).q[0] == 0.0)
    imbalanced = Motif(
        points=PLANAR_DIPOLE.points,
        free_points=(MotifPoint(2.0, (0.5, 0.5), 0.0),),
        free_charge_order=(1, 0),
    )
    checks.append(abs(moment_table(tess, imbalanced, IDENT, h=1 / 16).q[0] - 2.0) <= 1e-12)
    shifted = tessellate(UNIT, 1 / 4, HALF_SHIFT)
    sigma = moment_table(shifted, PLANAR_DIPOLE, IDENT, h=0.25).sigma
    stretched = ParametricMap.scaled(UNIT, (2.0, 1.0, 1.0))
    sigma_stretched = moment_table(shifted, PLANAR_DIPOLE, stretched, h=0.25).sigma

    def row(index):
        (k,) = np.flatnonzero(np.all(shifted.indices == index, axis=1))
        return k

    checks.append(abs(sigma[row((-1, 1))] - 1.0) <= 1e-12)
    checks.append(abs(sigma[row((1, 3))]) <= 1e-12)
    checks.append(abs(sigma_stretched[row((3, 1))] + 0.5) <= 1e-12)

    # tessellation partition identity
    for l, choice in [(1 / 4, SQUARE), (0.3, SQUARE), (1 / 4, HALF_SHIFT), (0.17, HALF_SHIFT)]:
        checks.append(abs(covered_area(tessellate(UNIT, l, choice)) - 1.0) <= 1e-10)

    # surface Jacobians J0 against central finite differences of the mid-surface
    rng = np.random.default_rng(123)
    for pmap in (cyl, stretched, ParametricMap.polar_disk(1.0)):
        for _ in range(20):
            x_p = sample(pmap.domain, 1, rng)[0]
            D = np.empty((3, 2))
            for j in range(2):
                dx = np.zeros(2)
                dx[j] = 1e-6
                D[:, j] = (pmap.midsurface(x_p + dx) - pmap.midsurface(x_p - dx)) / 2e-6
            expected = math.sqrt(np.linalg.det(D.T @ D))
            checks.append(abs(_j0_at(pmap, x_p) - expected) <= 1e-6 * max(1.0, expected))

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed <= 10.0
    report(
        7,
        ok,
        f"{len(checks)} exactness checks (moments 1e-12, areas 1e-10, Jacobians 1e-6), "
        f"runtime {elapsed:.1f}s (<=10s)",
    )
