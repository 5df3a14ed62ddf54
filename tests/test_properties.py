"""Cross-module invariants: linearity, flat-limit consistency, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    moment_fields,
    realize,
    tessellate,
)
from reference import fsum_potential

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
SQUARE = UnitCellChoice()
IDENT = ParametricMap.identity(UNIT)


def dipole(w=1.0):
    return (MotifPoint(+w, (0.75, 0.5), 0.0), MotifPoint(-w, (0.25, 0.5), 0.0))


def vertical(w=1.0):
    return (MotifPoint(+w, (0.5, 0.5), 0.5), MotifPoint(-w, (0.5, 0.5), -0.5))


class TestSuperposition:
    def test_homogenized_linear_in_source(self):
        grid = ObservationGrid.from_points([[1.3, 0.2, 0.8], [0.5, 0.5, 1.5]], IDENT)
        m_a = Motif(points=dipole(1.0))
        m_b = Motif(points=vertical(0.6))
        m_ab = Motif(points=dipole(1.0) + vertical(0.6))
        for op in (
            lambda f: homogenized_potential(f, Regime("R2", alpha=1.0), IDENT, grid),
            lambda f: homogenized_potential(f, Regime("R3"), IDENT, grid),
        ):
            va = op(moment_fields(m_a, SQUARE, IDENT, 0.25)).values
            vb = op(moment_fields(m_b, SQUARE, IDENT, 0.25)).values
            vab = op(moment_fields(m_ab, SQUARE, IDENT, 0.25)).values
            scale = np.max(np.abs(vab)) + 1e-30
            np.testing.assert_allclose(vab, va + vb, atol=1e-12 * max(1.0, scale))

    @settings(max_examples=20, deadline=None)
    @given(w1=st.floats(-2.0, 2.0), w2=st.floats(-2.0, 2.0))
    def test_direct_sum_linear_in_weights(self, w1, w2):
        tess = tessellate(UNIT, 0.5, SQUARE)
        grid = ObservationGrid.from_points([[0.4, 0.6, 2.0]], IDENT)
        r2 = Regime("R2", alpha=1.0)

        def phi(w):
            if w == 0.0:
                return 0.0
            d = realize(Motif(points=dipole(w)), tess, IDENT, 0.5, 0.5, r2)
            return direct_potential(d, grid, standoff_factor=0.0).values[0]

        assert phi(w1) + phi(w2) == pytest.approx(phi(w1 + w2) if w1 + w2 else 0.0, abs=1e-12)


class TestFlatLimitConsistency:
    def test_r3_matches_flat_double_layer_integrand(self):
        """Identity map: the general normal-derivative kernel reduces to the
        flat-film z / |r - r'|^3 double-layer integrand."""
        fields = moment_fields(Motif(points=vertical(1.0)), SQUARE, IDENT, 0.25)
        pts = np.array([[0.2, 0.6, 1.1], [1.5, 1.5, -0.9]])
        grid = ObservationGrid.from_points(pts, IDENT)
        phi = homogenized_potential(fields, Regime("R3"), IDENT, grid)
        x, w = np.polynomial.legendre.leggauss(150)
        s = 0.5 * (x + 1)
        W = np.outer(w, w) * 0.25
        X, Y = np.meshgrid(s, s, indexing="ij")
        for k, r in enumerate(pts):
            dist3 = ((r[0] - X) ** 2 + (r[1] - Y) ** 2 + r[2] ** 2) ** 1.5
            oracle = float(np.sum(W * r[2] / dist3))
            assert phi.values[k] == pytest.approx(oracle, abs=1e-7)

    def test_r1_matches_flat_boundary_integrand(self):
        fields = moment_fields(Motif(points=dipole(1.0)), SQUARE, IDENT, 0.25)
        r = np.array([-0.4, 0.3, 0.6])
        grid = ObservationGrid.from_points([r], IDENT)
        phi = homogenized_potential(fields, Regime("R1"), IDENT, grid)
        x, w = np.polynomial.legendre.leggauss(300)
        s = 0.5 * (x + 1)
        ws = 0.5 * w
        val = sum(wi * 0.5 / math.dist(r, (1.0, si, 0.0)) for si, wi in zip(s, ws))
        val -= sum(wi * 0.5 / math.dist(r, (0.0, si, 0.0)) for si, wi in zip(s, ws))
        assert phi.values[0] == pytest.approx(val, abs=1e-8)


class TestRefinementConsistency:
    def test_r2_dipole_moment_per_area_stable(self):
        """Total in-plane dipole moment per unit film area drifts by at most O(l)
        between successive refinements."""
        r2 = Regime("R2", alpha=1.0)

        def dipole_per_area(l):
            tess = tessellate(UNIT, l, SQUARE)
            d = realize(Motif(points=dipole(1.0)), tess, IDENT, l, l, r2)
            return d.positions[:, :2].T @ d.magnitudes  # film area is 1

        m1 = dipole_per_area(1 / 8)
        m2 = dipole_per_area(1 / 16)
        assert np.linalg.norm(m1 - m2) <= 1 / 8


class TestDeterminism:
    def test_direct_potential_matches_per_point_fsum(self):
        """Every point's sum equals its own exactly rounded fsum, bitwise."""
        tess = tessellate(UNIT, 0.125, SQUARE)
        d = realize(Motif(points=dipole(1.0)), tess, IDENT, 0.125, 0.125, Regime("R2", alpha=1.0))
        grid = ObservationGrid.offset_surface(IDENT, 4, 4, 1.5)
        values = direct_potential(d, grid, standoff_factor=0.0).values
        np.testing.assert_array_equal(values, fsum_potential(d, grid))

    def test_repeat_runs_bitwise_identical(self):
        fields = moment_fields(Motif(points=dipole(1.0)), SQUARE, IDENT, 0.25)
        grid = ObservationGrid.offset_surface(IDENT, 3, 3, 1.0)
        a = homogenized_potential(fields, Regime("R2", alpha=1.0), IDENT, grid).values
        b = homogenized_potential(fields, Regime("R2", alpha=1.0), IDENT, grid).values
        np.testing.assert_array_equal(a, b)
