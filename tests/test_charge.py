import math

import numpy as np
import pytest

from filmhomog import (
    Modulation,
    Motif,
    MotifPoint,
    ParametricMap,
    Rectangle,
    Regime,
    RegimeMismatch,
    UnitCellChoice,
    UnsupportedModulation,
    realize,
    tessellate,
)
from reference import modulation_gradient

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
SQUARE = UnitCellChoice()
IDENT = ParametricMap.identity(UNIT)

PLANAR_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.75, 0.5), 0.0), MotifPoint(-1.0, (0.25, 0.5), 0.0)))
VERTICAL_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.5, 0.5), 0.5), MotifPoint(-1.0, (0.5, 0.5), -0.5)))


class TestModulation:
    def test_constant(self):
        m = Modulation()
        assert m(np.array([0.3, 0.9])) == 1.0

    def test_linear(self):
        m = Modulation(kind="linear", value=1.0, coef=(2.0, -1.0))
        assert m(np.array([0.5, 0.25])) == pytest.approx(1.75)
        np.testing.assert_allclose(modulation_gradient(m, np.array([0.1, 0.1])), [2.0, -1.0])

    def test_sinusoid(self):
        m = Modulation(kind="sinusoid", value=2.0, coef=(np.pi, 0.0))
        assert m(np.array([0.5, 0.0])) == pytest.approx(2.0)
        np.testing.assert_allclose(modulation_gradient(m, np.array([0.5, 0.0])), [0.0, 0.0], atol=1e-12)

    def test_shift_identity(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, size=(20, 2))
        delta = np.array([0.3, -1.1])
        for m in [
            Modulation(),
            Modulation(kind="linear", value=0.5, coef=(1.0, 2.0)),
            Modulation(kind="sinusoid", value=1.5, coef=(2.0, 0.7), phase=0.2),
        ]:
            np.testing.assert_allclose(m.shifted(delta)(pts), m(pts + delta), atol=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedModulation):
            Modulation(kind="quadratic")


class TestRegime:
    def test_prefactors(self):
        assert Regime("R1").prefactor(0.25, 1 / 64) == pytest.approx(0.25)
        assert Regime("R2", alpha=1.0).prefactor(0.25, 0.25) == pytest.approx(0.25)
        assert Regime("R3").prefactor(1 / 16, 0.25) == pytest.approx((1 / 16) ** 2 / 0.25)

    def test_r2_mismatch(self):
        with pytest.raises(RegimeMismatch):
            Regime("R2", alpha=1.0).prefactor(0.25, 0.2)

    def test_r2_requires_alpha(self):
        with pytest.raises(ValueError):
            Regime("R2")


class TestRealize:
    def test_r2_dipole_charges(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 0.25, 0.25, Regime("R2", alpha=1.0))
        assert d.n_charges == 32
        assert set(np.round(d.magnitudes, 15)) == {0.25, -0.25}
        assert np.all(d.positions[:, 2] == 0.0)
        # atom offsets within the cell
        plus = d.positions[d.magnitudes > 0, :2]
        rel = plus - 0.25 * np.floor(plus / 0.25)
        expected = np.tile(0.25 * np.array([0.75, 0.5]), (len(rel), 1))
        np.testing.assert_allclose(rel, expected, atol=1e-14)

    def test_r1_magnitudes(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 0.25, 1 / 64, Regime("R1"))
        assert set(np.round(d.magnitudes, 15)) == {0.25, -0.25}

    def test_r3_vertical_dipole(self):
        t = tessellate(UNIT, 1 / 16, SQUARE)
        d = realize(VERTICAL_DIPOLE, t, IDENT, 1 / 16, 0.25, Regime("R3"))
        assert set(np.round(np.abs(d.magnitudes), 15)) == {1 / 64}
        assert set(np.round(d.positions[:, 2], 15)) == {0.125, -0.125}

    def test_partial_cells_keep_only_points_inside(self):
        t = tessellate(UNIT, 0.3, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 0.3, 0.3, Regime("R2", alpha=1.0))
        assert np.all(UNIT.contains(d.positions[:, :2], tol=1e-12))
        # right-edge partial cells keep the minus point (x = 0.975) and drop the plus
        n_full_atoms = 2 * len(t.full_cells)
        assert d.n_charges > n_full_atoms

    def test_enumeration_matches_cell_loop(self):
        """Motif entry major; full cells, then the kept points of partial cells, each by ascending index."""
        mod = Modulation(kind="sinusoid", value=1.3, coef=(2.1, -1.7), phase=0.4)
        motif = Motif(
            points=(MotifPoint(1.0, (0.7, 0.2), 0.3, mod), MotifPoint(-1.0, (0.2, 0.6), -0.4, mod)),
            free_points=(MotifPoint(0.7, (0.45, 0.55), 0.1, mod),),
            free_charge_order=(1, 0),
        )
        l, h = 0.17, 0.05
        choice = UnitCellChoice(f=(0.5, 0.5))
        t = tessellate(UNIT, l, choice)
        d = realize(motif, t, IDENT, l, h, Regime("R1"))
        planar, weights = [], []
        for pt, scale in [(p, 1.0) for p in motif.points] + [(p, l) for p in motif.free_points]:
            for full, cells in ((True, t.full_cells), (False, t.partial_cells)):
                for index in sorted(map(tuple, cells.tolist())):
                    corner = choice.corner(index, l)
                    p = corner + l * (choice.basis @ np.asarray(pt.y))
                    if full or UNIT.contains(p, tol=1e-12):
                        planar.append(p)
                        weights.append(scale * float(pt.weight_at(corner)))
        # the identity map copies the planar positions bitwise
        np.testing.assert_array_equal(d.positions[:, :2], planar)
        expected = Regime("R1").prefactor(l, h) * np.asarray(weights)
        atol = 4 * np.spacing(np.max(np.abs(expected)))
        np.testing.assert_allclose(d.magnitudes, expected, rtol=0.0, atol=atol)

    def test_regime_mismatch_raises(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        with pytest.raises(RegimeMismatch):
            realize(PLANAR_DIPOLE, t, IDENT, 0.25, 0.2, Regime("R2", alpha=1.0))

    def test_thickness_beyond_map_limit(self):
        cyl = ParametricMap.cylinder(UNIT, 2.0)  # h_max = 1
        t = tessellate(UNIT, 0.25, SQUARE)
        with pytest.raises(ValueError):
            realize(PLANAR_DIPOLE, t, cyl, 0.25, 1.5, Regime("R1"))

    def test_curved_positions(self):
        cyl = ParametricMap.cylinder(UNIT, 2.0)
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(PLANAR_DIPOLE, t, cyl, 0.25, 0.25, Regime("R2", alpha=1.0))
        radii = np.linalg.norm(d.positions[:, :2], axis=1)
        np.testing.assert_allclose(radii, 2.0, rtol=1e-12)  # z = 0 atoms sit on the cylinder


class TestTotalCharge:
    def test_neutral_motif(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 0.25, 0.25, Regime("R2", alpha=1.0))
        assert abs(math.fsum(d.magnitudes.tolist())) <= 1e-12

    def test_single_point_motif(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        single = Motif(points=(MotifPoint(1.0, (0.5, 0.5), 0.0),))
        d = realize(single, t, IDENT, 0.25, 1 / 64, Regime("R1"))
        assert math.fsum(d.magnitudes.tolist()) == pytest.approx(4.0, abs=1e-14)

    def test_modulated_neutral_motif(self):
        mod = Modulation(kind="linear", value=1.0, coef=(1.0, 0.0))
        motif = Motif(
            points=(
                MotifPoint(+1.0, (0.75, 0.5), 0.0, modulation=mod),
                MotifPoint(-1.0, (0.25, 0.5), 0.0, modulation=mod),
            )
        )
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(motif, t, IDENT, 0.25, 0.25, Regime("R2", alpha=1.0))
        assert abs(math.fsum(d.magnitudes.tolist())) <= 1e-12

    def test_imbalance_scales_with_order(self):
        imbalanced = Motif(
            points=PLANAR_DIPOLE.points,
            free_points=(MotifPoint(2.0, (0.5, 0.5), 0.0),),
            free_charge_order=(1, 0),
        )
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(imbalanced, t, IDENT, 0.25, 1 / 64, Regime("R1"))
        # 16 cells, each imbalance atom weight l*2, prefactor l
        assert math.fsum(d.magnitudes.tolist()) == pytest.approx(16 * 0.25 * (0.25 * 2.0), abs=1e-14)


class TestMotifValidation:
    def test_strict_interior(self):
        bad = Motif(points=(MotifPoint(1.0, (0.0, 0.5), 0.0),))
        with pytest.raises(ValueError):
            bad.validate_interior()
        PLANAR_DIPOLE.validate_interior()
