import io

import numpy as np
import pytest

from filmhomog import (
    Modulation,
    Motif,
    MotifPoint,
    ParametricMap,
    Rectangle,
    Regime,
    UnitCellChoice,
    cell_free_charge,
    cell_polarization,
    moment_fields,
    moment_table,
    moments_to_csv,
    partial_cell_sigma,
    realize,
    tessellate,
)

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
SQUARE = UnitCellChoice()
HALF_SHIFT = UnitCellChoice(f=(0.5, 0.5))
IDENT = ParametricMap.identity(UNIT)

PLANAR_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.75, 0.5), 0.0), MotifPoint(-1.0, (0.25, 0.5), 0.0)))
VERTICAL_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.5, 0.5), 0.5), MotifPoint(-1.0, (0.5, 0.5), -0.5)))


@pytest.fixture(scope="module")
def tess():
    return tessellate(UNIT, 0.25, SQUARE)


class TestCellFreeCharge:
    def test_neutral(self, tess):
        q = cell_free_charge(tess.full_cells[0], PLANAR_DIPOLE, IDENT, (1, 0), 0.25, 1 / 64)
        assert q == 0.0

    def test_matched_order_cancels_scale(self, tess):
        motif = Motif(
            points=PLANAR_DIPOLE.points,
            free_points=(MotifPoint(3.0, (0.5, 0.5), 0.0),),
            free_charge_order=(1, 0),
        )
        for l in (0.25, 0.125):
            t = tessellate(UNIT, l, SQUARE)
            q = cell_free_charge(t.full_cells[0], motif, IDENT, (1, 0), l, l**2)
            assert q == pytest.approx(3.0, rel=1e-12)

    def test_mismatched_order_diverges(self):
        # imbalance of order (1,0) read with order (0,1) and h = l^2 scales like 1/l
        motif = Motif(
            points=PLANAR_DIPOLE.points,
            free_points=(MotifPoint(1.0, (0.5, 0.5), 0.0),),
            free_charge_order=(1, 0),
        )
        vals = []
        for l in (0.25, 0.125):
            t = tessellate(UNIT, l, SQUARE)
            vals.append(cell_free_charge(t.full_cells[0], motif, IDENT, (0, 1), l, l**2))
        assert vals[0] == pytest.approx(1.0 / 0.25, rel=1e-12)
        assert vals[1] == pytest.approx(2 * vals[0], rel=1e-12)

    def test_requires_full_cell(self):
        t = tessellate(UNIT, 0.3, SQUARE)
        with pytest.raises(ValueError):
            cell_free_charge(t.partial_cells[0], PLANAR_DIPOLE, IDENT, (1, 0), 0.3, 0.3)


class TestCellPolarization:
    def test_planar_dipole(self, tess):
        p_p, p3 = cell_polarization(tess.full_cells[0], PLANAR_DIPOLE, IDENT, SQUARE)
        np.testing.assert_allclose(p_p, [0.5, 0.0], atol=1e-15)
        assert p3 == 0.0

    def test_vertical_dipole(self, tess):
        p_p, p3 = cell_polarization(tess.full_cells[0], VERTICAL_DIPOLE, IDENT, SQUARE)
        np.testing.assert_allclose(p_p, [0.0, 0.0], atol=1e-15)
        assert p3 == pytest.approx(1.0)

    def test_cylinder_isometric(self, tess):
        cyl = ParametricMap.cylinder(UNIT, 2.0)
        p_p, p3 = cell_polarization(tess.full_cells[0], PLANAR_DIPOLE, cyl, SQUARE)
        np.testing.assert_allclose(p_p, [0.5, 0.0], atol=1e-12)
        assert p3 == pytest.approx(0.0, abs=1e-15)

    def test_regime_independence(self, tess):
        """Moments are taken of the reference charge; the regime never enters."""
        cell = tess.full_cells[3]
        base = cell_polarization(cell, PLANAR_DIPOLE, IDENT, SQUARE)
        for regime in (Regime("R1"), Regime("R2", alpha=2.0), Regime("R3")):
            d = realize(PLANAR_DIPOLE, tess, IDENT, 0.25, 0.5 if regime.kind == "R2" else 0.0625, regime)
            again = cell_polarization(cell, PLANAR_DIPOLE, IDENT, SQUARE)
            np.testing.assert_array_equal(base[0], again[0])
            assert base[1] == again[1]

    def test_linearity_in_weights(self, tess):
        rng = np.random.default_rng(2)
        cell = tess.full_cells[0]
        pts = [(rng.uniform(-1, 1), tuple(rng.uniform(0.1, 0.9, 2)), rng.uniform(-0.9, 0.9)) for _ in range(4)]
        m1 = Motif(points=tuple(MotifPoint(w, y, z) for w, y, z in pts))
        m2 = Motif(points=tuple(MotifPoint(2 * w, y, z) for w, y, z in pts))
        p1, p31 = cell_polarization(cell, m1, IDENT, SQUARE)
        p2, p32 = cell_polarization(cell, m2, IDENT, SQUARE)
        np.testing.assert_allclose(2 * p1, p2, atol=1e-14)
        assert 2 * p31 == pytest.approx(p32, abs=1e-14)


class TestPartialCellSigma:
    def test_plus_point_survives(self):
        # half-shifted grid: left-edge clips keep only the plus point at (0.75, 0.5)
        t = tessellate(UNIT, 0.25, HALF_SHIFT)
        cell = t._by_index[(-1, 1)]
        assert partial_cell_sigma(cell, PLANAR_DIPOLE, t, IDENT) == pytest.approx(1.0)

    def test_neutral_clip(self):
        # top-edge clips keep both points
        t = tessellate(UNIT, 0.25, HALF_SHIFT)
        cell = t._by_index[(1, 3)]
        assert partial_cell_sigma(cell, PLANAR_DIPOLE, t, IDENT) == pytest.approx(0.0)

    def test_jacobian_division(self):
        stretched = ParametricMap.scaled(Rectangle((0.0, 0.0), (1.0, 1.0)), (2.0, 1.0, 1.0))
        t = tessellate(UNIT, 0.25, HALF_SHIFT)
        cell = t._by_index[(3, 1)]  # right-edge clip keeps only the minus point
        assert partial_cell_sigma(cell, PLANAR_DIPOLE, t, IDENT) == pytest.approx(-1.0)
        assert partial_cell_sigma(cell, PLANAR_DIPOLE, t, stretched) == pytest.approx(-0.5)

    def test_requires_partial_cell(self, tess):
        with pytest.raises(ValueError):
            partial_cell_sigma(tess.full_cells[0], PLANAR_DIPOLE, tessellate(UNIT, 0.25, SQUARE), IDENT)


class TestMomentFields:
    def test_constant_dipole_fields(self, tess):
        fields = moment_fields(tess, PLANAR_DIPOLE, IDENT)
        pts = np.array([[0.1, 0.2], [0.9, 0.7]])
        np.testing.assert_allclose(fields.p_p(pts), [[0.5, 0.0], [0.5, 0.0]], atol=1e-15)
        np.testing.assert_allclose(fields.q(pts), [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(fields.p3(pts), [0.0, 0.0], atol=1e-15)
        bulk_source = fields.charge_weighted(pts) - fields.div_pol_planar_weighted(pts)
        np.testing.assert_allclose(bulk_source, [0.0, 0.0], atol=1e-15)

    def test_sinusoidal_modulation(self, tess):
        mod = Modulation(kind="sinusoid", value=1.0, coef=(np.pi, 0.0))
        motif = Motif(
            points=(
                MotifPoint(+1.0, (0.75, 0.5), 0.0, modulation=mod),
                MotifPoint(-1.0, (0.25, 0.5), 0.0, modulation=mod),
            )
        )
        fields = moment_fields(tess, motif, IDENT)
        x = np.array([[0.3, 0.5], [0.8, 0.1]])
        np.testing.assert_allclose(fields.p_p(x)[:, 0], 0.5 * np.sin(np.pi * x[:, 0]), atol=1e-14)
        np.testing.assert_allclose(fields.p_p(x)[:, 1], 0.0, atol=1e-14)
        # bound charge: -div(J0 p) consistent with the analytic derivative
        np.testing.assert_allclose(
            fields.div_pol_planar_weighted(x), 0.5 * np.pi * np.cos(np.pi * x[:, 0]), atol=1e-14
        )

    def test_aligned_grid_has_zero_sigma(self, tess):
        fields = moment_fields(tess, PLANAR_DIPOLE, IDENT)
        for name, segs in fields.sigma_segments.items():
            assert all(s.value == 0.0 for s in segs)

    def test_shifted_grid_sigma_pattern(self):
        t = tessellate(UNIT, 0.25, HALF_SHIFT)
        motif_b = Motif(points=(MotifPoint(+1.0, (0.25, 0.0), 0.0), MotifPoint(-1.0, (0.75, 0.0), 0.0)))
        fields = moment_fields(t, motif_b, IDENT)
        # interior values extend over the corner spans: uniform density per edge
        values = {name: {round(s.value, 12) for s in segs} for name, segs in fields.sigma_segments.items()}
        assert values["right"] == {1.0}
        assert values["left"] == {-1.0}
        assert values["top"] == {0.0}
        assert values["bottom"] == {0.0}

    def test_free_charge_field(self, tess):
        motif = Motif(
            points=PLANAR_DIPOLE.points,
            free_points=(MotifPoint(2.0, (0.5, 0.5), 0.0),),
            free_charge_order=(1, 0),
        )
        fields = moment_fields(tess, motif, IDENT)
        np.testing.assert_allclose(fields.q(np.array([[0.5, 0.5]])), [2.0])


class TestMomentTable:
    def test_table_and_csv(self, tess):
        rows = moment_table(tess, PLANAR_DIPOLE, IDENT, l=0.25, h=0.25)
        assert len(rows) == 16
        assert all(r.sigma is None for r in rows)
        buf = io.StringIO()
        moments_to_csv(rows, buf, comment="scenario=test")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# scenario=test"
        assert lines[1].startswith("index1,index2,corner_x1")
        assert len(lines) == 2 + 16

    def test_partial_rows(self):
        t = tessellate(UNIT, 0.25, HALF_SHIFT)
        rows = moment_table(t, PLANAR_DIPOLE, IDENT)
        partial = [r for r in rows if not r.is_full]
        assert len(partial) == 16
        assert all(r.q is None and r.p_p is None for r in partial)
        assert all(r.sigma is not None for r in partial)
