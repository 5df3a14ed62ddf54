import json
import math

import numpy as np
import pytest

from filmhomog import (
    Modulation,
    Motif,
    MotifPoint,
    ParametricMap,
    Rectangle,
    UnitCellChoice,
    moment_fields,
    moment_table,
    tessellate,
)
from filmhomog import moments
from filmhomog.cli import main
from filmhomog.config import parse_config
from reference import edge_line_charge, loop_fields

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
SQUARE = UnitCellChoice()
HALF_SHIFT = UnitCellChoice(f=(0.5, 0.5))
IDENT = ParametricMap.identity(UNIT)

PLANAR_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.75, 0.5), 0.0), MotifPoint(-1.0, (0.25, 0.5), 0.0)))
VERTICAL_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.5, 0.5), 0.5), MotifPoint(-1.0, (0.5, 0.5), -0.5)))
SHEARED = UnitCellChoice(e2=(0.5, 1.0))
WIDE = UnitCellChoice(e1=(2.0, 0.0), f=(0.5, 0.5))  # 2x1 cells, half shifted
X2_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.5, 0.75), 0.0), MotifPoint(-1.0, (0.5, 0.25), 0.0)))


@pytest.fixture(scope="module")
def tess():
    return tessellate(UNIT, 0.25, SQUARE)


def row_of(table, index):
    """Row of a moment table holding the cell with this lattice index."""
    (row,) = np.flatnonzero(np.all(table.indices == index, axis=1))
    return row


class TestCellFreeCharge:
    def test_neutral(self, tess):
        q = moment_table(tess, PLANAR_DIPOLE, IDENT, h=1 / 64).q[0]
        assert q == 0.0

    def test_matched_order_cancels_scale(self, tess):
        motif = Motif(
            points=PLANAR_DIPOLE.points,
            free_points=(MotifPoint(3.0, (0.5, 0.5), 0.0),),
            free_charge_order=(1, 0),
        )
        for l in (0.25, 0.125):
            t = tessellate(UNIT, l, SQUARE)
            q = moment_table(t, motif, IDENT, h=l**2).q[0]
            assert q == pytest.approx(3.0, rel=1e-12)


class TestCellPolarization:
    def test_planar_dipole(self, tess):
        table = moment_table(tess, PLANAR_DIPOLE, IDENT, h=0.25)
        np.testing.assert_allclose(table.p_p[0], [0.5, 0.0], atol=1e-15)
        assert table.p3[0] == 0.0

    def test_vertical_dipole(self, tess):
        table = moment_table(tess, VERTICAL_DIPOLE, IDENT, h=0.25)
        np.testing.assert_allclose(table.p_p[0], [0.0, 0.0], atol=1e-15)
        assert table.p3[0] == pytest.approx(1.0)

    def test_cylinder_isometric(self, tess):
        cyl = ParametricMap.cylinder(UNIT, 2.0)
        table = moment_table(tess, PLANAR_DIPOLE, cyl, h=0.25)
        np.testing.assert_allclose(table.p_p[0], [0.5, 0.0], atol=1e-12)
        assert table.p3[0] == pytest.approx(0.0, abs=1e-15)

    def test_regime_independence(self, tess):
        """Moments are taken of the reference charge: without free points h never
        enters, so the table is bitwise the same at each regime's h for l = 1/4."""
        # h of the l = 1/4 step in R1 (h = l^2), R2 with alpha = 2 and R3 (both h = l^(1/2))
        base, *others = (moment_table(tess, PLANAR_DIPOLE, IDENT, h) for h in (1 / 16, 1 / 2, 1 / 2))
        for table in others:
            for name in ("q", "p_p", "p3", "sigma"):
                np.testing.assert_array_equal(getattr(table, name), getattr(base, name))

    def test_linearity_in_weights(self, tess):
        rng = np.random.default_rng(2)
        pts = [(rng.uniform(-1, 1), tuple(rng.uniform(0.1, 0.9, 2)), rng.uniform(-0.9, 0.9)) for _ in range(4)]
        m1 = Motif(points=tuple(MotifPoint(w, y, z) for w, y, z in pts))
        m2 = Motif(points=tuple(MotifPoint(2 * w, y, z) for w, y, z in pts))
        t1 = moment_table(tess, m1, IDENT, h=0.25)
        t2 = moment_table(tess, m2, IDENT, h=0.25)
        np.testing.assert_allclose(2 * t1.p_p[0], t2.p_p[0], atol=1e-14)
        assert 2 * t1.p3[0] == pytest.approx(t2.p3[0], abs=1e-14)


class TestPartialCellSigma:
    def test_plus_point_survives(self):
        # half-shifted grid: left-edge clips keep only the plus point at (0.75, 0.5)
        table = moment_table(tessellate(UNIT, 0.25, HALF_SHIFT), PLANAR_DIPOLE, IDENT, h=0.25)
        assert table.sigma[row_of(table, (-1, 1))] == pytest.approx(1.0)

    def test_neutral_clip(self):
        # top-edge clips keep both points
        table = moment_table(tessellate(UNIT, 0.25, HALF_SHIFT), PLANAR_DIPOLE, IDENT, h=0.25)
        assert table.sigma[row_of(table, (1, 3))] == pytest.approx(0.0)

    def test_jacobian_division(self):
        stretched = ParametricMap.scaled(Rectangle((0.0, 0.0), (1.0, 1.0)), (2.0, 1.0, 1.0))
        t = tessellate(UNIT, 0.25, HALF_SHIFT)
        flat = moment_table(t, PLANAR_DIPOLE, IDENT, h=0.25)
        row = row_of(flat, (3, 1))  # right-edge clip keeps only the minus point
        assert flat.sigma[row] == pytest.approx(-1.0)
        assert moment_table(t, PLANAR_DIPOLE, stretched, h=0.25).sigma[row] == pytest.approx(-0.5)

    def test_polar_disk_partial_rows_are_normalized_inside_the_domain(self):
        """Half-shifted cells on the polar disk (J0 = x1) have corners at x1 = -l/2, outside T:
        sigma divides by J0 at the centre of the cell's bounding box clipped to T, never at the
        corner (where it read -1/|x1|)."""
        disk = ParametricMap.polar_disk(1.0)
        l = 0.25
        t = tessellate(disk.domain, l, HALF_SHIFT)
        table = moment_table(t, PLANAR_DIPOLE, disk, h=0.25)
        kept = moment_table(t, PLANAR_DIPOLE, ParametricMap.identity(disk.domain), h=0.25).sigma  # J0 = 1: the kept charge
        partial = ~table.is_full
        behind = partial & (table.corners[:, 0] < 0.0)
        assert behind.any()
        assert np.all(np.isfinite(table.sigma[partial]))
        assert not np.any(table.sigma[behind] == kept[behind] / np.abs(table.corners[behind, 0]))
        charged = partial & (kept != 0.0)
        x1 = kept[charged] / table.sigma[charged]  # J0 = x1 at each row's normalization point
        assert np.all((x1 > 0.0) & (x1 <= 1.0))
        c1 = table.corners[charged, 0]
        centre = 0.5 * (np.maximum(c1, 0.0) + np.minimum(c1 + l, 1.0))
        np.testing.assert_allclose(x1, centre, rtol=1e-15, atol=0.0)



def density(fields, name, s=(0.1, 0.5, 0.9)):
    """An edge's boundary line density at arc coordinates ``s``."""
    edge = {e.name: e for e in UNIT.edges()}[name]
    return fields.boundary_charge[name](edge.points(np.asarray(s, float)))


class TestMomentFields:
    def test_constant_dipole_fields(self):
        fields = moment_fields(PLANAR_DIPOLE, SQUARE, IDENT, 0.25)
        pts = np.array([[0.1, 0.2], [0.9, 0.7]])
        # identity map, J0 = 1: the weighted fields are p_p, q and p3
        np.testing.assert_allclose(fields.pol_planar_weighted(pts), [[0.5, 0.0], [0.5, 0.0]], atol=1e-15)
        np.testing.assert_allclose(fields.charge_weighted(pts), [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(fields.pol_normal_weighted(pts), [0.0, 0.0], atol=1e-15)
        bulk_source = fields.charge_weighted(pts) - fields.div_pol_planar_weighted(pts)
        np.testing.assert_allclose(bulk_source, [0.0, 0.0], atol=1e-15)

    def test_sinusoidal_modulation(self):
        mod = Modulation(kind="sinusoid", value=1.0, coef=(np.pi, 0.0))
        motif = Motif(
            points=(
                MotifPoint(+1.0, (0.75, 0.5), 0.0, modulation=mod),
                MotifPoint(-1.0, (0.25, 0.5), 0.0, modulation=mod),
            )
        )
        fields = moment_fields(motif, SQUARE, IDENT, 0.25)
        x = np.array([[0.3, 0.5], [0.8, 0.1]])
        np.testing.assert_allclose(fields.pol_planar_weighted(x)[:, 0], 0.5 * np.sin(np.pi * x[:, 0]), atol=1e-14)
        np.testing.assert_allclose(fields.pol_planar_weighted(x)[:, 1], 0.0, atol=1e-14)
        # bound charge: -div(J0 p) consistent with the analytic derivative
        np.testing.assert_allclose(
            fields.div_pol_planar_weighted(x), 0.5 * np.pi * np.cos(np.pi * x[:, 0]), atol=1e-14
        )

    def test_aligned_grid_has_zero_sigma(self):
        # no cell straddles an edge on a lattice line
        fields = moment_fields(PLANAR_DIPOLE, SQUARE, IDENT, 0.25)
        for edge in UNIT.edges():
            assert density(fields, edge.name).tolist() == [0.0, 0.0, 0.0]

    def test_shifted_grid_sigma_pattern(self):
        # half-shift: right +1, left -1, top and bottom 0, over the whole edge
        motif_b = Motif(points=(MotifPoint(+1.0, (0.25, 0.0), 0.0), MotifPoint(-1.0, (0.75, 0.0), 0.0)))
        fields = moment_fields(motif_b, HALF_SHIFT, IDENT, 0.25)
        for name, value in [("right", 1.0), ("left", -1.0), ("top", 0.0), ("bottom", 0.0)]:
            assert density(fields, name, (0.0, 0.05, 0.5, 1.0)).tolist() == [value] * 4

    def test_free_charge_field(self):
        motif = Motif(
            points=PLANAR_DIPOLE.points,
            free_points=(MotifPoint(2.0, (0.5, 0.5), 0.0),),
            free_charge_order=(1, 0),
        )
        fields = moment_fields(motif, SQUARE, IDENT, 0.25)
        np.testing.assert_allclose(fields.charge_weighted(np.array([[0.5, 0.5]])), [2.0])  # J0 = 1

    def test_bulk_fields_per_unit_area(self):
        """A 2x1 cell holds the unit cell's charge on twice the area: every bulk field halves."""
        mod = Modulation(kind="linear", value=1.0, coef=(0.3, -0.2))
        motif = Motif(
            points=(MotifPoint(1.0, (0.7, 0.2), 0.3, mod), MotifPoint(-1.0, (0.2, 0.6), -0.4, mod)),
            free_points=(MotifPoint(0.7, (0.45, 0.55), 0.1, mod),),
        )
        unit = moment_fields(motif, SQUARE, IDENT, 0.25)
        wide = moment_fields(motif, UnitCellChoice(e1=(2.0, 0.0)), IDENT, 0.25)
        x = np.array([[0.3, 0.5], [0.8, 0.1]])
        for name in ("charge_weighted", "pol_normal_weighted"):
            np.testing.assert_array_equal(getattr(wide, name)(x), 0.5 * getattr(unit, name)(x))
        # the x1 lever arm doubles too, so the x1 component of p_p and its divergence stay
        p_wide, p_unit = wide.pol_planar_weighted(x), unit.pol_planar_weighted(x)
        np.testing.assert_array_equal(p_wide[:, 1], 0.5 * p_unit[:, 1])
        np.testing.assert_array_equal(p_wide[:, 0], p_unit[:, 0])

    def test_moment_table_per_unit_area(self):
        l, h = 0.25, 0.0625
        motif = Motif(points=X2_DIPOLE.points, free_points=(MotifPoint(3.0, (0.5, 0.5), 0.0),))
        unit = moment_table(tessellate(UNIT, l, SQUARE), motif, IDENT, h=h)
        wide = moment_table(tessellate(UNIT, l, UnitCellChoice(e1=(2.0, 0.0))), motif, IDENT, h=h)
        assert wide.q[0] == 0.5 * unit.q[0] == 1.5
        # the free point's x1 lever arm doubles with the cell, its x2 arm does not
        assert wide.p_p[0, 1] == 0.5 * unit.p_p[0, 1] == 0.4375


_CONST = Modulation()
_LINEAR = Modulation(kind="linear", value=0.8, coef=(0.3, -0.7))
_WAVE = Modulation(kind="sinusoid", value=1.3, coef=(2.0 * np.pi, np.pi), phase=0.3)
_WAVE_B = Modulation(kind="sinusoid", value=-0.6, coef=(-1.1, 3.2), phase=-1.2)
CATALOG_MOTIFS = {
    "constant": (
        Motif(
            points=(MotifPoint(1.0, (0.7, 0.3), 0.2), MotifPoint(-1.0, (0.2, 0.6), -0.4)),
            free_points=(MotifPoint(0.5, (0.4, 0.4), 0.0),),
        ),
        HALF_SHIFT,
    ),
    "linear": (
        Motif(
            points=(MotifPoint(1.0, (0.7, 0.3), 0.2, _LINEAR), MotifPoint(-1.0, (0.2, 0.6), -0.4, _LINEAR)),
            free_points=(MotifPoint(0.5, (0.4, 0.4), 0.0, _LINEAR),),
        ),
        SHEARED,
    ),
    "sinusoid": (
        Motif(
            points=(MotifPoint(1.0, (0.7, 0.3), 0.2, _WAVE), MotifPoint(-1.0, (0.2, 0.6), -0.4, _WAVE_B)),
            free_points=(MotifPoint(0.5, (0.4, 0.4), 0.0, _WAVE),),
        ),
        HALF_SHIFT,
    ),
    "mixed": (
        Motif(
            points=(
                MotifPoint(1.5, (0.1, 0.9), 0.5, _CONST),
                MotifPoint(-0.5, (0.6, 0.2), -0.1, _LINEAR),
                MotifPoint(-1.0, (0.3, 0.7), 0.3, _WAVE),
                MotifPoint(0.25, (0.8, 0.5), -0.6, _WAVE_B),
            ),
            free_points=(MotifPoint(0.5, (0.4, 0.4), 0.0, _LINEAR), MotifPoint(-0.2, (0.6, 0.6), 0.0, _WAVE_B)),
        ),
        WIDE,
    ),
}
CATALOG_MAPS = {
    "identity": IDENT,
    "cylinder": ParametricMap.cylinder(UNIT, 1.0),
    "polar_disk": ParametricMap.polar_disk(1.0),
}


class TestCatalogFields:
    """Each field, a weight vector against [1, x, sin Theta, cos Theta], equals the
    per-motif-point loop of reference.loop_fields to 1e-14 of the field's size."""

    @staticmethod
    def assert_close(value, ref):
        assert value.shape == ref.shape
        assert np.max(np.abs(value - ref)) <= 1e-14 * max(1.0, float(np.max(np.abs(ref))))

    @pytest.mark.parametrize("map_name", sorted(CATALOG_MAPS))
    @pytest.mark.parametrize("motif_name", sorted(CATALOG_MOTIFS))
    def test_fields_match_the_point_loop(self, motif_name, map_name):
        motif, choice = CATALOG_MOTIFS[motif_name]
        pmap = CATALOG_MAPS[map_name]
        fields = moment_fields(motif, choice, pmap, 1 / 16)
        ref = loop_fields(motif, choice, pmap, 1 / 16)
        dom = pmap.domain
        x = np.random.default_rng(5).uniform(dom.lo, dom.hi, (4, 6, 2))  # any leading shape
        for name in ("charge_weighted", "pol_planar_weighted", "pol_normal_weighted", "div_pol_planar_weighted"):
            self.assert_close(getattr(fields, name)(x), ref[name](x))
        assert sorted(fields.boundary_charge) == sorted(ref["boundary_charge"])
        for edge in dom.edges():
            on_edge = edge.points(np.linspace(*edge.s_range, 9))
            self.assert_close(fields.boundary_charge[edge.name](on_edge), ref["boundary_charge"][edge.name](on_edge))

    @pytest.mark.parametrize("weights", [np.array([0.5, -2.0, 1.5]), np.array([[0.5, 1.0], [-2.0, 0.25], [1.5, -1.0]])])
    def test_linear_and_constant_parts_are_added(self, weights):
        points = [
            MotifPoint(1.0, (0.5, 0.5), 0.0, Modulation("linear", 0.25, (3.0, -1.5))),
            MotifPoint(1.0, (0.5, 0.5), 0.0, Modulation("constant", 2.0)),
            MotifPoint(1.0, (0.5, 0.5), 0.0, Modulation("sinusoid", 0.5, (1.0, 2.0), 0.3)),
        ]
        x = np.random.default_rng(6).uniform(-1.0, 2.0, (9, 2))
        terms = np.stack([pt.modulation(x) for pt in points], axis=-1)  # (9, 3)
        value = moments.Catalog(moments._catalog(points), weights)(x)
        self.assert_close(value, terms @ weights)
        sinusoid = moments.Catalog(moments._catalog(points[2:]), weights[2:])(x)  # no linear or constant part
        self.assert_close(sinusoid, terms[:, 2:] @ weights[2:])
        assert np.max(np.abs(value - sinusoid)) > 1.0


class TestBoundaryCharge:
    """Each edge's limit line density in closed form: sum_k n_k w_k m_k(x) / P."""

    def test_sheared_vertical_edges_carry_the_mean_of_two_rows(self):
        # rows alternate: at the right edge even rows keep both points (0) and odd rows only
        # the minus point (-1); at the left edge even rows keep the plus point (+1), odd rows both
        fields = moment_fields(PLANAR_DIPOLE, SHEARED, IDENT, 1 / 16)
        assert density(fields, "right").tolist() == [-0.5] * 3
        assert density(fields, "left").tolist() == [0.5] * 3
        assert density(fields, "top").tolist() == density(fields, "bottom").tolist() == [0.0] * 3

    def test_wide_cell_halves_the_horizontal_density(self):
        fields = moment_fields(X2_DIPOLE, WIDE, IDENT, 1 / 16)
        assert density(fields, "top").tolist() == [-0.5] * 3
        assert density(fields, "bottom").tolist() == [0.5] * 3
        assert density(fields, "left").tolist() == density(fields, "right").tolist() == [0.0] * 3

    def test_modulation_is_taken_on_the_edge(self):
        mod = Modulation(kind="linear", value=1.0, coef=(0.0, 0.5))
        motif_b = Motif(
            points=(
                MotifPoint(+1.0, (0.25, 0.0), 0.0, modulation=mod),
                MotifPoint(-1.0, (0.75, 0.0), 0.0, modulation=mod),
            )
        )
        fields = moment_fields(motif_b, HALF_SHIFT, IDENT, 0.25)
        s = np.array([0.0, 0.3, 1.0])
        assert density(fields, "right", s).tolist() == (1.0 + 0.5 * s).tolist()

    def test_same_density_at_every_dyadic_l(self):
        mod = Modulation(kind="sinusoid", value=1.0, coef=(2.0, 0.5), phase=0.1)
        motif = Motif(points=tuple(MotifPoint(p.w, p.y, p.z, mod) for p in PLANAR_DIPOLE.points))
        s = np.linspace(0.0, 1.0, 7)
        for choice in (HALF_SHIFT, SHEARED, WIDE):
            ref = moment_fields(motif, choice, IDENT, 1 / 8)
            for l in (1 / 32, 1 / 64):
                fields = moment_fields(motif, choice, IDENT, l)
                for edge in UNIT.edges():
                    np.testing.assert_array_equal(density(fields, edge.name, s), density(ref, edge.name, s))

    @pytest.mark.parametrize("l", [1 / 16, 0.1])
    @pytest.mark.parametrize(
        "choice",
        [
            HALF_SHIFT,
            SHEARED,
            UnitCellChoice(e2=(0.5, 1.0), f=(0.3, 0.6)),
            WIDE,
            UnitCellChoice(e1=(0.5, 0.0), f=(0.2, 0.7)),
            UnitCellChoice(e1=(1.0, 0.25), f=(0.4, 0.1), origin=(0.013, -0.02)),
        ],
        ids=["half-shift", "sheared", "sheared-offset", "wide", "narrow", "oblique"],
    )
    def test_matches_partial_cells_of_a_tessellation(self, choice, l):
        """Kept charge per unit length of the straddling partial cells over four cells'
        length (a whole number of periods, P = 1, 2 or 4), away from the corners."""
        rng = np.random.default_rng(5)
        motif = Motif(
            points=tuple(
                MotifPoint(float(rng.uniform(-1, 1)), tuple(rng.uniform(0.05, 0.95, 2)), 0.0) for _ in range(5)
            )
        )
        t = tessellate(UNIT, l, choice)
        fields = moment_fields(motif, choice, IDENT, l)
        lo = 0.5 - 2 * l + 0.1234 * l
        for edge in UNIT.edges():
            cells = edge_line_charge(t, motif, edge, lo, lo + 4 * l)
            assert density(fields, edge.name)[1] == pytest.approx(cells, abs=1e-12)

    def test_edge_without_a_period_is_rejected(self):
        irrational = UnitCellChoice(e2=(math.sqrt(2.0) - 1.0, 1.0))
        with pytest.raises(ValueError, match="'left'"):
            moment_fields(PLANAR_DIPOLE, irrational, IDENT, 0.25)


class TestMomentTable:
    def test_table_and_csv(self, tess, tmp_path):
        """The table, and the CLI's moments.csv of the same scenario: scenario
        line, header, one row per cell with the table's values, and empty
        fields exactly where a moment is undefined."""
        rows = moment_table(tess, PLANAR_DIPOLE, IDENT, h=0.25)
        assert len(rows) == 16
        assert np.all(np.isnan(rows.sigma))
        config = tmp_path / "scenario.json"
        config.write_text(
            json.dumps(
                {
                    "motif": {"points": [{"w": p.w, "y": list(p.y), "z": p.z} for p in PLANAR_DIPOLE.points]},
                    "cell_b": {"f": [0.5, 0.5]},
                    "regime": {"kind": "R2", "alpha": 1.0},
                    "schedule": {"l": [0.25]},
                    "output": {"dir": str(tmp_path / "out")},
                }
            )
        )
        assert main(["moments", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "moments.csv").read_text().splitlines()
        assert lines[0] == f"# scenario={parse_config(config).scenario_hash} green=1/r"
        assert lines[1] == "index1,index2,corner_x1,corner_x2,kind,q,p_p1,p_p2,p3,sigma"
        assert len(lines) == 2 + 16
        columns = np.column_stack([rows.indices, rows.corners, rows.q, rows.p_p, rows.p3])
        for line, expected in zip(lines[2:], columns):
            fields = line.split(",")
            assert fields[4] == "full" and fields[9] == ""
            assert [float(f) for f in fields[:4] + fields[5:9]] == expected.tolist()
        shifted = [line.split(",") for line in (tmp_path / "out" / "moments_b.csv").read_text().splitlines()[2:]]
        for fields in shifted:
            defined = [f != "" for f in fields[5:]]
            assert defined == ([True] * 4 + [False] if fields[4] == "full" else [False] * 4 + [True])
        assert {f[4] for f in shifted} == {"full", "partial"}

    def test_matches_per_cell_loop(self):
        """Columns equal a scalar loop over cells to 4 ulp of each column's largest value."""
        mod = Modulation(kind="sinusoid", value=1.3, coef=(2.1, -1.7), phase=0.4)
        motif = Motif(
            points=(MotifPoint(1.0, (0.7, 0.2), 0.3, mod), MotifPoint(-1.0, (0.2, 0.6), -0.4, mod)),
            free_points=(MotifPoint(0.7, (0.45, 0.55), 0.1, mod),),
            free_charge_order=(1, 1),
        )
        cyl = ParametricMap.cylinder(UNIT, 2.0)
        l, h = 0.17, 0.05
        t = tessellate(UNIT, l, HALF_SHIFT)
        table = moment_table(t, motif, cyl, h=h)
        entries = [(p, 1.0) for p in motif.points] + [(p, l * h) for p in motif.free_points]
        expected = {name: np.full(len(t.corners), np.nan) for name in ("q", "p1", "p2", "p3", "sigma")}
        cell = l * (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) @ HALF_SHIFT.basis.T)
        lo, hi = np.asarray(UNIT.lo), np.asarray(UNIT.hi)
        for k, corner in enumerate(t.corners):
            # partial cells: J0 at the centre of the cell's bounding box clipped to T
            box = corner + cell
            at = corner if k < t.n_full else 0.5 * (np.maximum(box.min(0), lo) + np.minimum(box.max(0), hi))
            j0 = float(moments._j0_at(cyl, at))
            charge, p_p, p3 = 0.0, np.zeros(2), 0.0
            for pt, scale in entries:
                y = HALF_SHIFT.basis @ np.asarray(pt.y)
                if k < t.n_full or UNIT.contains(corner + l * y, tol=1e-12):
                    w = scale * float(pt.weight_at(corner))
                    charge, p_p, p3 = charge + w, p_p + w * y, p3 + w * pt.z
            if k < t.n_full:
                expected["q"][k] = charge / (l * h * j0)
                expected["p1"][k], expected["p2"][k] = p_p / j0
                expected["p3"][k] = p3 / j0
            else:
                expected["sigma"][k] = charge / j0
        got = {"q": table.q, "p1": table.p_p[:, 0], "p2": table.p_p[:, 1], "p3": table.p3, "sigma": table.sigma}
        for name, col in expected.items():
            atol = 4 * np.spacing(np.nanmax(np.abs(col)))
            np.testing.assert_allclose(got[name], col, rtol=0.0, atol=atol, err_msg=name)

    def test_partial_rows(self):
        t = tessellate(UNIT, 0.25, HALF_SHIFT)
        rows = moment_table(t, PLANAR_DIPOLE, IDENT, h=0.25)
        partial = ~rows.is_full
        assert np.count_nonzero(partial) == 16
        assert np.all(np.isnan(rows.q[partial])) and np.all(np.isnan(rows.p_p[partial]))
        assert not np.any(np.isnan(rows.sigma[partial]))
