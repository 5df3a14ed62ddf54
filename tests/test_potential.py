"""Kernel, direct-sum and homogenized-potential checks against independent oracles.

Oracles here are deliberately primitive re-implementations: a Python double
loop for the Green's sum, a dense fixed-order tensor Gauss rule for the area
integrals, and the pre-integration-by-parts (kernel-gradient) form for the
flat-film formulas.
"""

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
    ScaledChargeDistribution,
    SingularEvaluation,
    StandoffViolation,
    UnitCellChoice,
    direct_potential,
    homogenized_potential,
    moment_fields,
    realize,
    tessellate,
)
from filmhomog import potential
from filmhomog.geometry import surface_frame
from filmhomog.potential import _BLOCK_VALUES, _kernel_parts, _row_sums, green_sums
from reference import finite_t_double_layer, fsum_potential, prescribed_fields

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
SQUARE = UnitCellChoice()
IDENT = ParametricMap.identity(UNIT)
PLANAR_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.75, 0.5), 0.0), MotifPoint(-1.0, (0.25, 0.5), 0.0)))


def gauss_nodes(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def charges(positions, magnitudes):
    """Distribution of the given point charges, built without a motif."""
    positions = np.asarray(positions, float).reshape(-1, 3)
    magnitudes = np.asarray(magnitudes, float)
    return ScaledChargeDistribution(
        pmap=IDENT,
        l=1.0,
        h=1.0,
        regime=Regime("R1"),
        positions=positions,
        magnitudes=magnitudes,
    )


class TestDirectPotential:
    def test_single_charge(self):
        t = tessellate(UNIT, 1.0, SQUARE)
        single = Motif(points=(MotifPoint(1.0, (0.5, 0.5), 0.0),))
        # one cell, one atom of magnitude l = 1 at (0.5, 0.5, 0)
        d = realize(single, t, IDENT, 1.0, 0.05, Regime("R1"))
        assert d.n_charges == 1
        grid = ObservationGrid.from_points([d.positions[0] + [0.0, 0.0, 2.0]], IDENT)
        sample = direct_potential(d, grid, standoff_factor=0.0)
        assert sample.values[0] == pytest.approx(1.0 / 2.0, rel=1e-14)

    def test_mirror_pair_cancels(self):
        grid = ObservationGrid.from_points([[0.5, 0.5, 10.0]], IDENT)
        t = tessellate(UNIT, 1.0, SQUARE)
        mirror = Motif(points=(MotifPoint(+1.0, (0.45, 0.5), 0.0), MotifPoint(-1.0, (0.55, 0.5), 0.0)))
        d = realize(mirror, t, IDENT, 1.0, 0.05, Regime("R1"))
        sample = direct_potential(d, grid)
        assert abs(sample.values[0]) <= 1e-15

    def test_against_naive_double_loop(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 0.25, 1 / 64, Regime("R1"))
        grid = ObservationGrid.from_points([[0.5, 0.5, 1.0], [1.3, -0.2, 0.7]], IDENT)
        sample = direct_potential(d, grid, standoff_factor=0.0)
        for k, p in enumerate(grid.points):
            acc = 0.0
            for q, pos in zip(d.magnitudes, d.positions):
                acc += q / math.dist(p, pos)
            assert sample.values[k] == pytest.approx(acc, abs=1e-12)

    def test_standoff_guard(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 0.25, 0.25, Regime("R2", alpha=1.0))
        grid = ObservationGrid.from_points([[0.5, 0.5, 1.0]], IDENT)
        with pytest.raises(StandoffViolation):
            direct_potential(d, grid)  # default factor 10: needs standoff >= 2.5
        direct_potential(d, grid, standoff_factor=0.0)

    def test_grid_on_film_rejected(self):
        with pytest.raises(StandoffViolation):
            ObservationGrid.from_points([[0.5, 0.5, 0.0]], IDENT)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_nan_point_rejected(self, bad):
        points = [[0.5, 0.5, 1.0], [0.25, 0.5, 2.0]]
        points[bad][0] = math.nan
        with pytest.raises(StandoffViolation, match="standoff nan"):
            ObservationGrid.from_points(points, IDENT)

    def test_charge_on_observation_point_is_singular(self):
        t = tessellate(UNIT, 1.0, SQUARE)
        lifted = Motif(points=(MotifPoint(1.0, (0.5, 0.5), 0.5),))
        d = realize(lifted, t, IDENT, 1.0, 1.0, Regime("R1"))  # one charge at (0.5, 0.5, 0.5)
        grid = ObservationGrid.from_points([[0.2, 0.2, 1.0], d.positions[0]], IDENT)
        with pytest.raises(SingularEvaluation):
            direct_potential(d, grid, standoff_factor=0.0)

    def test_empty_distribution_is_zero(self):
        grid = ObservationGrid.from_points([[0.5, 0.5, 1.0], [0.1, 0.9, 2.0]], IDENT)
        empty = charges(np.empty((0, 3)), [])
        values = direct_potential(empty, grid, standoff_factor=0.0).values
        assert values.tolist() == [0.0, 0.0] == fsum_potential(empty, grid)

    def test_signed_cancellation_is_exactly_zero(self):
        """Each charge has an opposite twin at its position; left-to-right summation leaves a residue."""
        grid = ObservationGrid.from_points([[0.0, 0.0, 1.0]], IDENT)
        rng = np.random.default_rng(5)
        q = rng.uniform(0.1, 10.0, 50) * 2.0 ** rng.integers(-40, 40, 50)
        ring = np.column_stack([np.cos(np.arange(50)), np.sin(np.arange(50)), np.full(50, 3.0)])
        dist = charges(np.vstack([ring, ring]), np.concatenate([q, -q]))
        values = direct_potential(dist, grid, standoff_factor=0.0).values
        assert values.tolist() == [0.0] == fsum_potential(dist, grid)
        terms = dist.magnitudes / np.linalg.norm(dist.positions - grid.points[0], axis=-1)
        assert sum(terms.tolist()) != 0.0

    def test_magnitudes_spanning_two_to_the_300(self):
        grid = ObservationGrid.from_points([[0.5, 0.5, 1.0], [2.0, -1.0, 0.5]], IDENT)
        q = [2.0**300, 1.0, -(2.0**300), 2.0**-300, 3.0, -(2.0**-299)]
        pos = [[0.1 * k, 0.2, 2.0 + 0.1 * k] for k in (0, 1, 0, 3, 4, 5)]  # the 2^300 pair coincides
        dist = charges(pos, q)
        values = direct_potential(dist, grid, standoff_factor=0.0).values
        np.testing.assert_array_equal(values, fsum_potential(dist, grid))
        for v, p in zip(values, grid.points):  # the charge 1.0 survives the 2^300 pair
            assert v == pytest.approx(1.0 / math.dist(p, pos[1]) + 3.0 / math.dist(p, pos[4]), rel=1e-15)

    def test_superposition(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        grid = ObservationGrid.from_points([[0.2, 0.4, 1.5], [1.0, 1.0, 2.0]], IDENT)
        m_plus = Motif(points=(MotifPoint(+1.0, (0.75, 0.5), 0.0),))
        m_minus = Motif(points=(MotifPoint(-1.0, (0.25, 0.5), 0.0),))
        r2 = Regime("R2", alpha=1.0)
        v_sum = (
            direct_potential(realize(m_plus, t, IDENT, 0.25, 0.25, r2), grid, standoff_factor=0.0).values
            + direct_potential(realize(m_minus, t, IDENT, 0.25, 0.25, r2), grid, standoff_factor=0.0).values
        )
        v_both = direct_potential(realize(PLANAR_DIPOLE, t, IDENT, 0.25, 0.25, r2), grid, standoff_factor=0.0).values
        np.testing.assert_allclose(v_both, v_sum, rtol=1e-12)

    def test_blocks_with_ragged_tail_match_per_point_fsum(self):
        t = tessellate(UNIT, 1 / 50, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 1 / 50, 1 / 50, Regime("R2", alpha=1.0))
        rows = _BLOCK_VALUES // d.n_charges
        xy = np.stack(np.meshgrid(np.linspace(-0.5, 1.5, 10), np.linspace(-0.5, 1.5, 7)), axis=-1).reshape(-1, 2)
        pts = np.column_stack([xy, 0.3 + 0.01 * np.arange(len(xy))])
        grid = ObservationGrid.from_points(pts, IDENT)
        assert rows > 1 and grid.n_points > 2 * rows and grid.n_points % rows != 0
        values = direct_potential(d, grid, standoff_factor=0.0).values
        np.testing.assert_array_equal(values, fsum_potential(d, grid))

    def test_charge_on_point_of_second_block_is_singular(self):
        rng = np.random.default_rng(3)
        n = _BLOCK_VALUES // 3 + 1  # two points per block
        dist = charges(rng.uniform(1.0, 2.0, (n, 3)), rng.uniform(-1.0, 1.0, n))
        points = np.vstack([[[0.5, 0.5, 3.0], [0.0, 1.0, 4.0], [1.0, 0.0, 5.0]], dist.positions[7]])
        assert _BLOCK_VALUES // n == 2
        assert np.all(np.isfinite(green_sums(dist, points[:2])))
        x, y, z = dist.positions[7].tolist()
        with pytest.raises(SingularEvaluation) as err:
            green_sums(dist, points)
        assert str(err.value).startswith(f"observation point 3 at ({x!r}, {y!r}, {z!r}) lies 0.000e+00 ")
        assert str(err.value).endswith(f"below the singular threshold {potential._SINGULAR_DIST:g}")

    def test_nan_point_does_not_hide_a_coinciding_one(self):
        dist = charges([[0.5, 0.5, 0.0], [0.2, 0.2, 0.0]], [1.0, -1.0])
        with pytest.raises(SingularEvaluation, match=r"^observation point 1 at \(0\.5, 0\.5, 0\.0\)"):
            green_sums(dist, np.array([[math.nan, 0.0, 1.0], [0.5, 0.5, 0.0]]))

    @pytest.mark.parametrize("block_values", [1, 3, 1 << 10, 1 << 16, 1 << 17])
    def test_block_size_does_not_change_values(self, monkeypatch, block_values):
        t = tessellate(UNIT, 1 / 8, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 1 / 8, 1 / 8, Regime("R2", alpha=1.0))
        xy = np.stack(np.meshgrid(np.linspace(-0.3, 1.3, 5), np.linspace(-0.3, 1.3, 4)), axis=-1).reshape(-1, 2)
        grid = ObservationGrid.from_points(np.column_stack([xy, 0.2 + 0.05 * np.arange(len(xy))]), IDENT)
        expected = np.array(fsum_potential(d, grid))
        monkeypatch.setattr(potential, "_BLOCK_VALUES", block_values)
        np.testing.assert_array_equal(green_sums(d, grid.points), expected)

    def test_one_row_per_block_leaves_inputs_unchanged(self):
        l = 1 / 150
        d = realize(PLANAR_DIPOLE, tessellate(UNIT, l, SQUARE), IDENT, l, l, Regime("R2", alpha=1.0))
        assert d.n_charges > _BLOCK_VALUES // 2  # every block is a single row
        grid = ObservationGrid.from_points([[0.5, 0.5, 0.3], [-0.2, 1.1, 0.7], [0.9, 0.1, 0.05]], IDENT)
        before = [a.copy() for a in (d.positions, d.magnitudes, grid.points)]
        values = green_sums(d, grid.points)
        np.testing.assert_array_equal(values, fsum_potential(d, grid))
        for a, b in zip(before, (d.positions, d.magnitudes, grid.points)):
            np.testing.assert_array_equal(a, b)


def _fsum_outcome(row):
    try:
        return math.fsum(row)
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestRowSums:
    """Error-free extraction against one math.fsum per row."""

    @settings(max_examples=60, deadline=None)
    @given(
        j=st.integers(1, 11),
        short=st.sampled_from([3, 2, 1]),  # N = 2^j - 3, 2^j - 2, 2^j - 1: where k steps
        n_rows=st.integers(1, 4),
        span=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
        mirrored=st.floats(0.0, 0.5),
        subnormal=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_fsum(self, j, short, n_rows, span, mirrored, subnormal, seed):
        n = max(1, 2**j - short)
        rng = np.random.default_rng(seed)
        v = np.ldexp(rng.uniform(-1.0, 1.0, (n_rows, n)), rng.integers(min(span), max(span) + 1, (n_rows, n)))
        tiny = rng.random((n_rows, n)) < subnormal
        v[tiny] = np.ldexp(rng.uniform(-1.0, 1.0, tiny.sum()), -1022)
        pairs = int(mirrored * n)
        v[:, n - pairs :] = -v[:, :pairs]  # exact cancellation partners
        v = rng.permuted(v, axis=1)
        expected = [math.fsum(row) for row in v.tolist()]
        assert _row_sums(v.copy()).tolist() == expected

    @pytest.mark.parametrize(
        "row",
        [
            [1.7e308, 1.7e308],
            [1.5e308, 1.5e308, -1.5e308],
            [1.7e308, -1.7e308, 1.0],
            [1.7e308, -1e292, 2.0**-1074],
            [2.0**-1000, -3.0 * 2.0**-1070, 2.0**-1074],
            [1.0, 2.0**-53, 2.0**-1000],  # the remainder 2^-1000 leaves the window late and breaks a tie
            [math.inf, 1.0],
            [math.inf, -math.inf],
            [-0.0, -0.0],
        ],
    )
    def test_out_of_window_rows_match_fsum(self, row):
        live = [0.1 * (j + 1) for j in range(len(row))]  # extracted in the same block
        block = np.array([row, live, row[::-1]])
        expected = _fsum_outcome(row)
        if isinstance(expected, type):
            with pytest.raises(expected):
                _row_sums(block)
        else:
            got = _row_sums(block)
            assert got.tolist() == [expected, math.fsum(live), expected]
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, got[2]) == math.copysign(1.0, expected)


class TestHomogenizedR1:
    def test_mirror_symmetry_zero(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        fields = moment_fields(t, PLANAR_DIPOLE, IDENT)
        grid = ObservationGrid.from_points([[0.5, 0.5, 1.0]], IDENT)
        phi = homogenized_potential(fields, Regime("R1"), IDENT, grid)
        assert abs(phi.values[0]) <= 1e-10

    def test_against_dense_line_quadrature(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        fields = moment_fields(t, PLANAR_DIPOLE, IDENT)
        r = np.array([1.5, 0.5, 0.5])
        grid = ObservationGrid.from_points([r], IDENT)
        phi = homogenized_potential(fields, Regime("R1"), IDENT, grid)
        # constant p => only the two x1-edges contribute, density +/- 0.5
        s, w = gauss_nodes(400, 0.0, 1.0)
        right = sum(wi * 0.5 / math.dist(r, (1.0, si, 0.0)) for si, wi in zip(s, w))
        left = sum(wi * -0.5 / math.dist(r, (0.0, si, 0.0)) for si, wi in zip(s, w))
        assert phi.values[0] == pytest.approx(right + left, abs=1e-8)

    def test_single_layer_unit_square_disk_bounds(self):
        """q = 1 on the unit square vs closed-form disk potentials bracketing it."""
        fields = prescribed_fields(IDENT, q=lambda x: np.ones(np.asarray(x).shape[:-1]))
        grid = ObservationGrid.from_points([[0.5, 0.5, 1.0]], IDENT)
        phi = homogenized_potential(fields, Regime("R1"), IDENT, grid)
        # dense 100x100 tensor-Gauss oracle for the same integral
        s, w = gauss_nodes(100, 0.0, 1.0)
        X, Y = np.meshgrid(s, s, indexing="ij")
        W = np.outer(w, w)
        dist = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2 + 1.0)
        oracle = float(np.sum(W / dist))
        assert phi.values[0] == pytest.approx(oracle, abs=1e-9)
        lo = 2 * math.pi * (math.sqrt(0.5**2 + 1) - 1)       # inscribed disk
        hi = 2 * math.pi * (math.sqrt(0.5 + 1) - 1)           # circumscribed disk
        assert lo < phi.values[0] < hi

    def test_flat_gradient_form_oracle(self):
        """By-parts form agrees with the kernel-gradient form on the flat film."""
        mod_motif = Motif(
            points=(
                MotifPoint(+1.0, (0.75, 0.5), 0.0),
                MotifPoint(-1.0, (0.25, 0.5), 0.0),
            )
        )
        t = tessellate(UNIT, 0.25, SQUARE)
        fields = moment_fields(t, mod_motif, IDENT)
        pts = np.array([[0.3, 0.8, 1.2], [1.4, 0.1, 0.8]])
        grid = ObservationGrid.from_points(pts, IDENT)
        phi = homogenized_potential(fields, Regime("R1"), IDENT, grid)
        s, w = gauss_nodes(150, 0.0, 1.0)
        X, Y = np.meshgrid(s, s, indexing="ij")
        W = np.outer(w, w)
        for k, r in enumerate(pts):
            dx, dy, dz = r[0] - X, r[1] - Y, r[2]
            dist3 = (dx**2 + dy**2 + dz**2) ** 1.5
            # grad_{x'} G . p = (r - r') . p / |r - r'|^3 with p = (0.5, 0)
            oracle = float(np.sum(W * 0.5 * dx / dist3))
            assert phi.values[k] == pytest.approx(oracle, abs=1e-7)


class TestHomogenizedR2:
    def make_fields(self):
        mixed = Motif(
            points=PLANAR_DIPOLE.points
            + (MotifPoint(0.7, (0.5, 0.5), 0.5), MotifPoint(-0.7, (0.5, 0.5), -0.5))
        )
        t = tessellate(UNIT, 0.25, SQUARE)
        return moment_fields(t, mixed, IDENT)

    def test_alpha_one_reduces_to_r1_plus_double_layer(self):
        fields = self.make_fields()
        grid = ObservationGrid.from_points([[1.2, 0.3, 0.9], [0.5, 0.5, 2.0]], IDENT)
        r2 = homogenized_potential(fields, Regime("R2", alpha=1.0), IDENT, grid)
        r1 = homogenized_potential(fields, Regime("R1"), IDENT, grid)
        r3 = homogenized_potential(fields, Regime("R3"), IDENT, grid)  # q = 0 here: pure double layer
        np.testing.assert_allclose(r2.values, r1.values + r3.values, atol=1e-12)

    def test_alpha_scaling(self):
        fields = self.make_fields()
        grid = ObservationGrid.from_points([[1.2, 0.3, 0.9]], IDENT)
        v1 = homogenized_potential(fields, Regime("R2", alpha=1.0), IDENT, grid).values
        v2 = homogenized_potential(fields, Regime("R2", alpha=2.0), IDENT, grid).values
        single = homogenized_potential(fields, Regime("R1"), IDENT, grid).values
        double = homogenized_potential(fields, Regime("R3"), IDENT, grid).values
        np.testing.assert_allclose(v1, single + double, atol=1e-12)
        np.testing.assert_allclose(v2, 2 * single + 4 * double, atol=1e-12)


class TestHomogenizedR3Disk:
    AXIS_DOUBLE = 2 * math.pi * (1 - 1 / math.sqrt(2))
    AXIS_SINGLE = 2 * math.pi * (math.sqrt(2) - 1)

    def test_double_layer_closed_form(self):
        disk = ParametricMap.polar_disk(1.0)
        fields = prescribed_fields(disk, p3=lambda x: np.ones(np.asarray(x).shape[:-1]))
        grid = ObservationGrid.from_points([[0.0, 0.0, 1.0]], disk)
        phi = homogenized_potential(fields, Regime("R3"), disk, grid)
        assert phi.values[0] == pytest.approx(self.AXIS_DOUBLE, abs=1e-6)

    def test_single_layer_closed_form(self):
        disk = ParametricMap.polar_disk(1.0)
        fields = prescribed_fields(disk, q=lambda x: np.ones(np.asarray(x).shape[:-1]))
        grid = ObservationGrid.from_points([[0.0, 0.0, 1.0]], disk)
        phi = homogenized_potential(fields, Regime("R3"), disk, grid)
        assert phi.values[0] == pytest.approx(self.AXIS_SINGLE, abs=1e-6)

    def test_double_layer_antisymmetry(self):
        disk = ParametricMap.polar_disk(1.0)
        fields = prescribed_fields(disk, p3=lambda x: np.ones(np.asarray(x).shape[:-1]))
        above = homogenized_potential(fields, Regime("R3"), disk, ObservationGrid.from_points([[0.3, -0.2, 0.8]], disk))
        below = homogenized_potential(fields, Regime("R3"), disk, ObservationGrid.from_points([[0.3, -0.2, -0.8]], disk))
        assert above.values[0] == pytest.approx(-below.values[0], rel=1e-9)


class TestHomogenizedR3ZeroColumn:
    def test_in_plane_sources_do_not_enter(self):
        """R3 weights the in-plane polarization by zero: bound and edge charge drop out."""
        q = lambda x: 1.0 + 0.5 * np.asarray(x)[..., 0]
        p3 = lambda x: np.cos(np.asarray(x)[..., 1])
        p_p = lambda x: np.stack([np.sin(np.pi * np.asarray(x)[..., 0]), np.asarray(x)[..., 1] ** 2], axis=-1)
        sigma = {"right": ([0.0, 1.0], [0.7]), "left": ([0.0, 0.5, 1.0], [-0.3, 0.0])}
        grid = ObservationGrid.from_points([[1.2, 0.3, 0.9], [0.5, 0.5, 2.0]], IDENT)
        plain = homogenized_potential(prescribed_fields(IDENT, q=q, p3=p3), Regime("R3"), IDENT, grid)
        loaded = homogenized_potential(
            prescribed_fields(IDENT, q=q, p_p=p_p, p3=p3, boundary_charge=sigma), Regime("R3"), IDENT, grid
        )
        np.testing.assert_array_equal(loaded.values, plain.values)
        r1 = homogenized_potential(prescribed_fields(IDENT, p_p=p_p, boundary_charge=sigma), Regime("R1"), IDENT, grid)
        assert np.all(np.abs(r1.values) > 1e-3)  # the same sources do act in R1


class TestBoundaryIntegral:
    def test_step_sigma_against_dense_per_piece_sums(self):
        """One edge integral per edge over a sigma with a gap and two values, against dense Gauss sums."""
        stretched = ParametricMap.scaled(UNIT, (2.0, 1.0, 1.0))  # psi = (2 x1, x2, 0), J0 = 2
        p_p = lambda x: np.stack([np.cos(np.asarray(x)[..., 1]), np.asarray(x)[..., 0] ** 2], axis=-1)
        steps = {"right": ([0.0, 0.3, 0.45, 1.0], [0.7, 0.0, -0.4]), "left": ([0.0, 1.0], [0.25])}
        obs = np.array([[2.3, 0.4, 0.3], [1.0, 0.5, 0.6], [-0.2, 0.9, 0.25]])
        grid = ObservationGrid.from_points(obs, stretched)
        fields = prescribed_fields(stretched, p_p=p_p, boundary_charge=steps)
        value = potential._boundary_integral(fields, stretched, grid, 1.5, 1e-13, 12)

        expected = np.zeros(len(obs))
        for edge in UNIT.edges():
            breaks, sigma = steps.get(edge.name, (edge.s_range, [0.0]))
            for a, b, v in zip(breaks, breaks[1:], sigma):
                s, w = gauss_nodes(200, a, b)
                x_p = edge.points(s)
                point = np.stack([2.0 * x_p[:, 0], x_p[:, 1], np.zeros(len(s))], axis=-1)
                density = 2.0 * (v + p_p(x_p) @ np.asarray(edge.normal))
                expected += (w * density) @ (1.0 / np.linalg.norm(obs[None] - point[:, None], axis=-1))
        np.testing.assert_allclose(value, 1.5 * expected, rtol=0, atol=1e-12)


class TestFiniteTDoubleLayer:
    def test_converges_first_order(self):
        disk = ParametricMap.polar_disk(1.0)
        grid = ObservationGrid.from_points([[0.0, 0.0, 1.0]], disk)
        sigma = lambda x: np.ones(np.asarray(x).shape[:-1])
        limit = 2 * math.pi * (1 - 1 / math.sqrt(2))
        errs = []
        for t in (1e-3, 5e-4, 2.5e-4):
            phi = finite_t_double_layer(sigma, disk, t, grid)
            errs.append(abs(phi.values[0] - limit))
        assert errs[0] / limit < 2e-3
        for e0, e1 in zip(errs, errs[1:]):
            assert e0 / e1 == pytest.approx(2.0, abs=0.3)

    def test_zero_density(self):
        disk = ParametricMap.polar_disk(1.0)
        grid = ObservationGrid.from_points([[0.0, 0.0, 1.0]], disk)
        phi = finite_t_double_layer(lambda x: np.zeros(np.asarray(x).shape[:-1]), disk, 1e-3, grid)
        assert phi.values[0] == 0.0

    def test_standoff_vs_separation(self):
        disk = ParametricMap.polar_disk(1.0)
        grid = ObservationGrid.from_points([[0.0, 0.0, 1.0]], disk)
        with pytest.raises(StandoffViolation):
            finite_t_double_layer(lambda x: np.ones(np.asarray(x).shape[:-1]), disk, 0.2, grid)


class TestDecay:
    def test_neutral_distribution_decays_like_dipole(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 0.25, 0.25, Regime("R2", alpha=1.0))
        center = np.array([0.5, 0.5, 0.0])
        direction = np.array([1.0, 0.3, 0.8])
        direction /= np.linalg.norm(direction)
        vals = []
        for rad in (10.0, 20.0, 40.0):
            p = center + rad * direction
            vals.append(abs(sum(q / math.dist(p, pos) for q, pos in zip(d.magnitudes, d.positions))) * rad**2)
        assert max(vals) <= 1.5 * vals[0]


class TestComponentwiseDistances:
    """Per-component distance arithmetic equals the (N, M, 3) np.sum formulas bitwise."""

    CYL = ParametricMap.cylinder(UNIT, radius=2.0)

    def test_kernel_parts_match_summed_formula(self):
        rng = np.random.default_rng(3)
        x_p = rng.uniform(0.0, 1.0, (200, 2))
        obs = rng.uniform(-1.0, 2.0, (37, 3))
        G, dGn, _ = _kernel_parts(self.CYL, x_p, obs, need_normal=True)
        fr = surface_frame(self.CYL, x_p)
        diff = obs[None, :, :] - fr.point[:, None, :]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        np.testing.assert_array_equal(G, 1.0 / d)
        np.testing.assert_array_equal(dGn, np.sum(diff * fr.normal[:, None, :], axis=-1) / d**3)
        G_only, none, _ = _kernel_parts(self.CYL, x_p, obs, need_normal=False)
        assert none is None
        np.testing.assert_array_equal(G_only, G)


def _on_cylinder(rho, phi, z):
    return [rho * math.cos(phi), rho * math.sin(phi), z]


def _chord(rho, dphi, radius=2.0):
    """In-plane distance from (rho, phi) to the circle point at angle phi - dphi."""
    return math.sqrt(rho * rho + radius * radius - 2.0 * rho * radius * math.cos(dphi))


# (map, [(point, closed-form distance to the mid-surface)]): points above T,
# beside an edge and beyond a corner.  The radius-2 cylinder over UNIT spans
# angles [0, 0.5] and heights [0, 1]; the scaled map's image is [0, 2] x [0, 0.5].
STANDOFF_CASES = {
    "identity": (
        IDENT,
        [
            ([0.3, 0.6, 0.7], 0.7),
            ([0.9, 0.2, -0.05], 0.05),
            ([1.2, 0.4, 0.3], math.hypot(0.2, 0.3)),
            ([0.5, -0.1, 0.0], 0.1),
            ([-0.3, 1.4, 0.2], math.sqrt(0.09 + 0.16 + 0.04)),
        ],
    ),
    "cylinder": (
        ParametricMap.cylinder(UNIT, radius=2.0),
        [
            (_on_cylinder(2.3, 0.2, 0.6), 0.3),
            (_on_cylinder(1.6, 0.35, 0.1), 0.4),
            (_on_cylinder(2.1, 0.7, 0.5), _chord(2.1, 0.2)),
            (_on_cylinder(2.2, 0.25, 1.3), math.hypot(0.2, 0.3)),
            (_on_cylinder(2.1, -0.2, -0.25), math.hypot(_chord(2.1, 0.2), 0.25)),
        ],
    ),
    "disk": (
        ParametricMap.polar_disk(1.5),
        [
            ([0.4, -0.3, 0.8], 0.8),
            ([0.0, 0.0, 0.5], 0.5),  # above the polar axis, where the angular tangent vanishes
            ([1.8, 0.6, 0.2], math.hypot(math.hypot(1.8, 0.6) - 1.5, 0.2)),
            ([1.9, 0.0, 0.3], 0.5),  # nearest to the corner (R, 0), on the angular seam
        ],
    ),
    "scaled": (
        ParametricMap.scaled(UNIT, (2.0, 0.5, 3.0)),
        [
            ([1.2, 0.3, 0.4], 0.4),
            ([2.3, 0.25, -0.4], 0.5),
            ([-0.6, 0.9, 0.0], math.hypot(0.6, 0.4)),
        ],
    ),
}


class TestStandoff:
    """Certified lower bound and attained distance against closed-form distances."""

    @pytest.mark.parametrize("name", sorted(STANDOFF_CASES))
    def test_bounds_bracket_closed_form_distance(self, name):
        pmap, cases = STANDOFF_CASES[name]
        points = np.array([p for p, _ in cases])
        exact = np.array([d for _, d in cases])
        lower, attained, foot = potential._standoff(points, pmap)
        assert np.all(lower <= exact)
        # the closed forms are themselves rounded: allow the attained value 4 ulps below them
        assert np.all(exact * (1 - 4 * np.finfo(float).eps) <= attained)
        assert np.all(attained <= exact * (1 + 1e-12))
        assert np.all(lower >= 0.5 * attained)  # settled cells sit above half the best distance
        assert pmap.domain.contains(foot).all()
        np.testing.assert_allclose(np.linalg.norm(pmap.midsurface(foot) - points, axis=1), attained, rtol=1e-15)
        grid = ObservationGrid.from_points(points, pmap)
        assert grid.standoff == attained.min()

    def test_point_beyond_an_edge_in_the_film_plane_passes(self):
        grid = ObservationGrid.from_points([[1.001, 0.5, 0.0]], IDENT)  # 1e-3 beyond the right edge
        assert grid.standoff == pytest.approx(1e-3, abs=1e-12)

    @pytest.mark.parametrize(
        "point,pmap",
        [
            ([0.5025, 0.5025, 0.0], IDENT),
            ([0.3, 0.7, 1e-9], IDENT),
            (_on_cylinder(2.0, 0.3, 0.4), ParametricMap.cylinder(UNIT, radius=2.0)),
        ],
        ids=["on-flat-film", "1e-9-above-flat-film", "on-cylinder"],
    )
    def test_point_on_or_at_the_film_rejected(self, point, pmap):
        with pytest.raises(StandoffViolation, match="certified standoff bound"):
            ObservationGrid.from_points([[0.5, 0.5, 1.0], point], pmap)

    def test_violation_names_point_bounds_and_foot(self):
        with pytest.raises(StandoffViolation) as err:
            ObservationGrid.from_points([[0.5, 0.5, 1.0], [0.5025, 0.5025, 0.0]], IDENT)
        message = str(err.value)
        assert "observation point 1 at (0.5025, 0.5025, 0.0)" in message
        assert "attained distance 0.000e+00 at parameter point (0.5025, 0.5025)" in message
        bound = float(message.split("certified standoff bound ")[1].split()[0])
        assert bound <= 0.0

    def test_grid_beyond_one_pass(self):
        # 1 200 points start 76 800 coarse pairs, past the 2^16 of one pass: each
        # half goes alone, and the on-film point sits in the second half
        points = ObservationGrid.offset_surface(IDENT, 40, 30, 0.3).points
        lower, attained, _ = potential._standoff(points, IDENT)
        assert ObservationGrid.from_points(points, IDENT).standoff == attained.min() == 0.3
        points[1100, 2] = 0.0
        with pytest.raises(StandoffViolation, match=f"observation point 1100 at \\({float(points[1100, 0])!r}, "):
            ObservationGrid.from_points(points, IDENT)

    def test_halved_passes_give_the_same_values(self, monkeypatch):
        points = ObservationGrid.offset_surface(IDENT, 4, 3, 0.05).points
        whole = potential._standoff(points, IDENT)
        monkeypatch.setattr(potential, "_STANDOFF_PAIRS", 4 * potential._STANDOFF_CELLS**2)
        for got, want in zip(potential._standoff(points, IDENT), whole):
            np.testing.assert_array_equal(got, want)

    def test_point_alone_past_the_pair_cap_is_unresolved(self, monkeypatch):
        point = [[0.5, 0.5, 0.01]]  # on a corner of four coarse cells: 16 children per level
        assert ObservationGrid.from_points(point, IDENT).standoff == pytest.approx(0.01, rel=1e-15)
        monkeypatch.setattr(potential, "_STANDOFF_PAIRS", 8)
        with pytest.raises(StandoffViolation, match="certified standoff bound 0.000e\\+00 is not positive"):
            ObservationGrid.from_points(point, IDENT)

    @pytest.mark.parametrize("height", [0.0, 1e-6])
    def test_disk_centre_stays_small(self, height):
        # the angular tangent vanishes on the polar axis: cells there are cut
        # across x1 only, so the live pairs stay few down to the level cap
        import tracemalloc

        tracemalloc.start()
        try:
            if height == 0.0:
                with pytest.raises(StandoffViolation, match="observation point 0 at \\(0.0, 0.0, 0.0\\)"):
                    ObservationGrid.from_points([[0.0, 0.0, height]], ParametricMap.polar_disk())
            else:
                grid = ObservationGrid.from_points([[0.0, 0.0, height]], ParametricMap.polar_disk())
                assert grid.standoff == height
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("points", [[], [[]], [0.5, 0.5, 1.0], [[0.5, 0.5]], np.zeros((0, 3))])
    def test_malformed_points_rejected(self, points):
        with pytest.raises(ValueError, match=r"non-empty \(M, 3\) array"):
            ObservationGrid.from_points(points, IDENT)

    def test_infinite_point_rejected(self):
        with pytest.raises(StandoffViolation, match="observation point 0 .* not finite \\(standoff inf\\)"):
            ObservationGrid.from_points([[math.inf, 0.5, 1.0]], IDENT)


class TestFieldCsv:
    def test_round_trip_schema(self, tmp_path):
        import io

        from filmhomog import field_to_csv

        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 0.25, 0.25, Regime("R2", alpha=1.0))
        grid = ObservationGrid.from_points([[0.5, 0.5, 3.0], [1.0, 2.0, 1.0]], IDENT)
        sample = direct_potential(d, grid, standoff_factor=0.0)
        buf = io.StringIO()
        field_to_csv([sample], buf, comment="scenario=abc")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# scenario=abc"
        assert lines[1] == "x,y,z,phi,provenance"
        row = lines[2].split(",")
        assert float(row[0]) == 0.5 and float(row[3]) == sample.values[0]
        assert row[4] == sample.provenance
