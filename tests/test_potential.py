"""Kernel, direct-sum and homogenized-potential checks against independent oracles.

Oracles here are deliberately primitive re-implementations: a Python double
loop for the Green's sum, a dense fixed-order tensor Gauss rule for the area
integrals, and the pre-integration-by-parts (kernel-gradient) form for the
flat-film formulas.
"""

import itertools
import json
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmhomog import (
    DegenerateFrame,
    Modulation,
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
from filmhomog import potential, quadrature
from filmhomog.cli import main
from filmhomog.config import parse_config
from filmhomog.geometry import surface_frame
from filmhomog.moments import Catalog
from filmhomog.potential import _BLOCK_VALUES, TAYLOR_STANDOFF, _kernel, _row_sums, green_sums
from filmhomog.quadrature import _panels
from reference import (
    finite_t_double_layer,
    fsum_potential,
    prescribed_fields,
    unfolded_bulk_integrand,
    unfolded_edge_integrand,
)

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
SQUARE = UnitCellChoice()
IDENT = ParametricMap.identity(UNIT)
PLANAR_DIPOLE = Motif(points=(MotifPoint(+1.0, (0.75, 0.5), 0.0), MotifPoint(-1.0, (0.25, 0.5), 0.0)))
MIXED = Motif(points=PLANAR_DIPOLE.points + (MotifPoint(0.7, (0.5, 0.5), 0.5), MotifPoint(-0.7, (0.5, 0.5), -0.5)))


def gauss_nodes(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def charges(positions, magnitudes):
    """Distribution of the given point charges, built without a motif."""
    positions = np.asarray(positions, float).reshape(-1, 3)
    magnitudes = np.asarray(magnitudes, float)
    return ScaledChargeDistribution(
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
        sample = direct_potential(d, grid, standoff_factor=TAYLOR_STANDOFF)
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
            direct_potential(d, grid, standoff_factor=TAYLOR_STANDOFF)  # factor 10: needs standoff >= 2.5
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


def _shared_sums(monkeypatch, dist, points, cpus, share_pairs=1, delay=0.0):
    """green_sums on ``cpus`` usable CPUs with ``share_pairs`` as
    _SHARE_PAIRS, and the (lo, hi) of each share run; a share off the
    calling thread starts ``delay`` seconds late."""
    shares, run_share, caller = [], potential._share_sums, threading.current_thread()

    def recorded(columns, magnitudes, points, values, lo, hi):
        shares.append((lo, hi))
        if threading.current_thread() is not caller:
            time.sleep(delay)
        run_share(columns, magnitudes, points, values, lo, hi)

    with monkeypatch.context() as m:
        m.setattr(potential, "_SHARE_PAIRS", share_pairs)
        m.setattr(potential, "_share_sums", recorded)
        m.setattr(potential.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return green_sums(dist, points), sorted(shares)


class TestShares:
    """The points split into one share per usable CPU; no value or error changes."""

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize(
        "n_points, block_values",
        [(14, 4 * 12), (3, 1 << 16), (9, 1)],
        ids=["boundaries-inside-blocks", "fewer-points-than-cpus", "one-row-blocks"],
    )
    def test_share_count_does_not_change_values(self, monkeypatch, cpus, n_points, block_values):
        rng = np.random.default_rng(cpus)
        dist = charges(rng.uniform(0.0, 1.0, (12, 3)), rng.uniform(-1.0, 1.0, 12))
        xy = rng.uniform(-0.5, 1.5, (n_points, 2))
        grid = ObservationGrid.from_points(np.column_stack([xy, rng.uniform(1.5, 2.5, n_points)]), IDENT)
        monkeypatch.setattr(potential, "_BLOCK_VALUES", block_values)  # 4 rows, all, 1 row per block
        one, one_share = _shared_sums(monkeypatch, dist, grid.points, 1)
        threads = threading.active_count()
        values, shares = _shared_sums(monkeypatch, dist, grid.points, cpus)
        assert threading.active_count() == threads
        assert one_share == [(0, n_points)]
        assert len(shares) == min(cpus, n_points) and shares[0][0] == 0 and shares[-1][1] == n_points
        assert all(a[1] == b[0] for a, b in zip(shares, shares[1:]))
        assert values.tobytes() == one.tobytes() == np.array(fsum_potential(dist, grid)).tobytes()

    @pytest.mark.parametrize("share_pairs, shares", [(65, 1), (64, 2), (43, 2), (42, 3), (33, 3), (32, 4), (1, 4)])
    def test_each_share_has_share_pairs_or_more(self, monkeypatch, share_pairs, shares):
        rng = np.random.default_rng(5)
        dist = charges(rng.uniform(0.0, 1.0, (16, 3)), rng.uniform(-1.0, 1.0, 16))
        points = rng.uniform(2.0, 3.0, (8, 3))  # 128 pairs
        values, run = _shared_sums(monkeypatch, dist, points, 4, share_pairs)
        assert len(run) == shares
        assert values.tobytes() == green_sums(dist, points).tobytes()

    def test_shares_switched_often_write_every_value(self, monkeypatch):
        rng = np.random.default_rng(13)
        dist = charges(rng.uniform(0.0, 1.0, (64, 3)), rng.uniform(-1.0, 1.0, 64))
        points = rng.uniform(2.0, 3.0, (400, 3))
        monkeypatch.setattr(potential, "_BLOCK_VALUES", 1)  # one point per block: many switches
        one, _ = _shared_sums(monkeypatch, dist, points, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            values, shares = _shared_sums(monkeypatch, dist, points, 4)
        finally:
            sys.setswitchinterval(interval)
        assert len(shares) == 4 and values.tobytes() == one.tobytes()

    def test_every_share_ends_before_the_call_returns(self, monkeypatch):
        rng = np.random.default_rng(7)
        dist = charges(rng.uniform(0.0, 1.0, (12, 3)), rng.uniform(-1.0, 1.0, 12))
        points = rng.uniform(2.0, 3.0, (8, 3))
        threads = threading.active_count()
        values, shares = _shared_sums(monkeypatch, dist, points, 4, delay=0.05)
        assert threading.active_count() == threads and len(shares) == 4
        assert values.tobytes() == green_sums(dist, points).tobytes()

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("singular", [[9], [3, 9], [0, 9], [4, 5]], ids=str)
    def test_singular_point_of_any_share_names_the_lowest_index(self, monkeypatch, cpus, singular):
        rng = np.random.default_rng(11)
        dist = charges(rng.uniform(0.0, 1.0, (20, 3)), rng.uniform(-1.0, 1.0, 20))
        points = rng.uniform(2.0, 3.0, (10, 3))
        points[singular] = dist.positions[singular]  # the last point is in the last share
        errors = []
        for n in (1, cpus):
            threads = threading.active_count()
            with pytest.raises(SingularEvaluation) as err:
                _shared_sums(monkeypatch, dist, points, n)
            assert threading.active_count() == threads
            errors.append(str(err.value))
        x, y, z = points[singular[0]].tolist()
        assert errors[0] == errors[1]
        assert errors[1].startswith(f"observation point {singular[0]} at ({x!r}, {y!r}, {z!r}) lies 0.000e+00 ")


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


FSUM = math.fsum  # unpatched, for expected values while fsum_rows counts calls


@pytest.fixture
def fsum_rows(monkeypatch):
    """The rows that _row_sums hands to math.fsum, as lists."""
    rows = []

    def counting(values):
        values = list(values)
        rows.append(values)
        return FSUM(values)

    monkeypatch.setattr(potential.math, "fsum", counting)
    return rows


def _bits(x: float) -> str:
    return float(x).hex()  # keeps the sign of zero


class TestCertifiedRounding:
    """Rows the extraction certifies, rows a second extraction of the remainders
    decides, and rows it must leave to math.fsum."""

    def test_well_conditioned_row_needs_no_fsum(self, fsum_rows):
        rng = np.random.default_rng(7)
        v = rng.uniform(1.0, 2.0, (1, 2**15))
        expected = FSUM(v[0].tolist())
        got = _row_sums(v)
        assert _bits(got[0]) == _bits(expected)
        assert fsum_rows == []

    @pytest.mark.parametrize(
        "row",
        [
            [0.1, -0.1],
            [3.0, 2.0**-40, -3.0, -(2.0**-40)],
            [-0.0, -0.0],
            [0.0, -0.0],
            [1.0, 2.0**-53],  # a tie, rounded to even (down)
            [1.0 + 2.0**-52, 2.0**-53],  # a tie, rounded to even (up)
        ],
    )
    def test_zero_and_tied_sums_are_decided_by_the_second_extraction(self, row, fsum_rows):
        # the certificate cannot decide them; their remainders leave no second remainder
        expected = FSUM(row)
        got = _row_sums(np.array([row]))
        assert _bits(got[0]) == _bits(expected)
        assert fsum_rows == []

    def test_just_above_a_tie_reaches_fsum(self, fsum_rows):
        # the second extraction of the remainders 1, 2^-53 and 2^-54 leaves 2^-54 over
        row = [2.0**60, 1.0, -(2.0**60), 2.0**-53, 0.5 * 2.0**-53]
        got = _row_sums(np.array([row]))
        assert _bits(got[0]) == _bits(FSUM(row)) == _bits(1.0 + 2.0**-52)
        assert fsum_rows == [row]

    def test_tie_among_cancelling_pairs_needs_no_fsum(self, fsum_rows):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, 500)
        row = rng.permuted(np.concatenate([[1.0, 2.0**-53], x, -x]))
        expected = FSUM(row.tolist())
        assert expected == 1.0
        got = _row_sums(row[None, :])
        assert _bits(got[0]) == _bits(expected)
        assert fsum_rows == []

    def test_heavy_cancellation_needs_no_fsum(self, fsum_rows):
        rng = np.random.default_rng(11)
        v = rng.uniform(0.5, 1.0, 4096)
        rows = np.stack([np.concatenate([v, -v * (1.0 + 2.0**-40)]), rng.uniform(0.5, 1.0, 8192)])
        expected = [FSUM(r) for r in rows.tolist()]
        got = _row_sums(rows)
        assert [_bits(g) for g in got] == [_bits(x) for x in expected]
        assert fsum_rows == []

    @pytest.mark.parametrize("l", [0.25, 0.125, 1 / 16, 1 / 32])
    @pytest.mark.parametrize("motif", [PLANAR_DIPOLE, MIXED], ids=["planar_dipole", "mixed"])
    def test_neutral_charge_rows_need_no_fsum(self, motif, l, fsum_rows):
        # the total charge of a realized step, one (1, N) row summing exactly to 0
        dist = realize(motif, tessellate(UNIT, l, SQUARE), IDENT, l, l, Regime("R2", alpha=1.0))
        row = dist.magnitudes[None, :].copy()
        assert FSUM(row[0].tolist()) == 0.0
        assert _bits(_row_sums(row)[0]) == _bits(0.0)
        assert fsum_rows == []

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        shift=st.integers(1, 60),
        scale=st.integers(-60, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_cancelling_rows_match_fsum(self, n, shift, scale, seed):
        rng = np.random.default_rng(seed)
        v = np.ldexp(rng.uniform(-1.0, 1.0, n), scale)
        near = -v * (1.0 + rng.choice([-1.0, 1.0], n) * 2.0**-shift)
        row = rng.permuted(np.concatenate([v, near]))
        unpaired = row.copy()
        unpaired[0] = math.ldexp(1.0, scale)  # one term without its partner
        rows = np.stack([row, row[::-1], unpaired])
        expected = [_bits(FSUM(r)) for r in rows.tolist()]
        assert [_bits(g) for g in _row_sums(rows)] == expected


class TestHomogenizedR1:
    def test_mirror_symmetry_zero(self):
        fields = moment_fields(PLANAR_DIPOLE, SQUARE, IDENT, 0.25)
        grid = ObservationGrid.from_points([[0.5, 0.5, 1.0]], IDENT)
        phi = homogenized_potential(fields, Regime("R1"), IDENT, grid)
        assert abs(phi.values[0]) <= 1e-10

    def test_against_dense_line_quadrature(self):
        fields = moment_fields(PLANAR_DIPOLE, SQUARE, IDENT, 0.25)
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
        fields = moment_fields(mod_motif, SQUARE, IDENT, 0.25)
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
        return moment_fields(MIXED, SQUARE, IDENT, 0.25)

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
        sigma = {"right": lambda x: np.full(np.shape(x)[:-1], 0.7), "left": lambda x: -0.3 * np.asarray(x)[..., 1]}
        grid = ObservationGrid.from_points([[1.2, 0.3, 0.9], [0.5, 0.5, 2.0]], IDENT)
        plain = homogenized_potential(prescribed_fields(IDENT, q=q, p3=p3), Regime("R3"), IDENT, grid)
        loaded = homogenized_potential(
            prescribed_fields(IDENT, q=q, p_p=p_p, p3=p3, boundary_charge=sigma), Regime("R3"), IDENT, grid
        )
        np.testing.assert_array_equal(loaded.values, plain.values)
        r1 = homogenized_potential(prescribed_fields(IDENT, p_p=p_p, boundary_charge=sigma), Regime("R1"), IDENT, grid)
        assert np.all(np.abs(r1.values) > 1e-3)  # the same sources do act in R1


_WAVE = Modulation(kind="sinusoid", value=1.0, coef=(2.0, 1.0), phase=0.3)
# in-plane dipole on the mid-surface, modulated, with a free point: every term but the double layer
PLANAR_FREE = Motif(
    points=(MotifPoint(+1.0, (0.7, 0.4), 0.0, _WAVE), MotifPoint(-1.0, (0.3, 0.6), 0.0, _WAVE)),
    free_points=(MotifPoint(0.5, (0.5, 0.5), 0.3),),
)
CYLINDER = ParametricMap.cylinder(UNIT, 2.0)
# w z = +-0.4 on two identical rows: a normal moment that cancels exactly
_CANCELLING = (MotifPoint(1.0, (0.5, 0.5), 0.4), MotifPoint(-1.0, (0.5, 0.5), 0.4))
FLAT_CASES = [
    pytest.param(IDENT, Regime("R1"), [[1.2, 0.3, 0.9], [0.5, 0.5, 0.05]], id="identity-R1"),
    pytest.param(IDENT, Regime("R2", alpha=1.5), [[1.2, 0.3, 0.9], [0.5, 0.5, 0.05]], id="identity-R2"),
    pytest.param(CYLINDER, Regime("R2", alpha=1.0), [[0.0, 0.5, 2.4], [0.3, 0.2, 1.5]], id="cylinder-R2"),
]


# terms whose catalog rows are all zero although the motif has a free point
# (of weight 0) or a point with w z != 0 (whose modulation is the constant 0):
# (motif, field, the function the term would call)
_ZERO_ROWS = {
    "free-weight-0": (
        Motif(points=PLANAR_DIPOLE.points, free_points=(MotifPoint(0.0, (0.5, 0.5), 0.3),)),
        "charge_weighted",
        "adaptive_rectangle",
    ),
    "normal-constant-0": (
        Motif(
            points=PLANAR_FREE.points + (MotifPoint(1.0, (0.5, 0.5), 0.4, Modulation("constant", 0.0)),),
            free_points=PLANAR_FREE.free_points,
        ),
        "pol_normal_weighted",
        "surface_frame",
    ),
}


def _frames_per_panel(monkeypatch, fields, regime, pmap, grid):
    """(surface frames, bulk integrand calls) of one homogenized_potential call."""
    calls = {"frames": 0, "panels": 0}
    frame, rectangle = potential.surface_frame, potential.adaptive_rectangle

    def counting_frame(*args, **kwargs):
        calls["frames"] += 1
        return frame(*args, **kwargs)

    def counting_rectangle(f, *args, **kwargs):
        def integrand(x_p):
            calls["panels"] += 1
            return f(x_p)

        return rectangle(integrand, *args, **kwargs)

    monkeypatch.setattr(potential, "surface_frame", counting_frame)
    monkeypatch.setattr(potential, "adaptive_rectangle", counting_rectangle)
    homogenized_potential(fields, regime, pmap, grid)
    return calls["frames"], calls["panels"]


def _forced_values(monkeypatch, fields, regime, pmap, grid, *zero):
    """homogenized_potential with the catalog fields ``zero`` evaluated anyway:
    their ``is_zero`` reads False for this call only."""
    is_zero = Catalog.is_zero.fget
    with monkeypatch.context() as m:
        m.setattr(Catalog, "is_zero", property(lambda self: not any(self is f for f in zero) and is_zero(self)))
        return homogenized_potential(fields, regime, pmap, grid).values


class TestSkippedTerms:
    """A term of effective weight 0 is never evaluated; the values do not change."""

    @pytest.mark.parametrize("pmap, regime, points", FLAT_CASES)
    def test_no_normal_moment_builds_no_frame_and_changes_no_bit(self, monkeypatch, pmap, regime, points):
        fields = moment_fields(PLANAR_FREE, SQUARE, pmap, 0.25)
        assert fields.pol_normal_weighted.is_zero
        grid = ObservationGrid.from_points(points, pmap)
        full = _forced_values(monkeypatch, fields, regime, pmap, grid, fields.pol_normal_weighted)

        def no_frame(*args, **kwargs):
            raise AssertionError("surface frame built for a field without a normal moment")

        monkeypatch.setattr(potential, "surface_frame", no_frame)
        assert homogenized_potential(fields, regime, pmap, grid).values.tobytes() == full.tobytes()

    @pytest.mark.parametrize("pmap, regime, points", FLAT_CASES)
    def test_no_bound_charge_skips_the_bulk_and_changes_no_bit(self, monkeypatch, pmap, regime, points):
        fields = moment_fields(PLANAR_DIPOLE, SQUARE, pmap, 0.25)  # constant weights: no bulk density at all
        bulk = (fields.charge_weighted, fields.div_pol_planar_weighted, fields.pol_normal_weighted)
        assert all(f.is_zero for f in bulk)
        grid = ObservationGrid.from_points(points, pmap)
        full = _forced_values(monkeypatch, fields, regime, pmap, grid, fields.div_pol_planar_weighted)

        def no_bulk(*args, **kwargs):
            raise AssertionError("bulk integral of an identically zero density")

        monkeypatch.setattr(potential, "adaptive_rectangle", no_bulk)
        assert homogenized_potential(fields, regime, pmap, grid).values.tobytes() == full.tobytes()

    @pytest.mark.parametrize("regime", [Regime("R2", alpha=1.5), Regime("R3")], ids=["R2", "R3"])
    @pytest.mark.parametrize("case", sorted(_ZERO_ROWS))
    def test_zero_rows_skip_the_term_and_change_no_bit(self, monkeypatch, case, regime):
        motif, name, skipped = _ZERO_ROWS[case]
        fields = moment_fields(motif, SQUARE, IDENT, 0.25)
        assert getattr(fields, name).is_zero
        grid = ObservationGrid.from_points([[1.2, 0.3, 0.9], [0.5, 0.5, 0.05]], IDENT)
        calls, original = [], getattr(potential, skipped)

        def counted(*args, **kwargs):
            calls.append(skipped)
            return original(*args, **kwargs)

        monkeypatch.setattr(potential, skipped, counted)
        full = _forced_values(monkeypatch, fields, regime, IDENT, grid, getattr(fields, name))
        assert calls  # the term runs when forced
        calls.clear()
        assert homogenized_potential(fields, regime, IDENT, grid).values.tobytes() == full.tobytes()
        assert calls == []

    @pytest.mark.parametrize("pmap", [IDENT, CYLINDER], ids=["identity", "cylinder"])
    @pytest.mark.parametrize("wave, edges", [(None, 2), (_WAVE, 4)], ids=["constant", "sinusoid"])
    def test_edge_of_a_zero_valued_density_is_skipped_and_changes_no_bit(self, monkeypatch, pmap, wave, edges):
        # equal y2: the column of J0 p_p normal to the bottom and top edges cancels on
        # identical rows; its constant rows evaluate to 0.0, its sinusoid rows need not
        w = Modulation("constant", 1.0) if wave is None else wave
        dipole = Motif(points=(MotifPoint(1.0, (0.75, 0.5), 0.0, w), MotifPoint(-1.0, (0.25, 0.5), 0.0, w)))
        fields = moment_fields(dipole, SQUARE, pmap, 0.25)
        column = fields.pol_planar_weighted.column(1)
        assert column.is_zero and column.evaluates_to_zero is (wave is None)
        assert all(rho.evaluates_to_zero for rho in fields.boundary_charge.values())
        grid = ObservationGrid.from_points([[0.2, 0.7, 2.5], [1.3, 0.4, 2.2]], pmap)
        regime, segment, calls = Regime("R2", alpha=1.0), potential.adaptive_segment, []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return segment(*args, **kwargs)

        monkeypatch.setattr(potential, "adaptive_segment", counted)
        values = homogenized_potential(fields, regime, pmap, grid).values
        assert len(calls) == edges
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(Catalog, "evaluates_to_zero", property(lambda self: False))
            forced = homogenized_potential(fields, regime, pmap, grid).values
        assert len(calls) == 4
        assert values.tobytes() == forced.tobytes()

    @pytest.mark.parametrize(
        "points, expected",
        [
            (PLANAR_DIPOLE.points, False),
            (MIXED.points, False),
            (PLANAR_FREE.points, True),
            ((MotifPoint(1.0, (0.75, 0.5), 0.0, Modulation("linear", 1.0, (0.5, 0.0))),), True),
            ((MotifPoint(1.0, (0.75, 0.5), 0.0, Modulation("linear", 1.0, (0.0, 0.5))),), True),
            ((MotifPoint(1.0, (0.75, 0.5), 0.0, Modulation("linear", 1.0, (0.5, -0.75))),), False),  # b . B y = 0
            ((MotifPoint(1.0, (0.75, 0.5), 0.0, Modulation("sinusoid", 2.0, (0.0, 0.0), 0.4)),), False),
            ((MotifPoint(1.0, (0.0, 0.0), 0.0, _WAVE),), False),  # no arm: grad m . B y = 0
        ],
    )
    def test_bound_charge_is_zero(self, points, expected):
        fields = moment_fields(Motif(points=points), SQUARE, IDENT, 0.25)
        assert fields.div_pol_planar_weighted.is_zero is not expected
        x = np.random.default_rng(8).uniform(-1.0, 2.0, (50, 2))
        assert np.all(fields.div_pol_planar_weighted(x) == 0.0) is not expected

    @pytest.mark.parametrize(
        "regime, pmap",
        [(Regime("R3"), IDENT), (Regime("R2", alpha=1.0), IDENT), (Regime("R2", alpha=1.0), CYLINDER)],
    )
    def test_normal_moment_builds_one_frame_per_panel(self, monkeypatch, regime, pmap):
        fields = moment_fields(MIXED, SQUARE, pmap, 0.25)
        assert not fields.pol_normal_weighted.is_zero
        grid = ObservationGrid.from_points([[0.2, 0.7, 2.5], [1.3, 0.4, 2.2]], pmap)
        frames, panels = _frames_per_panel(monkeypatch, fields, regime, pmap, grid)
        assert frames == panels > 0

    def test_cancelling_normal_moment_builds_no_frame_and_moves_no_value(self, monkeypatch):
        fields = moment_fields(Motif(points=_CANCELLING), SQUARE, IDENT, 0.25)
        regime, grid = Regime("R2", alpha=1.0), ObservationGrid.from_points([[0.2, 0.7, 2.5], [1.3, 0.4, 2.2]], IDENT)
        forced = _forced_values(monkeypatch, fields, regime, IDENT, grid, fields.pol_normal_weighted)
        assert _frames_per_panel(monkeypatch, fields, regime, IDENT, grid) == (0, 0)
        assert np.array_equal(homogenized_potential(fields, regime, IDENT, grid).values, forced)

    def test_parallel_tangents_fail_only_where_the_double_layer_runs(self):
        # psi(x) = (x1, 0, x3), built directly since the scaled factory rejects
        # a zero factor: the second tangent is 0, so no normal exists anywhere
        a = np.array([1.0, 0.0, 1.0])
        flat = ParametricMap(
            UNIT,
            lambda x: np.asarray(x, float) * a,
            lambda x_p: np.broadcast_to(np.diag(a)[:, :2], x_p.shape[:-1] + (3, 2)).copy(),
            lipschitz=1.0,
        )
        grid = ObservationGrid.from_points([[0.5, 0.5, 1.0]], flat)
        with pytest.raises(DegenerateFrame):
            homogenized_potential(moment_fields(MIXED, SQUARE, flat, 0.25), Regime("R3"), flat, grid)
        planar = moment_fields(PLANAR_FREE, SQUARE, flat, 0.25)
        assert np.isfinite(homogenized_potential(planar, Regime("R2", alpha=1.0), flat, grid).values).all()

    @pytest.mark.parametrize(
        "points, expected",
        [
            (PLANAR_DIPOLE.points, False),
            (PLANAR_FREE.points, False),
            ((MotifPoint(0.0, (0.5, 0.5), 0.4), MotifPoint(1.0, (0.2, 0.5), 0.0)), False),  # w z = 0 per point
            (_CANCELLING, False),  # w z is not 0 on each point, but cancels on identical rows
            ((MotifPoint(1e16, (0.5, 0.5), 0.5),) + _CANCELLING[:1] + (MotifPoint(-1e16, (0.5, 0.5), 0.5),), True),
            (MIXED.points, True),
            ((MotifPoint(1.0, (0.5, 0.5), -1e-300),), True),
        ],
    )
    def test_normal_moment_is_zero(self, points, expected):
        # the second True case sums to 0.4 exactly, where a float sum in row order reads 0.0
        motif = Motif(points=points)
        fields = moment_fields(motif, SQUARE, IDENT, 0.25)
        assert fields.pol_normal_weighted.is_zero is not expected
        x = np.random.default_rng(7).uniform(-1.0, 2.0, (50, 2))
        if not expected:
            assert np.all(fields.pol_normal_weighted(x) == 0.0)


_LINEAR = Modulation(kind="linear", value=1.0, coef=(0.5, -0.25))
# the motif points of each limit term: free charge (sinusoid and linear),
# bound charge (sinusoid and linear arms) and a normal moment (constant weights)
_TERM_MOTIFS = {
    "free": ((), (MotifPoint(0.5, (0.5, 0.5), 0.3, _WAVE), MotifPoint(-0.2, (0.3, 0.7), 0.0, _LINEAR))),
    "bound": (
        (
            MotifPoint(+1.0, (0.7, 0.4), 0.0, _WAVE),
            MotifPoint(-1.0, (0.3, 0.6), 0.0, _WAVE),
            MotifPoint(0.5, (0.8, 0.5), 0.0, _LINEAR),
            MotifPoint(-0.5, (0.2, 0.5), 0.0, _LINEAR),
        ),
        (),
    ),
    "normal": ((MotifPoint(0.7, (0.5, 0.5), 0.5), MotifPoint(-0.7, (0.5, 0.5), -0.5)), ()),
}
_TERM_SETS = [terms for k in (1, 2, 3) for terms in itertools.combinations(("free", "bound", "normal"), k)]
DISK = ParametricMap.polar_disk(1.0)
_INTEGRAND_MAPS = {
    "identity": (IDENT, [[0.2, 0.7, 0.6], [1.3, 0.4, 0.2], [0.5, 0.5, -0.3]]),
    "cylinder": (CYLINDER, [[0.0, 0.5, 2.4], [0.3, 0.2, 1.5], [1.9, 0.9, 0.1]]),
    "disk": (DISK, [[0.2, 0.1, 0.5], [-0.9, 0.6, 0.3], [1.4, -0.2, 0.0]]),
}


def _term_fields(terms, pmap):
    """Moment fields of the motif that carries exactly the given limit terms."""
    points = sum((_TERM_MOTIFS[t][0] for t in terms), ())
    free = sum((_TERM_MOTIFS[t][1] for t in terms), ())
    fields = moment_fields(Motif(points=points, free_points=free), SQUARE, pmap, 0.25)
    bulk = (fields.charge_weighted, fields.div_pol_planar_weighted, fields.pol_normal_weighted)
    assert tuple(not f.is_zero for f in bulk) == tuple(t in terms for t in ("free", "bound", "normal"))
    return fields


def _captured_integrands(monkeypatch, fields, regime, pmap, grid):
    """The bulk integrand (None if the bulk is skipped) and the four edge
    integrands of one homogenized_potential call, captured, not integrated;
    an edge whose density evaluates to zero is captured too."""
    captured = {"bulk": None, "edges": []}

    def rectangle(f, lo, hi, **kwargs):
        captured["bulk"] = f
        return np.zeros(grid.n_points)

    def segment(f, s_range, **kwargs):
        captured["edges"].append(f)
        return np.zeros(grid.n_points)

    monkeypatch.setattr(potential, "adaptive_rectangle", rectangle)
    monkeypatch.setattr(potential, "adaptive_segment", segment)
    with monkeypatch.context() as m:
        m.setattr(Catalog, "evaluates_to_zero", property(lambda self: False))
        homogenized_potential(fields, regime, pmap, grid)
    return captured["bulk"], captured["edges"]


def _integrand_pairs(monkeypatch, terms, map_name, regime):
    """(integrand, unfolded integrand, panel nodes) of the bulk, if it runs,
    on the domain and four sub-boxes, then of each edge on the whole edge
    and its two halves; and the fields and grid they integrate."""
    pmap, points = _INTEGRAND_MAPS[map_name]
    fields = _term_fields(terms, pmap)
    grid = ObservationGrid.from_points(points, pmap)
    bulk, edges = _captured_integrands(monkeypatch, fields, regime, pmap, grid)
    idle = {"R1": ("normal",), "R3": ("bound",)}.get(regime.kind)  # the one term the regime weights 0
    assert (bulk is None) == (terms == idle)
    assert len(edges) == (0 if regime.kind == "R3" else 4)  # R3 has no in-plane term
    lo, hi = np.asarray(pmap.domain.lo, float), np.asarray(pmap.domain.hi, float)
    t = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.5], [0.75, 0.75], [0.125, 0.375]])
    u = np.array([[1.0, 1.0], [1.0, 0.5], [0.5, 1.0], [0.875, 0.875], [0.25, 0.5]])
    triples = []
    if bulk is not None:
        oracle = unfolded_bulk_integrand(fields, regime, pmap, grid.points)
        triples.append((bulk, oracle, _panels(lo + t * (hi - lo), lo + u * (hi - lo))[0]))
    for edge, integrand in zip(pmap.domain.edges(), edges):
        a, b = edge.s_range
        nodes = _panels(np.array([a, a, 0.5 * (a + b)]), np.array([b, 0.5 * (a + b), b]))[0]
        triples.append((integrand, unfolded_edge_integrand(fields, pmap, grid.points, edge), nodes))
    return triples, fields, grid


class TestIntegrandsAgainstReference:
    """Each density is evaluated, then multiplied by its regime weight; per
    panel this reproduces the integrands of ``reference.py`` bit for bit,
    for any weights."""

    @pytest.mark.parametrize("map_name", sorted(_INTEGRAND_MAPS))
    @pytest.mark.parametrize("terms", _TERM_SETS, ids="+".join)
    @pytest.mark.parametrize(
        "regime",
        [Regime("R1"), Regime("R2", alpha=1.0), Regime("R2", alpha=0.5), Regime("R2", alpha=0.7), Regime("R3")],
        ids=["R1", "R2-1", "R2-0.5", "R2-0.7", "R3"],
    )
    def test_bitwise_per_panel(self, monkeypatch, terms, map_name, regime):
        triples, _, _ = _integrand_pairs(monkeypatch, terms, map_name, regime)
        for integrand, oracle, panels in triples:
            for nodes in panels:
                assert integrand(nodes).tobytes() == oracle(nodes).tobytes()

    @pytest.mark.parametrize("map_name", sorted(_INTEGRAND_MAPS))
    @pytest.mark.parametrize("terms", _TERM_SETS, ids="+".join)
    def test_bitwise_on_random_boxes_for_alpha_0_7(self, monkeypatch, terms, map_name):
        # c = 0.7 and 0.49 are not powers of two: a weight folded into the
        # catalog weights would round once more than one applied afterwards
        regime, pmap = Regime("R2", alpha=0.7), _INTEGRAND_MAPS[map_name][0]
        ((bulk, oracle, _), *_), _, _ = _integrand_pairs(monkeypatch, terms, map_name, regime)
        lo, hi = np.asarray(pmap.domain.lo, float), np.asarray(pmap.domain.hi, float)
        rng = np.random.default_rng(3)
        a = lo + (hi - lo) * rng.uniform(0.0, 0.9, (64, 2))
        b = np.minimum(a + (hi - lo) * rng.uniform(0.01, 0.5, (64, 2)), hi)
        for nodes in _panels(a, b)[0]:
            assert bulk(nodes).tobytes() == oracle(nodes).tobytes()

    def test_bulk_and_edges_share_one_kernel_buffer(self, monkeypatch):
        """One potential builds one kernel: its double-layer bulk and its edges write
        into the same buffer."""
        triples, _, _ = _integrand_pairs(monkeypatch, ("free", "bound", "normal"), "cylinder", Regime("R2", alpha=0.7))
        (bulk, _, bulk_panels), *edges = triples
        values = bulk(bulk_panels[0])
        assert all(np.shares_memory(values, edge(panels[0])) for edge, _, panels in edges)

    @pytest.mark.parametrize("terms", [("free",), ("bound",), ("free", "bound")], ids="+".join)
    def test_identity_map_integrands_take_planar_nodes(self, monkeypatch, terms):
        """Without a double layer the identity map's bulk and edge integrands
        hand the kernel their planar nodes: no midsurface call, and the bytes
        of the unfolded integrands, which embed each node as (x1, x2, 0)."""
        calls, midsurface = [], ParametricMap.midsurface

        def counted(self, x_p):
            calls.append(len(x_p))
            return midsurface(self, x_p)

        monkeypatch.setattr(ParametricMap, "midsurface", counted)
        triples, _, _ = _integrand_pairs(monkeypatch, terms, "identity", Regime("R1"))
        ((cylinder_bulk, _, cylinder_panels), *_), _, _ = _integrand_pairs(monkeypatch, terms, "cylinder", Regime("R1"))
        assert len(triples) == 5  # the bulk and four edges
        for integrand, oracle, panels in triples:
            for nodes in panels:
                expected = oracle(nodes).copy()
                calls.clear()
                assert integrand(nodes).tobytes() == expected.tobytes()
                assert calls == []
        cylinder_bulk(cylinder_panels[0])
        assert calls == [64]  # other maps still map their nodes

    @pytest.mark.parametrize("map_name", sorted(_INTEGRAND_MAPS))
    @pytest.mark.parametrize("terms", _TERM_SETS, ids="+".join)
    @pytest.mark.parametrize(
        "regime",
        [Regime("R1"), Regime("R2", alpha=1.0), Regime("R2", alpha=0.5), Regime("R2", alpha=0.7), Regime("R3")],
        ids=["R1", "R2-1", "R2-0.5", "R2-0.7", "R3"],
    )
    def test_stacked_panels_give_the_bytes_of_one_call_per_panel(self, monkeypatch, terms, map_name, regime):
        # The quadrature hands a declared integrand a round's panels at once, each with the
        # ascending indices of the columns (observation points) it still refines there, and
        # takes the values back in (panel, column, node) order: the domain's five panels,
        # then random boxes up to STACK_PAIRS node x column pairs (the bulk) or 64 panels
        # (an edge), every panel on every column, one, two, or a random subset of its own.
        triples, fields, grid = _integrand_pairs(monkeypatch, terms, map_name, regime)
        rng = np.random.default_rng(11)
        every = np.arange(grid.n_points)
        for integrand, _, panels in triples:
            assert integrand.columns == grid.n_points
            n, shape = panels.shape[1], panels.shape[2:]
            for cols in (every, np.array([1]), np.array([0, 2]), None):
                count = quadrature.STACK_PAIRS // (n * (2 if cols is None else len(cols))) if shape else 64
                a, b = panels.min(axis=(0, 1)), panels.max(axis=(0, 1))  # inside the domain or the edge
                lo = a + (b - a) * rng.uniform(0.0, 0.9, (count - len(panels),) + shape)
                hi = np.minimum(lo + (b - a) * rng.uniform(0.01, 0.5, lo.shape), b)
                nodes = np.concatenate([panels, _panels(lo, hi)[0]])
                for joined in (nodes[: len(panels)], nodes):
                    x = joined.reshape((-1,) + shape)
                    own = [
                        np.sort(rng.choice(every, rng.integers(1, len(every) + 1), replace=False)) if cols is None else cols
                        for _ in joined
                    ]
                    counts = np.array([len(c) for c in own])
                    values = integrand(x, np.concatenate(own), counts).copy()
                    assert values.shape == (counts.sum(), n)
                    plain = integrand(x).copy()  # f(x): one panel of every node, every column, (N, M)
                    assert plain.shape == (len(joined) * n, len(every))
                    expected = np.concatenate([plain[k * n : (k + 1) * n, c].T for k, c in enumerate(own)])
                    assert values.tobytes() == expected.tobytes()
                    if cols is every:
                        for k, panel in enumerate(joined):
                            rows = values[k * len(every) : (k + 1) * len(every)]
                            assert rows.tobytes() == np.ascontiguousarray(integrand(panel).T).tobytes()


class TestBoundaryIntegral:
    def test_smooth_density_against_dense_gauss_sums(self, monkeypatch):
        """One edge integral per edge over a smooth, non-constant line density,
        against dense Gauss sums: the edges of homogenized_potential under R2
        with alpha = 1.5 (c_p = 1.5), each at tol / 8 = 1e-13, with the bulk
        integral captured away."""
        stretched = ParametricMap.scaled(UNIT, (2.0, 1.0, 1.0))  # psi = (2 x1, x2, 0), J0 = 2
        p_p = lambda x: np.stack([np.cos(np.asarray(x)[..., 1]), np.asarray(x)[..., 0] ** 2], axis=-1)
        rho = {
            "right": lambda x: 0.7 * np.sin(3.0 * np.asarray(x)[..., 1]) - 0.2,
            "left": lambda x: 0.25 + np.asarray(x)[..., 1] ** 2,
        }
        obs = np.array([[2.3, 0.4, 0.3], [1.0, 0.5, 0.6], [-0.2, 0.9, 0.25]])
        fields = prescribed_fields(stretched, p_p=p_p, boundary_charge=rho)
        bulk = []
        monkeypatch.setattr(potential, "adaptive_rectangle", lambda f, *args, **kwargs: bulk.append(f) or 0.0)
        grid = ObservationGrid.from_points(obs, stretched)
        value = homogenized_potential(fields, Regime("R2", alpha=1.5), stretched, grid, tol=8e-13, max_depth=12).values
        assert len(bulk) == 1

        expected = np.zeros(len(obs))
        for edge in UNIT.edges():
            s, w = gauss_nodes(200, *edge.s_range)
            x_p = edge.points(s)
            point = np.stack([2.0 * x_p[:, 0], x_p[:, 1], np.zeros(len(s))], axis=-1)
            line = rho[edge.name](x_p) if edge.name in rho else 0.0
            density = line + 2.0 * (p_p(x_p) @ np.asarray(edge.normal))
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


def _green(rows, point, cols, normal):
    """G and dG/dnu' (N, len(cols)) at one panel's nodes, from the kernel with unit densities."""
    one, ones = [len(cols)], np.ones(len(point))
    G = _kernel(rows)(point, cols, one, ones)
    dGn = _kernel(rows)(point, cols, one, None, normal, ones)
    return G.T.copy(), dGn.T.copy()


class TestComponentwiseDistances:
    """The kernel's per-component arithmetic equals the (N, M, 3) np.sum formulas bitwise:
    G = 1 / sqrt(sum(diff**2)) and dG/dnu' = G*G*G * sum(diff * nu), one row per
    (panel, point) pair."""

    CYL = ParametricMap.cylinder(UNIT, radius=2.0)

    def test_kernel_matches_summed_formula(self):
        rng = np.random.default_rng(3)
        x_p = rng.uniform(0.0, 1.0, (200, 2))
        obs = rng.uniform(-1.0, 2.0, (37, 3))
        fr = surface_frame(self.CYL, x_p)
        rows = np.ascontiguousarray(obs.T)
        every, one_panel = np.arange(37), np.array([37])
        G, dGn = _green(rows, fr.point, every, fr.normal)
        diff = obs[None, :, :] - fr.point[:, None, :]
        G_ref = 1.0 / np.sqrt(np.sum(diff * diff, axis=-1))
        np.testing.assert_array_equal(G, G_ref)
        np.testing.assert_array_equal(dGn, G_ref * G_ref * G_ref * np.sum(diff * fr.normal[:, None, :], axis=-1))
        # densities scale each term, each product rounded before the sum
        rng_d = np.random.default_rng(4)
        q, p3 = rng_d.uniform(-1.0, 1.0, 200), rng_d.uniform(-1.0, 1.0, 200)
        both = _kernel(rows)(fr.point, every, one_panel, q, fr.normal, p3)
        assert both.T.tobytes() == (G * q[:, None] + dGn * p3[:, None]).tobytes()

    @pytest.mark.parametrize("normals", [False, True])
    def test_a_column_subset_gives_those_columns_bytes(self, normals):
        """Three stacked panels of 64 nodes, each on its own ascending columns: every row
        is bitwise that point's row of the kernel on every column at the panel's nodes,
        for a single column, a few, all of them and a different subset per panel, in one
        kernel whose buffer serves every call."""
        rng = np.random.default_rng(6)
        obs = rng.uniform(-1.0, 2.0, (25, 3))
        rows = np.ascontiguousarray(obs.T)
        fr = surface_frame(self.CYL, rng.uniform(0.0, 1.0, (192, 2)))
        q, p3 = rng.uniform(-1.0, 1.0, (2, 192))

        def call(kernel, k, cols, counts):
            """The kernel on the first k panels of 64 nodes, with a double layer if ``normals``."""
            if normals:
                return kernel(fr.point[: 64 * k], cols, counts, q[: 64 * k], fr.normal[: 64 * k], p3[: 64 * k])
            return kernel(fr.point[: 64 * k], cols, counts, q[: 64 * k])

        every = np.arange(25)
        full = call(_kernel(rows), 3, every, [25]).copy()  # one panel of 192 nodes
        kernel = _kernel(rows)
        for own in ([[7]] * 3, [[0, 24]] * 3, [[3, 4, 5, 11, 20]] * 3, [every] * 3, [[7], every, [0, 24]], [[7]] * 3):
            own = [np.array(c) for c in own]
            for k in (3, 1):  # all three panels stacked, then the first alone
                got = call(kernel, k, np.concatenate(own[:k]), np.array([len(c) for c in own[:k]]))
                expected = np.concatenate([full[c, 64 * j : 64 * (j + 1)] for j, c in enumerate(own[:k])])
                assert got.tobytes() == expected.tobytes()

    def test_planar_points_give_the_bytes_of_embedded_ones(self):
        """Planar points (N, 2) are the points (x1, x2, 0): dz is the rows' z, so G
        is bitwise that of the embedded points for rows with z = +0.0, -0.0, < 0
        and > 0, on one panel or several stacked, through one buffer shared with
        embedded and double-layer calls and made again for more pairs."""
        rng = np.random.default_rng(5)
        obs = rng.uniform(-1.0, 2.0, (16, 3))
        obs[:4, 2], obs[4:8, 2], obs[8:12, 2] = 0.0, -0.0, -rng.uniform(0.01, 1.0, 4)
        assert np.signbit(obs[4:8, 2]).all()
        rows = np.ascontiguousarray(obs.T)
        kernel = _kernel(rows)
        for n, panels, cols in ((64, 1, range(16)), (8, 4, range(16)), (64, 16, [5]), (64, 2, [4, 9]), (64, 32, range(16))):
            cols, counts = np.tile(cols, panels), np.full(panels, len(cols))
            x_p = rng.uniform(0.0, 1.0, (n * panels, 2))
            density = rng.uniform(-1.0, 1.0, n * panels)
            embedded = IDENT.midsurface(x_p)
            expected = _kernel(rows)(embedded, cols, counts, density).copy()
            assert kernel(x_p, cols, counts, density).tobytes() == expected.tobytes()
            kernel(embedded, cols, counts, density, np.tile([0.0, 0.0, 1.0], (len(x_p), 1)), density)  # six slabs
            assert kernel(embedded, cols, counts, density).tobytes() == expected.tobytes()

    def test_reused_buffers_give_the_bytes_of_fresh_ones(self):
        """One kernel over several panels, node counts, column subsets and calls with
        and without a double layer (as the bulk and edge integrals of one potential
        share it) gives the bytes of a fresh kernel per panel; every call writes into
        one buffer, made again only for more slabs of node x column pairs than it holds."""
        rng = np.random.default_rng(4)
        rows = np.ascontiguousarray(rng.uniform(-1.0, 2.0, (9, 3)).T)
        kernel = _kernel(rows)
        results = []
        # the buffer holds 6 x 64 x 9 values for the first three calls, then 3 x 1024 x 9
        calls = [(64, range(9), 1), (8, [2], 0), (64, [0, 3, 5], 1), (1024, range(9), 0), (8, [1, 2], 1), (320, range(9), 1)]
        for n, cols, layer in calls:
            cols = np.array(cols)
            fr = surface_frame(self.CYL, rng.uniform(0.0, 1.0, (n, 2)))
            q, p3 = rng.uniform(-1.0, 1.0, (2, n))
            double = (fr.normal, p3) if layer else ()
            G = kernel(fr.point, cols, [len(cols)], q, *double)
            G_ref = _kernel(rows)(fr.point, cols, [len(cols)], q, *double)
            assert G.flags.c_contiguous
            assert G.tobytes() == G_ref.tobytes()
            results.append(G)
        assert all(np.shares_memory(results[0], G) for G in results[1:3])
        assert all(np.shares_memory(results[3], G) for G in results[4:])
        assert not np.shares_memory(results[0], results[3])


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
        """The CLI's potential.csv: scenario line, header, and each microscopic
        row carrying its point, the direct sum's value and its provenance."""
        points = [[0.5, 0.5, 3.0], [1.0, 2.0, 1.0]]
        config = tmp_path / "scenario.json"
        config.write_text(
            json.dumps(
                {
                    "motif": {"points": [{"w": p.w, "y": list(p.y), "z": p.z} for p in PLANAR_DIPOLE.points]},
                    "regime": {"kind": "R2", "alpha": 1.0},
                    "schedule": {"l": [0.25]},
                    "grid": {"kind": "points", "points": points},
                    "output": {"dir": str(tmp_path / "out")},
                }
            )
        )
        assert main(["potential", "--config", str(config)]) == 0
        t = tessellate(UNIT, 0.25, SQUARE)
        d = realize(PLANAR_DIPOLE, t, IDENT, 0.25, 0.25, Regime("R2", alpha=1.0))
        sample = direct_potential(d, ObservationGrid.from_points(points, IDENT), standoff_factor=0.0)
        lines = (tmp_path / "out" / "potential.csv").read_text().splitlines()
        assert lines[0] == f"# scenario={parse_config(config).scenario_hash} green=1/r"
        assert lines[1] == "x,y,z,phi,provenance"
        assert len(lines) == 2 + 2 * len(points)  # one microscopic block, then the homogenized one
        for line, p, v in zip(lines[2:], points, sample.values):
            row = line.split(",")
            assert [float(x) for x in row[:4]] == p + [v]
            assert row[4] == sample.provenance