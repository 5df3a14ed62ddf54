import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmhomog import EmptyTessellation, Rectangle, UnitCellChoice, cell_index, tessellate
from filmhomog.lattice import _clip_to_rectangle
from reference import clip_polygon_to_rectangle, covered_area, loop_tessellation, sample

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
SQUARE = UnitCellChoice()
HALF_SHIFT = UnitCellChoice(f=(0.5, 0.5))
SHEARED = UnitCellChoice(e2=(0.5, 1.0))
WIDE = UnitCellChoice(e1=(2.0, 0.0))
GENERAL = UnitCellChoice(e1=(1.0, 0.3), e2=(-0.2, 1.1), f=(0.3, 0.1), origin=(0.05, -0.02))


class TestTessellate:
    def test_exact_tiling(self):
        t = tessellate(UNIT, 0.25, SQUARE)
        assert len(t.full_cells) == 16
        assert len(t.partial_cells) == 0

    def test_incommensurate(self):
        t = tessellate(UNIT, 0.3, SQUARE)
        assert len(t.full_cells) == 9
        assert len(t.partial_cells) == 7

    def test_half_shifted(self):
        t = tessellate(UNIT, 0.25, HALF_SHIFT)
        assert len(t.full_cells) == 9
        assert len(t.partial_cells) == 16

    def test_incommensurate_counts_by_interval_arithmetic(self):
        # independent count: 1D overlap classification per axis
        l = 0.3
        full_1d = [k for k in range(-1, 5) if k * l >= -1e-12 and (k + 1) * l <= 1 + 1e-12]
        cut_1d = [
            k
            for k in range(-1, 5)
            if min(1, (k + 1) * l) - max(0, k * l) > 1e-12 and k not in full_1d
        ]
        n_full = len(full_1d) ** 2
        n_partial = (len(full_1d) + len(cut_1d)) ** 2 - n_full
        t = tessellate(UNIT, l, SQUARE)
        assert (len(t.full_cells), len(t.partial_cells)) == (n_full, n_partial)

    @pytest.mark.parametrize("l,choice", [(0.25, SQUARE), (0.3, SQUARE), (0.25, HALF_SHIFT), (0.17, HALF_SHIFT)])
    def test_area_partition(self, l, choice):
        t = tessellate(UNIT, l, choice)
        assert covered_area(t) == pytest.approx(1.0, rel=1e-10)  # the unit square

    def test_partial_cells_meet_complement(self):
        t = tessellate(UNIT, 0.3, SQUARE)
        for corner in t.corners[t.n_full :]:
            uncut = corner + 0.3 * np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
            assert not np.all(UNIT.contains(uncut, tol=1e-12))

    def test_refinement_quadruples_full_cells(self):
        n1 = len(tessellate(UNIT, 1 / 8, SQUARE).full_cells)
        n2 = len(tessellate(UNIT, 1 / 16, SQUARE).full_cells)
        assert n2 == 4 * n1

    def test_no_full_cell_warns(self):
        with pytest.warns(EmptyTessellation):
            t = tessellate(Rectangle((0.0, 0.0), (0.4, 0.4)), 0.9, SQUARE)
        assert t.n_full == 0
        assert covered_area(t) == pytest.approx(0.16, rel=1e-10)

    def test_oblique_basis_area(self):
        oblique = UnitCellChoice(e1=(1.0, 0.0), e2=(0.5, 1.0))
        t = tessellate(UNIT, 0.25, oblique)
        assert covered_area(t) == pytest.approx(1.0, rel=1e-10)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            tessellate(UNIT, 0.0, SQUARE)
        with pytest.raises(ValueError):
            tessellate(UNIT, 1.5, SQUARE)

    def test_rejects_degenerate_basis(self):
        with pytest.raises(ValueError):
            UnitCellChoice(e1=(1.0, 0.0), e2=(2.0, 0.0))


@pytest.mark.parametrize("l", [1 / 4, 0.13, 0.07, 1 / 32, 1 / 128, 0.01])
@pytest.mark.parametrize("choice", [SQUARE, HALF_SHIFT, SHEARED, WIDE, GENERAL], ids=["square", "half", "sheared", "wide", "general"])
@pytest.mark.parametrize(
    "domain", [UNIT, Rectangle((0.0, 0.0), (0.9, 1.0)), Rectangle((1.0, 1.0), (3.0, 2.0))], ids=["unit", "narrow", "offset"]
)
def test_array_clip_matches_scalar_clip(domain, choice, l):
    """The array clip keeps the cells, corners and order of one scalar clip per cell."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyTessellation)
        t = tessellate(domain, l, choice)
    indices, corners, n_full, areas = loop_tessellation(domain, l, choice)
    np.testing.assert_array_equal(t.indices, indices)
    np.testing.assert_array_equal(t.corners, corners)
    assert t.n_full == n_full
    np.testing.assert_allclose(t.clip_areas, areas, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "domain,choice,l",
    [(UNIT, SHEARED, 0.13), (Rectangle((0.0, 0.0), (0.9, 1.0)), GENERAL, 0.07), (Rectangle((1.0, 1.0), (3.0, 2.0)), UnitCellChoice(e2=(0.5, 1.0), f=(0.3, 0.6)), 0.3)],
)
def test_array_clip_vertices_match_scalar_clip(domain, choice, l):
    """Every cell of the candidate box clips to the scalar clip's vertices, bitwise and in order."""
    m_lo = np.floor(choice.basis_coords(domain.corners(), l).min(axis=0)).astype(int) - 1
    m_hi = np.ceil(choice.basis_coords(domain.corners(), l).max(axis=0)).astype(int) + 1
    index = np.stack(np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(m_lo, m_hi)), indexing="ij"), -1).reshape(-1, 2)
    polys = choice.corner(index, l)[:, None, :] + choice.planar(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float), l)
    clipped, count = _clip_to_rectangle(polys, domain)
    assert set(count.tolist()) > {0, 4}  # outside, inside and cut cells alike
    for poly, got, n in zip(polys, clipped, count):
        np.testing.assert_array_equal(got[:n], clip_polygon_to_rectangle(poly, domain))


class TestSliverCells:
    """A cell that meets the domain in a point or a roundoff-thin strip has no area
    and is not a partial cell, wherever the domain sits."""

    @pytest.mark.parametrize(
        "domain,l,choice,slivers",
        [
            (Rectangle((0.0, 0.0), (0.9, 1.0)), 0.01, SHEARED, [(48, 84)]),
            (Rectangle((10.0, 10.0), (11.0, 11.0)), 0.1, SHEARED, [(46, 105), (48, 101)]),
            (
                Rectangle((1.0, 1.0), (3.0, 2.0)),
                0.01,
                GENERAL,
                [(133, 55), (144, 52), (188, 40), (199, 37), (221, 31), (232, 28), (243, 25), (276, 16)],
            ),
        ],
    )
    def test_corner_touching_cells_dropped(self, domain, l, choice, slivers):
        t = tessellate(domain, l, choice)
        listed = {tuple(m) for m in t.indices.tolist()}
        assert listed.isdisjoint(slivers)
        # each named cell is a boundary-band candidate that touches the domain
        polys = choice.corner(np.array(slivers), l)[:, None, :] + choice.planar(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), l
        )
        assert np.all(np.any(domain.contains(polys, tol=t.tol), axis=1))
        assert not np.any(np.all(domain.contains(polys, tol=t.tol), axis=1))

    @pytest.mark.parametrize("shift", [(10.0, 10.0), (-3.7, 2.2), (1000.0, -50.0)])
    def test_translation_keeps_cells(self, shift):
        """Moving the domain and the cell origin together keeps every cell set."""
        ls = [0.25, 0.13, 0.1, 0.07, 1 / 16, 0.05, 1 / 32, 0.03, 0.01, 1 / 64, 1 / 128]
        cells = [SQUARE, HALF_SHIFT, SHEARED, WIDE, GENERAL, UnitCellChoice(e2=(0.5, 1.0), f=(0.3, 0.6))]
        moved = Rectangle(shift, (shift[0] + 1.0, shift[1] + 1.0))
        for choice in cells:
            origin = (choice.origin[0] + shift[0], choice.origin[1] + shift[1])
            there = UnitCellChoice(e1=choice.e1, e2=choice.e2, f=choice.f, origin=origin)
            for l in ls:
                a, b = tessellate(UNIT, l, choice), tessellate(moved, l, there)
                assert a.n_full == b.n_full, (choice, l)
                np.testing.assert_array_equal(a.indices, b.indices, err_msg=f"{choice} l={l}")


class TestCachedBasis:
    def test_basis_and_inverse_are_read_only(self):
        choice = UnitCellChoice(e2=(0.5, 1.0))
        for arr in (choice.basis, choice.basis_inv):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 1] = 7.0
        np.testing.assert_array_equal(choice.basis, [[1.0, 0.5], [0.0, 1.0]])
        np.testing.assert_array_equal(choice.basis_inv, [[1.0, -0.5], [0.0, 1.0]])
        assert choice.basis is choice.basis

    def test_equal_choices_compare_and_hash_equal(self):
        a, b = UnitCellChoice(e2=(0.5, 1.0)), UnitCellChoice(e2=(0.5, 1.0))
        a.basis_inv, a.cell_area  # cached on one of the two only
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != UnitCellChoice()


class TestCornerMap:
    def test_oblique_corners_match_plain_formula_bitwise(self):
        """corner, the corner of each point's containing cell, and place compute
        O + (c1 * l B[:, 0] + c2 * l B[:, 1]) exactly."""
        l = 0.13
        choice = UnitCellChoice(e2=(0.5, 1.0), f=(0.3, 0.6))
        t = tessellate(UNIT, l, choice)
        lb = [[l * choice.e1[0], l * choice.e2[0]], [l * choice.e1[1], l * choice.e2[1]]]

        def plain(c0, c1, base):
            return [base[i] + (c0 * lb[i][0] + c1 * lb[i][1]) for i in range(2)]

        f0, f1 = choice.f
        expected = [plain(m0 + f0, m1 + f1, choice.origin) for m0, m1 in t.indices.tolist()]
        np.testing.assert_array_equal(t.corners, expected)
        np.testing.assert_array_equal(choice.corner(t.indices, l), expected)
        planar, _ = t.place((0.3, 0.7))
        np.testing.assert_array_equal(planar, [plain(0.3, 0.7, c) for c in expected])
        np.testing.assert_array_equal(choice.corner(cell_index(planar, l, choice), l), expected)

    def test_basis_coords_of_a_point_alone_and_in_a_batch_are_bitwise_equal(self):
        pts = sample(UNIT, 200, np.random.default_rng(3))
        batch = GENERAL.basis_coords(pts.reshape(20, 10, 2), 0.13)
        alone = np.array([GENERAL.basis_coords(p, 0.13) for p in pts])
        np.testing.assert_array_equal(batch.reshape(-1, 2), alone)

    def test_plain(self):
        np.testing.assert_allclose(SQUARE.corner(cell_index(np.array([0.26, 0.01]), 0.25, SQUARE), 0.25), [0.25, 0.0])

    def test_on_corner_half_open(self):
        np.testing.assert_allclose(SQUARE.corner(cell_index(np.array([0.25, 0.25]), 0.25, SQUARE), 0.25), [0.25, 0.25])

    def test_shifted_origin_cell(self):
        np.testing.assert_allclose(
            HALF_SHIFT.corner(cell_index(np.array([0.05, 0.05]), 0.25, HALF_SHIFT), 0.25), [-0.125, -0.125]
        )

    def test_batch(self):
        pts = np.array([[0.26, 0.01], [0.77, 0.52]])
        corners = SQUARE.corner(cell_index(pts, 0.25, SQUARE), 0.25)
        np.testing.assert_allclose(corners, [[0.25, 0.0], [0.75, 0.5]])

    def test_point_minus_corner_in_cell(self):
        rng = np.random.default_rng(0)
        pts = sample(UNIT, 1000, rng)
        for choice, l in [(SQUARE, 0.3), (HALF_SHIFT, 0.25), (UnitCellChoice(e1=(1, 0.2), e2=(-0.1, 1)), 0.21)]:
            corners = choice.corner(cell_index(pts, l, choice), l)
            rel = (pts - corners) @ np.linalg.inv(choice.basis).T / l
            assert np.all(rel >= -1e-9)
            assert np.all(rel < 1.0 + 1e-9)


def listed_rows(t, pts):
    """Row of the tessellation listing each point's cell; exactly one must match."""
    match = np.all(cell_index(pts, t.l, t.choice)[:, None, :] == t.indices[None, :, :], axis=-1)
    assert np.all(np.count_nonzero(match, axis=1) == 1)
    return np.argmax(match, axis=1)


@settings(max_examples=40, deadline=None)
@given(
    l=st.floats(0.05, 0.9),
    fx=st.floats(0.0, 1.0, exclude_max=True),
    fy=st.floats(0.0, 1.0, exclude_max=True),
)
def test_partition_property(l, fx, fy):
    """Every sampled point lands in exactly one listed cell of its tessellation."""
    choice = UnitCellChoice(f=(fx, fy))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyTessellation)
        t = tessellate(UNIT, l, choice)
    rng = np.random.default_rng(42)
    pts = sample(UNIT, 200, rng)
    rel = (pts - t.corners[listed_rows(t, pts)]) @ np.linalg.inv(choice.basis).T / l
    assert np.all(rel >= -1e-9) and np.all(rel < 1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(l=st.floats(0.05, 0.9), fx=st.floats(0.0, 1.0, exclude_max=True))
def test_area_identity_property(l, fx):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyTessellation)
        t = tessellate(UNIT, l, UnitCellChoice(f=(fx, 0.25)))
    assert abs(covered_area(t) - 1.0) < 1e-10


def test_partition_ten_thousand_points():
    """Each of 1e4 random points lies in exactly one listed cell."""
    rng = np.random.default_rng(7)
    pts = sample(UNIT, 10_000, rng)
    for choice, l in [(SQUARE, 0.3), (HALF_SHIFT, 0.25)]:
        t = tessellate(UNIT, l, choice)
        rel = (pts - t.corners[listed_rows(t, pts)]) @ np.linalg.inv(choice.basis).T / l
        assert np.all(rel >= -1e-9) and np.all(rel < 1 + 1e-9)


def test_gauge_pair_same_coverage():
    ta = tessellate(UNIT, 0.25, SQUARE)
    tb = tessellate(UNIT, 0.25, HALF_SHIFT)
    assert covered_area(ta) == pytest.approx(covered_area(tb), rel=1e-12)
