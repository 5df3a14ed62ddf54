import math

import numpy as np
import pytest

from filmhomog import QuadratureNotConverged, quadrature
from filmhomog.quadrature import BEST_FIRST_LEAVES, adaptive_rectangle, adaptive_segment
from reference import per_panel_estimates, recursive_rectangle, recursive_segment

_GAUSS_8_LAST_NODE = float(np.polynomial.legendre.leggauss(8)[0][-1])


def segment_box(s):
    """The panel [a, b] (rounded to 9 digits) whose 8 Gauss nodes are s."""
    mid, half = 0.5 * (s[-1] + s[0]), 0.5 * (s[-1] - s[0]) / _GAUSS_8_LAST_NODE
    return (round(mid - half, 9), round(mid + half, 9))


# three observation points (x, y, height) over the unit square: one value column each
OBS = np.array([[0.2, 0.3, 0.05], [0.7, 0.6, 0.2], [0.5, 0.5, 1.0]])


def kernel_2d(p):
    return 1.0 / np.sqrt((p[:, 0, None] - OBS[:, 0]) ** 2 + (p[:, 1, None] - OBS[:, 1]) ** 2 + OBS[:, 2] ** 2)


def kernel_1d(s):
    return 1.0 / np.sqrt((s[:, None] - OBS[:, 0]) ** 2 + OBS[:, 2] ** 2)


def striped_1d(s):
    """kernel_1d times 0 or 1 on alternate stripes of width 1/(1000 pi): thousands of jumps
    inside panels, whose errors no refinement short of the cap brings to roundoff."""
    return (np.floor(s * 1000.0 * np.pi) % 2.0)[:, None] * kernel_1d(s)


def peaked_2d(p):
    return 1.0 / ((p[:, 0] - 0.3) ** 2 + (p[:, 1] - 0.6) ** 2 + 1e-2)


def peaked_1d(s):
    return 1.0 / ((s - 0.3) ** 2 + 1e-4)


def two_columns_2d(p):
    return np.stack([np.exp(p[:, 0] * p[:, 1]), np.cos(3.0 * p[:, 0]) / (1.2 - p[:, 1])], axis=-1)


_COLUMNS = {kernel_2d: 3, kernel_1d: 3, striped_1d: 3, two_columns_2d: 2}  # values per node; 1 for the others


def segment(f, a, b, **kwargs):
    """adaptive_segment over [a, b] with no inner break, called like adaptive_rectangle."""
    return adaptive_segment(f, (a, b), **kwargs)


def recorded(f):
    """f and the list of raw inputs of its calls: one entry per panel."""
    calls = []

    def g(x):
        calls.append(np.asarray(x).tobytes())
        return f(x)

    return g, calls


def root_node_nan(f):
    """f with NaN at the fourth node of its first call, a node of the first root panel only."""
    root_node = []

    def g(x):
        if not root_node:
            root_node.append(x[3].copy())
        hit = np.all(x == root_node[0], axis=-1) if x.ndim > 1 else x == root_node[0]
        return np.where(hit, np.nan, f(x))

    return g


# Panel estimates of TestBreakPoints' unequal pieces, from a table as in TestGlobalBudget
UNEQUAL_PIECES = {(0.0, 0.125): 0.45, (0.25, 0.625): 0.6, (0.25, 0.4375): 0.6}


def unequal_pieces(s):
    """At the 8 nodes of each panel [a, b] in s, its table value over b - a, so its estimate is the table value."""
    boxes = [segment_box(nodes) for nodes in s.reshape(-1, 8)]
    return np.repeat([UNEQUAL_PIECES.get(box, 0.0) / (box[1] - box[0]) for box in boxes], 8)


def declared(f, columns):
    """f declared for stacked panels with ``columns`` values per node, called g(x, cols)
    with the columns of f's values that it returns, and the list of its calls'
    (nodes, cols)."""
    calls = []

    def g(x, cols):
        calls.append((np.array(x), np.array(cols)))
        values = np.asarray(f(x))
        return values[:, cols] if values.ndim > 1 else values

    g.columns = columns
    return g, calls


def column_panels(calls, c):
    """The raw inputs of the panels of declared ``calls`` that were evaluated for column c."""
    n = 8 ** calls[0][0].ndim  # nodes per panel: 8 flat (segment) or (64, 2) (rectangle)
    return [x[k : k + n].tobytes() for x, cols in calls if c in cols for k in range(0, len(x), n)]


def column_of(f, c):
    """Column c of f's values (N,) or (N, M), as an integrand of its own."""
    return lambda x: np.asarray(f(x)).reshape(len(x), -1)[:, c]


def live_leaves(ncalls, d):
    """Live leaves of a one-box tree after ncalls integrand calls: a root panel, 2^d per leaf, 2^d leaves per split."""
    splits = ((ncalls - 1) // 2**d - 1) // 2**d
    return 1 + (2**d - 1) * splits


class TestRectangle:
    def test_polynomial_exact(self):
        val = adaptive_rectangle(lambda p: p[:, 0] ** 3 * p[:, 1], (0, 0), (1, 2), tol=1e-12)
        assert val == pytest.approx(0.25 * 2.0, abs=1e-12)

    def test_smooth_kernel(self):
        # integral of 1/((x-0.5)^2 + (y-0.5)^2 + 1)^(1/2) over the unit square
        def f(p):
            return 1.0 / np.sqrt((p[:, 0] - 0.5) ** 2 + (p[:, 1] - 0.5) ** 2 + 1.0)

        val = adaptive_rectangle(f, (0, 0), (1, 1), tol=1e-10)
        x, w = np.polynomial.legendre.leggauss(120)
        s = 0.5 * (x + 1)
        W = np.outer(w, w) * 0.25
        X, Y = np.meshgrid(s, s, indexing="ij")
        dense = np.sum(W / np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2 + 1.0))
        assert val == pytest.approx(float(dense), abs=1e-10)

    def test_vector_valued(self):
        def f(p):
            return np.stack([p[:, 0], p[:, 1] ** 2], axis=-1)

        val = adaptive_rectangle(f, (0, 0), (1, 1), tol=1e-12)
        np.testing.assert_allclose(val, [0.5, 1 / 3], atol=1e-12)

    def test_anisotropic_domain(self):
        # the polar-disk parameter domain shape
        val = adaptive_rectangle(
            lambda p: np.sin(p[:, 1]) ** 2 * p[:, 0], (0.0, 0.0), (1.0, 2 * math.pi), tol=1e-11
        )
        assert val == pytest.approx(math.pi / 2, abs=1e-10)

    def test_depth_cap_raises(self):
        def nasty(p):
            return 1.0 / (np.abs(p[:, 0] - 0.37) + 1e-9)

        with pytest.raises(QuadratureNotConverged):
            adaptive_rectangle(nasty, (0, 0), (1, 1), tol=1e-12, max_depth=3)


class TestSegment:
    def test_polynomial(self):
        assert adaptive_segment(lambda s: s**5, (0.0, 1.0), tol=1e-13) == pytest.approx(1 / 6, abs=1e-13)

    def test_kernel(self):
        val = adaptive_segment(lambda s: 1.0 / np.sqrt(s**2 + 1.0), (0.0, 1.0), tol=1e-12)
        assert val == pytest.approx(math.asinh(1.0), abs=1e-12)

    def test_vector_valued(self):
        val = adaptive_segment(lambda s: np.stack([s, np.cos(s)], axis=-1), (0.0, math.pi), tol=1e-12)
        np.testing.assert_allclose(val, [math.pi**2 / 2, 0.0], atol=1e-12)

    def test_depth_cap(self):
        with pytest.raises(QuadratureNotConverged):
            adaptive_segment(lambda s: 1.0 / (np.abs(s - 0.31) + 1e-12), (0.0, 1.0), tol=1e-10, max_depth=4)


class TestBreakPoints:
    """adaptive_segment(f, points): each piece between neighbouring points is one root box."""

    BREAKS = (0.0, 0.3, 0.55, 1.0)
    STEPS = np.array([2.0, -1.0, 0.5])

    def step_exp(self, s):
        """exp(s) times a step that jumps at the inner break points."""
        return self.STEPS[np.searchsorted(self.BREAKS[1:-1], s, side="right")] * np.exp(s)

    def test_smooth_times_step(self):
        pieces = zip(self.BREAKS, self.BREAKS[1:], self.STEPS)
        exact = math.fsum(v * (math.exp(b) - math.exp(a)) for a, b, v in pieces)
        assert abs(adaptive_segment(self.step_exp, self.BREAKS, tol=1e-14) - exact) <= 1e-15

    def test_one_call_per_panel_inside_one_piece(self):
        g, calls = recorded(self.step_exp)
        adaptive_segment(g, self.BREAKS, tol=1e-14)
        assert {np.frombuffer(raw).shape for raw in calls} == {(8,)}
        boxes = [segment_box(np.frombuffer(raw)) for raw in calls]
        # each piece is smooth: its root panel and its two halves, nothing straddles a break
        expected = []
        for a, b in zip(self.BREAKS, self.BREAKS[1:]):
            m = 0.5 * (a + b)
            expected += [(a, b), (a, m), (m, b)]
        assert sorted(boxes) == sorted((round(a, 9), round(b, 9)) for a, b in expected)

    def test_the_jump_inside_a_panel_meets_the_cap(self):
        with pytest.raises(QuadratureNotConverged, match="at depth 12"):
            adaptive_segment(self.step_exp, (0.0, 1.0), tol=1e-14)

    def test_unequal_pieces_get_equal_shares(self):
        # UNEQUAL_PIECES (tol 1, two roots: share 1/2 each).  [0, 1/4] has error 0.45 and is
        # frozen; [1/4, 1] has error 0.6, above its share although within a share by length
        # (3/4), so it is split; its halves are exact.
        g, calls = recorded(unequal_pieces)
        value = adaptive_segment(g, (0.0, 0.25, 1.0), tol=1.0)
        boxes = [segment_box(np.frombuffer(raw)) for raw in calls]
        assert sorted(boxes) == sorted(
            [(0.0, 0.25), (0.0, 0.125), (0.125, 0.25), (0.25, 1.0), (0.25, 0.625), (0.625, 1.0)]
            + [(0.25, 0.4375), (0.4375, 0.625), (0.625, 0.8125), (0.8125, 1.0)]
        )
        assert value == pytest.approx(0.45 + 0.6, abs=1e-12)


class TestFailureContext:
    def test_rectangle_message_names_panel_depth_and_column(self):
        obs_x = np.array([0.9, 0.37, 0.1])

        def nasty(p):
            return 1.0 / (np.abs(p[:, 0, None] - obs_x) + 1e-9)

        with pytest.raises(QuadratureNotConverged) as info:
            adaptive_rectangle(nasty, (0, 0), (1, 1), tol=1e-12, max_depth=3)
        err = info.value
        assert err.error_estimate > err.tolerance
        msg = str(err)
        # the worst leaf, split first, holds the singular line x = 0.9
        assert "2D panel [[0.875, 0.0], [1.0, 0.125]] at depth 3 (the cap)" in msg
        assert "largest in value column 0" in msg
        assert f"error {err.error_estimate:.3e} > {err.tolerance:.3e}" in msg

    def test_segment_message(self):
        with pytest.raises(QuadratureNotConverged) as info:
            adaptive_segment(lambda s: 1.0 / (np.abs(s - 0.31) + 1e-12), (0.0, 1.0), tol=1e-10, max_depth=4)
        err = info.value
        assert err.error_estimate > err.tolerance
        assert "1D panel [0.25, 0.3125] at depth 4 (the cap)" in str(err)
        assert "largest in value column 0" in str(err)


class TestCallContract:
    """One integrand call is one panel: 8 flat nodes (segment) or (64, 2) points (rectangle)."""

    def test_rectangle_calls(self):
        shapes = []

        def peaked(p):
            shapes.append(p.shape)
            return 1.0 / ((p[:, 0] - 0.3) ** 2 + (p[:, 1] - 0.6) ** 2 + 1e-2)

        adaptive_rectangle(peaked, (0.0, 0.0), (1.0, 1.0), tol=1e-8)
        assert set(shapes) == {(64, 2)}
        assert len(shapes) == 117  # root + 4 child panels for each of 29 leaves, 7 of them split

    def test_segment_calls(self):
        shapes = []

        def peaked(s):
            shapes.append(s.shape)
            return 1.0 / ((s - 0.3) ** 2 + 1e-4)

        adaptive_segment(peaked, (0.0, 1.0), tol=1e-10)
        assert set(shapes) == {(8,)}
        assert len(shapes) == 79  # root + 2 child panels for each of 39 leaves, 19 of them split

    @pytest.mark.parametrize(
        "engine, f, lo, hi, tol",
        [(adaptive_rectangle, kernel_2d, (0.0, 0.0), (1.0, 1.0), 1e-9), (segment, kernel_1d, 0.0, 1.0, 1e-10)],
        ids=["rectangle", "segment"],
    )
    def test_a_returned_buffer_may_be_overwritten_by_the_next_call(self, engine, f, lo, hi, tol):
        """Each call's values are reduced before the next call, so an integrand may return one
        buffer that every call overwrites."""
        buffer = np.empty(0)

        def reused(x):
            nonlocal buffer
            values = f(x)
            if buffer.shape != values.shape:
                buffer = np.empty_like(values)
            np.copyto(buffer, values)
            return buffer

        g, calls = recorded(reused)
        value = engine(g, lo, hi, tol=tol)
        assert len(calls) > 5
        assert value.tobytes() == engine(f, lo, hi, tol=tol).tobytes()


class TestGlobalBudget:
    """Against the depth-first recursion that splits every box above its share tol / 2^depth."""

    CASES = {
        "rect_smooth": (adaptive_rectangle, recursive_rectangle, kernel_2d, (0.0, 0.0), (1.0, 1.0), 1e-9),
        "rect_peaked": (adaptive_rectangle, recursive_rectangle, peaked_2d, (0.0, 0.0), (1.0, 1.0), 1e-8),
        "rect_two_columns": (adaptive_rectangle, recursive_rectangle, two_columns_2d, (0.0, 0.0), (1.0, 1.0), 1e-9),
        "rect_anisotropic": (
            adaptive_rectangle,
            recursive_rectangle,
            lambda p: np.sin(p[:, 1]) ** 2 * p[:, 0],
            (0.0, 0.0),
            (1.0, 2 * math.pi),
            1e-11,
        ),
        "seg_smooth": (segment, recursive_segment, kernel_1d, 0.0, 1.0, 1e-10),
        "seg_peaked": (segment, recursive_segment, peaked_1d, 0.0, 1.0, 1e-10),
    }
    # (case, column) whose tree equals the recursion's on that column alone: there the values are bitwise equal
    SAME_TREE = {
        ("rect_anisotropic", 0),
        ("rect_smooth", 1),
        ("rect_smooth", 2),
        ("rect_two_columns", 0),
        ("rect_two_columns", 1),
        ("seg_smooth", 0),
        ("seg_smooth", 1),
        ("seg_smooth", 2),
    }
    EXACT = {
        "rect_anisotropic": math.pi / 2,
        "rect_two_columns": np.array(
            [math.fsum(1.0 / (math.factorial(n) * (n + 1) ** 2) for n in range(30)), math.sin(3.0) / 3.0 * math.log(6.0)]
        ),
        "seg_peaked": 100.0 * (math.atan(70.0) + math.atan(30.0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_within_tol(self, name):
        engine, reference, f, lo, hi, tol = self.CASES[name]
        exact = self.EXACT.get(name)
        if exact is None:
            exact = reference(f, lo, hi, tol=1e-3 * tol)
        assert np.max(np.abs(engine(f, lo, hi, tol=tol) - exact)) <= tol

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_tree_is_a_subtree_of_the_recursion(self, name):
        # per value column: every panel evaluated for column c is one that the recursion
        # evaluates when run on column c alone, and where the two trees are equal so are the bytes
        engine, reference, f, lo, hi, tol = self.CASES[name]
        g, calls = declared(f, _COLUMNS.get(f, 1))
        value = np.atleast_1d(engine(g, lo, hi, tol=tol))
        for c in range(len(value)):
            panels = column_panels(calls, c)
            ref_g, ref_calls = recorded(column_of(f, c))
            ref_value = reference(ref_g, lo, hi, tol=tol)
            assert len(set(panels)) == len(panels)
            assert set(panels) <= set(ref_calls)
            assert (set(panels) == set(ref_calls)) == ((name, c) in self.SAME_TREE)
            if (name, c) in self.SAME_TREE:
                assert value[c].tobytes() == np.asarray(ref_value).tobytes()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_depth_first_past_the_best_first_leaves(self, name, monkeypatch):
        # with the switch after 4 live leaves, every column still converges inside its recursion's tree
        monkeypatch.setattr(quadrature, "BEST_FIRST_LEAVES", 4)
        engine, reference, f, lo, hi, tol = self.CASES[name]
        g, calls = declared(f, _COLUMNS.get(f, 1))
        value = np.atleast_1d(engine(g, lo, hi, tol=tol))
        for c in range(len(value)):
            ref_g, ref_calls = recorded(column_of(f, c))
            ref_value = reference(ref_g, lo, hi, tol=tol)
            assert set(column_panels(calls, c)) <= set(ref_calls)
            assert abs(value[c] - ref_value) <= 2 * tol

    @pytest.mark.parametrize("name", ["rect_peaked", "seg_peaked"])
    def test_fewer_panels_on_peaked_integrands(self, name):
        engine, reference, f, lo, hi, tol = self.CASES[name]
        g, calls = recorded(f)
        ref_g, ref_calls = recorded(f)
        engine(g, lo, hi, tol=tol)
        reference(ref_g, lo, hi, tol=tol)
        assert len(calls) < len(ref_calls)

    def test_worst_leaf_first_and_frozen_leaf_never_split(self):
        # A piecewise-constant sampler: each panel [a, b] sees the value I / (b - a) at all its
        # nodes, so the panel estimate is I and every leaf error is set by the table below
        # (tol 1: shares 1/2 at depth 1, 1/4 at depth 2).  Errors: root 2; [0, 1/2] 0.45
        # (frozen, within its share 1/2); [1/2, 1] 0.6; its halves 0.3 each (a tie).
        integral = {
            (0.5, 1.0): 2.0,
            (0.0, 0.25): 0.45,
            (0.5, 0.75): 0.7,
            (0.75, 1.0): 0.7,
            (0.5, 0.625): 0.4,
            (0.75, 0.875): 0.4,
            (0.5, 0.5625): 0.4,
            (0.75, 0.8125): 0.4,
        }

        def sampler(s):
            box = segment_box(s)
            return np.full(s.shape, integral.get(box, 0.0) / (box[1] - box[0]))

        g, calls = recorded(sampler)
        ref_g, ref_calls = recorded(sampler)
        value = adaptive_segment(g, (0.0, 1.0), tol=1.0)
        recursive_segment(ref_g, 0.0, 1.0, tol=1.0)
        boxes = [segment_box(np.frombuffer(raw)) for raw in calls]
        # root, its halves, their children; then [1/2, 3/4] (older of the tie) is split, not
        # the frozen [0, 1/2], and the summed error 0.45 + 0.3 is within tol
        assert sorted(boxes) == sorted(
            [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
            + [(0.5, 0.625), (0.625, 0.75), (0.75, 0.875), (0.875, 1.0)]
            + [(0.5, 0.5625), (0.5625, 0.625), (0.625, 0.6875), (0.6875, 0.75)]
        )
        assert set(calls) < set(ref_calls)
        assert value == pytest.approx(0.45 + 0.4 + 0.4, abs=1e-12)

    def test_small_leaf_error_is_not_lost_beside_a_large_one(self):
        # A constant power of two per panel makes every panel a power of two times the
        # rule's weight sum S, so each leaf error is exact: root 1024 S, [0, 1/2] 1024 S,
        # [1/2, 1] 2^-47 S ~ 1.4e-14 > tol, which vanishes when added to 2048.  Once
        # [0, 1/2] is split the summed estimate is 1.4e-14, so [1/2, 1] must split too.
        value = {(0.0, 0.5): 4096.0, (0.5, 0.75): 2.0**-44, (0.5, 0.625): 2.0**-43}

        def sampler(s):
            return np.full(s.shape, value.get(segment_box(s), 0.0))

        g, calls = recorded(sampler)
        adaptive_segment(g, (0.0, 1.0), tol=1e-14)
        boxes = [segment_box(np.frombuffer(raw)) for raw in calls]
        assert sorted(boxes) == sorted([(k / 2**j, (k + 1) / 2**j) for j in range(4) for k in range(2**j)])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_reproducible_bytes(self, name):
        engine, _, f, lo, hi, tol = self.CASES[name]
        assert np.asarray(engine(f, lo, hi, tol=tol)).tobytes() == np.asarray(engine(f, lo, hi, tol=tol)).tobytes()

    @pytest.mark.parametrize(
        "engine, reference, f, lo, hi, tol",
        [
            (segment, recursive_segment, kernel_1d, 0.0, 1.0, 1e-15),
            (segment, recursive_segment, peaked_1d, 0.0, 1.0, 1e-13),
            (adaptive_rectangle, recursive_rectangle, kernel_2d, (0.0, 0.0), (1.0, 1.0), 1e-15),
        ],
        ids=["seg_smooth", "seg_peaked", "rect_smooth"],
    )
    def test_no_share_below_roundoff(self, engine, reference, f, lo, hi, tol):
        # the recursion's share at the depth cap, tol / 2^(d * 12), is below the panels' roundoff
        with pytest.raises(QuadratureNotConverged, match="at depth 12"):
            reference(f, lo, hi, tol=tol)
        value = engine(f, lo, hi, tol=tol)
        assert np.max(np.abs(value - reference(f, lo, hi, tol=1e-11))) <= 1e-11


class TestNaN:
    @pytest.mark.parametrize(
        "engine, f, lo, hi",
        [
            (segment, lambda s: np.where(s > 0.6, np.nan, s), 0.0, 1.0),
            (adaptive_rectangle, lambda p: np.where(p[:, 0] > 0.6, np.nan, p[:, 1]), (0, 0), (1, 1)),
        ],
        ids=["segment", "rectangle"],
    )
    def test_nan_integrand_raises(self, engine, f, lo, hi):
        with pytest.raises(QuadratureNotConverged):
            engine(f, lo, hi)

    @pytest.mark.parametrize(
        "engine, f, lo, hi, tol",
        [
            (segment, peaked_1d, 0.0, 1.0, 1e-10),
            (adaptive_rectangle, peaked_2d, (0.0, 0.0), (1.0, 1.0), 1e-8),
        ],
        ids=["segment", "rectangle"],
    )
    def test_nan_at_a_root_panel_node_only(self, engine, f, lo, hi, tol):
        # the root's one-shot estimate is NaN, its children are finite: after the root split the
        # summed error is finite again, so the run is the one without the NaN, panel for panel
        g, calls = recorded(root_node_nan(f))
        clean_g, clean_calls = recorded(f)
        value = engine(g, lo, hi, tol=tol)
        clean_value = engine(clean_g, lo, hi, tol=tol)
        assert np.isfinite(value).all()
        assert calls == clean_calls
        assert np.asarray(value).tobytes() == np.asarray(clean_value).tobytes()


class TestOutOfReachTolerance:
    """A tolerance out of reach meets the depth cap after a few depth-first splits: below
    the 2D kernel's roundoff, and below the errors of a segment striped with jumps (a
    smooth segment's leaf errors fall to exactly 0 and meet any tolerance)."""

    @pytest.mark.parametrize(
        "engine, f, lo, hi, d",
        [(adaptive_rectangle, kernel_2d, (0.0, 0.0), (1.0, 1.0), 2), (segment, striped_1d, 0.0, 1.0, 1)],
        ids=["rectangle", "segment"],
    )
    def test_unreachable_tolerance_raises_at_the_cap(self, engine, f, lo, hi, d):
        g, calls = recorded(f)
        with pytest.raises(QuadratureNotConverged) as info:
            engine(g, lo, hi, tol=1e-18, max_depth=40)
        err = info.value
        msg = str(err)
        assert err.tolerance == 1e-18
        assert err.error_estimate > err.tolerance
        assert f"{d}D panel [" in msg and "at depth 40 (the cap)" in msg and "largest in value column" in msg
        assert f"summed error {err.error_estimate:.3e} > {err.tolerance:.3e}" in msg
        # breadth first would need 2^(40 d) leaves; past BEST_FIRST_LEAVES one chain goes down to the cap
        assert live_leaves(len(calls), d) <= BEST_FIRST_LEAVES + (2**d - 1) * 41


class TestDenseNearFilmGrid:
    def test_converges_where_the_recursion_does(self):
        # 64 observation points 0.002 above the unit square: 3328 live leaves at the end
        g = (np.arange(8) + 0.5) / 8
        x, y = [a.ravel() for a in np.meshgrid(g, g, indexing="ij")]

        def grid_kernel(p):
            return 1.0 / np.sqrt((p[:, 0, None] - x) ** 2 + (p[:, 1, None] - y) ** 2 + 0.002**2)

        f, calls = recorded(grid_kernel)
        ref_f, ref_calls = recorded(grid_kernel)
        value = adaptive_rectangle(f, (0.0, 0.0), (1.0, 1.0))
        ref_value = recursive_rectangle(ref_f, (0.0, 0.0), (1.0, 1.0))
        assert live_leaves(len(calls), 2) > 2048
        assert len(calls) < len(ref_calls)
        assert np.max(np.abs(value - ref_value)) <= 2e-9


def _nasty_columns(p):
    return 1.0 / (np.abs(p[:, 0, None] - np.array([0.9, 0.37, 0.1])) + 1e-9)


# name -> (the engine call, a fresh integrand, its values per node): the integrands of
# TestGlobalBudget, TestBreakPoints, TestNaN, TestOutOfReachTolerance and TestFailureContext
_STACK_CASES = {
    **{
        name: (lambda g, e=engine, lo=lo, hi=hi, tol=tol: e(g, lo, hi, tol=tol), lambda f=f: f, _COLUMNS.get(f, 1))
        for name, (engine, _, f, lo, hi, tol) in TestGlobalBudget.CASES.items()
    },
    "breaks_step": (lambda g: adaptive_segment(g, TestBreakPoints.BREAKS, tol=1e-14), lambda: TestBreakPoints().step_exp, 1),
    "breaks_jump_at_cap": (lambda g: adaptive_segment(g, (0.0, 1.0), tol=1e-14), lambda: TestBreakPoints().step_exp, 1),
    "breaks_unequal_pieces": (lambda g: adaptive_segment(g, (0.0, 0.25, 1.0), tol=1.0), lambda: unequal_pieces, 1),
    "nan_segment": (lambda g: segment(g, 0.0, 1.0), lambda: lambda s: np.where(s > 0.6, np.nan, s), 1),
    "nan_rectangle": (
        lambda g: adaptive_rectangle(g, (0, 0), (1, 1)),
        lambda: lambda p: np.where(p[:, 0] > 0.6, np.nan, p[:, 1]),
        1,
    ),
    "nan_root_node_segment": (lambda g: segment(g, 0.0, 1.0, tol=1e-10), lambda: root_node_nan(peaked_1d), 1),
    "nan_root_node_rectangle": (
        lambda g: adaptive_rectangle(g, (0.0, 0.0), (1.0, 1.0), tol=1e-8),
        lambda: root_node_nan(peaked_2d),
        1,
    ),
    "out_of_reach_rectangle": (
        lambda g: adaptive_rectangle(g, (0.0, 0.0), (1.0, 1.0), tol=1e-18, max_depth=40),
        lambda: kernel_2d,
        3,
    ),
    "out_of_reach_segment": (lambda g: segment(g, 0.0, 1.0, tol=1e-18, max_depth=40), lambda: striped_1d, 3),
    "failure_rectangle": (
        lambda g: adaptive_rectangle(g, (0, 0), (1, 1), tol=1e-12, max_depth=3),
        lambda: _nasty_columns,
        3,
    ),
    "failure_segment": (
        lambda g: adaptive_segment(g, (0.0, 1.0), tol=1e-10, max_depth=4),
        lambda: lambda s: 1.0 / (np.abs(s - 0.31) + 1e-12),
        1,
    ),
}


def _outcome(run, g):
    """The result's bytes, or the type, message and figures of the QuadratureNotConverged raised."""
    try:
        return np.asarray(run(g)).tobytes()
    except QuadratureNotConverged as err:
        return type(err), str(err), repr(err.error_estimate), repr(err.tolerance)  # repr: NaN equals NaN


class TestStackedPanels:
    """An integrand that declares its ``columns`` gets several panels per call, at most
    STACK_PAIRS node x column pairs unless one panel alone is larger, on the same tree:
    the same panels, the same bytes and the same failure as one call per panel."""

    RAISES = {
        "breaks_jump_at_cap",
        "nan_segment",
        "nan_rectangle",
        "out_of_reach_rectangle",
        "out_of_reach_segment",
        "failure_rectangle",
        "failure_segment",
    }

    @pytest.mark.parametrize("best_first", [BEST_FIRST_LEAVES, 4], ids=["best_first", "depth_first_past_4"])
    @pytest.mark.parametrize("cap", [quadrature.STACK_PAIRS, 2**7], ids=["cap", "cap_2^7"])
    @pytest.mark.parametrize("name", sorted(_STACK_CASES))
    def test_same_tree_bytes_and_failure_as_one_call_per_panel(self, name, cap, best_first, monkeypatch):
        monkeypatch.setattr(quadrature, "STACK_PAIRS", cap)
        monkeypatch.setattr(quadrature, "BEST_FIRST_LEAVES", best_first)
        run, make, columns = _STACK_CASES[name]
        plain, plain_calls = recorded(make())
        g, calls = declared(make(), columns)
        expected = _outcome(run, plain)
        assert _outcome(run, g) == expected
        assert isinstance(expected, tuple) == (name in self.RAISES)
        n = 8 ** calls[0][0].ndim  # nodes per panel: 8 flat (segment) or (64, 2) (rectangle)
        panels = [x[k : k + n].tobytes() for x, _ in calls for k in range(0, len(x), n)]
        assert sorted(panels) == sorted(plain_calls)
        assert all(np.array_equal(cols, np.unique(cols)) for _, cols in calls)  # ascending, distinct
        assert np.array_equal(calls[0][1], np.arange(columns))  # the roots: every column
        assert all(len(x) * len(cols) <= cap or len(x) == n for x, cols in calls)
        assert all(len(x) == n for x, cols in calls if 2 * n * len(cols) > cap)  # a call of its own
        if 2 * n * columns <= cap:
            assert max(len(x) for x, _ in calls) > n  # stacked: the 2^d children of a root are one call


def observed(m, d):
    """An integrand over segments (d = 1) or rectangles (d = 2): the inverse
    distances from each node (x, y, 0), y = 0 on a segment, to m seeded
    points, values (N, m), or (N,) to one point for m = 0; each row depends
    on its node alone."""
    obs = np.random.default_rng(m).uniform(-0.5, 1.5, (max(m, 1), 3))

    def f(x):
        r2 = (np.reshape(x, (len(x), d))[:, :, None] - obs[:, :d].T) ** 2
        v = 1.0 / np.sqrt(r2.sum(axis=1) + obs[:, 2] ** 2)
        return v if m else np.ascontiguousarray(v[:, 0])

    return f


def reducing(f, m, plain):
    """f as the engine calls it, plain g(x) or declared g(x, cols) with max(m, 1) columns,
    and the node counts of its calls."""
    calls = []

    def g(x, *cols):
        calls.append(len(x))
        values = f(x)
        return values[:, cols[0]] if cols and m else values

    if not plain:
        g.columns = max(m, 1)
    return g, calls


class TestStackedReduction:
    """Each integrand call's weighted values are summed over the nodes by halving; every
    (box, column) estimate is byte for byte the per-panel estimate of
    ``reference.per_panel_estimates``, plain or declared, in and above the cap, for every
    column and for any subset of the columns."""

    @staticmethod
    def boxes(d, m):
        rng = np.random.default_rng(10 * m + d)
        lo = rng.uniform(0.0, 1.0, (37,) + (d,) * (d - 1))
        return lo, lo + rng.uniform(0.01, 0.5, lo.shape)

    @pytest.mark.parametrize("cap", [quadrature.STACK_PAIRS, 2**7], ids=["cap", "cap_2^7"])
    @pytest.mark.parametrize("plain", [True, False], ids=["plain", "declared"])
    @pytest.mark.parametrize("m", [0, 1, 3, 25, 400], ids=["(N,)", "M=1", "M=3", "M=25", "M=400"])
    @pytest.mark.parametrize("d", [1, 2], ids=["segments", "rectangles"])
    def test_estimates_are_the_per_panel_products(self, d, m, plain, cap, monkeypatch):
        monkeypatch.setattr(quadrature, "STACK_PAIRS", cap)
        lo, hi = self.boxes(d, m)
        f = observed(m, d)
        g, calls = reducing(f, m, plain)
        estimates = quadrature._estimates(g, lo, hi)
        expected = np.stack(per_panel_estimates(f, lo, hi))
        assert estimates.shape == expected.shape == (len(lo),) + (m,) * (m > 0)
        assert estimates.tobytes() == expected.tobytes()
        n = 8**d
        assert sum(calls) == len(lo) * n
        if plain or 2 * n * max(m, 1) > cap:
            assert set(calls) == {n}  # one panel per call
        else:
            assert max(calls) > n and all(c * max(m, 1) <= cap for c in calls)

    @pytest.mark.parametrize("cap", [quadrature.STACK_PAIRS, 2**7], ids=["cap", "cap_2^7"])
    @pytest.mark.parametrize("plain", [True, False], ids=["plain", "declared"])
    @pytest.mark.parametrize("m", [1, 3, 25, 400], ids=["M=1", "M=3", "M=25", "M=400"])
    @pytest.mark.parametrize("d", [1, 2], ids=["segments", "rectangles"])
    def test_any_column_subset_has_those_columns_bytes(self, d, m, plain, cap, monkeypatch):
        """The estimates for ascending columns ``cols`` are bitwise those columns of the
        per-panel estimates: a single column (the first, the last), a random subset and
        every column.  A declared integrand gets as many boxes per call as fit in the cap
        for len(cols) columns, a plain one each box alone."""
        monkeypatch.setattr(quadrature, "STACK_PAIRS", cap)
        lo, hi = self.boxes(d, m)
        f = observed(m, d)
        expected = np.stack(per_panel_estimates(f, lo, hi))
        rng = np.random.default_rng(m)
        subsets = [[0], [m - 1], np.sort(rng.choice(m, max(1, m // 2), replace=False)), np.arange(m)]
        n = 8**d
        for cols in map(np.asarray, subsets):
            g, calls = reducing(f, m, plain)
            estimates = quadrature._estimates(g, lo, hi, cols)
            assert estimates.shape == (len(lo), len(cols))
            assert estimates.tobytes() == expected[:, cols].tobytes()
            if plain or 2 * n * len(cols) > cap:
                assert set(calls) == {n}
            else:
                assert max(calls) > n and all(c * len(cols) <= cap for c in calls)


class TestInvalidArguments:
    """Inputs that make no integral are a ValueError naming the argument."""

    @pytest.mark.parametrize("points", [[0.5], [], 0.5], ids=["one", "none", "scalar"])
    def test_segment_needs_two_break_points(self, points):
        with pytest.raises(ValueError, match="two break points"):
            adaptive_segment(kernel_1d, points)

    @pytest.mark.parametrize("columns", [0, -3])
    @pytest.mark.parametrize("engine", ["segment", "rectangle"])
    def test_declared_columns_below_one(self, engine, columns):
        f, _ = declared(kernel_2d if engine == "rectangle" else kernel_1d, columns)
        with pytest.raises(ValueError, match="columns must be at least 1"):
            if engine == "rectangle":
                adaptive_rectangle(f, (0.0, 0.0), (1.0, 1.0))
            else:
                segment(f, 0.0, 1.0)
