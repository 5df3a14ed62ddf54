import math

import numpy as np
import pytest

from filmhomog import QuadratureNotConverged
from filmhomog.quadrature import adaptive_rectangle, adaptive_segment


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
        assert adaptive_segment(lambda s: s**5, 0.0, 1.0, tol=1e-13) == pytest.approx(1 / 6, abs=1e-13)

    def test_kernel(self):
        val = adaptive_segment(lambda s: 1.0 / np.sqrt(s**2 + 1.0), 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(math.asinh(1.0), abs=1e-12)

    def test_vector_valued(self):
        val = adaptive_segment(lambda s: np.stack([s, np.cos(s)], axis=-1), 0.0, math.pi, tol=1e-12)
        np.testing.assert_allclose(val, [math.pi**2 / 2, 0.0], atol=1e-12)

    def test_depth_cap(self):
        with pytest.raises(QuadratureNotConverged):
            adaptive_segment(lambda s: 1.0 / (np.abs(s - 0.31) + 1e-12), 0.0, 1.0, tol=1e-10, max_depth=4)


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
        # the first failing panel in depth-first order holds the singular line x = 0.1
        assert "2D panel [[0.0, 0.0], [0.125, 0.125]] at depth 3 (the cap)" in msg
        assert "largest in value column 2" in msg
        assert f"error {err.error_estimate:.3e} > {err.tolerance:.3e}" in msg

    def test_segment_message(self):
        with pytest.raises(QuadratureNotConverged) as info:
            adaptive_segment(lambda s: 1.0 / (np.abs(s - 0.31) + 1e-12), 0.0, 1.0, tol=1e-10, max_depth=4)
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
        assert len(shapes) == 133  # root + 4 children per split, 33 splits

    def test_segment_calls(self):
        shapes = []

        def peaked(s):
            shapes.append(s.shape)
            return 1.0 / ((s - 0.3) ** 2 + 1e-4)

        adaptive_segment(peaked, 0.0, 1.0, tol=1e-10)
        assert set(shapes) == {(8,)}
        assert len(shapes) == 87  # root + 2 children per split, 43 splits
