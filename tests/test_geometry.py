import math
from dataclasses import dataclass

import numpy as np
import pytest

from filmhomog import (
    DegenerateFrame,
    Edge,
    ParametricMap,
    Rectangle,
    surface_frame,
)
from filmhomog.moments import _j0_at
from reference import prescribed_fields, sample, surface_divergence_term

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))


@pytest.fixture
def identity():
    return ParametricMap.identity(UNIT)


@pytest.fixture
def cylinder():
    return ParametricMap.cylinder(UNIT, 2.0)


def fd_tangents(pmap, x_p, step=1e-6):
    """Central differences of the mid-surface, (..., 3, 2) like ``pmap.tangents``."""
    columns = []
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = step
        columns.append((pmap.midsurface(x_p + dx) - pmap.midsurface(x_p - dx)) / (2 * step))
    return np.stack(columns, axis=-1)


class TestTangents:
    def test_identity_is_exactly_the_planar_columns_of_eye(self, identity):
        T = identity.tangents(sample(UNIT, 50, np.random.default_rng(7)))
        assert T.shape == (50, 3, 2)
        assert (T == np.eye(3)[:, :2]).all()
        assert (identity.tangents([0.3, 0.7]) == np.eye(3)[:, :2]).all()

    @pytest.mark.parametrize(
        "make_map",
        [
            lambda: ParametricMap.scaled(UNIT, (1.7, -0.3, 1.0)),
            lambda: ParametricMap.cylinder(UNIT, 2.0),
            lambda: ParametricMap.polar_disk(1.5),
            lambda: ParametricMap(UNIT, _sheared, _sheared_tangents, lipschitz=SHEARED_LIPSCHITZ),
        ],
        ids=["scaled", "cylinder", "disk", "sheared"],
    )
    def test_match_central_differences_of_the_midsurface(self, make_map):
        pmap = make_map()
        x_p = sample(pmap.domain, 100, np.random.default_rng(7))
        T = pmap.tangents(x_p)
        assert T.shape == (100, 3, 2)
        np.testing.assert_allclose(T, fd_tangents(pmap, x_p), rtol=0.0, atol=1e-8)


class TestSurfaceFrame:
    def test_identity(self, identity):
        fr = surface_frame(identity, [0.4, 0.9])
        np.testing.assert_allclose(fr.normal, [0.0, 0.0, 1.0], atol=1e-15)
        assert _j0_at(identity, [0.4, 0.9]) == 1.0

    def test_cylinder_outward_radial(self, cylinder):
        fr = surface_frame(cylinder, [0.0, 0.0])
        np.testing.assert_allclose(fr.normal, [1.0, 0.0, 0.0], atol=1e-15)
        assert _j0_at(cylinder, [0.0, 0.0]) == pytest.approx(1.0, rel=1e-12)

    def test_inplane_scaling(self):
        stretched = ParametricMap.scaled(UNIT, (2.0, 2.0, 1.0))
        assert _j0_at(stretched, [0.5, 0.5]) == pytest.approx(4.0, rel=1e-14)

    def test_orthonormality_random_points(self, cylinder):
        x_p = sample(UNIT, 100, np.random.default_rng(3))
        fr, T = surface_frame(cylinder, x_p), cylinder.tangents(x_p)
        norms = np.linalg.norm(fr.normal, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert np.max(np.abs(np.sum(fr.normal * T[..., 0], axis=-1))) < 1e-10
        assert np.max(np.abs(np.sum(fr.normal * T[..., 1], axis=-1))) < 1e-10

    def test_cylinder_j0_identically_one(self, cylinder):
        rng = np.random.default_rng(11)
        np.testing.assert_allclose(_j0_at(cylinder, sample(UNIT, 200, rng)), 1.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "make_map",
        [
            lambda: ParametricMap.identity(UNIT),
            lambda: ParametricMap.scaled(UNIT, (1.7, 0.3, 1.0)),
            lambda: ParametricMap.cylinder(UNIT, 2.0),
            lambda: ParametricMap.polar_disk(1.5),
            lambda: ParametricMap(UNIT, _sheared, _sheared_tangents, lipschitz=SHEARED_LIPSCHITZ),  # all three normal components non-zero
        ],
        ids=["identity", "scaled", "cylinder", "polar_disk", "sheared"],
    )
    def test_bitwise_equal_to_numpy_cross_and_norm(self, make_map):
        pmap = make_map()
        rng = np.random.default_rng(5)
        x_p = sample(pmap.domain, 500, rng)
        T = pmap.tangents(x_p)
        cross = np.cross(T[..., 0], T[..., 1])
        j0 = np.linalg.norm(cross, axis=-1)
        normal = surface_frame(pmap, x_p).normal
        assert normal.tobytes() == (cross / j0[..., None]).tobytes()
        assert surface_frame(pmap, x_p[7]).normal.tobytes() == normal[7].tobytes()
        assert _j0_at(pmap, x_p).tobytes() == j0.tobytes()  # the moment tables' J0, without a frame
        assert _j0_at(pmap, x_p[7]) == j0[7]

    def test_parallel_tangents_raise_in_a_frame_and_leave_j0_undefined(self):
        collapse = ParametricMap(UNIT, _collapse, _collapse_tangents, lipschitz=math.sqrt(2.0))
        with pytest.raises(DegenerateFrame, match="parallel"):
            surface_frame(collapse, np.array([[0.5, 0.5]]))
        assert np.isnan(_j0_at(collapse, np.array([[0.5, 0.5]]))).all()  # moments there are undefined


def _collapse(x):
    """Degenerate map (x1, x1, x3): both planar tangents are parallel."""
    x = np.asarray(x, float)
    return np.stack([x[..., 0], x[..., 0], x[..., 2]], axis=-1)


def _collapse_tangents(x_p):
    T = np.zeros(x_p.shape[:-1] + (3, 2))
    T[..., 0, 0] = 1.0
    T[..., 1, 0] = 1.0
    return T


# Physical frame of a film edge.  The library integrates the edge term as
# (J0 p_p) . n_param in parameter arc length; this frame is its independent
# reference: the flux of P = p1 t1 + p2 t2 through the physical edge.

_FRAME_TOL = 1e-12


@dataclass(frozen=True)
class BoundaryFrame:
    """Edge frame: outward co-normal, line Jacobian and normal."""

    conormal: np.ndarray       # (..., 3) unit, tangent to the surface, outward
    line_jacobian: np.ndarray  # (...,)  |d psi0 / ds| along the boundary curve
    normal: np.ndarray         # (..., 3) surface normal at the same points


def boundary_frame(pmap: ParametricMap, edge: Edge, s: np.ndarray) -> BoundaryFrame:
    """Outward co-normal and line Jacobian at arc coordinates ``s`` of one edge.

    The co-normal is the unit tangent vector of the surface orthogonal to the
    boundary curve, pointing out of the film; the line Jacobian converts
    parameter arc length to physical arc length.
    """
    x_p = edge.points(np.asarray(s, float))
    normal = surface_frame(pmap, x_p).normal  # DegenerateFrame where the tangents are parallel
    T = pmap.tangents(x_p)
    tau = T[..., 1 - edge.axis]            # along the boundary curve
    outward = T[..., edge.axis]            # crosses the boundary
    sign = edge.normal[edge.axis]
    line_jac = np.linalg.norm(tau, axis=-1)
    tau_hat = tau / line_jac[..., None]
    n = sign * (outward - np.sum(outward * tau_hat, axis=-1)[..., None] * tau_hat)
    n_norm = np.linalg.norm(n, axis=-1)
    if np.any(n_norm <= _FRAME_TOL):
        raise DegenerateFrame("boundary co-normal degenerate (tangents parallel)")
    return BoundaryFrame(conormal=n / n_norm[..., None], line_jacobian=line_jac, normal=normal)


# Frobenius norm of D psi0 at x = (1, 1), its largest on UNIT; it bounds the spectral norm
SHEARED_LIPSCHITZ = math.sqrt(1.0 + 0.25 + 0.2**2 + 1.0 + 0.3**2 + 0.3**2)


def _sheared(x):
    x = np.asarray(x, float)
    return np.stack(
        [x[..., 0] + 0.5 * x[..., 1], x[..., 1] + 0.1 * x[..., 0] ** 2, 0.3 * x[..., 0] * x[..., 1] + x[..., 2]],
        axis=-1,
    )


def _sheared_tangents(x_p):
    T = np.zeros(x_p.shape[:-1] + (3, 2))
    T[..., 0, 0] = 1.0
    T[..., 0, 1] = 0.5
    T[..., 1, 0] = 0.2 * x_p[..., 0]
    T[..., 1, 1] = 1.0
    T[..., 2, 0] = 0.3 * x_p[..., 1]
    T[..., 2, 1] = 0.3 * x_p[..., 0]
    return T


class TestBoundaryFrame:
    @pytest.mark.parametrize(
        "edge_name,expected",
        [("right", [1.0, 0.0, 0.0]), ("top", [0.0, 1.0, 0.0]), ("left", [-1.0, 0.0, 0.0]), ("bottom", [0.0, -1.0, 0.0])],
    )
    def test_identity_conormals(self, identity, edge_name, expected):
        edge = {e.name: e for e in UNIT.edges()}[edge_name]
        bf = boundary_frame(identity, edge, np.array([0.5]))
        np.testing.assert_allclose(bf.conormal[0], expected, atol=1e-15)
        assert bf.line_jacobian[0] == pytest.approx(1.0)

    def test_cylinder_edge_azimuthal(self, cylinder):
        edge = {e.name: e for e in UNIT.edges()}["right"]
        bf = boundary_frame(cylinder, edge, np.array([0.3]))
        ang = 1.0 / 2.0  # x1 / R at the right edge
        np.testing.assert_allclose(bf.conormal[0], [-math.sin(ang), math.cos(ang), 0.0], atol=1e-12)

    def test_orthogonality_invariants(self, cylinder):
        s = np.linspace(0.05, 0.95, 13)
        for edge in UNIT.edges():
            bf = boundary_frame(cylinder, edge, s)
            tau = cylinder.tangents(edge.points(s))[..., 1 - edge.axis]
            assert np.max(np.abs(np.sum(bf.conormal * bf.normal, axis=-1))) < 1e-10
            assert np.max(np.abs(np.sum(bf.conormal * tau, axis=-1))) < 1e-10

    def test_degenerate_raises(self):
        collapse = ParametricMap(UNIT, _collapse, _collapse_tangents, lipschitz=math.sqrt(2.0))
        with pytest.raises(DegenerateFrame):
            boundary_frame(collapse, UNIT.edges()[0], np.array([0.5]))

    @pytest.mark.parametrize(
        "pmap",
        [
            ParametricMap.identity(UNIT),
            ParametricMap.scaled(UNIT, (2.0, 1.0, 1.0)),
            ParametricMap.cylinder(UNIT, 2.0),
            ParametricMap(UNIT, _sheared, _sheared_tangents, lipschitz=SHEARED_LIPSCHITZ),
        ],
        ids=["identity", "scaled", "cylinder", "sheared"],
    )
    def test_edge_term_is_conormal_flux(self, pmap):
        """(J0 p_p) . n_param, the integrand of the homogenized edge term, is the
        physical flux (P . conormal) * line Jacobian of P = p1 t1 + p2 t2."""

        def p_field(x):
            x = np.asarray(x, float)
            return np.stack([1.0 + 0.3 * x[..., 0], -0.7 + 0.2 * x[..., 1]], axis=-1)

        fields = prescribed_fields(pmap, p_p=p_field)
        s = np.linspace(0.05, 0.95, 11)
        for edge in UNIT.edges():
            x = edge.points(s)
            lhs = fields.pol_planar_weighted(x) @ np.asarray(edge.normal, float)
            bf = boundary_frame(pmap, edge, s)
            p, T = p_field(x), pmap.tangents(x)
            P = p[:, :1] * T[..., 0] + p[:, 1:] * T[..., 1]
            rhs = np.sum(P * bf.conormal, axis=-1) * bf.line_jacobian
            np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-14)


class TestSurfaceDivergence:
    def test_constant_field_flat(self, identity):
        div = surface_divergence_term(identity, lambda x: np.broadcast_to([0.3, -0.7], np.asarray(x).shape[:-1] + (2,)), np.array([0.5, 0.5]))
        assert div == pytest.approx(0.0, abs=1e-9)

    def test_linear_field_flat(self, identity):
        def field(x):
            x = np.asarray(x, float)
            out = np.zeros(x.shape[:-1] + (2,))
            out[..., 0] = x[..., 0]
            return out

        assert surface_divergence_term(identity, field, np.array([0.3, 0.6])) == pytest.approx(1.0, abs=1e-8)

    def test_cylinder_constant_field_matches_fd(self, cylinder):
        def field(x):
            return np.broadcast_to([1.0, 0.0], np.asarray(x).shape[:-1] + (2,)).copy()

        val = surface_divergence_term(cylinder, field, np.array([0.5, 0.5]))
        assert val == pytest.approx(0.0, abs=1e-6)  # J0 constant on the isometric cylinder


class TestValidation:
    def test_cylinder_wrapping_past_a_turn_is_rejected(self):
        # radius 0.1 over a unit-wide domain wraps 10 rad, about 1.6 turns
        with pytest.raises(ValueError, match="overlaps itself"):
            ParametricMap.cylinder(UNIT, 0.1)

    def test_cylinder_just_under_a_turn_is_valid(self):
        R = 0.5
        width = R * (2.0 * math.pi - 1e-9)
        ParametricMap.cylinder(Rectangle((0.0, 0.0), (width, 1.0)), R)

    @pytest.mark.parametrize(
        "factors",
        [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (math.inf, 1.0, 1.0), (1.0, 1.0)],
        ids=["a1-zero", "a2-zero", "a3-zero", "a1-inf", "two-factors"],
    )
    def test_scaled_needs_three_finite_nonzero_factors(self, factors):
        with pytest.raises(ValueError, match="three finite, non-zero factors"):
            ParametricMap.scaled(UNIT, factors)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_cylinder_radius_must_be_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            ParametricMap.cylinder(UNIT, radius)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.inf, math.nan])
    def test_polar_disk_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="polar disk radius must be finite and positive"):
            ParametricMap.polar_disk(radius)

    @pytest.mark.parametrize("h_max", [0.0, -1.0, 2.5, math.inf, math.nan])
    def test_cylinder_h_max_within_the_radius(self, h_max):
        # r = R + x3 > 0 on the open slab |x3| < h_max needs 0 < h_max <= R
        with pytest.raises(ValueError, match="h_max"):
            ParametricMap.cylinder(UNIT, 2.0, h_max)

    def test_cylinder_h_max_may_reach_the_radius(self):
        assert ParametricMap.cylinder(UNIT, 2.0, 2.0).h_max == 2.0


class TestLipschitz:
    @pytest.mark.parametrize(
        "make_map,expected",
        [
            (lambda: ParametricMap.identity(UNIT), 1.0),
            (lambda: ParametricMap.scaled(UNIT, (1.7, -0.3, 1.0)), 1.7),
            (lambda: ParametricMap.cylinder(UNIT, 2.0), 1.0),
            (lambda: ParametricMap.polar_disk(1.5), 1.5),
            (lambda: ParametricMap.polar_disk(0.5), 1.0),
            (lambda: ParametricMap(UNIT, _sheared, _sheared_tangents, lipschitz=SHEARED_LIPSCHITZ), None),
        ],
        ids=["identity", "scaled", "cylinder", "disk", "small-disk", "sheared"],
    )
    def test_bound_covers_the_spectral_norm(self, make_map, expected):
        pmap = make_map()
        x_p = np.vstack([pmap.domain.corners(), sample(pmap.domain, 500, np.random.default_rng(9))])
        largest = np.linalg.norm(pmap.tangents(x_p), ord=2, axis=(-2, -1)).max()
        assert largest <= pmap.lipschitz * (1 + 1e-15)
        if expected is not None:  # the factories' closed forms are attained, at a corner for the disk
            assert pmap.lipschitz == expected
            assert largest == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "make_map",
        [
            lambda: ParametricMap.identity(UNIT),
            lambda: ParametricMap.scaled(UNIT, (1.7, -0.3, 1.0)),
            lambda: ParametricMap.cylinder(UNIT, 2.0),
            lambda: ParametricMap.polar_disk(1.5),
            lambda: ParametricMap(UNIT, _sheared, _sheared_tangents, lipschitz=SHEARED_LIPSCHITZ),
        ],
        ids=["identity", "scaled", "cylinder", "disk", "sheared"],
    )
    def test_cell_bounds_cover_each_axis(self, make_map):
        # |D psi0(x) v| <= |(L1 v1, L2 v2)| on random boxes, including boxes
        # on the disk's polar axis, where the angular bound goes to zero
        pmap = make_map()
        rng = np.random.default_rng(4)
        a, b = sample(pmap.domain, 400, rng), sample(pmap.domain, 400, rng)
        a[:100, 0] = pmap.domain.lo[0]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        hi[:50] = lo[:50] + 1e-6 * (hi[:50] - lo[:50])
        L = pmap.cell_bounds(lo, hi)
        x_p = lo + rng.random(lo.shape) * (hi - lo)
        largest = np.linalg.norm(pmap.tangents(x_p) / L[:, None, :], ord=2, axis=(-2, -1)).max()
        assert L.shape == (400, 2)
        assert largest <= 1 + 1e-15

    def test_direct_construction_needs_a_bound(self):
        with pytest.raises(TypeError):
            ParametricMap(UNIT, _collapse, _collapse_tangents)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bound_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="lipschitz"):
            ParametricMap(UNIT, _sheared, _sheared_tangents, lipschitz=bad)
